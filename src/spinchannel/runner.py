"""Scenario execution: dispatch, sweeps, and CSV/JSON serialization.

A hybrid run produces the trajectory TimeSeries; a quantum run produces a
correlator table over the configured photon numbers.  Outputs are
deterministic for a fixed configuration (no randomness, fixed formats);
wall time is reported on the in-memory result only, never serialized.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import correlators
from . import quantum_channel as qc
from .config import ConfigError, ScenarioConfig, apply_overrides, render_config, resolve_field
from .hybrid_dynamics import HybridState, Regime, TimeSeries, _grid_intervals, integrate
from .spin_algebra import _S1Z, _rdot, expm_hermitian

__all__ = ["RunResult", "run_scenario", "sweep", "write_output",
           "HYBRID_CSV_HEADER", "QUANTUM_CSV_HEADER"]

HYBRID_CSV_HEADER = ("t", "x1", "v1", "x2", "v2", "s1x", "s1y", "s1z",
                     "s2x", "s2y", "s2z", "otoc", "two_point_re", "two_point_im",
                     "h0", "h_nv", "v_int")
QUANTUM_CSV_HEADER = ("t", "n", "otoc", "thermal_otoc", "thermal_concurrence",
                      "concurrence", "gme")
CSV_BLOCK_ROWS = 1024   # rows formatted by one '%' in write_output


@dataclass
class RunResult:
    """A finished run: the echoed configuration, its records, integrator
    diagnostics, and wall time."""

    config: ScenarioConfig
    series: TimeSeries | None
    qtable: dict[str, np.ndarray] | None
    diagnostics: dict
    wall_time_s: float

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def config_text(self) -> str:
        return render_config(self.config)


def _run_hybrid(cfg: ScenarioConfig) -> tuple[TimeSeries, dict]:
    sp = cfg.spin_params()
    op = cfg.osc_params()
    initial = HybridState(t=0.0, x1=cfg.x1, v1=cfg.v1, x2=cfg.x2, v2=cfg.v2,
                          psi=cfg.initial_spin_state())
    series = integrate(initial, op, sp, t_end=cfg.t_end, dt_out=cfg.resolved_dt_out(),
                       tol=cfg.tol)
    diagnostics = {"regime": Regime.classify(op).value,
                   **dataclasses.asdict(series.diagnostics),
                   "max_separability_defect": float(series.sep_defect.max())}
    return series, diagnostics


def _run_quantum(cfg: ScenarioConfig) -> tuple[dict[str, np.ndarray], dict]:
    ts = np.linspace(0.0, cfg.t_end, _grid_intervals(cfg.t_end, cfg.resolved_dt_out()) + 1)
    psi0 = cfg.initial_spin_state()

    parts = []
    for n in cfg.n_values:
        p = cfg.quantum_params(n)
        # one propagator per photon number: every column and cross-check uses it,
        # and both OTOCs share its one sigma1_z(t) = U^dag sigma1_z U
        U = expm_hermitian(qc.h_total(p), ts)
        s1z_t = correlators._heisenberg(U, _S1Z)
        c = qc._pure_concurrence(_rdot(U, psi0))  # psi(t) = U psi0 stays pure
        parts.append((ts, np.full(ts.size, n), qc.otoc_numeric(p, ts, psi0, U=U, s1z_t=s1z_t),
                      qc.thermal_otoc(p, ts, s1z_t=s1z_t), qc.thermal_concurrence(p, ts, U=U),
                      c, qc.gme(c)))
    table = {name: np.concatenate(col) for name, col in zip(QUANTUM_CSV_HEADER, zip(*parts))}
    diagnostics = {"n_values": list(cfg.n_values), "samples_per_n": int(ts.size)}
    return table, diagnostics


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one validated configuration deterministically."""
    cfg.validate()
    start = time.perf_counter()
    if cfg.kind == "hybrid":
        series, diagnostics = _run_hybrid(cfg)
        qtable = None
    else:
        qtable, diagnostics = _run_quantum(cfg)
        series = None
    return RunResult(config=cfg, series=series, qtable=qtable,
                     diagnostics=diagnostics, wall_time_s=time.perf_counter() - start)


def sweep(cfg: ScenarioConfig, parameter: str, values: list[float]) -> list[RunResult]:
    """Run the scenario once per value of a numeric config field.

    Results preserve the order of ``values``; runs are independent (a run
    failure propagates with the offending value named).  A field that a run
    of ``cfg`` does not read is rejected before any run.
    """
    attr, caster = resolve_field(parameter)
    if caster is str:
        raise ConfigError(f"{parameter!r} is not a numeric field")
    cfg.check_read(attr)
    results = []
    for value in values:
        if not isinstance(value, (int, float)):
            raise ConfigError(f"sweep values must be numbers, got {value!r}")
        try:
            # the field's own caster: a list field gets its tuple, a finite
            # float keeps its bits through repr, and a non-finite one fails
            swept = apply_overrides(cfg, {attr: caster(repr(float(value)))})
            results.append(run_scenario(swept))
        except Exception as exc:
            # add_note's list, written directly: Python 3.10 has no add_note
            note = f"while sweeping {parameter} = {value}"
            exc.__notes__ = [*getattr(exc, "__notes__", []), note]
            raise
    return results


def _columns(result: RunResult) -> list[np.ndarray]:
    """The output columns of a run, in the order of its CSV header."""
    if result.kind != "hybrid":
        return [result.qtable[name] for name in QUANTUM_CSV_HEADER]
    s = result.series
    return [s.t, s.x1, s.v1, s.x2, s.v2, s.s1x, s.s1y, s.s1z, s.s2x, s.s2y, s.s2z,
            s.otoc, s.two_point.real, s.two_point.imag, s.h0, s.h_nv, s.v_int]


def _csv_cells(col: np.ndarray) -> tuple[str, list]:
    """The row-format slot and the cells of one CSV column.

    A column whose distinct values are at most half its length (the time
    grid and the per-n constants of a quantum table) formats each distinct
    value once with '%.17g' and fills a '%s' slot with the strings; any
    other column is formatted per cell, which costs less there than the
    memo's unique, gather and '%s' pass.  The bytes are the same either way.
    Values are told apart by their bits, not by ==, because '%.17g' writes
    0.0 and -0.0 differently.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if 2 * bits.size > col.size:
        return "%.17g", col.tolist()
    texts = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return "%s", texts[inverse].tolist()


def write_output(result: RunResult, fmt: str, path: str) -> None:
    """Serialize a run to CSV (pinned header, each cell '%.17g') or JSON
    (same records plus configuration echo and diagnostics).  CSV rows are
    formatted CSV_BLOCK_ROWS at a time by one '%' of the repeated row format:
    the bytes of one '%' per row, without a string of the whole file."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    header = HYBRID_CSV_HEADER if result.kind == "hybrid" else QUANTUM_CSV_HEADER
    columns = [np.asarray(c, dtype=float) for c in _columns(result)]
    if fmt == "csv":
        slots, cells = zip(*map(_csv_cells, columns))
        row_fmt = ",".join(slots) + "\n"
        rows = zip(*cells)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(header) + "\n")
            while block := tuple(chain.from_iterable(islice(rows, CSV_BLOCK_ROWS))):
                fh.write(row_fmt * (len(block) // len(slots)) % block)
        return
    # Python floats, so that json formats them without a numpy scalar round trip
    rows = zip(*(c.tolist() for c in columns))
    payload = {
        "config_text": result.config_text,
        "kind": result.kind,
        "records": [dict(zip(header, row)) for row in rows],
        "diagnostics": result.diagnostics,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
