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

import numpy as np

from . import quantum_channel as qc
from .config import (ConfigError, ScenarioConfig, render_config, resolve_field, _float,
                     _float_list)
from .hybrid_dynamics import HybridState, Regime, TimeSeries, integrate
from .spin_algebra import _dagger, expm_hermitian

__all__ = ["RunResult", "run_scenario", "sweep", "write_output",
           "HYBRID_CSV_HEADER", "QUANTUM_CSV_HEADER"]

HYBRID_CSV_HEADER = ("t", "x1", "v1", "x2", "v2", "s1x", "s1y", "s1z",
                     "s2x", "s2y", "s2z", "otoc", "two_point_re", "two_point_im",
                     "h0", "h_nv", "v_int")
QUANTUM_CSV_HEADER = ("t", "n", "otoc", "thermal_otoc", "thermal_concurrence",
                      "concurrence", "gme")


@dataclass
class RunResult:
    """A finished run: the echoed configuration, its records, integrator
    diagnostics, and wall time."""

    config: ScenarioConfig
    kind: str
    series: TimeSeries | None
    qtable: dict[str, np.ndarray] | None
    diagnostics: dict
    wall_time_s: float

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
    n_out = max(1, round(cfg.t_end / cfg.resolved_dt_out())) if cfg.t_end > 0 else 0
    ts = np.linspace(0.0, cfg.t_end, n_out + 1)
    psi0 = cfg.initial_spin_state()
    rho0 = np.outer(psi0, psi0.conj())

    parts = []
    for n in cfg.n_values:
        p = cfg.quantum_params(n)
        # one propagator per photon number: every column and cross-check uses it
        U = expm_hermitian(qc.h_total(p), ts)
        c = qc.concurrence(U @ rho0 @ _dagger(U))
        parts.append((ts, np.full(ts.size, n), qc.otoc_numeric(p, ts, psi0, U=U),
                      qc.thermal_otoc(p, ts, U=U), qc.thermal_concurrence(p, ts, U=U),
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
    return RunResult(config=cfg, kind=cfg.kind, series=series, qtable=qtable,
                     diagnostics=diagnostics, wall_time_s=time.perf_counter() - start)


def sweep(cfg: ScenarioConfig, parameter: str, values: list[float]) -> list[RunResult]:
    """Run the scenario once per value of a numeric config field.

    Results preserve the order of ``values``; runs are independent (a run
    failure propagates with the offending value named).
    """
    attr, caster = resolve_field(parameter)
    if caster not in (_float, _float_list):
        raise ConfigError(f"{parameter!r} is not a numeric field")
    results = []
    for value in values:
        if not isinstance(value, (int, float)):
            raise ConfigError(f"sweep values must be numbers, got {value!r}")
        if attr == "n_values":
            swept = dataclasses.replace(cfg, n_values=(float(value),))
        else:
            swept = dataclasses.replace(cfg, **{attr: float(value)})
        # a K sweep overrides any preset D and vice versa
        if attr == "K":
            swept = dataclasses.replace(swept, D=None)
        elif attr == "D":
            swept = dataclasses.replace(swept, K=None)
        try:
            results.append(run_scenario(swept.validate()))
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"while sweeping {parameter} = {value}")
            raise
    return results


def _columns(result: RunResult) -> list[np.ndarray]:
    """The output columns of a run, in the order of its CSV header."""
    if result.kind != "hybrid":
        return [result.qtable[name] for name in QUANTUM_CSV_HEADER]
    s = result.series
    return [s.t, s.x1, s.v1, s.x2, s.v2, s.s1x, s.s1y, s.s1z, s.s2x, s.s2y, s.s2z,
            s.otoc, s.two_point.real, s.two_point.imag, s.h0, s.h_nv, s.v_int]


def write_output(result: RunResult, fmt: str, path: str) -> None:
    """Serialize a run to CSV (pinned header, 17 significant digits) or JSON
    (same records plus configuration echo and diagnostics)."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    header = HYBRID_CSV_HEADER if result.kind == "hybrid" else QUANTUM_CSV_HEADER
    # Python floats, so that % and json format them without a numpy scalar
    # round trip
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in _columns(result)))
    if fmt == "csv":
        row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row_fmt % row for row in rows)
        return
    payload = {
        "config_text": result.config_text,
        "kind": result.kind,
        "records": [dict(zip(header, row)) for row in rows],
        "diagnostics": result.diagnostics,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
