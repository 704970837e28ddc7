"""Output checks that need no stored reference, so every seed can be checked.

Each check returns a list of failure messages; an empty list means the run
passed.  The expected headers, keys and tolerances are pinned here rather
than imported from the package, so a change to the package cannot move the
bar it is measured against.

* Hybrid runs are held to the README promises at tol = 1e-9, t_end <= 100:
  cross-site OTOC <= 1e-10, per-step recorded norm and unitarity defects
  <= 1e-10, separability <= 7e-9 and, for autonomous runs, relative energy
  drift <= 5e-7.  The defects of interpolated output samples (recorded as
  ``max_output_*``) are not covered by that promise and are not checked.
* Quantum rows are re-derived here from the closed forms of the effective
  model and must match within ``CROSS_CHECK_TOL``, with two exceptions set
  by conditioning rather than by the program.  The Bell start has
  concurrence exactly 1, so the spin-flip spectrum the Wootters formula
  takes square roots of is (1, 0, 0, 0); rounding leaves its zeros at a few
  ulps, whose roots are ~1e-8.  ``concurrence`` is therefore held to
  ``WOOTTERS_TOL``, and ``gme`` = (1 - sqrt(1 - c)) / 2, whose slope is
  infinite at c = 1, is checked against the ``concurrence`` column it is
  computed from.
* Every output file has the pinned CSV header or JSON keys and the row count
  implied by t_end and dt_out.
"""

from __future__ import annotations

import csv
import json
import math
import sys

HYBRID_HEADER = ("t", "x1", "v1", "x2", "v2", "s1x", "s1y", "s1z",
                 "s2x", "s2y", "s2z", "otoc", "two_point_re", "two_point_im",
                 "h0", "h_nv", "v_int")
QUANTUM_HEADER = ("t", "n", "otoc", "thermal_otoc", "thermal_concurrence",
                  "concurrence", "gme")
JSON_KEYS = {"config_text", "kind", "records", "diagnostics"}
HYBRID_DIAGNOSTICS_KEYS = {
    "regime", "n_steps", "n_rejected", "max_step_norm_drift", "cum_norm_drift",
    "max_step_unitarity_defect", "cum_unitarity_defect", "max_output_norm_drift",
    "max_output_unitarity_defect", "max_separability_defect"}

OTOC_LIMIT = 1e-10
DEFECT_LIMIT = 1e-10
SEPARABILITY_LIMIT = 7e-9
ENERGY_DRIFT_LIMIT = 5e-7
CROSS_CHECK_TOL = 1e-10
WOOTTERS_TOL = 3 * math.sqrt(16 * sys.float_info.epsilon)   # three roots of ~16-ulp zeros
HYBRID_DT_OUT = 0.05   # the package's sampling interval for hybrid runs without dt_out


def expected_rows(cfg) -> int:
    """Rows per run (per photon number for quantum runs); quantum configs
    of the benchmark always set dt_out."""
    if cfg.t_end == 0:
        return 1
    dt = cfg.dt_out if cfg.dt_out is not None else HYBRID_DT_OUT
    return max(1, round(cfg.t_end / dt)) + 1


def read_table(path: str, fmt: str, kind: str) -> tuple[list[dict[str, float]], list[str]]:
    """Parse an output file into float records; returns (records, failures)."""
    header = HYBRID_HEADER if kind == "hybrid" else QUANTUM_HEADER
    failures = []
    with open(path, encoding="ascii") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            first = next(reader, [])
            if tuple(first) != header:
                return [], [f"{path}: CSV header {first} differs from the pinned header"]
            records = [dict(zip(header, map(float, row))) for row in reader]
        else:
            payload = json.load(fh)
            if set(payload) != JSON_KEYS:
                return [], [f"{path}: JSON keys {sorted(payload)} differ from {sorted(JSON_KEYS)}"]
            if kind == "hybrid" and set(payload["diagnostics"]) != HYBRID_DIAGNOSTICS_KEYS:
                failures.append(f"{path}: diagnostics keys {sorted(payload['diagnostics'])} "
                                f"differ from the pinned set")
            records = payload["records"]
            if any(tuple(rec) != header for rec in records):
                failures.append(f"{path}: a JSON record's keys differ from the pinned header")
    if any(not math.isfinite(v) for rec in records for v in rec.values()):
        failures.append(f"{path}: non-finite value in the output")
    return records, failures


def check_hybrid(cfg, result, records: list[dict[str, float]], energy_drift: float) -> list[str]:
    failures = []
    d = result.diagnostics
    otoc = max(abs(rec["otoc"]) for rec in records)
    if otoc > OTOC_LIMIT:
        failures.append(f"cross-site OTOC {otoc:.3e} > {OTOC_LIMIT:.0e}")
    for key in ("max_step_norm_drift", "max_step_unitarity_defect"):
        if d[key] > DEFECT_LIMIT:
            failures.append(f"{key} {d[key]:.3e} > {DEFECT_LIMIT:.0e}")
    if d["max_separability_defect"] > SEPARABILITY_LIMIT:
        failures.append(f"separability defect {d['max_separability_defect']:.3e} "
                        f"> {SEPARABILITY_LIMIT:.0e}")
    if d["regime"].startswith("autonomous") and energy_drift > ENERGY_DRIFT_LIMIT:
        failures.append(f"autonomous energy drift {energy_drift:.3e} > {ENERGY_DRIFT_LIMIT:.0e}")
    return failures


def quantum_closed_forms(cfg, n: float, t: float) -> dict[str, float]:
    """Every quantum column at (n, t) for a Bell (|01> - |10>)/sqrt(2) start,
    from the closed forms of the effective two-spin model."""
    Omega0 = cfg.q_g**2 / (cfg.q_omega0 - cfg.q_omega)
    Omega_n = Omega0 / (2 * n + 1)
    zeeman = Omega0 + cfg.q_omega0 / (2 * n + 1)
    beta = 1.0 / cfg.temperature if cfg.temperature is not None else cfg.beta
    a = math.cosh(2 * beta * zeeman)
    b = math.cosh(beta * Omega_n)
    Z = 2 * a + 2 * b
    # The Bell start is an energy eigenstate (E = -Omega_n), so its
    # concurrence stays 1.
    return {
        "t": t,
        "n": n,
        "otoc": 1.0 - math.cos(4 * Omega_n * t),
        "thermal_otoc": 1.0 - (a + math.cos(4 * Omega_n * t) * b) / (a + b),
        "thermal_concurrence": 2.0 * max(0.0, (abs(math.sinh(beta * Omega_n)) - 1.0) / Z),
        "concurrence": 1.0,
    }


def check_quantum(cfg, records: list[dict[str, float]]) -> list[str]:
    if cfg.state != "phi_minus":
        return [f"closed forms cover the phi_minus start only, got state {cfg.state!r}"]
    per_n = expected_rows(cfg)
    n_out = per_n - 1
    worst: dict[str, tuple[float, str]] = {}
    for i, rec in enumerate(records):
        n = cfg.n_values[i // per_n]
        t = cfg.t_end * (i % per_n) / n_out
        want = quantum_closed_forms(cfg, n, t)
        want["gme"] = 0.5 * (1.0 - math.sqrt(1.0 - min(1.0, max(0.0, rec["concurrence"]))))
        for column, value in want.items():
            err = abs(rec[column] - value) / (max(1.0, abs(value)) if column == "t" else 1.0)
            if err > worst.get(column, (-1.0,))[0]:
                worst[column] = (err, f"row {i} column {column}: {rec[column]!r} vs {value!r}")
    failures = []
    for column, (err, where) in worst.items():
        tol = WOOTTERS_TOL if column == "concurrence" else CROSS_CHECK_TOL
        if err > tol:
            failures.append(f"{where} (|diff| {err:.3e} > {tol:.1e})")
    return failures


def check_run(cfg, result, path: str, energy_drift: float | None) -> list[str]:
    """All checks of one run and its output file."""
    records, failures = read_table(path, cfg.out_format, cfg.kind)
    want = expected_rows(cfg) * (len(cfg.n_values) if cfg.kind == "quantum" else 1)
    if len(records) != want:
        return failures + [f"{path}: {len(records)} rows, expected {want}"]
    if cfg.kind == "hybrid":
        return failures + check_hybrid(cfg, result, records, energy_drift)
    return failures + check_quantum(cfg, records)
