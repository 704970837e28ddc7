"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/one_pass.py --workload NAME --seed N --pass-id K \
        --out-dir DIR [--trace]

``run.py`` starts this script once per pass.  The thread variables of the
BLAS and OpenMP runtimes are pinned to 1 before numpy loads.  The pass then

1. imports ``spinchannel`` from the checkout's ``src`` and builds and
   validates the workload's configs (``setup_s``);
2. optionally installs the outside-in tracer;
3. runs the workload and writes its output files (``wall_s``), and reads
   the peak resident memory; a reference loop is timed for 0.4 s right
   before and right after (``ref_iteration_s``);
4. checks every run's output, hashes the output files and deletes them.

With ``--warmup`` it stops after step 1; that fills the bytecode cache.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Span names whose self times, with trace.unattributed_s, add up to the
# traced wall time, and the metric each one is reported under.
SELF_TIME_METRICS = {
    "dp45.step": "dp45.step_self_s",
    "dp45.interpolate": "dp45.interpolate_s",
    "dp45.replace_state": "dp45.replace_state_s",
    "hybrid_dynamics.rhs": "hybrid_dynamics.rhs_s",
    "hybrid_dynamics.integrate": "hybrid_dynamics.integrate_self_s",
    "correlators.otoc_product": "correlators.otoc_product_s",
    "quantum_channel.thermal_otoc": "quantum_channel.thermal_otoc_s",
    "quantum_channel.thermal_concurrence": "quantum_channel.thermal_concurrence_s",
    "quantum_channel.otoc_numeric": "quantum_channel.otoc_numeric_s",
    "quantum_channel.concurrence": "quantum_channel.concurrence_s",
    "quantum_channel.thermal_density": "quantum_channel.thermal_density_s",
    "spin_algebra.expm_hermitian": "spin_algebra.expm_hermitian_s",
    "runner.run_scenario": "runner.run_scenario_s",
    "runner.sweep": "runner.sweep_s",
    "runner.write_output": "runner.write_output_s",
}
# Spans every pass of a workload kind must record; none seen means the tracer
# missed a binding.
EXPECTED_SPANS = {
    "hybrid": ("runner.run_scenario", "runner.write_output", "hybrid_dynamics.integrate",
               "hybrid_dynamics.rhs", "dp45.step", "dp45.interpolate",
               "correlators.otoc_product"),
    "quantum": ("runner.run_scenario", "runner.write_output", "correlators.otoc_product",
                "quantum_channel.thermal_otoc", "quantum_channel.thermal_concurrence",
                "quantum_channel.otoc_numeric", "quantum_channel.concurrence",
                "quantum_channel.thermal_density", "spin_algebra.expm_hermitian"),
}


def _import_package():
    """Import spinchannel from the checkout's src, never from elsewhere."""
    if not (SRC / "spinchannel" / "__init__.py").is_file():
        raise SystemExit(f"no spinchannel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinchannel
    if Path(spinchannel.__file__).resolve().parent != SRC / "spinchannel":
        raise SystemExit(f"spinchannel was imported from {spinchannel.__file__}, not {SRC}")
    return spinchannel


def layer_metrics(per_name: dict, roots_s: float, wall_s: float, counters: dict,
                  hybrid_rows: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass from the tracer's per-span summary."""
    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def total(name):
        return per_name.get(name, {}).get("total_s", 0.0)

    steps, rejected, rows = counters["steps"], counters["rejected"], counters["rows"]
    m = {metric: per_name.get(span, {}).get("self_s", 0.0)
         for span, metric in SELF_TIME_METRICS.items()}
    m.update({
        "dp45.steps": steps,
        "dp45.rejected": rejected,
        "dp45.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
        "dp45.us_per_step": 1e6 * total("dp45.step") / steps if steps else 0.0,
        "dp45.interpolate_calls": calls("dp45.interpolate"),
        "dp45.replace_state_calls": calls("dp45.replace_state"),
        "dp45.projected_frac": calls("dp45.replace_state") / steps if steps else 0.0,
        "hybrid_dynamics.rhs_evals": calls("hybrid_dynamics.rhs"),
        "hybrid_dynamics.rhs_per_step": calls("hybrid_dynamics.rhs") / steps if steps else 0.0,
        "hybrid_dynamics.integrate_s": total("hybrid_dynamics.integrate"),
        "hybrid_dynamics.self_us_per_row":
            1e6 * m["hybrid_dynamics.integrate_self_s"] / hybrid_rows if hybrid_rows else 0.0,
        "correlators.otoc_product_calls": calls("correlators.otoc_product"),
        "spin_algebra.expm_hermitian_calls": calls("spin_algebra.expm_hermitian"),
        "spin_algebra.expm_per_row": calls("spin_algebra.expm_hermitian") / rows,
        "runner.rows_out": rows,
        "runner.bytes_out": counters["bytes"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - roots_s,
    })
    for fn in ("thermal_otoc", "thermal_concurrence", "otoc_numeric", "concurrence",
               "thermal_density"):
        m[f"quantum_channel.{fn}_calls"] = calls(f"quantum_channel.{fn}")
    return m


def reference_iteration_s(seconds: float = 0.4) -> float:
    """Mean seconds per iteration of a fixed loop of small numpy calls (the
    kind of work the package does per step), run for ``seconds``.

    Timed right before and right after a pass, it tells how fast the host
    runs at that moment; it never calls the package.
    """
    import numpy as np
    a = np.arange(16.0).reshape(4, 4) / 16.0 + 0.5j * np.eye(4)
    v = np.ones(4, dtype=complex)
    iterations = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(200):
            v = a @ v
            v = v / np.linalg.norm(v)
        iterations += 200
    return (time.perf_counter() - start) / iterations


def run(args) -> dict:
    setup_start = time.perf_counter()
    spinchannel = _import_package()
    import workloads
    plan = workloads.build_plan(args.workload, args.seed)
    setup_s = time.perf_counter() - setup_start
    out = {"setup_s": setup_s, "runs": plan.n_runs,
           "numpy_version": sys.modules["numpy"].__version__,
           "thread_vars": {var: os.environ[var] for var in THREAD_VARS}}
    if args.warmup:
        return out

    import checks
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer, span_cost_s
        tracer = Tracer(args.pass_id)
        tracer.install()
    ref_before = reference_iteration_s()
    start = time.perf_counter()
    try:
        results = workloads.run_pass(plan, str(out_dir))
    except Exception:
        out.update(failed_runs=plan.n_runs, failures=[traceback.format_exc(limit=4)])
        return out
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ref_iteration_s"] = 0.5 * (ref_before + reference_iteration_s())

    paths = workloads.output_paths(plan, str(out_dir))
    digest = hashlib.sha256()
    failures, failed_runs, drifts = [], 0, []
    counters = {"steps": 0, "rejected": 0, "rows": 0, "bytes": 0}
    hybrid_rows = 0
    for cfg, result, path in zip(plan.run_configs(), results, paths):
        drift = None
        if result.kind == "hybrid":
            drift = spinchannel.energy_budget(result.series, cfg.spin_params(),
                                              cfg.osc_params()).max_total_drift_rel
            drifts.append(drift)
            counters["steps"] += result.diagnostics["n_steps"]
            counters["rejected"] += result.diagnostics["n_rejected"]
            hybrid_rows += len(result.series)
            rows = len(result.series)
        else:
            rows = int(result.qtable["t"].size)
        counters["rows"] += rows
        data = Path(path).read_bytes()
        counters["bytes"] += len(data)
        digest.update(data)
        run_failures = checks.check_run(cfg, result, path, drift)
        if run_failures:
            failed_runs += 1
            failures.extend(run_failures)
        os.remove(path)

    if tracer is not None:
        per_name, roots_s = tracer.summary()
        layers = layer_metrics(per_name, roots_s, wall_s, counters, hybrid_rows)
        overhead_s = len(tracer.spans) * span_cost_s()
        layers["trace.overhead_frac"] = overhead_s / (wall_s - overhead_s)
        for name in EXPECTED_SPANS[plan.config.kind]:
            if name not in per_name:
                failures.append(f"tracer recorded no {name} span")
        # step() is called once more per run than it advances: the last call
        # finds t_end reached
        step_calls = per_name.get("dp45.step", {}).get("calls", 0)
        if plan.config.kind == "hybrid" and step_calls != counters["steps"] + plan.n_runs:
            failures.append(f"tracer saw {step_calls} dp45.step calls, "
                            f"expected {counters['steps'] + plan.n_runs}")
        attributed = sum(layers[m] for m in SELF_TIME_METRICS.values())
        if abs(attributed + layers["trace.unattributed_s"] - wall_s) > 1e-6 * max(1.0, wall_s):
            failures.append(f"self times {attributed!r} + unattributed "
                            f"{layers['trace.unattributed_s']!r} != traced wall {wall_s!r}")
        if failures and not failed_runs:
            failed_runs = plan.n_runs
        tracer.write(str(out_dir / f"spans_pass{args.pass_id}.json"))
        out["layers"] = layers
        out["rebound"] = tracer.rebound
        counters.update(rhs_evals=layers["hybrid_dynamics.rhs_evals"],
                        replace_state_calls=layers["dp45.replace_state_calls"],
                        expm_calls=layers["spin_algebra.expm_hermitian_calls"])

    out.update(sha256=digest.hexdigest(), counters=counters, failed_runs=failed_runs,
               failures=failures, energy_drift_rel=max(drifts) if drifts else None)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
