"""Outside-in benchmark of spinchannel: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, both modes

Run it from the root of a checkout; it imports the package from ``src``.
Each pass of a workload runs in a fresh single-threaded process
(``one_pass.py``); passes repeat until ``--seconds`` are used up (at least
three).  Nothing runs in parallel.  ``BENCHMARK.json`` lists two of the
four workloads, ``k_sweep`` and ``quantum_thermal``, which between them
enter every layer: its time budget allows 60-second runs for two
workloads but under 35 s for four, and longer runs are steadier on a
shared host (see below).  ``hybrid_steps`` and ``hybrid_samples`` stay
available by name and in ``all``.

End-to-end metrics (``--trace 0``):

    wall_s        one pass, from validated config to output files written,
                  rescaled to the reference speed (below); mean over the
                  run's untraced passes
    rows_per_s    output rows written per rescaled wall second
    setup_s       import spinchannel and build and validate the configs;
                  median over set-up-only processes and all passes
    peak_rss_mb   peak resident memory of the pass process; median of passes

Rescaling.  On a shared host the speed of a single-threaded process changes
by up to 2x, over seconds and over minutes, with the load of neighbouring
machines, so a whole 60-second run can be slow.  Each pass therefore times
a fixed reference loop of small numpy calls for 0.4 s right before and
right after its timed region.  ``wall_s`` is the run's mean pass wall time
times ``REF_ITERATION_S`` over the run's mean time per loop iteration: the
time a pass would take on a host where the loop runs at 4 us per iteration,
as on an unloaded 2.1 GHz Intel Xeon vCPU.  The loop never calls the
package, so a change to the package moves ``wall_s`` as it moves the
unscaled time on a quiet host.  Over ten 60-second runs (seeds 0-9) on a
2-vCPU Xeon virtual machine, the spread (interquartile range over median)
of this figure was 0.04 on k_sweep and 0.08 on quantum_thermal, against
0.13-0.17 for the fastest unscaled pass of each run and 0.12-0.24 for the
median one.  The unscaled minimum, median and maximum are printed too.

Also printed, outside the result line: ``energy_drift_rel`` (largest
relative drift of the conserved energy over a pass's hybrid runs, from
``energy_budget``; also a per-layer metric) and ``failed_frac``
(failed / attempted runs, which the result line carries as counts).

Per-layer metrics (``--trace 1``) come from traced passes, interleaved with
untraced ones; the breakdown of the traced pass fastest at reference speed
is reported, with its times unscaled.  Times named ``*_s`` are self times
(span duration minus child spans) except ``hybrid_dynamics.integrate_s``
and ``trace.wall_s``, which are inclusive.  The self times plus
``trace.unattributed_s`` add up to ``trace.wall_s``.
``trace.overhead_frac`` is the spans recorded times the cost of one traced
call (timed on a no-op in the same process), over the traced wall time
without that cost: the difference between traced and untraced passes is
swamped by the host's noise.  Metrics of a layer a workload never enters
read 0.

Every pass checks its outputs (see ``checks.py``).  Across the passes of a
run, output files must be byte-identical and the work counters (steps,
rejected steps, rows, bytes; traced: rhs evaluations, ``replace_state`` and
``expm_hermitian`` calls) must be equal.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Machine info, per-pass records and spans go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("hybrid_steps", "hybrid_samples", "k_sweep", "quantum_thermal")

END_TO_END = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics put on the result line.  Layer times that read exactly 0
# on a workload that never enters the layer are printed but left out.
PER_LAYER = {
    "dp45.steps": "count", "dp45.rejected": "count", "dp45.accept_ratio": "ratio",
    "dp45.interpolate_calls": "count", "dp45.replace_state_calls": "count",
    "dp45.projected_frac": "ratio",
    "hybrid_dynamics.rhs_evals": "count", "hybrid_dynamics.rhs_per_step": "ratio",
    "correlators.otoc_product_calls": "count", "correlators.otoc_product_s": "s",
    "quantum_channel.thermal_otoc_calls": "count",
    "quantum_channel.thermal_concurrence_calls": "count",
    "quantum_channel.otoc_numeric_calls": "count",
    "quantum_channel.concurrence_calls": "count",
    "quantum_channel.thermal_density_calls": "count",
    "spin_algebra.expm_hermitian_calls": "count", "spin_algebra.expm_per_row": "ratio",
    "runner.run_scenario_s": "s", "runner.write_output_s": "s",
    "runner.rows_out": "count", "runner.bytes_out": "bytes",
    "energy_drift_rel": "ratio",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio",
}
PRINTED_ONLY = {
    "dp45.step_self_s": "s", "dp45.us_per_step": "us", "dp45.interpolate_s": "s",
    "dp45.replace_state_s": "s",
    "hybrid_dynamics.rhs_s": "s", "hybrid_dynamics.integrate_s": "s",
    "hybrid_dynamics.integrate_self_s": "s", "hybrid_dynamics.self_us_per_row": "us",
    "quantum_channel.thermal_otoc_s": "s", "quantum_channel.thermal_concurrence_s": "s",
    "quantum_channel.otoc_numeric_s": "s", "quantum_channel.concurrence_s": "s",
    "quantum_channel.thermal_density_s": "s", "spin_algebra.expm_hermitian_s": "s",
    "runner.sweep_s": "s",
}
MIN_PASSES = 3
# Seconds per iteration of the reference loop in one_pass.py on an unloaded
# 2.1 GHz Intel Xeon vCPU; wall times are rescaled to a host this fast.
REF_ITERATION_S = 4.0e-6
SETUP_ONLY_SAMPLES = 4
RUN_DEADLINE_S = 165.0   # a pass still running then is killed; runs must end within 180 s


def machine_info(pass_record: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": pass_record["numpy_version"], "platform": platform.platform(),
            "thread_vars": pass_record["thread_vars"]}


def run_child(args: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run one_pass.py to completion or until the ``time.perf_counter()``
    deadline; returns (its record, error text)."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), *args]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass killed after {timeout:.0f} s at the run's deadline"
    if proc.returncode != 0:
        return None, (proc.stderr.strip() or proc.stdout.strip())[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds``; returns the result line plus details."""
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--out-dir", str(work)]
    deadline = time.perf_counter() + RUN_DEADLINE_S

    # The first set-up fills the bytecode cache and is not counted; the
    # others add set-up samples at a fraction of the cost of a pass.
    setups = []
    for _ in range(1 + SETUP_ONLY_SAMPLES):
        warm, error = run_child([*common, "--warmup"], deadline)
        if warm is None:
            raise SystemExit(f"perfbench: cannot set up {workload}: {error}")
        setups.append(warm["setup_s"])
    setups = setups[1:]
    runs_per_pass = warm["runs"]

    passes: list[dict] = []
    problems: list[str] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        record, error = run_child([*common, "--pass-id", str(len(passes)),
                                   *(["--trace"] if traced else [])], deadline)
        durations.append(time.perf_counter() - began)
        if record is None:
            record = {"runs": runs_per_pass, "failed_runs": runs_per_pass, "failures": [error]}
        record["traced"] = traced
        record["pass_id"] = len(passes)
        passes.append(record)
        if "wall_s" not in record:
            break
        elapsed = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES and (not trace or len(passes) >= 4)
        typical = median(durations)
        if enough and (elapsed + typical > seconds or time.perf_counter() + typical > deadline):
            break

    for p in passes:
        problems.extend(f"pass {p['pass_id']}: {msg}" for msg in p.get("failures", []))
    done = [p for p in passes if "sha256" in p]
    failed = sum(p["failed_runs"] for p in passes)
    for p in done[1:]:
        mismatch = []
        if p["sha256"] != done[0]["sha256"]:
            mismatch.append("output files differ from pass 0")
        for key, value in p["counters"].items():
            ref = next((q["counters"][key] for q in done if key in q["counters"]), value)
            if value != ref:
                mismatch.append(f"counter {key} = {value}, another pass has {ref}")
        if mismatch:
            problems.extend(f"pass {p['pass_id']}: {msg}" for msg in mismatch)
            failed += p["runs"] - p["failed_runs"]
    attempted = sum(p["runs"] for p in passes)

    plain = [p for p in done if not p["traced"]]
    traced_passes = [p for p in done if p["traced"]]
    if not plain or (trace and not traced_passes):
        raise SystemExit("perfbench: no pass completed:\n" + "\n".join(problems))
    rows = plain[0]["counters"]["rows"]
    for p in done:
        p["wall_at_ref_s"] = p["wall_s"] * REF_ITERATION_S / p["ref_iteration_s"]
    # the run's mean speed, from every reference timing, rescales its mean pass
    wall_s = (REF_ITERATION_S * sum(p["wall_s"] for p in plain)
              / sum(p["ref_iteration_s"] for p in plain))
    setups += [p["setup_s"] for p in passes if "setup_s" in p]
    e2e = {
        "wall_s": wall_s,
        "rows_per_s": rows / wall_s,
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    samples = {"wall_s": len(plain), "rows_per_s": len(plain), "setup_s": len(setups),
               "peak_rss_mb": len(plain)}
    layers = {}
    if trace:
        chosen = min(traced_passes, key=lambda p: p["wall_at_ref_s"])
        layers = dict(chosen["layers"])
        layers["energy_drift_rel"] = chosen["energy_drift_rel"] or 0.0

    wanted = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    details = {"workload": workload, "seed": seed, "trace": trace,
               "machine": machine_info(done[0]),
               "end_to_end": e2e, "samples": samples, "layers": layers, "problems": problems,
               "energy_drift_rel": plain[0]["energy_drift_rel"],
               "counters": {k: v for p in done for k, v in p["counters"].items()},
               "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
               "result": result}
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n", encoding="ascii")
    return details


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(d: dict) -> None:
    """Print every metric by name and unit, the counters and the checks."""
    m, r = d["machine"], d["result"]
    plain = [p for p in d["passes"] if not p["traced"] and "wall_s" in p]
    print(f"perfbench {d['workload']} seed={d['seed']} trace={int(d['trace'])}")
    print(f"  machine: nproc={m['nproc']} usable={m['cpus_usable']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} "
          + " ".join(f"{k}={v}" for k, v in m["thread_vars"].items()))
    print(f"  passes: {len(d['passes'])} ({sum(p['traced'] for p in d['passes'])} traced)")
    walls = [p["wall_s"] for p in plain]
    refs = [1e6 * p["ref_iteration_s"] for p in plain]
    print(f"  end to end (untraced passes; unscaled wall min {min(walls):.4g} median "
          f"{median(walls):.4g} max {max(walls):.4g} s; reference loop {min(refs):.3g}-"
          f"{max(refs):.3g} us per iteration):")
    for name, unit in END_TO_END.items():
        print(f"    {name:<38} {_fmt(d['end_to_end'][name]):>14} {unit:<6} "
              f"n={d['samples'][name]}")
    drift = d["energy_drift_rel"]
    print(f"    {'energy_drift_rel':<38} {'n/a' if drift is None else _fmt(drift):>14} ratio")
    print(f"    {'failed_frac':<38} {_fmt(r['failed'] / r['attempted']):>14} ratio "
          f"({r['failed']} of {r['attempted']} runs)")
    if d["layers"]:
        print("  per layer (traced pass fastest at reference speed; times unscaled):")
        for name, unit in {**PER_LAYER, **PRINTED_ONLY}.items():
            print(f"    {name:<38} {_fmt(d['layers'][name]):>14} {unit}")
    print("  counters (equal across passes): "
          + " ".join(f"{k}={v}" for k, v in d["counters"].items()))
    print("  checks: " + ("ok" if r["correct"] else "FAILED"))
    for problem in d["problems"]:
        print("    " + problem.replace("\n", "\n    "))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "spinchannel" / "__init__.py").is_file():
        print(f"perfbench: no spinchannel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(details)
        print(json.dumps(details["result"]))
        return 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            details = run_workload(workload, args.seed, args.seconds, trace)
            report(details)
            summary[f"{workload}/trace{int(trace)}"] = details["result"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
