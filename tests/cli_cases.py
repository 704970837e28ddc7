"""The command-line reproducers, each declared once, and their one checker.

    python tests/cli_cases.py OUTDIR

runs each case as ``python -W default -m spinchannel.cli`` in its own empty
directory ``OUTDIR/<name>`` (``{out}`` in its argv) under its time limit,
prints one ``PASS <name>`` or ``FAIL <name>: <reasons>`` line per case and per
``SAME_BYTES`` group, and exits 1 on any failure.  ``TestCli::test_cli_case``
runs the cases that set no environment variable in process through
``cli.main``.  Under ``-W default`` a warning is one more stderr line, which
both stderr rules reject.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STARTUP_S = 10.0  # a fresh interpreter's imports, on top of a case's time limit
CATEGORY = {2: "config", 3: "integration", 4: "io"}


@dataclass(frozen=True)
class Case:
    """One command line and its rules.

    Exit 0 requires an empty stderr.  Any other `code` requires stderr to be
    exactly one strict-JSON error object of that code's category, with the
    category's keys; `message` is its message, or the start of it where it
    ends in "...", and `locus` its exact t, h and err_norm (None is null).
    `files` maps each file the directory must hold, and no other, to its rows
    after the header, or to None for any; stdout must name each as written.
    """

    name: str
    argv: str
    why: str
    code: int = 0
    message: str | None = None
    locus: dict | None = None
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    timeout: float = 30.0

    def argv_in(self, outdir: Path) -> list[str]:
        return [arg.replace("{out}", str(outdir)) for arg in self.argv.split()]


AT_START = {"t": 0.0, "h": None, "err_norm": None}
RUN = {"run.csv": None}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


def _underivable(name: str, sets: str, message: str, why: str) -> Case:
    return Case(name, f"run --scenario {sets} --out {{out}}/run.csv",
                f"{why}; it now fails in validate, before anything is allocated", 2, message,
                timeout=1.0)


CASES = [
    *(Case(f"fig{n}", f"run --scenario fig{n} --t-end 1 --out {{out}}/run.csv",
           "every preset runs", files=RUN) for n in range(2, 9)),
    Case("fig2-D-on-K-preset", "run --scenario fig2 --set D=0.3 --t-end 1 --out {out}/run.csv",
         "D given on a K preset replaces the preset's K", files=RUN),
    Case("fig5-F-overflows-d1", "run --scenario fig5 --set F=1e300 --t-end 1 --out {out}/run.csv",
         "d1 overflows: a numpy warning, then 'ZeroDivisionError: float division by zero'",
         3, "integration failed at t = 0.0: FloatingPointError: non-finite first-derivative "
            "scale d1 = inf in the initial step size estimate at t = 0.0", AT_START),
    Case("fig2-nan-first-step", "run --scenario fig2 --set gamma=1e300 --set F=1 --set v1=1e10 "
         "--set xi=-1e300 --set x1=1e5 --t-end 1 --out {out}/run.csv",
         "infinite opposite forces make the first step size NaN, once written \"h\": NaN",
         3, "integration failed at t = 0.0: FloatingPointError: non-finite step size nan at "
            "t = 0.0", AT_START),
    Case("fig5-Omega-step-budget", "run --scenario fig5 --set Omega=1e308 --t-end 1 "
         "--out {out}/run.csv",
         "1.7e7 trial steps per unit time, 15 min unbounded; the budget ends it in about 5 s",
         3, "step budget exceeded: ...", timeout=50.0),
    Case("fig2-D-step-budget", "run --scenario fig2 --set D=1e10 --t-end 0.3 --out {out}/run.csv",
         "2.4e6 trial steps per unit time, 37 s unbounded; the budget ends it after 1.03e5",
         3, "step budget exceeded: ...", timeout=50.0),
    Case("fig2-span-below-step-floor", "run --scenario fig2 --t-end 1e-20 --out {out}/run.csv",
         "the clipped first step fell below the 1e-14 floor: 'appears stiff'",
         files={"run.csv": 2}),
    Case("fig2-zero-span-x1-overflows-h0", "run --scenario fig2 --set x1=1e300 --t-end 0 "
         "--out {out}/run.csv",
         "nothing is stepped, and h0 = nan was written after four numpy warnings",
         3, "output column h0 is not finite at t = 0.0: nan", AT_START),
    Case("fig2-zero-span-v2-overflows-h0", "run --scenario fig2 --set v2=1e160 --t-end 0 "
         "--out {out}/run.csv", "as x1 = 1e300, with h0 = inf",
         3, "output column h0 is not finite at t = 0.0: inf", AT_START),
    Case("sweep-values-share-a-file", "sweep --scenario fig2 --param K --values "
         "0.1000001,0.1000002 --t-end 1 --out {out}/run.csv",
         "'{value:g}' keeps six digits: the second run overwrote the first",
         2, "sweep values 0.1000001 and 0.1000002 would both be written to ..."),
    Case("sweep-repeated-value", "sweep --scenario fig2 --param K --values 0.1,0.1,10 --t-end 1 "
         "--out {out}/run.csv", "a repeated value runs and is written once",
         files={"run_K_0.1.csv": None, "run_K_10.csv": None}),
    Case("sweep-names-failed-value", "sweep --scenario fig2 --param x1 --values 1,1e300 "
         "--t-end 0 --out {out}/run.csv",
         "the JSON line dropped the note naming the swept value; Python 3.10 had no note at all",
         3, "output column h0 is not finite at t = 0.0: nan (while sweeping x1 = 1e+300)",
         AT_START),
    Case("fig8-below-gibbs-limit", "run --scenario fig8 --set T=0.002 --t-end 1 "
         "--out {out}/run.csv", "cosh(2 beta zeeman) overflowed into a traceback",
         2, "inverse temperature beta = 500.0 (T = 0.002) is too large at n = 10.0: ..."),
    Case("fig8-near-pure-bell", "run --scenario fig8 --set quantum.omega0=1 --set quantum.omega=3 "
         "--set quantum.g=1.4142135623730951 --set quantum.n=0 --set beta=50 --t-end 50 "
         "--out {out}/run.csv",
         "Gibbs weights of ~1e-44 off the Bell state: the spin-flip route missed by ~1e-8, exit 3",
         files={"run.csv": 5001}),
    _underivable("fig2-omega1-overflows-D", "fig2 --set omega1=1e300",
                 "the coupling D = K |omega1^2 - omega2^2| overflows: OverflowError: ...",
                 "D overflowed into an OverflowError traceback"),
    _underivable("fig2-K-times-gap-overflows-D", "fig2 --set K=1e300 --set omega2=1e10",
                 "the coupling D = K |omega1^2 - omega2^2| overflows: OverflowError: D = inf",
                 "D = inf without raising, and the run failed later about d1 = inf"),
    _underivable("fig2-gamma-overflows-2gamma", "fig2 --set gamma=1e308 --set F=1",
                 "the damping factor 2 gamma overflows: OverflowError: 2 gamma = inf",
                 "2 gamma = inf in the rhs made the step size NaN, naming neither"),
    _underivable("fig8-g-overflows-Omega0", "fig8 --set quantum.g=1e200",
                 "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 10.0 overflows: "
                 "OverflowError: ...", "Omega0 overflowed into an OverflowError traceback"),
    _underivable("fig2-dt_out-above-row-bound", "fig2 --set dt_out=1e-12",
                 "the output grid has 1e+14 rows, more than MAX_OUTPUT_ROWS = 1000000",
                 "it asked for a 728 TiB output grid"),
    _underivable("fig8-dt_out-above-row-bound", "fig8 --set dt_out=1e-300",
                 "the output grid has 4e+302 rows, more than MAX_OUTPUT_ROWS = 1000000",
                 "it asked for more elements than numpy allows"),
    Case("malformed-tol", "run --scenario fig2 --tol abc --out {out}/run.csv",
         "argparse printed its usage text", 2, "argument --tol: invalid float value: 'abc'"),
    # at t_end 2000 (9525 samples per n) OpenBLAS splits the stacked products
    # over threads, at t_end 50 it does not; a K sweep multiplies single
    # matrices by ndarray.dot in the projection and stacks in the fix-up
    *(Case(f"fig8-t{t_end}{suffix}", f"run --scenario fig8 --t-end {t_end} --out {{out}}/run.csv",
           "the same bytes with one OpenBLAS thread", files=RUN, env=env)
      for t_end in (50, 2000) for suffix, env in (("-one-thread", ONE_THREAD), ("", {}))),
    *(Case(f"k-sweep{suffix}", "sweep --scenario fig2 --param K --values 0.1,1,10 --t-end 20 "
           "--out {out}/run.csv", "the same bytes with one OpenBLAS thread",
           files={f"run_K_{k}.csv": None for k in ("0.1", "1", "10")}, env=env)
      for suffix, env in (("-one-thread", ONE_THREAD), ("", {}))),
]
CASE = {case.name: case for case in CASES}

# cases whose directories must hold the same files, byte for byte
SAME_BYTES = [("fig3", "fig7"), ("fig8-t50-one-thread", "fig8-t50"),
              ("fig8-t2000-one-thread", "fig8-t2000"), ("k-sweep-one-thread", "k-sweep")]


def reject_constant(constant):
    """parse_constant for json.loads that makes it strict: NaN, Infinity and
    -Infinity are not JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


def strict_error(stderr: str) -> dict:
    """The error object of a CLI failure: stderr must be exactly one line of
    strict JSON."""
    lines = stderr.splitlines()
    if len(lines) != 1:
        raise ValueError(f"{len(lines)} stderr lines, not one JSON line: {stderr!r}")
    return json.loads(lines[0], parse_constant=reject_constant)["error"]


def check(case: Case, code: int, stdout: str, stderr: str, outdir: Path) -> list[str]:
    """The rules of `case` that a finished run broke; empty if none."""
    failures = [] if code == case.code else [f"exit {code}, not {case.code}"]
    if case.code == 0 and stderr:
        failures.append(f"stderr is not empty: {stderr!r}")
    elif case.code != 0:
        want = {"category": CATEGORY[case.code], **(case.locus or {})}
        keys = {"category", "message", *(("t", "h", "err_norm") if case.code == 3 else ())}
        try:
            err = strict_error(stderr)
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"no strict-JSON error line: {exc}")
        else:
            message = err.get("message")
            if set(err) != keys or any(err[key] != value for key, value in want.items()):
                failures.append(f"error object {err}, not {want} with keys {sorted(keys)}")
            elif case.message is not None and not (
                    message == case.message or case.message.endswith("...")
                    and message.startswith(case.message[:-3])):
                failures.append(f"error message {message!r}, not {case.message!r}")
    files = sorted(path.name for path in outdir.iterdir())
    if files != sorted(case.files):
        failures.append(f"files {files}, not {sorted(case.files)}")
    for name in sorted(set(files) & set(case.files)):
        lines = len((outdir / name).read_text().splitlines())
        if lines == 0 or case.files[name] not in (None, lines - 1):
            failures.append(f"{name} has {lines} lines, not a header and {case.files[name]} rows")
    written = sorted(line[len("wrote "):].split(" (", 1)[0]
                     for line in stdout.splitlines() if line.startswith("wrote "))
    if written != [str(outdir / name) for name in files]:
        failures.append(f"stdout names {written} as written, not the files {files}")
    return failures


def same_bytes(outroot: Path, group: tuple[str, ...]) -> list[str]:
    """How the directories of a SAME_BYTES group differ; empty if they hold
    the same files, at least one, with the same bytes."""
    first, *others = ({p.name: p.read_bytes() for p in (outroot / name).iterdir()}
                      for name in group)
    return ([] if first else [f"{group[0]} wrote no file"]) + [
        f"{name} wrote other files or bytes than {group[0]}"
        for name, files in zip(group[1:], others) if files != first]


def _report(name: str, failures: list[str]) -> bool:
    print(f"FAIL {name}: {'; '.join(failures)}" if failures else f"PASS {name}", flush=True)
    return bool(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run every CLI case in its own interpreter.")
    parser.add_argument("outdir", type=Path, help="parent of the cases' directories")
    outroot = parser.parse_args(argv).outdir
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    failed = False
    for case in CASES:
        outdir = outroot / case.name
        outdir.mkdir(parents=True)
        command = [sys.executable, "-W", "default", "-m", "spinchannel.cli", *case.argv_in(outdir)]
        try:
            run = subprocess.run(command, env={**os.environ, "PYTHONPATH": pythonpath, **case.env},
                                 capture_output=True, text=True, timeout=case.timeout + STARTUP_S)
            failures = check(case, run.returncode, run.stdout, run.stderr, outdir)
        except subprocess.TimeoutExpired:
            failures = [f"no exit within {case.timeout + STARTUP_S} s"]
        failed |= _report(case.name, failures)
    for group in SAME_BYTES:
        failed |= _report(" = ".join(group), same_bytes(outroot, group))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
