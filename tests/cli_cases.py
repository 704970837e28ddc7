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

    Exit 0 requires an empty stderr.  Any other `code` requires an empty
    stdout and stderr to be exactly one strict-JSON error object of that
    code's category, with the category's keys; `message` is its message, or
    the start of it where it ends in "...", and `locus` its exact t, h and
    err_norm (None is null).
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


def _rejected(name: str, argv: str, message: str, why: str) -> Case:
    """A command line, writing under {out}, that fails as a config error within a second."""
    return Case(name, f"{argv} --out {{out}}/run.csv", why, 2, message, timeout=1.0)


def _underivable(name: str, sets: str, message: str, why: str) -> Case:
    return _rejected(name, f"run --scenario {sets}", message,
                     f"{why}; it now fails in validate, before anything is allocated")


def _d1_overflow(name: str, sets: str, why: str) -> Case:
    return Case(name, f"run --scenario fig5 {sets} --t-end 1 --out {{out}}/run.csv", why, 3,
                "integration failed at t = 0.0: FloatingPointError: non-finite first-derivative "
                "scale d1 = inf in the initial step size estimate at t = 0.0", AT_START)


def _gibbs_limit(name: str, sets: str, beta_T: str, why: str) -> Case:
    return Case(name, f"run --scenario fig8 {sets} --t-end 1 --out {{out}}/run.csv", why, 2,
                f"inverse temperature beta = {beta_T} is too large at n = 10.0: the Gibbs "
                f"weights overflow above beta = 309.92343310786555 (below T = "
                f"0.003226603390302406)")


CASES = [
    *(Case(f"fig{n}", f"run --scenario fig{n} --t-end 1 --out {{out}}/run.csv",
           "every preset runs", files=RUN) for n in range(2, 9)),
    Case("fig2-D-on-K-preset", "run --scenario fig2 --set D=0.3 --t-end 1 --out {out}/run.csv",
         "D given on a K preset replaces the preset's K", files=RUN),
    _d1_overflow("fig5-F-overflows-d1", "--set F=1e300",
                 "d1 overflows: a numpy warning, then 'ZeroDivisionError: float division by zero'"),
    _d1_overflow("fig5-v1-overflows-d1", "--set v1=1e300", "as F = 1e300"),
    _d1_overflow("fig5-duffing-force-overflows-d1", "--set x1=1e60 --set xi=1", "as F = 1e300"),
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
    _gibbs_limit("fig8-below-gibbs-limit", "--set T=0.002", "500.0 (T = 0.002)",
                 "cosh(2 beta zeeman) overflowed into a traceback"),
    _gibbs_limit("fig8-T-0.0025-below-gibbs-limit", "--set T=0.0025", "400.0 (T = 0.0025)",
                 "as T = 0.002"),
    _gibbs_limit("fig8-beta-1000-below-gibbs-limit", "--set beta=1000", "1000.0 (T = 0.001)",
                 "as T = 0.002, given as beta"),
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
    _underivable("fig2-omega1-squared-overflows", "fig2 --set D=0.3 --set omega1=1e200",
                 "a squared oscillator frequency overflows: OverflowError: omega1^2 = inf",
                 "omega1^2 = inf was an OverflowError traceback (exit 1)"),
    *(_underivable(f"fig8-near-resonance-Omega0-overflows{suffix}",
                   f"fig8 --set quantum.g=1e150 --set quantum.omega=2.9999999999{sets}",
                   "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 10.0 overflows: "
                   "OverflowError: Omega0 = inf", why)
      for suffix, sets, why in (
          ("", "", "Omega0 = inf was a ZeroDivisionError in the Gibbs-limit message"),
          ("-beta-0", " --set beta=0", "at beta = 0 Omega0 = inf was 'dt_out must be positive'"))),
    _underivable("fig8-omega0-overflows-Omega0-n0", "fig8 --set quantum.omega0=1e308 "
                 "--set quantum.n=0",
                 "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 0.0 overflows: "
                 "OverflowError: 2 (Omega0 + omega0R) = inf", "as near resonance, at n = 0"),
    *(_underivable(f"fig8-dt_out-{label}", f"fig8 --set dt_out={dt_out}",
                   f"dt_out must be positive, got {float(dt_out)!r}", why)
      for label, dt_out, why in (("zero", "0", "a ZeroDivisionError traceback"),
                                 ("negative", "-1", "it ran on a two-point grid"))),
    _underivable("fig8-output-grid-overflows", "fig8 --set t_end=1e8 --set dt_out=1e-300",
                 "the output grid overflows: OverflowError: ...",
                 "the row count overflowed a float"),
    _underivable("fig2-custom-amplitudes-overflow-norm", "fig2 --set state=custom "
                 "--set amplitudes=1e300,1e300,0,0,0,0,0,0",
                 "the norm of the initial state overflows: FloatingPointError: overflow "
                 "encountered in dot",
                 "a numpy warning, then a misleading 'not normalized' error from the stepper"),
    _underivable("fig2-F-without-damping", "fig2 --set F=0.5",
                 "parameters (F=0.5, gamma=0.0, xi=0.0) match none of the four regimes: "
                 "autonomous requires F=0 and gamma=0, driven requires F!=0 and gamma!=0",
                 "a drive without damping is none of the four regimes"),
    _underivable("fig2-K-and-D-disagree", "fig2 --set D=0.3 --set K=0.1",
                 "inconsistent coupling: D=0.3 but K=0.1 implies D=0.125",
                 "K and D given together must name one coupling"),
    Case("fig2-K-and-D-agree", "run --scenario fig2 --set D=0.3 --set K=0.24 --t-end 1 "
         "--out {out}/run.csv", "|omega1^2 - omega2^2| = 1.25, so K = 0.24 gives D = 0.3",
         files={"run.csv": 21}),
    Case("fig2-set-qualified-K", "run --scenario fig2 --set oscillators.K=10 --t-end 1 "
         "--out {out}/run.csv", "a section.key --set overrides the preset", files={"run.csv": 21}),
    Case("flags-win-over-set", "run --scenario fig2 --set t_end=5 --t-end 1 --set tol=1e-6 "
         "--tol 1e-8 --out {out}/run.csv", "--t-end 1 wins over t_end=5: 21 rows, not 101",
         files={"run.csv": 21}),
    _rejected("set-ambiguous-key", "run --scenario fig2 --set omega0=2",
              "--set omega0: ambiguous field 'omega0'; qualify as one of: spin.omega0, "
              "quantum.omega0", "a bare key of two sections names neither"),
    _rejected("set-unknown-key", "run --scenario fig2 --set oscillators.mass=2",
              "--set oscillators.mass: unknown config field 'oscillators.mass'",
              "the oscillators have no mass key"),
    *(_rejected(f"set-rabi-key-{key}", f"run --scenario fig2 --set {key}=2",
                f"--set {key}: unknown config field {key!r}",
                "the Rabi drive is not a config field")
      for key in ("omega_R", "delta", "spin.omega_R", "spin.delta")),
    *(_rejected(f"fig2-{key}-{value}", f"run --scenario fig2 --set {key}={value} --t-end 1",
                f"--set {key}: expected a finite number, got {value!r}", why)
      for key, value, why in (("K", "nan", "K = nan hung forever"),
                              ("x1", "inf", "non-finite input fails fast"))),
    _rejected("fig2-tol-nan", "run --scenario fig2 --tol nan --t-end 1",
              "run.tol must be finite, got nan", "a flag is checked as its config key"),
    _rejected("sweep-values-nan", "sweep --scenario fig2 --param K --values nan --t-end 1",
              "--values expects finite numbers, got 'nan'",
              "NaN != NaN: 'sweep values nan and nan would both be written to ...'"),
    _rejected("sweep-values-overflow", "sweep --scenario fig2 --param K --values 0.1,1e400 "
              "--t-end 1", "--values expects finite numbers, got '0.1,1e400'",
              "1e400 was read as inf, and K = 0.1 ran before the run of K = inf failed"),
    Case("sweep-repeated-value-keeps-its-name", "sweep --scenario fig2 --param K --values "
         "0.1000001,0.1000001,0.1000011 --t-end 1 --out {out}/run.csv",
         "a repeated value keeps the name of its first position",
         files={"run_K_0.1.csv": 21, "run_K_0.100001.csv": 21}),
    _rejected("sweep-list-valued-field", "sweep --scenario fig2 --set state=custom "
              "--set amplitudes=1,0,0,0,0,0,0,0 --param amplitudes --values 1 --t-end 0",
              "state=custom requires amplitudes = 8 numbers (Re, Im for each of C1..C4) "
              "(while sweeping amplitudes = 1.0)",
              "the sweep set a list field to a float: a TypeError traceback (exit 1)"),
    *(_rejected(name, argv, message, why) for name, argv, message, why in (
        ("sweep-fig2-unread-quantum.g", "sweep --scenario fig2 --param quantum.g --values 1,2 "
         "--t-end 1", "a hybrid run does not read quantum.g",
         "a hybrid run never reads [quantum]: two files with the same bytes, exit 0"),
        ("sweep-fig2-unread-n", "sweep --scenario fig2 --param n --values 1,2 --t-end 1",
         "a hybrid run does not read quantum.n", "as quantum.g"),
        ("sweep-fig8-unread-K", "sweep --scenario fig8 --param K --values 1,2 --t-end 1",
         "a quantum run does not read oscillators.K",
         "a quantum run never reads [oscillators]: two files with the same bytes, exit 0"),
        ("sweep-fig2-amplitudes-without-custom-state", "sweep --scenario fig2 --param amplitudes "
         "--values 1 --t-end 1", "a hybrid run does not read initial.amplitudes unless "
         "state = custom", "with state = 01 the amplitudes were never read, exit 0"),
        ("fig8-set-unread-x1", "run --scenario fig8 --set x1=5",
         "a quantum run does not read initial.x1",
         "the CSV kept its bytes while the JSON echo said x1 = 5.0, exit 0"),
        ("fig8-unread-tol-flag", "run --scenario fig8 --tol 1e-3",
         "a quantum run does not read run.tol",
         "the closed forms take no tolerance, yet the JSON echo said tol = 0.001, exit 0"))),
    Case("fig2-set-kind-quantum-reads-quantum.g", "run --scenario fig2 --set kind=quantum "
         "--set quantum.g=2 --t-end 1 --out {out}/run.csv",
         "overrides are checked against the final kind, which reads quantum.g",
         files={"run.csv": 401}),
    Case("fig3-x1-overflows-rhs", "run --scenario fig3 --set x1=1e150 --t-end 1 "
         "--out {out}/run.csv", "the message names the exception class",
         3, "integration failed at t = 0.0: OverflowError: ...", AT_START),
    *(_rejected(f"format-{how}-xml", f"run --scenario fig2 {flag}",
                "format must be 'csv' or 'json', got 'xml'",
                "--format and output.format share one check")
      for how, flag in (("flag", "--format xml"), ("set", "--set output.format=xml"))),
    Case("out-dir-missing", "run --scenario fig2 --t-end 0 --out {out}/nope/run.csv",
         "an OSError is an io error", 4, "[Errno 2] No such file or directory: ..."),
    *(Case(name, argv, "argparse printed its usage text and a plain error line", 2, message)
      for name, argv, message in (
        ("malformed-tol", "run --scenario fig2 --tol abc --out {out}/run.csv",
         "argument --tol: invalid float value: 'abc'"),
        ("unknown-command", "frobnicate", "argument command: invalid choice: 'frobnicate' ..."),
        ("no-command", "", "the following arguments are required: command"),
        ("no-source", "run --out {out}/run.csv",
         "one of the arguments --scenario --config is required"),
        ("sweep-without-param", "sweep --scenario fig2 --values 1 --out {out}/run.csv",
         "the following arguments are required: --param"),
        ("presets-argument", "presets list", "unrecognized arguments: list"))),
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
        if stdout:
            failures.append(f"stdout is not empty: {stdout!r}")
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
