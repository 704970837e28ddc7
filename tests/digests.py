"""The byte check of the committed outputs: 25 artifacts, their sha256, and a manifest.

    python tests/digests.py OUTDIR [--against MANIFEST]

makes, under OUTDIR and with one OpenBLAS thread,

* the CSV and the JSON of each preset fig2..fig8 at its own t_end (14),
* the three CSVs of ``sweep --scenario fig2 --param K --values 0.1,1,10
  --t-end 20`` (3),
* the sha256 that ``perfbench/one_pass.py`` reports for the k_sweep and
  quantum_thermal workloads at seeds 0-3 (8),

prints one ``<sha256>  <name>`` line per artifact and writes the manifest
``OUTDIR/digests.json``.  Each run writes to a relative path in OUTDIR, so
the bytes do not depend on where OUTDIR is.  With ``--against`` each line
also says ``same`` or ``DIFFERS``, naming the CSV columns or the one_pass
work counters that moved, and any difference exits 1.  ``tests/digests.json``
is the committed manifest.  The bytes depend on the BLAS kernel, so this is
no tier-1 test: compare against a manifest made on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = [f"fig{n}" for n in range(2, 9)]
K_SWEEP = "sweep --scenario fig2 --param K --values 0.1,1,10 --t-end 20"
ONE_PASS = [(workload, seed) for workload in ("k_sweep", "quantum_thermal") for seed in range(4)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_columns(text: str) -> dict[str, str]:
    """The sha256 of each column's cells, by header name."""
    header, *rows = text.splitlines()
    columns = zip(*(row.split(",") for row in rows))
    return {name: _sha256("\n".join(column).encode())
            for name, column in zip(header.split(","), columns)}


def _cli(argv: str, cwd: Path, env: dict) -> None:
    command = [sys.executable, "-W", "error", "-m", "spinchannel.cli", *argv.split()]
    run = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{argv!r} exited {run.returncode}: {run.stderr.strip()}")


def make(outdir: Path) -> dict[str, dict]:
    """Make every artifact under outdir; name -> {"sha256", "parts"}, where
    parts are a CSV's column digests or a one_pass run's work counters."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    for name in PRESETS:
        _cli(f"run --scenario {name}", outdir, env)
        _cli(f"run --scenario {name} --format json", outdir, env)
    (outdir / "k_sweep").mkdir()
    _cli(f"{K_SWEEP} --out k_sweep/run.csv", outdir, env)
    files = [f"{name}.{fmt}" for name in PRESETS for fmt in ("csv", "json")] + \
        [f"k_sweep/run_K_{k}.csv" for k in ("0.1", "1", "10")]
    artifacts = {}
    for name in files:
        data = (outdir / name).read_bytes()
        parts = _csv_columns(data.decode("ascii")) if name.endswith(".csv") else {}
        artifacts[name] = {"sha256": _sha256(data), "parts": parts}
    for workload, seed in ONE_PASS:
        work = outdir / "one_pass" / f"{workload}_{seed}"
        work.mkdir(parents=True)
        run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--out-dir", str(work)],
                             env=env, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.splitlines()[-1])
        if result["failures"]:
            raise RuntimeError(f"one_pass {workload} seed {seed}: {result['failures']}")
        artifacts[f"one_pass/{workload}/seed{seed}"] = {"sha256": result["sha256"],
                                                      "parts": result["counters"]}
    return artifacts


def moved(got: dict, want: dict | None) -> str:
    """'same', or how the artifact differs from its manifest entry."""
    if want is None:
        return "DIFFERS: not in the manifest"
    if got == want:
        return "same"
    parts = sorted(set(got["parts"]) | set(want["parts"]))
    changed = [p for p in parts if got["parts"].get(p) != want["parts"].get(p)]
    return f"DIFFERS: {', '.join(changed)} moved" if changed else "DIFFERS"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="an empty or new directory for the artifacts")
    parser.add_argument("--against", type=Path, metavar="MANIFEST",
                        help="a manifest to compare with, such as tests/digests.json")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    if any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    want = json.loads(args.against.read_text())["artifacts"] if args.against else None
    artifacts = make(args.outdir)
    manifest = {"made_with": {"python": platform.python_version(),
                              "machine": platform.machine(),
                              "numpy": version("numpy"), "OPENBLAS_NUM_THREADS": "1"},
                "artifacts": artifacts}
    (args.outdir / "digests.json").write_text(json.dumps(manifest, indent=1) + "\n")
    differ = 0
    for name, got in artifacts.items():
        verdict = "" if want is None else moved(got, want.get(name))
        differ += verdict.startswith("DIFFERS")
        print(f"{got['sha256']}  {name}  {verdict}".rstrip())
    if want is None:
        return 0
    for name in sorted(set(want) - set(artifacts)):
        print(f"{'-' * 64}  {name}  DIFFERS: not made")
        differ += 1
    total = len(set(want) | set(artifacts))
    print(f"{total - differ} of {total} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
