"""Command-line interface.

Subcommands:
    run      execute one scenario (preset or config file) and write CSV/JSON
    sweep    rerun a scenario over a list of values of one numeric field
    presets  list the named scenario presets

Failures exit nonzero and print a one-line machine-readable JSON error
object to stderr with a category of config (exit 2; a malformed command line
is one too), integration (exit 3) or io (exit 4).  Integration errors also
carry ``t``, ``h`` and ``err_norm``, the time, step size and last error norm
of the stepper when it failed (null where there was none, or where the value
is not finite: NaN and Infinity are not JSON).  A failed sweep run names its
value at the end of the message, e.g. ``(while sweeping x1 = 1e+300)``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import (ConfigError, PRESETS, ScenarioConfig, apply_overrides, parse_config,
                     preset_config, preset_names, resolve_field)
from .hybrid_dynamics import IntegrationError
from .runner import run_scenario, sweep, write_output

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are ConfigErrors, so that a malformed
    command line fails with the one JSON line of every other failure."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinchannel", description="spin-oscillator scrambling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", help="preset name (see 'spinchannel presets')")
        source.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field "
                       "(section.key or unambiguous bare key)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", help="output format: csv or json")
        p.add_argument("--tol", type=float, help="integration tolerance")
        p.add_argument("--t-end", type=float, dest="t_end", help="end time")

    run_p = sub.add_parser("run", help="run one scenario")
    add_common(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario over several parameter values")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="numeric config field to sweep")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of values")
    sweep_p.set_defaults(func=_cmd_sweep)

    sub.add_parser("presets", help="list scenario presets").set_defaults(func=_cmd_presets)
    return parser


def _overrides(args) -> dict[str, object]:
    """Every --set KEY=VALUE, then the --tol, --t-end, --format and --out
    flags, as one overrides dict: K and D (or T and beta) given together are
    both kept, and a flag wins over --set for the same field."""
    overrides = {}
    for assignment in args.overrides:
        if "=" not in assignment:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, value = (part.strip() for part in assignment.split("=", 1))
        try:
            attr, caster = resolve_field(key)
            overrides[attr] = caster(value)
        except ConfigError as exc:
            raise ConfigError(f"--set {key}: {exc}") from None
    flags = {"tol": args.tol, "t_end": args.t_end, "out_format": args.format,
             "out_path": args.out}
    overrides.update((attr, value) for attr, value in flags.items() if value is not None)
    return overrides


def _load_config(args) -> ScenarioConfig:
    """The configuration of a run: a config file may set fields its run does
    not read, but each field the command line sets must be read by the final
    kind of run."""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = preset_config(args.scenario)
    overrides = _overrides(args)
    return apply_overrides(cfg, overrides).validate().check_read(*overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_scenario(cfg)
    path = cfg.out_path
    if path is None:
        path = f"{cfg.name}.{cfg.out_format}"
    write_output(result, cfg.out_format, path)
    diag = " ".join(f"{k}={v}" for k, v in result.diagnostics.items())
    print(f"wrote {path} ({result.kind}, {cfg.name}); {diag}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values expects comma-separated numbers, got {args.values!r}") \
            from None
    # before any path: NaN != NaN, so the one-file-per-value check below
    # would report a NaN as two values sharing one file
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--values expects finite numbers, got {args.values!r}")
    if not values:
        print("empty value list; nothing to do")
        return EXIT_OK
    base = cfg.out_path or cfg.name
    if base.endswith(".csv") or base.endswith(".json"):
        base = base.rsplit(".", 1)[0]
    param_slug = args.param.replace(".", "_")
    paths = [f"{base}_{param_slug}_{value:g}.{cfg.out_format}" for value in values]
    first = {}
    for value, path in zip(values, paths):
        other = first.setdefault(path, value)
        if other != value:
            raise ConfigError(f"sweep values {other!r} and {value!r} would both be written "
                              f"to {path}")
    # a repeated value runs and is written once, at its first position
    results = sweep(cfg, args.param, list(first.values()))
    for path, result in zip(first, results):
        write_output(result, cfg.out_format, path)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for name in preset_names():
        cfg = preset_config(name)
        keys = ", ".join(f"{k}={v}" for k, v in sorted(PRESETS[name].items()) if k != "note")
        print(f"{name:6s} [{cfg.kind}] {cfg.note}")
        print(f"       {keys}")
    return EXIT_OK


def _fail(category: str, exc: Exception, code: int, **locus) -> int:
    message = str(exc) + "".join(f" ({note})" for note in getattr(exc, "__notes__", []))
    error = {"category": category, "message": message,
             **{k: v if v is not None and math.isfinite(v) else None for k, v in locus.items()}}
    sys.stderr.write(json.dumps({"error": error}, allow_nan=False) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    except IntegrationError as exc:
        return _fail("integration", exc, EXIT_INTEGRATION, t=exc.t, h=exc.h,
                     err_norm=exc.err_norm)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    except ValueError as exc:
        return _fail("config", exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
