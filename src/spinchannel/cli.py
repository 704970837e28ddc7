"""Command-line interface.

Subcommands:
    run      execute one scenario (preset or config file) and write CSV/JSON
    sweep    rerun a scenario over a list of values of one numeric field
    presets  list the named scenario presets

Failures exit nonzero and print a one-line machine-readable JSON error
object to stderr with a category of config, integration, io or usage.
Integration errors also carry ``t``, ``h`` and ``err_norm``, the time, step
size and last error norm of the stepper when it failed (null where there was
none, or where the value is not finite: NaN and Infinity are not JSON).
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinchannel",
                                     description="spin-oscillator scrambling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="preset name (see 'spinchannel presets')")
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field "
                       "(section.key or unambiguous bare key)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--tol", type=float, help="integration tolerance")
        p.add_argument("--t-end", type=float, dest="t_end", help="end time")

    run_p = sub.add_parser("run", help="run one scenario")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario over several parameter values")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="numeric config field to sweep")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of values")

    presets_p = sub.add_parser("presets", help="list scenario presets")
    presets_p.add_argument("action", nargs="?", default="list", choices=("list",))
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
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc
        cfg = parse_config(text)
        if args.scenario:
            raise ConfigError("give either --scenario or --config, not both")
    elif args.scenario:
        cfg = preset_config(args.scenario)
    else:
        raise ConfigError("one of --scenario or --config is required")
    return apply_overrides(cfg, _overrides(args)).validate()


class _IOFailure(RuntimeError):
    pass


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_scenario(cfg)
    path = cfg.out_path
    if path is None:
        path = f"{cfg.name}.{cfg.out_format}"
    try:
        write_output(result, cfg.out_format, path)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
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
        try:
            write_output(result, cfg.out_format, path)
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for name in preset_names():
        cfg = preset_config(name)
        fields = PRESETS[name]
        keys = ", ".join(f"{k}={v}" for k, v in sorted(fields.items())
                         if k not in ("note", "kind") and not isinstance(v, str))
        print(f"{name:6s} [{cfg.kind}] {cfg.note}")
        print(f"       {keys}")
    return EXIT_OK


def _fail(category: str, message: str, code: int, **locus) -> int:
    error = {"category": category, "message": message,
             **{k: v if v is not None and math.isfinite(v) else None for k, v in locus.items()}}
    sys.stderr.write(json.dumps({"error": error}, allow_nan=False) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_presets(args)
    except IntegrationError as exc:
        return _fail("integration", str(exc), EXIT_INTEGRATION, t=exc.t, h=exc.h,
                     err_norm=exc.err_norm)
    except _IOFailure as exc:
        return _fail("io", str(exc), EXIT_IO)
    except ValueError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
