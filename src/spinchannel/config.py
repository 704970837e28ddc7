"""Scenario configuration: flat key = value text with [sections].

A configuration either names a preset scenario (fig2..fig8) or describes a
custom run.  Each ``ScenarioConfig`` field declares its ``[section] key``
and caster once, and ``SCHEMA`` is derived from the fields; a preset states
only the fields in which it differs from the defaults.  Parsing is
line-aware so unknown keys, malformed values and regime-inconsistent
parameters are reported with the offending line number.
``render_config`` emits a canonical text that parses back to an identical
configuration.  Config files, ``--set`` and sweeps apply their overrides
through ``apply_overrides``: giving one of K/D or T/beta resets the other.

Each field also declares the run kinds that read it (HYBRID, QUANTUM or
BOTH), and ``ScenarioConfig.check_read`` is the one place that answers for
it, with the one rule that depends on a value: amplitudes are read only with
state = custom.  The command line checks every field it overrides, and a
sweep its swept field, so neither can set a field the run ignores.  Config
files and ``validate`` do not check it: a config file has the form of the
echo of ``render_config``, which lists every set field, and must keep
parsing back to the configuration it echoes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .hybrid_dynamics import OscParams, Regime, RegimeError, _grid_intervals
from .quantum_channel import QuantumChannelParams
from .spin_algebra import BASIS_LABELS, SpinParams, basis_state, bell_phi_minus

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "render_config",
           "resolve_field", "apply_overrides", "PRESETS", "preset_names",
           "preset_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


# Output rows a run may ask for (grid times, times a quantum run's photon numbers).
# A fig2 run peaks at 1965 traced bytes per row (tracemalloc, dt_out 0.05 vs 0.005): ~2 GB.
MAX_OUTPUT_ROWS = 1_000_000


def _check_finite(**derived: float) -> None:
    """Raise an OverflowError naming the first derived quantity that is not finite."""
    for name, value in derived.items():
        if not math.isfinite(value):
            raise OverflowError(f"{name} = {value!r}")


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_float(part) for part in text.split(","))


# the run kinds that read a field
HYBRID, QUANTUM = ("hybrid",), ("quantum",)
BOTH = HYBRID + QUANTUM


def _key(section: str, key: str, caster, default, reads: tuple[str, ...]):
    """A ScenarioConfig field that ``[section] key`` sets through ``caster``
    and runs of the kinds ``reads`` read."""
    return field(default=default, metadata={"key": (section, key, caster), "reads": reads})


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description (flat view of every config key).

    The defaults are the hybrid set-up that the presets share; the initial
    x1(0) = 1 is a package choice, recorded so every run is reproducible.
    """

    name: str = _key("scenario", "name", str, "custom", BOTH)
    kind: str = _key("scenario", "kind", str, "hybrid", BOTH)
    spin_omega0: float = _key("spin", "omega0", _float, 1.5, HYBRID)
    spin_g: float = _key("spin", "g", _float, 1.0, HYBRID)
    alpha: float = _key("spin", "alpha", _float, math.pi / 3, HYBRID)
    omega1: float = _key("oscillators", "omega1", _float, 1.0, HYBRID)
    omega2: float = _key("oscillators", "omega2", _float, 1.5, HYBRID)
    D: float | None = _key("oscillators", "D", _float, None, HYBRID)
    K: float | None = _key("oscillators", "K", _float, None, HYBRID)
    xi: float = _key("oscillators", "xi", _float, 0.0, HYBRID)
    gamma: float = _key("oscillators", "gamma", _float, 0.0, HYBRID)
    # one common drive on both oscillators
    F: float = _key("oscillators", "F", _float, 0.0, HYBRID)
    Omega: float = _key("oscillators", "Omega", _float, 1.0, HYBRID)
    q_omega0: float = _key("quantum", "omega0", _float, 3.0, QUANTUM)
    q_omega: float = _key("quantum", "omega", _float, 2.0, QUANTUM)
    q_g: float = _key("quantum", "g", _float, 1.0, QUANTUM)
    n_values: tuple[float, ...] = _key("quantum", "n", _float_list, (0.0,), QUANTUM)
    temperature: float | None = _key("quantum", "T", _float, None, QUANTUM)
    beta: float = _key("quantum", "beta", _float, 0.0, QUANTUM)
    state: str = _key("initial", "state", str, "01", BOTH)
    amplitudes: tuple[float, ...] | None = _key("initial", "amplitudes", _float_list, None, BOTH)
    x1: float = _key("initial", "x1", _float, 1.0, HYBRID)
    v1: float = _key("initial", "v1", _float, 0.0, HYBRID)
    x2: float = _key("initial", "x2", _float, 0.0, HYBRID)
    v2: float = _key("initial", "v2", _float, 0.0, HYBRID)
    t_end: float = _key("run", "t_end", _float, 100.0, BOTH)
    dt_out: float | None = _key("run", "dt_out", _float, None, BOTH)
    tol: float = _key("run", "tol", _float, 1e-9, HYBRID)
    out_path: str | None = _key("output", "path", str, None, BOTH)
    out_format: str = _key("output", "format", str, "csv", BOTH)
    note: str = ""

    # -- derived views -------------------------------------------------------

    def effective_D(self) -> float:
        """D, or the D of OscParams.from_connectivity if K is set (a D given too must match)."""
        if self.K is None:
            if self.D is None:
                raise ConfigError("one of oscillators.D or oscillators.K is required")
            return self.D
        try:
            D = OscParams.from_connectivity(self.omega1, self.omega2, self.K).D
        except ValueError as exc:
            raise ConfigError(f"K cannot be resolved: {exc}") from None
        if self.D is not None and abs(self.D - D) > 1e-12 * max(1.0, abs(D)):
            raise ConfigError(f"inconsistent coupling: D={self.D} but K={self.K} implies D={D}")
        return D

    def spin_params(self) -> SpinParams:
        return SpinParams(omega0=self.spin_omega0, g=self.spin_g, alpha=self.alpha)

    def osc_params(self) -> OscParams:
        return OscParams(omega1=self.omega1, omega2=self.omega2, D=self.effective_D(),
                         xi=self.xi, gamma=self.gamma, F=self.F, Omega=self.Omega)

    def quantum_params(self, n: float) -> QuantumChannelParams:
        beta = self.beta
        if self.temperature is not None:
            if self.temperature <= 0:
                raise ConfigError(f"temperature must be positive, got {self.temperature}")
            beta = 1.0 / self.temperature
        return QuantumChannelParams(omega0=self.q_omega0, omega=self.q_omega,
                                    g=self.q_g, n=n, beta=beta)

    def initial_spin_state(self) -> np.ndarray:
        if self.state == "phi_minus":
            return bell_phi_minus()
        if self.state in BASIS_LABELS:
            return basis_state(self.state)
        if self.state == "custom":
            if self.amplitudes is None or len(self.amplitudes) != 8:
                raise ConfigError("state=custom requires amplitudes = 8 numbers "
                                  "(Re, Im for each of C1..C4)")
            a = np.asarray(self.amplitudes, dtype=float)
            psi = a[0::2] + 1j * a[1::2]
            with np.errstate(over="raise"):
                norm = np.linalg.norm(psi)
            if norm == 0:
                raise ConfigError("custom amplitudes are all zero")
            return psi / norm
        raise ConfigError(f"unknown initial state {self.state!r}; expected one of "
                          f"00, 01, 10, 11, phi_minus, custom")

    def resolved_dt_out(self) -> float:
        if self.dt_out is not None:
            return self.dt_out
        if self.kind == "quantum":
            # resolve the fastest oscillation of the sweep, 0.01/Omega_n
            fastest = max(abs(self.quantum_params(n).Omega_n) for n in self.n_values)
            return 0.01 / fastest if fastest > 0 else 1.0
        return 0.05

    def check_read(self, *attrs: str) -> "ScenarioConfig":
        """self, if its run reads every field in attrs; otherwise a ConfigError
        naming the first field it does not read and the run kind."""
        for attr in attrs:
            name, kinds = _READERS[attr]
            unless = " unless state = custom" if attr == "amplitudes" else ""
            if self.kind not in kinds or unless and self.state != "custom":
                raise ConfigError(f"a {self.kind} run does not read {name}{unless}")
        return self

    def validate(self) -> "ScenarioConfig":
        """self, if a run can derive all it needs from it: a ValueError or an overflow
        there (a derived quantity that is not finite counts as one), or more than
        MAX_OUTPUT_ROWS output rows, is a ConfigError."""
        for section, keys in SCHEMA.items():
            for key, (attr, _) in keys.items():
                value = getattr(self, attr)
                values = value if isinstance(value, tuple) else (value,)
                if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                    raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
        if self.kind not in ("hybrid", "quantum"):
            raise ConfigError(f"kind must be 'hybrid' or 'quantum', got {self.kind!r}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be non-negative, got {self.t_end}")
        if self.kind == "quantum" and not self.n_values:
            raise ConfigError("quantum runs need at least one photon number in quantum.n")
        try:
            if self.kind == "hybrid":
                what = "the coupling D = K |omega1^2 - omega2^2|"
                op = self.osc_params()
                _check_finite(D=op.D)
                what = "a squared oscillator frequency"
                _check_finite(**{"omega1^2": op.omega1 * op.omega1,
                                 "omega2^2": op.omega2 * op.omega2})
                what = "the damping factor 2 gamma"
                _check_finite(**{"2 gamma": 2.0 * op.gamma})
                Regime.classify(op)
                self.spin_params()
                runs = 1
            else:
                for n in self.n_values:
                    what = f"the effective coupling Omega0 = g^2/(omega0 - omega) at n = {n!r}"
                    self.quantum_params(n)
                runs = len(self.n_values)
            what = "the output grid"
            rows = runs * (_grid_intervals(self.t_end, self.resolved_dt_out()) + 1)
            if rows > MAX_OUTPUT_ROWS:
                raise ConfigError(f"the output grid has {rows:.9g} rows, more than "
                                  f"MAX_OUTPUT_ROWS = {MAX_OUTPUT_ROWS}")
            what = "the norm of the initial state"
            self.initial_spin_state()
        except ArithmeticError as exc:
            raise ConfigError(f"{what} overflows: {type(exc).__name__}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """section -> key -> (ScenarioConfig attribute, caster), in field order."""
    schema: dict[str, dict[str, tuple[str, object]]] = {}
    for f in fields(ScenarioConfig):
        if "key" in f.metadata:
            section, key, caster = f.metadata["key"]
            schema.setdefault(section, {})[key] = (f.name, caster)
    return schema


SCHEMA = _schema()

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}

# attribute -> ("section.key", the run kinds that read it)
_READERS = {f.name: ("{}.{}".format(*f.metadata["key"][:2]), f.metadata["reads"])
            for f in fields(ScenarioConfig) if "key" in f.metadata}


def resolve_field(key: str) -> tuple[str, object]:
    """Map 'section.key' or an unambiguous bare key to its (ScenarioConfig
    attribute, caster) pair."""
    if "." in key:
        section, bare = key.split(".", 1)
        matches = [(section, bare)] if bare in SCHEMA.get(section, {}) else []
    else:
        matches = [(section, key) for section, keys in SCHEMA.items() if key in keys]
    if not matches:
        raise ConfigError(f"unknown config field {key!r}")
    if len(matches) > 1:
        options = ", ".join(f"{section}.{bare}" for section, bare in matches)
        raise ConfigError(f"ambiguous field {key!r}; qualify as one of: {options}")
    section, bare = matches[0]
    return SCHEMA[section][bare]


# Each pair gives one quantity two ways (K sets D; T sets beta).  Overrides
# that give one field of a pair reset the other to its default, so the given
# one takes effect; overrides that give both keep both, and validate checks
# that K and D agree (T takes precedence over beta).
_ALTERNATIVES = (("K", "D"), ("temperature", "beta"))


def apply_overrides(cfg: ScenarioConfig, overrides: dict[str, object]) -> ScenarioConfig:
    """cfg with the given attributes replaced, resetting the other field of
    each K/D and T/beta pair of which the overrides give only one."""
    reset = {}
    for pair in _ALTERNATIVES:
        given = [attr for attr in pair if attr in overrides]
        if len(given) == 1:
            other = pair[1 - pair.index(given[0])]
            reset[other] = _DEFAULTS[other]
    return replace(cfg, **reset, **overrides)


# -- presets ------------------------------------------------------------------
# Named figure scenarios: the ScenarioConfig defaults plus the fields below.

PRESETS: dict[str, dict] = {
    "fig2": dict(K=0.1, note="autonomous linear oscillators, weak connectivity"),
    "fig3": dict(K=10.0, note="autonomous linear oscillators, strong connectivity"),
    "fig4": dict(K=0.1, xi=1.0, note="autonomous nonlinear oscillators, weak connectivity"),
    "fig5": dict(K=0.1, xi=1.0, gamma=0.15, F=0.5,
                 note="driven nonlinear oscillators, weak connectivity; "
                      "F is one common drive on both oscillators"),
    "fig6": dict(K=10.0, xi=1.0, gamma=0.15, F=0.5,
                 note="driven nonlinear oscillators, strong connectivity; "
                      "F is one common drive on both oscillators"),
    "fig8": dict(kind="quantum", n_values=(10.0, 100.0, 1000.0, 10000.0), temperature=100.0,
                 state="phi_minus",
                 note="thermal OTOC through the quantum channel at decreasing quantumness"),
}
# the note is not rendered, so fig7's CSV is fig3's bytes
PRESETS["fig7"] = dict(PRESETS["fig3"], note="alias of fig3: the same run, whose energy "
                       "budget is the h0, h_nv and v_int columns")


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    try:
        own = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; available: {', '.join(preset_names())}") \
            from None
    return ScenarioConfig(name=name, **own)


# -- parsing / rendering -------------------------------------------------------

def _parse_entries(text: str):
    """Yield (section, key, raw value, line number) from key = value text."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        yield section, key, value, lineno


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a validated ScenarioConfig.

    A ``[scenario] name = figN`` line seeds the matching preset; every other
    key overrides it.  Unknown keys, bad values, and parameters matching none
    of the four dynamical regimes are rejected with line-level messages.
    """
    entries = list(_parse_entries(text))
    overrides: dict[str, object] = {}
    lines: dict[str, int] = {}
    name = None
    for section, key, value, lineno in entries:
        if section == "scenario" and key == "name":
            name = value
            continue
        try:
            attr, caster = SCHEMA[section][key]
        except KeyError:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'") from None
        try:
            overrides[attr] = caster(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {section}.{key}: {exc}") from None
        lines[attr] = lineno

    if name is not None and name in PRESETS:
        cfg = preset_config(name)
    elif name in (None, "custom"):
        cfg = ScenarioConfig(name="custom")
    else:
        raise ConfigError(f"unknown scenario name {name!r}; available: "
                          f"{', '.join(preset_names())} or custom")
    cfg = apply_overrides(cfg, overrides)
    try:
        return cfg.validate()
    except ConfigError as exc:
        # a regime error points at the first regime-setting line given
        given = [lines[attr] for attr in ("F", "gamma", "xi") if attr in lines]
        if not given or not isinstance(exc.__context__, RegimeError):
            raise
        raise ConfigError(f"{exc} (see line {given[0]})") from None


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it reproduces the same configuration.

    Unset fields are left out.  Where a preset sets K or T and cfg does not,
    the text gives D or beta, and parsing resets the preset's field by the
    K/D and T/beta rule of apply_overrides.
    """
    out = ["[scenario]", f"name = {cfg.name if cfg.name in PRESETS else 'custom'}",
           f"kind = {cfg.kind}"]
    for section, keys in SCHEMA.items():
        if section == "scenario":
            continue
        body = []
        for key, (attr, _) in keys.items():
            value = getattr(cfg, attr)
            if value is None:
                continue
            if isinstance(value, tuple):
                body.append(f"{key} = {','.join(repr(v) for v in value)}")
            else:
                body.append(f"{key} = {value}")
        if body:
            out.append(f"[{section}]")
            out.extend(body)
    return "\n".join(out) + "\n"
