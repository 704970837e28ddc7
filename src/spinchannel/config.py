"""Scenario configuration: flat key = value text with [sections].

A configuration either names a preset scenario (fig2..fig8) or describes a
custom run.  Parsing is line-aware so unknown keys, malformed values and
regime-inconsistent parameters are reported with the offending line number.
``render_config`` emits a canonical text that parses back to an identical
configuration.  Config files, ``--set`` and sweeps apply their overrides
through ``apply_overrides``: giving one of K/D or T/beta resets the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .hybrid_dynamics import OscParams, Regime, RegimeError
from .quantum_channel import QuantumChannelParams
from .spin_algebra import SpinParams, basis_state, bell_phi_minus

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "render_config",
           "resolve_field", "apply_overrides", "PRESETS", "preset_names",
           "preset_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


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


def _str(text: str) -> str:
    return text


# section -> key -> (ScenarioConfig attribute, caster)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "scenario": {"name": ("name", _str), "kind": ("kind", _str)},
    "spin": {
        "omega0": ("spin_omega0", _float),
        "g": ("spin_g", _float),
        "alpha": ("alpha", _float),
    },
    "oscillators": {
        "omega1": ("omega1", _float),
        "omega2": ("omega2", _float),
        "D": ("D", _float),
        "K": ("K", _float),
        "xi": ("xi", _float),
        "gamma": ("gamma", _float),
        "F": ("F", _float),
        "Omega": ("Omega", _float),
    },
    "quantum": {
        "omega0": ("q_omega0", _float),
        "omega": ("q_omega", _float),
        "g": ("q_g", _float),
        "n": ("n_values", _float_list),
        "T": ("temperature", _float),
        "beta": ("beta", _float),
    },
    "initial": {
        "state": ("state", _str),
        "amplitudes": ("amplitudes", _float_list),
        "x1": ("x1", _float),
        "v1": ("v1", _float),
        "x2": ("x2", _float),
        "v2": ("v2", _float),
    },
    "run": {
        "t_end": ("t_end", _float),
        "dt_out": ("dt_out", _float),
        "tol": ("tol", _float),
    },
    "output": {"path": ("out_path", _str), "format": ("out_format", _str)},
}


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description (flat view of every config key)."""

    name: str = "custom"
    kind: str = "hybrid"
    # spin (hybrid channel)
    spin_omega0: float = 1.5
    spin_g: float = 1.0
    alpha: float = math.pi / 3
    # oscillators
    omega1: float = 1.0
    omega2: float = 1.5
    D: float | None = None
    K: float | None = None
    xi: float = 0.0
    gamma: float = 0.0
    F: float = 0.0
    Omega: float = 1.0
    # quantum channel
    q_omega0: float = 3.0
    q_omega: float = 2.0
    q_g: float = 1.0
    n_values: tuple[float, ...] = (0.0,)
    temperature: float | None = None
    beta: float = 0.0
    # initial conditions
    state: str = "01"
    amplitudes: tuple[float, ...] | None = None
    x1: float = 1.0
    v1: float = 0.0
    x2: float = 0.0
    v2: float = 0.0
    # run control
    t_end: float = 100.0
    dt_out: float | None = None
    tol: float = 1e-9
    # output
    out_path: str | None = None
    out_format: str = "csv"
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
        if self.state == "01":
            return basis_state("01")
        if self.state == "phi_minus":
            return bell_phi_minus()
        if self.state in ("00", "10", "11"):
            return basis_state(self.state)
        if self.state == "custom":
            if self.amplitudes is None or len(self.amplitudes) != 8:
                raise ConfigError("state=custom requires amplitudes = 8 numbers "
                                  "(Re, Im for each of C1..C4)")
            a = np.asarray(self.amplitudes, dtype=float)
            psi = a[0::2] + 1j * a[1::2]
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

    def validate(self) -> "ScenarioConfig":
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
        if self.kind == "hybrid":
            try:
                Regime.classify(self.osc_params())
                self.spin_params()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            self.initial_spin_state()
        else:
            if not self.n_values:
                raise ConfigError("quantum runs need at least one photon number in quantum.n")
            try:
                for n in self.n_values:
                    self.quantum_params(n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            self.initial_spin_state()
        return self


_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


# -- presets ------------------------------------------------------------------
# Named figure scenarios.  Hybrid presets share the common spin/oscillator
# frequencies, alpha = pi/3, g = 1, and the default initial displacement
# x1(0) = 1 (initial oscillator conditions are a package choice, recorded in
# the config so every run is reproducible).  F is a single common drive
# applied to both oscillators.

_HYBRID_BASE = dict(kind="hybrid", spin_omega0=1.5, spin_g=1.0, alpha=math.pi / 3,
                    omega1=1.0, omega2=1.5, state="01",
                    x1=1.0, v1=0.0, x2=0.0, v2=0.0,
                    t_end=100.0, tol=1e-9)

PRESETS: dict[str, dict] = {
    "fig2": dict(_HYBRID_BASE, K=0.1, xi=0.0, gamma=0.0, F=0.0,
                 note="autonomous linear oscillators, weak connectivity"),
    "fig3": dict(_HYBRID_BASE, K=10.0, xi=0.0, gamma=0.0, F=0.0,
                 note="autonomous linear oscillators, strong connectivity"),
    "fig4": dict(_HYBRID_BASE, K=0.1, xi=1.0, gamma=0.0, F=0.0,
                 note="autonomous nonlinear oscillators, weak connectivity"),
    "fig5": dict(_HYBRID_BASE, K=0.1, xi=1.0, gamma=0.15, F=0.5, Omega=1.0,
                 note="driven nonlinear oscillators, weak connectivity; "
                      "F is one common drive on both oscillators"),
    "fig6": dict(_HYBRID_BASE, K=10.0, xi=1.0, gamma=0.15, F=0.5, Omega=1.0,
                 note="driven nonlinear oscillators, strong connectivity; "
                      "F is one common drive on both oscillators"),
    "fig8": dict(kind="quantum", q_omega0=3.0, q_omega=2.0, q_g=1.0,
                 n_values=(10.0, 100.0, 1000.0, 10000.0), temperature=100.0,
                 state="phi_minus", t_end=100.0, tol=1e-9,
                 note="thermal OTOC through the quantum channel at decreasing quantumness"),
}
# the note is not rendered, so fig7's CSV is fig3's bytes
PRESETS["fig7"] = dict(PRESETS["fig3"], note="alias of fig3: the same run, whose energy "
                       "budget is the h0, h_nv and v_int columns")


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    try:
        fields = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; available: {', '.join(preset_names())}") \
            from None
    return ScenarioConfig(name=name, **fields)


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
    for section in ("spin", "oscillators", "quantum", "initial", "run", "output"):
        body = []
        for key, (attr, _) in SCHEMA[section].items():
            value = getattr(cfg, attr)
            if value is None:
                continue
            if isinstance(value, tuple):
                body.append(f"{key} = {','.join(repr(v) for v in value)}")
            elif isinstance(value, float):
                body.append(f"{key} = {value!r}")
            else:
                body.append(f"{key} = {value}")
        if body:
            out.append(f"[{section}]")
            out.extend(body)
    return "\n".join(out) + "\n"
