import contextlib
import dataclasses
import io
import json
import math
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cli_cases import CASE, CASES, CATEGORY, SAME_BYTES, check, reject_constant, strict_error
from spinchannel import quantum_channel
from spinchannel.cli import main
from spinchannel.config import (SCHEMA, ConfigError, ScenarioConfig, apply_overrides,
                                parse_config, preset_config, preset_names, render_config,
                                resolve_field)
from spinchannel.hybrid_dynamics import IntegrationDiagnostics, OscParams, TimeSeries
from spinchannel.quantum_channel import GIBBS_EXPONENT_LIMIT
from spinchannel.runner import (CSV_BLOCK_ROWS, HYBRID_CSV_HEADER, QUANTUM_CSV_HEADER,
                                RunResult, _columns, run_scenario, sweep, write_output)

# every preset checked field-for-field against the published parameter tables
CAPTION_TABLE = {
    "fig2": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.0, xi=0.0, gamma=0.0,
                 spin_g=1.0, K=0.1, alpha=math.pi / 3),
    "fig3": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.0, xi=0.0, gamma=0.0,
                 spin_g=1.0, K=10.0, alpha=math.pi / 3),
    "fig4": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.0, xi=1.0, gamma=0.0,
                 spin_g=1.0, K=0.1, alpha=math.pi / 3),
    "fig5": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.5, xi=1.0, gamma=0.15,
                 spin_g=1.0, K=0.1, alpha=math.pi / 3),
    "fig6": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.5, xi=1.0, gamma=0.15,
                 spin_g=1.0, K=10.0, alpha=math.pi / 3),
    "fig7": dict(spin_omega0=1.5, omega1=1.0, omega2=1.5, F=0.0, xi=0.0, gamma=0.0,
                 spin_g=1.0, K=10.0, alpha=math.pi / 3),
    "fig8": dict(q_g=1.0, q_omega0=3.0, q_omega=2.0, temperature=100.0,
                 n_values=(10.0, 100.0, 1000.0, 10000.0)),
}

# every field of every preset, written out in full and independently of the
# ScenarioConfig defaults, so that a changed default cannot move a preset
_COMMON_FIELDS = dict(
    kind="hybrid", spin_omega0=1.5, spin_g=1.0, alpha=math.pi / 3, omega1=1.0, omega2=1.5,
    D=None, K=None, xi=0.0, gamma=0.0, F=0.0, Omega=1.0, q_omega0=3.0, q_omega=2.0, q_g=1.0,
    n_values=(0.0,), temperature=None, beta=0.0, state="01", amplitudes=None,
    x1=1.0, v1=0.0, x2=0.0, v2=0.0, t_end=100.0, dt_out=None, tol=1e-9,
    out_path=None, out_format="csv")
PRESET_FIELDS = {
    "fig2": dict(_COMMON_FIELDS, name="fig2", K=0.1,
                 note="autonomous linear oscillators, weak connectivity"),
    "fig3": dict(_COMMON_FIELDS, name="fig3", K=10.0,
                 note="autonomous linear oscillators, strong connectivity"),
    "fig4": dict(_COMMON_FIELDS, name="fig4", K=0.1, xi=1.0,
                 note="autonomous nonlinear oscillators, weak connectivity"),
    "fig5": dict(_COMMON_FIELDS, name="fig5", K=0.1, xi=1.0, gamma=0.15, F=0.5,
                 note="driven nonlinear oscillators, weak connectivity; "
                      "F is one common drive on both oscillators"),
    "fig6": dict(_COMMON_FIELDS, name="fig6", K=10.0, xi=1.0, gamma=0.15, F=0.5,
                 note="driven nonlinear oscillators, strong connectivity; "
                      "F is one common drive on both oscillators"),
    "fig7": dict(_COMMON_FIELDS, name="fig7", K=10.0,
                 note="alias of fig3: the same run, whose energy budget is the h0, h_nv "
                      "and v_int columns"),
    "fig8": dict(_COMMON_FIELDS, name="fig8", kind="quantum",
                 n_values=(10.0, 100.0, 1000.0, 10000.0), temperature=100.0,
                 state="phi_minus",
                 note="thermal OTOC through the quantum channel at decreasing quantumness"),
}

# every config key, the ScenarioConfig attribute it sets, and whether it is
# numeric (a sweep target); the bare keys omega0 and g name two fields each
KEY_FIELDS = {
    "scenario.name": ("name", False), "scenario.kind": ("kind", False),
    "spin.omega0": ("spin_omega0", True), "spin.g": ("spin_g", True),
    "spin.alpha": ("alpha", True),
    "oscillators.omega1": ("omega1", True), "oscillators.omega2": ("omega2", True),
    "oscillators.D": ("D", True), "oscillators.K": ("K", True),
    "oscillators.xi": ("xi", True), "oscillators.gamma": ("gamma", True),
    "oscillators.F": ("F", True), "oscillators.Omega": ("Omega", True),
    "quantum.omega0": ("q_omega0", True), "quantum.omega": ("q_omega", True),
    "quantum.g": ("q_g", True), "quantum.n": ("n_values", True),
    "quantum.T": ("temperature", True), "quantum.beta": ("beta", True),
    "initial.state": ("state", False), "initial.amplitudes": ("amplitudes", True),
    "initial.x1": ("x1", True), "initial.v1": ("v1", True),
    "initial.x2": ("x2", True), "initial.v2": ("v2", True),
    "run.t_end": ("t_end", True), "run.dt_out": ("dt_out", True), "run.tol": ("tol", True),
    "output.path": ("out_path", False), "output.format": ("out_format", False),
}
AMBIGUOUS_BARE_KEYS = {"omega0", "g"}


def short(cfg, **kw):
    import dataclasses
    return dataclasses.replace(cfg, **kw)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(CAPTION_TABLE))
    def test_preset_matches_caption_table(self, name):
        cfg = preset_config(name)
        for attr, expected in CAPTION_TABLE[name].items():
            assert getattr(cfg, attr) == expected, f"{name}.{attr}"

    @pytest.mark.parametrize("name", sorted(PRESET_FIELDS))
    def test_every_preset_field_is_pinned(self, name):
        cfg = preset_config(name)
        expected = PRESET_FIELDS[name]
        assert {f.name for f in dataclasses.fields(cfg)} == set(expected)
        assert len(expected) == 31
        for attr, want in expected.items():
            got = getattr(cfg, attr)
            # the type too: the config echo writes 10.0 and 10 differently
            assert (type(got), got) == (type(want), want), f"{name}.{attr}"

    def test_preset_names(self):
        assert preset_names() == [f"fig{k}" for k in range(2, 9)]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            preset_config("fig99")

    def test_initial_states(self):
        assert preset_config("fig2").state == "01"
        assert preset_config("fig8").state == "phi_minus"


class TestConfigKeys:
    def test_every_key_sets_its_attribute(self):
        assert {f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys} \
            == set(KEY_FIELDS)
        assert len(KEY_FIELDS) == 30
        for key, (attr, _) in KEY_FIELDS.items():
            assert resolve_field(key)[0] == attr, key

    @pytest.mark.parametrize("key", sorted(KEY_FIELDS))
    def test_numeric_keys_are_the_sweep_targets(self, key):
        # an empty value list checks the target and runs nothing
        if KEY_FIELDS[key][1]:
            assert sweep(preset_config("fig2"), key, []) == []
        else:
            with pytest.raises(ConfigError, match="not a numeric field"):
                sweep(preset_config("fig2"), key, [])

    def test_ambiguous_bare_keys(self):
        bare_keys = {key.split(".", 1)[1] for key in KEY_FIELDS}
        for bare in bare_keys:
            if bare in AMBIGUOUS_BARE_KEYS:
                with pytest.raises(ConfigError, match="ambiguous"):
                    resolve_field(bare)
            else:
                assert resolve_field(bare) == resolve_field(
                    next(key for key in KEY_FIELDS if key.endswith(f".{bare}")))


class TestParseConfig:
    def test_preset_reference(self):
        cfg = parse_config("[scenario]\nname = fig2\n")
        assert cfg == preset_config("fig2")

    def test_fig5_is_driven_nonlinear_weak(self):
        cfg = parse_config("[scenario]\nname = fig5\n")
        assert (cfg.F, cfg.xi, cfg.gamma, cfg.K) == (0.5, 1.0, 0.15, 0.1)

    def test_override_preset_field(self):
        cfg = parse_config("[scenario]\nname = fig2\n[run]\nt_end = 7.5\n")
        assert cfg.t_end == 7.5
        assert cfg.K == 0.1

    def test_unknown_key_reports_line(self):
        text = "[scenario]\nname = fig2\n[oscillators]\nwibble = 3\n"
        with pytest.raises(ConfigError, match=r"line 4: unknown key 'oscillators.wibble'"):
            parse_config(text)

    def test_bad_number_reports_line(self):
        text = "[scenario]\nname = fig2\n[run]\nt_end = soon\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("t_end = 3\n")

    def test_regime_inconsistency_rejected(self):
        text = "[scenario]\nname = fig2\n[oscillators]\nF = 0.5\n"
        with pytest.raises(ConfigError, match="none of the four"):
            parse_config(text)
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    def test_line_hint_only_on_regime_errors(self):
        # line 4 sets xi; the format error has nothing to do with it
        text = "[scenario]\nname = fig5\n[oscillators]\nxi = 2\n[output]\nformat = xml\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == "format must be 'csv' or 'json', got 'xml'"
        text = "[scenario]\nname = fig5\n[oscillators]\nxi = 2\nF = 0\n"
        with pytest.raises(ConfigError, match=r"none of the four regimes.*\(see line 5\)$"):
            parse_config(text)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("[scenario]\nname = fig1\n")

    def test_custom_quantum_scenario(self):
        text = ("[scenario]\nname = custom\nkind = quantum\n"
                "[quantum]\nomega0 = 3\nomega = 2\ng = 1\nn = 0,5\nbeta = 0.5\n"
                "[initial]\nstate = phi_minus\n[run]\nt_end = 2\n")
        cfg = parse_config(text)
        assert cfg.kind == "quantum"
        assert cfg.n_values == (0.0, 5.0)

    def test_custom_amplitudes(self):
        text = ("[scenario]\nname = custom\n[oscillators]\nD = 0.125\n"
                "[initial]\nstate = custom\namplitudes = 1,0,0,0,0,0,1,0\n")
        cfg = parse_config(text)
        psi = cfg.initial_spin_state()
        assert psi[0] == pytest.approx(1 / math.sqrt(2))
        assert psi[3] == pytest.approx(1 / math.sqrt(2))

    def test_inconsistent_D_and_K(self):
        # given together, K and D must agree (D alone replaces the preset's K)
        text = "[scenario]\nname = fig2\n[oscillators]\nK = 0.1\nD = 3.0\n"
        with pytest.raises(ConfigError, match="inconsistent coupling"):
            parse_config(text)

    def test_K_resolves_through_from_connectivity(self):
        cfg = preset_config("fig3")
        assert cfg.osc_params() == OscParams.from_connectivity(1.0, 1.5, 10.0)
        with pytest.raises(ConfigError, match="K cannot be resolved: connectivity is undefined"):
            parse_config("[scenario]\nname = fig2\n[oscillators]\nomega2 = 1.0\n")
        with pytest.raises(ConfigError, match="K cannot be resolved"):
            short(cfg, omega2=1.0).effective_D()

    def test_one_field_of_a_pair_resets_the_other(self):
        cfg = parse_config("[scenario]\nname = fig2\n[oscillators]\nD = 3.0\n")
        assert (cfg.D, cfg.K) == (3.0, None)
        cfg = parse_config("[scenario]\nname = fig8\n[quantum]\nbeta = 2.0\n")
        assert (cfg.temperature, cfg.quantum_params(10.0).beta) == (None, 2.0)
        cfg = parse_config("[scenario]\nname = custom\nkind = quantum\n"
                           "[quantum]\nbeta = 2.0\nT = 4.0\n")
        assert (cfg.temperature, cfg.beta, cfg.quantum_params(0.0).beta) == (4.0, 2.0, 0.25)

    def test_invalid_model_parameters_are_config_errors(self):
        with pytest.raises(ConfigError, match="omega0 must be non-negative"):
            parse_config("[scenario]\nname = fig2\n[spin]\nomega0 = -1\n")
        with pytest.raises(ConfigError, match="omega0 must differ from omega"):
            parse_config("[scenario]\nname = fig8\n[quantum]\nomega0 = 2\n")
        # beta alone resets the preset's T, so a negative beta is checked
        with pytest.raises(ConfigError, match="inverse temperature must be non-negative"):
            parse_config("[scenario]\nname = fig8\n[quantum]\nbeta = -1\n")

    def test_non_finite_values_rejected(self):
        text = "[scenario]\nname = fig5\n[oscillators]\nF = 0.5\nK = nan\n"
        with pytest.raises(ConfigError, match="line 5: oscillators.K: expected a finite number"):
            parse_config(text)
        with pytest.raises(ConfigError, match="line 4: quantum.n: expected a finite number"):
            parse_config("[scenario]\nname = fig8\n[quantum]\nn = 10,inf\n")
        with pytest.raises(ConfigError, match="oscillators.K must be finite"):
            short(preset_config("fig2"), K=math.nan).validate()

    def test_missing_required_coupling(self):
        text = "[scenario]\nname = custom\nkind = hybrid\n[run]\nt_end = 1\n"
        with pytest.raises(ConfigError, match="oscillators.D or oscillators.K"):
            parse_config(text)


_NUMBER = st.floats(-50.0, 50.0)
_POSITIVE = st.floats(1e-3, 50.0)
_SHARED_FIELDS = {"x1": _NUMBER, "v1": _NUMBER, "x2": _NUMBER, "v2": _NUMBER,
                  "t_end": st.floats(0.0, 1e3), "dt_out": st.one_of(st.none(), _POSITIVE),
                  "tol": st.floats(1e-12, 1e-4), "out_format": st.sampled_from(["csv", "json"])}
_COMMON_FIELDS = {"spin_omega0": _POSITIVE, "spin_g": _NUMBER, "alpha": _NUMBER,
                  "omega1": _POSITIVE, "omega2": _POSITIVE, "xi": _NUMBER, "Omega": _NUMBER}
_QUANTUM_FIELDS = {"q_omega0": _NUMBER, "q_omega": _NUMBER, "q_g": _NUMBER,
                   "n_values": st.lists(st.floats(0.0, 1e4), min_size=1, max_size=5).map(tuple),
                   "beta": st.floats(0.0, 10.0)}


@st.composite
def valid_configs(draw):
    """A preset or a custom base with overrides of numeric, list and state
    fields, as a config file can write them: an override sets a field, and
    the configs also leave K, D, T, dt_out and amplitudes unset."""
    name = draw(st.sampled_from([*preset_names(), "custom"]))
    if name == "custom":
        base = ScenarioConfig(kind=draw(st.sampled_from(["hybrid", "quantum"])))
    else:
        base = preset_config(name)
    fields = dict(_SHARED_FIELDS)
    fields.update(_COMMON_FIELDS if base.kind == "hybrid" else _QUANTUM_FIELDS)
    overrides = draw(st.fixed_dictionaries({}, optional=fields))
    if base.kind == "hybrid":
        # a regime needs F and gamma both zero or both nonzero
        if draw(st.booleans()):
            overrides.update(F=draw(_POSITIVE), gamma=draw(_POSITIVE))
        else:
            overrides.update(F=0.0, gamma=0.0)
        # the coupling as K, as D or as both; a field not given is unset, also
        # where the preset sets it
        coupling = draw(st.sampled_from(["K", "D", "both"]))
        overrides.update(K=draw(_POSITIVE) if coupling != "D" else None,
                         D=draw(_POSITIVE) if coupling == "D" else None)
        if coupling == "both":
            omega1 = overrides.get("omega1", base.omega1)
            omega2 = overrides.get("omega2", base.omega2)
            overrides["D"] = overrides["K"] * abs(omega1**2 - omega2**2)
    else:
        # T, or beta alone with T unset, also where the preset sets T
        overrides["temperature"] = draw(st.one_of(st.none(), _POSITIVE))
    overrides["state"] = draw(st.sampled_from(["00", "01", "10", "11", "phi_minus", "custom"]))
    if overrides["state"] == "custom" or draw(st.booleans()):
        overrides["amplitudes"] = tuple(draw(st.lists(_NUMBER, min_size=8, max_size=8)))
    cfg = short(base, **overrides)
    try:
        return cfg.validate()
    except ConfigError:
        assume(False)


class TestRenderRoundTrip:
    @pytest.mark.parametrize("name", sorted(CAPTION_TABLE))
    def test_text_round_trip(self, name):
        cfg = preset_config(name)
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_with_overrides(self):
        cfg = short(preset_config("fig2"), t_end=3.0, tol=1e-8)
        assert parse_config(render_config(cfg)) == cfg

    @given(valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_of_generated_configs(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    def test_unset_temperature_round_trips(self):
        cfg = short(preset_config("fig8"), temperature=None, beta=2.0)
        back = parse_config(render_config(cfg))
        assert back == cfg
        assert back.quantum_params(10.0).beta == 2.0


class TestRunScenario:
    def test_determinism_bit_identical(self):
        cfg = short(preset_config("fig2"), t_end=5.0)
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert np.array_equal(a.series.x1, b.series.x1)
        assert np.array_equal(a.series.otoc, b.series.otoc)
        assert np.array_equal(a.series.psis, b.series.psis)

    def test_zero_length_run(self):
        cfg = short(preset_config("fig2"), t_end=0.0)
        res = run_scenario(cfg)
        assert len(res.series) == 1
        assert res.series.t[0] == 0.0

    def test_fig2_otoc_column_is_null(self):
        res = run_scenario(short(preset_config("fig2"), t_end=20.0))
        assert res.series.otoc.max() <= 1e-8

    def test_quantum_run_produces_family(self):
        cfg = short(preset_config("fig8"), t_end=5.0, n_values=(10.0, 100.0), dt_out=1.0)
        res = run_scenario(cfg)
        assert res.kind == "quantum"
        assert set(np.unique(res.qtable["n"])) == {10.0, 100.0}
        assert res.qtable["t"].size == 2 * 6
        assert np.allclose(res.qtable["concurrence"], 1.0, atol=1e-10)
        assert np.allclose(res.qtable["gme"], 0.5, atol=1e-7)

    def test_concurrence_follows_configured_start(self):
        # |01> is a product state; the flip-flop entangles it as |sin(2 Omega_n t)|
        cfg = short(preset_config("fig8"), state="01", n_values=(0.0, 3.0), t_end=10.0,
                    dt_out=0.05)
        res = run_scenario(cfg)
        t, n = res.qtable["t"], res.qtable["n"]
        omega_n = np.array([cfg.quantum_params(v).Omega_n for v in n])
        expected = np.abs(np.sin(2 * omega_n * t))
        assert np.abs(res.qtable["concurrence"] - expected).max() < 1e-7
        c = np.clip(res.qtable["concurrence"], 0.0, 1.0)
        assert np.array_equal(res.qtable["gme"], 0.5 * (1 - np.sqrt(1 - c)))

    def test_concurrence_of_a_product_start_is_exact(self):
        # the column is the pure-state concurrence of psi(t) = U psi0, so it
        # follows |sin(2 Omega_n t)| to rounding, over every fig8 photon number
        cfg = short(preset_config("fig8"), state="01", n_values=(0.0, 3.0, 10.0, 1e4),
                    t_end=100.0)
        res = run_scenario(cfg)
        t, n = res.qtable["t"], res.qtable["n"]
        omega_n = np.array([cfg.quantum_params(v).Omega_n for v in n])
        c = res.qtable["concurrence"]
        assert np.abs(c - np.abs(np.sin(2 * omega_n * t))).max() < 1e-12
        assert c.min() >= 0.0 and c.max() <= 1.0 + 4 * np.finfo(float).eps

    def test_one_propagator_per_photon_number(self, monkeypatch):
        from spinchannel import correlators, quantum_channel, runner
        calls = {"expm": 0, "density": 0, "heisenberg": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        expm = counting("expm", quantum_channel.expm_hermitian)
        monkeypatch.setattr(quantum_channel, "expm_hermitian", expm)
        monkeypatch.setattr(runner, "expm_hermitian", expm)
        monkeypatch.setattr(quantum_channel, "thermal_density",
                            counting("density", quantum_channel.thermal_density))
        monkeypatch.setattr(correlators, "_heisenberg",
                            counting("heisenberg", correlators._heisenberg))
        res = run_scenario(short(preset_config("fig8"), t_end=20.0))
        assert res.diagnostics["samples_per_n"] > 50
        # one U per photon number, shared by the runner's concurrence column,
        # otoc_numeric, thermal_otoc and thermal_concurrence, and one
        # sigma1_z(t) of it, shared by otoc_numeric and thermal_otoc
        assert calls == {"expm": 4, "density": 2 * 4, "heisenberg": 4}

    def test_fig8_preset_yields_four_series(self):
        cfg = short(preset_config("fig8"), t_end=1.0, dt_out=0.5)
        res = run_scenario(cfg)
        assert sorted(np.unique(res.qtable["n"])) == [10.0, 100.0, 1000.0, 10000.0]

    def test_zero_length_quantum_run(self):
        cfg = short(preset_config("fig8"), t_end=0.0, n_values=(10.0,))
        res = run_scenario(cfg)
        assert res.qtable["t"].size == 1
        assert res.qtable["otoc"][0] == pytest.approx(0.0, abs=1e-12)


class TestSweep:
    def test_connectivity_pair(self):
        base = short(preset_config("fig2"), t_end=5.0)
        results = sweep(base, "K", [0.1, 10.0])
        direct3 = run_scenario(short(preset_config("fig3"), t_end=5.0))
        assert np.array_equal(results[1].series.x1, direct3.series.x1)
        assert results[0].config.K == 0.1

    def test_quantum_n_sweep_matches_fig8_family(self):
        base = short(preset_config("fig8"), t_end=3.0, dt_out=1.0)
        results = sweep(base, "quantum.n", [10.0, 100.0])
        assert [r.config.n_values for r in results] == [(10.0,), (100.0,)]

    def test_empty_values(self):
        assert sweep(preset_config("fig2"), "K", []) == []

    def test_D_sweep_over_a_K_preset_echoes_a_parsable_config(self):
        results = sweep(short(preset_config("fig2"), t_end=1.0), "D", [0.3, 12.5])
        for result, D in zip(results, [0.3, 12.5]):
            assert (result.config.D, result.config.K) == (D, None)
            assert parse_config(result.config_text) == result.config

    def test_beta_sweep_over_a_T_preset_sets_beta(self):
        results = sweep(short(preset_config("fig8"), t_end=1.0), "beta", [2.0])
        assert results[0].config.temperature is None
        assert results[0].config.quantum_params(10.0).beta == 2.0
        assert parse_config(results[0].config_text) == results[0].config

    def test_non_numeric_target(self):
        with pytest.raises(ConfigError, match="not a numeric field"):
            sweep(preset_config("fig2"), "initial.state", [1.0])

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            sweep(preset_config("fig2"), "oscillators.mass", [1.0])

    def test_ambiguous_bare_key(self):
        with pytest.raises(ConfigError, match="ambiguous"):
            sweep(preset_config("fig2"), "omega0", [1.0])

    def test_invalid_value_fails_in_its_run_with_the_value_named(self):
        # each swept config is validated once, by run_scenario, inside the
        # try that names the value
        with pytest.raises(ConfigError, match="K must be finite") as info:
            sweep(short(preset_config("fig2"), t_end=0.5), "K", [0.5, math.nan])
        assert info.value.__notes__ == ["while sweeping K = nan"]

    def test_order_preserved(self):
        base = short(preset_config("fig2"), t_end=2.0)
        results = sweep(base, "run.tol", [1e-8, 1e-9, 1e-10])
        assert [r.config.tol for r in results] == [1e-8, 1e-9, 1e-10]


def _empty_series():
    z = np.zeros(0)
    zc = np.zeros(0, dtype=complex)
    return TimeSeries(t=z, x1=z, v1=z, x2=z, v2=z, s1x=z, s1y=z, s1z=z,
                      s2x=z, s2y=z, s2z=z, otoc=z, two_point=zc, h0=z, h_nv=z,
                      v_int=z, sep_defect=z, psis=np.zeros((0, 4), complex),
                      Us=np.zeros((0, 4, 4), complex), psi0=np.zeros(4, complex),
                      diagnostics=IntegrationDiagnostics())


# values that '%.17g' writes apart although some compare equal (0.0, -0.0),
# subnormals, the extremes, and short and long decimal expansions
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1e300, -1e300, 1.0, 0.1, 1 / 3, math.nan, math.inf]
_BLOCK_EDGE_ROWS = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                    2 * CSV_BLOCK_ROWS + 1]


def _edge_columns(rows):
    """Seven columns of ``rows`` cells cycling through the edge values, one
    column constant so that it takes the writer's per-value path."""
    cycled = np.resize(np.array(_EDGE_VALUES), rows)
    return [np.full(rows, -0.0)] + [np.roll(cycled, k) for k in range(6)]


@st.composite
def csv_columns(draw):
    """Seven columns of one length over one drawn pool of values.  Each column
    takes its cells from a prefix of the pool: a short prefix repeats its
    values, a long one mostly does not.  Lengths are short, or on the edges
    of the writer's blocks of CSV_BLOCK_ROWS rows."""
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                                  min_size=1, max_size=16)), dtype=float)
    rows = draw(st.one_of(st.integers(0, 16), st.sampled_from(_BLOCK_EDGE_ROWS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [pool[rng.integers(0, rng.integers(1, pool.size + 1), rows)]
            for _ in QUANTUM_CSV_HEADER]


def _per_cell_csv(header, columns) -> bytes:
    """The reference CSV: every cell formatted on its own with '%.17g'."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row)
                                  for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode("ascii")


class TestWriteOutput:
    def test_empty_series_header_only(self, tmp_path):
        res = RunResult(config=preset_config("fig2"), kind="hybrid",
                        series=_empty_series(), qtable=None, diagnostics={},
                        wall_time_s=0.0)
        path = tmp_path / "empty.csv"
        write_output(res, "csv", str(path))
        assert path.read_text() == ",".join(HYBRID_CSV_HEADER) + "\n"
        path = tmp_path / "empty.json"
        write_output(res, "json", str(path))
        assert path.read_text() == json.dumps({"config_text": res.config_text, "kind": "hybrid",
                                               "records": [], "diagnostics": {}}, indent=1) + "\n"

    def test_single_record_round_trip(self, tmp_path):
        cfg = short(preset_config("fig2"), t_end=0.0)
        res = run_scenario(cfg)
        path = tmp_path / "one.csv"
        write_output(res, "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(HYBRID_CSV_HEADER)
        values = dict(zip(lines[1].split(",")[:0] or HYBRID_CSV_HEADER,
                          [float(v) for v in lines[1].split(",")]))
        assert values["x1"] == res.series.x1[0]  # 17 digits round-trip exactly
        assert values["two_point_re"] == res.series.two_point[0].real

    def test_csv_floats_round_trip_at_17_digits(self, tmp_path):
        cfg = short(preset_config("fig2"), t_end=2.0, dt_out=0.5)
        res = run_scenario(cfg)
        path = tmp_path / "run.csv"
        write_output(res, "csv", str(path))
        lines = path.read_text().splitlines()
        for k, line in enumerate(lines[1:]):
            row = [float(v) for v in line.split(",")]
            assert row[1] == res.series.x1[k]
            assert row[11] == res.series.otoc[k]
        per_cell = [",".join(HYBRID_CSV_HEADER)]
        per_cell += [",".join("%.17g" % v for v in row) for row in zip(*_columns(res))]
        assert path.read_text() == "\n".join(per_cell) + "\n"

    def test_quantum_csv_equals_per_cell_formatting(self, tmp_path):
        # the time grid repeats for every n and n is constant per block, so
        # these columns format each distinct value once; the bytes must not move
        res = run_scenario(short(preset_config("fig8"), t_end=20.0,
                                 n_values=(10.0, 100.0, 1000.0)))
        assert len(set(res.qtable["n"].tolist())) == 3
        assert 2 * np.unique(res.qtable["t"]).size <= res.qtable["t"].size
        path = tmp_path / "q.csv"
        write_output(res, "csv", str(path))
        assert path.read_bytes() == _per_cell_csv(QUANTUM_CSV_HEADER, _columns(res))

    @given(csv_columns())
    @example([np.array([0.0, -0.0, 0.0, -0.0])] * 7)
    @example(_edge_columns(_BLOCK_EDGE_ROWS[0]))
    @example(_edge_columns(_BLOCK_EDGE_ROWS[1]))
    @example(_edge_columns(_BLOCK_EDGE_ROWS[2]))
    @example(_edge_columns(_BLOCK_EDGE_ROWS[3]))
    @example(_edge_columns(_BLOCK_EDGE_ROWS[4]))
    @example(_edge_columns(_BLOCK_EDGE_ROWS[5]))
    @settings(max_examples=200, deadline=None)
    def test_csv_equals_per_cell_formatting(self, tmp_path_factory, columns):
        res = RunResult(config=preset_config("fig8"), kind="quantum", series=None,
                        qtable=dict(zip(QUANTUM_CSV_HEADER, columns)), diagnostics={},
                        wall_time_s=0.0)
        path = tmp_path_factory.getbasetemp() / "q.csv"
        write_output(res, "csv", str(path))
        assert path.read_bytes() == _per_cell_csv(QUANTUM_CSV_HEADER, columns)

    @pytest.mark.parametrize("name, t_end", [("fig2", 1.0), ("fig8", 20.0)])
    def test_json_bytes_equal_json_dump(self, tmp_path, name, t_end):
        res = run_scenario(short(preset_config(name), t_end=t_end))
        header = HYBRID_CSV_HEADER if res.kind == "hybrid" else QUANTUM_CSV_HEADER
        records = [dict(zip(header, map(float, row))) for row in zip(*_columns(res))]
        assert len(records) > 10
        payload = {"config_text": res.config_text, "kind": res.kind, "records": records,
                   "diagnostics": res.diagnostics}
        path = tmp_path / "run.json"
        write_output(res, "json", str(path))
        assert path.read_text() == json.dumps(payload, indent=1) + "\n"

    def test_json_mirrors_records_and_echoes_config(self, tmp_path):
        cfg = short(preset_config("fig2"), t_end=1.0, dt_out=0.5)
        res = run_scenario(cfg)
        path = tmp_path / "run.json"
        write_output(res, "json", str(path))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "hybrid"
        assert len(payload["records"]) == len(res.series)
        assert payload["records"][0]["two_point_re"] == res.series.two_point[0].real
        assert "max_separability_defect" in payload["diagnostics"]
        echoed = parse_config(payload["config_text"])
        rerun = run_scenario(echoed)
        assert np.array_equal(rerun.series.x1, res.series.x1)

    def test_quantum_csv_header(self, tmp_path):
        cfg = short(preset_config("fig8"), t_end=2.0, n_values=(10.0,), dt_out=1.0)
        res = run_scenario(cfg)
        path = tmp_path / "q.csv"
        write_output(res, "csv", str(path))
        assert path.read_text().splitlines()[0] == ",".join(QUANTUM_CSV_HEADER)

    def test_bad_format_rejected(self, tmp_path):
        res = run_scenario(short(preset_config("fig2"), t_end=0.0))
        with pytest.raises(ConfigError, match="format"):
            write_output(res, "xml", str(tmp_path / "x.xml"))


class Timeout(BaseException):
    """A run_main time limit ran out: a BaseException, so that no ``except
    Exception`` in the stepper or in main turns it into an exit code."""


def run_main(argv: list[str], seconds: float) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of main(argv) in process, which must
    return within `seconds`; each warning is one more stderr line, as under
    python -W default."""
    def expire(signum, frame):
        raise Timeout(f"no exit within {seconds} s")

    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    stderr.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                      for w in caught)
    return code, stdout.getvalue(), stderr.getvalue()


# an environment variable set in process would not reach OpenBLAS
IN_PROCESS = [case for case in CASES if not case.env]


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """The exit code, stdout, stderr and directory of a case's argv, run once
    per session by run_main in its own empty directory and time limit."""
    return _run_once(tmp_path_factory)


def _run_once(tmp_path_factory):
    """cli_run's reader: each argv runs at most once, and a run that timed out
    raises its Timeout again on every later read instead of running again."""
    runs = {}

    def run(argv: str):
        if argv not in runs:
            (case,) = [case for case in IN_PROCESS if case.argv == argv]
            outdir = tmp_path_factory.mktemp("case")
            try:
                runs[argv] = (*run_main(case.argv_in(outdir), case.timeout), outdir)
            except Timeout as exc:
                runs[argv] = exc
        if isinstance(runs[argv], Timeout):
            raise runs[argv]
        return runs[argv]
    return run


# one case per check of the CLI smoke step that the case table replaced
SMOKE_STEP_CASES = frozenset("""fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig2-D-on-K-preset
    fig5-F-overflows-d1 fig2-nan-first-step fig5-Omega-step-budget fig2-span-below-step-floor
    fig2-zero-span-x1-overflows-h0 sweep-values-share-a-file sweep-repeated-value
    fig8-below-gibbs-limit fig8-near-pure-bell fig2-omega1-overflows-D fig8-g-overflows-Omega0
    fig2-dt_out-above-row-bound fig8-dt_out-above-row-bound fig2-K-times-gap-overflows-D
    fig2-gamma-overflows-2gamma malformed-tol fig8-t50-one-thread fig8-t50
    fig8-t2000-one-thread fig8-t2000 k-sweep-one-thread k-sweep""".split())


# The command-line half of the fuzz contract: argv over every subcommand, the
# presets and an unknown name, 0-3 --set over every key (qualified and bare)
# and unknown ones, --tol and --format, and a sweep parameter other than
# t_end, with edge values.  A run or a sweep ends in --t-end 0, so no example
# steps, and writes under {out}.
_FUZZ_KEYS = sorted(KEY_FIELDS) + sorted({key.split(".")[1] for key in KEY_FIELDS}) \
    + ["oscillators.mass", "mass", "spin.omega_R", ""]
_FUZZ_VALUES = ["0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1e160", "5e-324", "",
                "nan", "x", "1,2", "1", "0.5", "2.5", "1e-6", "10,100", "0,0,1,0,0,0,0,0",
                "csv", "json", "00", "01", "phi_minus", "custom", "hybrid", "quantum", "fig2"]
_FUZZ_VALUE = st.sampled_from(_FUZZ_VALUES)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["run", "sweep", "presets"]))
    if command == "presets" and draw(st.booleans()):
        return ["presets"]
    argv = [command, "--scenario", draw(st.sampled_from(preset_names() + ["fig9"]))]
    for _ in range(draw(st.integers(0, 3))):
        argv += ["--set", f"{draw(st.sampled_from(_FUZZ_KEYS))}={draw(_FUZZ_VALUE)}"]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.one_of(st.sampled_from(["1e-6", "1e-9"]), _FUZZ_VALUE))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.one_of(st.sampled_from(["csv", "json"]), _FUZZ_VALUE))]
    if command == "sweep":
        param = draw(st.sampled_from([k for k in _FUZZ_KEYS if k not in ("t_end", "run.t_end")]))
        argv += ["--param", param, "--values", draw(_FUZZ_VALUE)]
    if command != "presets":
        argv += ["--t-end", "0", "--out", "{out}/x.csv"]
    return argv


class TestCli:
    @pytest.mark.parametrize("name", [case.name for case in IN_PROCESS])
    def test_cli_case(self, name, cli_run):
        case = CASE[name]
        assert check(case, *cli_run(case.argv)) == [], case.why

    def test_case_table_keeps_every_smoke_check(self):
        assert len(SMOKE_STEP_CASES) == 30
        assert SMOKE_STEP_CASES <= set(CASE)
        assert len(CASE) == len({(case.argv, str(case.env)) for case in CASES}) == len(CASES)
        assert len(SAME_BYTES) == 4
        assert all(name in CASE for group in SAME_BYTES for name in group)

    def test_a_timed_out_case_runs_once(self, tmp_path_factory, monkeypatch):
        # a hung case costs its time limit once per session, not once per test
        calls = []

        def hang(argv, seconds):
            calls.append(argv)
            raise Timeout(f"no exit within {seconds} s")

        monkeypatch.setitem(globals(), "run_main", hang)
        run = _run_once(tmp_path_factory)
        for _ in range(2):
            with pytest.raises(Timeout, match="no exit within"):
                run(IN_PROCESS[0].argv)
        assert len(calls) == 1

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig8" in out
        # each preset's own fields, the ones in which it differs from the defaults
        assert "fig2   [hybrid] autonomous linear oscillators, weak connectivity\n" \
               "       K=0.1\n" in out

    def test_run_with_config_file(self, tmp_path):
        cfg_file = tmp_path / "my.cfg"
        cfg_file.write_text("[scenario]\nname = fig2\n[run]\nt_end = 1\ndt_out = 0.5\n")
        out = tmp_path / "my.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert out.read_text().startswith(",".join(HYBRID_CSV_HEADER))

    def test_set_override(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["run", "--scenario", "fig2", "--t-end", "1",
                     "--set", "oscillators.K=10", "--out", str(out)])
        assert code == 0

    def test_set_D_on_a_K_preset(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = main(["run", "--scenario", "fig2", "--set", "D=0.3", "--t-end", "1",
                     "--format", "json", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        echoed = parse_config(json.loads(out.read_text())["config_text"])
        assert (echoed.D, echoed.K) == (0.3, None)

    def test_set_K_and_D_together_must_agree(self, tmp_path, capsys):
        argv = ["run", "--scenario", "fig2", "--set", "D=0.3", "--set", "K=0.1",
                "--t-end", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "inconsistent coupling" in json.loads(capsys.readouterr().err)["error"]["message"]
        argv[6] = "K=0.24"  # |omega1^2 - omega2^2| = 1.25, so K = 0.24 gives D = 0.3
        assert main(argv) == 0

    def test_bad_regime_exits_config_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig2", "--set", "F=0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "config"

    @staticmethod
    def fig8_lowest_temperature():
        """The lowest T fig8 runs at: its n = 10 has the widest spectrum."""
        p = preset_config("fig8").quantum_params(10.0)
        return 2 * abs(p.zeeman) / GIBBS_EXPONENT_LIMIT

    @pytest.mark.parametrize("override", ["T=0.002", "T=0.0025", "beta=1000", "outside"])
    def test_low_temperature_is_a_config_error(self, override, tmp_path, capsys):
        # cosh(2 beta zeeman) used to overflow into a traceback (exit 1)
        if override == "outside":
            override = f"T={self.fig8_lowest_temperature() * (1 - 1e-9)!r}"
        code = main(["run", "--scenario", "fig8", "--set", override, "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"].startswith("inverse temperature beta = ")
        assert "at n = 10.0:" in err["message"]
        assert f"(below T = {self.fig8_lowest_temperature()!r})" in err["message"]
        assert not list(tmp_path.iterdir())

    def test_low_temperature_just_inside_the_limit_runs(self, tmp_path, capsys):
        T = self.fig8_lowest_temperature() * (1 + 1e-9)
        code = main(["run", "--scenario", "fig8", "--set", f"T={T!r}", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 0, capsys.readouterr().err
        table = np.loadtxt(tmp_path / "x.csv", delimiter=",", skiprows=1)
        assert table.shape == (4 * 6, len(QUANTUM_CSV_HEADER))
        assert np.isfinite(table).all()

    def test_near_pure_bell_thermal_state_runs(self, cli_run):
        # the case checks the exit, stderr and rows; the thermal concurrence
        # is the closed form's 1.0 on every row
        *_, outdir = cli_run(CASE["fig8-near-pure-bell"].argv)
        table = np.loadtxt(outdir / "run.csv", delimiter=",", skiprows=1)
        assert table.shape[1] == len(QUANTUM_CSV_HEADER)
        assert (table[:, QUANTUM_CSV_HEADER.index("thermal_concurrence")] == 1.0).all()

    def test_thermal_cross_check_failure_is_an_integration_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # a Wootters route that reads concurrence 0 everywhere; a wrong Gibbs
        # factor would fail the thermal OTOC check first, since thermal_density
        # is built from the same factor
        monkeypatch.setattr(quantum_channel, "_wootters_tau",
                            lambda X: np.zeros(X.shape[:-2] + (X.shape[-1],) * 2, complex))
        code = main(CASE["fig8-near-pure-bell"].argv_in(tmp_path))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "integration"
        assert 0.0 <= err["t"] <= 50.0 and err["h"] is None and err["err_norm"] is None
        assert err["message"] == (f"thermal concurrence cross-check failed at t = {err['t']!r}: "
                                  f"closed form 1.0 vs Wootters 0.0")
        assert not list(tmp_path.iterdir())

    def test_evolved_trace_failure_is_an_integration_error(self, tmp_path, capsys, monkeypatch):
        # U[17] scaled by 1 + 1e-11 moves the trace of the evolved thermal
        # state by 2e-11, above DENSITY_TRACE_TOL, and every other check by
        # less than its tolerance; the trace check used to raise a ValueError,
        # reported as a config error (exit 2)
        from spinchannel import runner
        exact = runner.expm_hermitian
        grids = []

        def scaled(h, t):
            grids.append(t)
            U = exact(h, t)
            U[17] *= 1.0 + 1e-11
            return U

        monkeypatch.setattr(runner, "expm_hermitian", scaled)
        code = main(["run", "--scenario", "fig8", "--t-end", "20",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "integration"
        assert len(grids) == 1  # the first photon number fails
        assert err["t"] == float(grids[0][17])
        assert err["message"].startswith(f"thermal state trace cross-check failed at "
                                         f"t = {err['t']!r}: closed form 1.0 vs ||U X0||_F^2 ")
        assert err["h"] is None and err["err_norm"] is None
        assert not list(tmp_path.iterdir())

    def test_ambiguous_set_key(self, capsys):
        code = main(["run", "--scenario", "fig2", "--set", "omega0=2"])
        assert code == 2
        assert "ambiguous" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_missing_scenario_and_config(self, capsys):
        assert main(["run"]) == 2

    def test_sweep_writes_one_file_per_value(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "fig2", "--param", "K",
                     "--values", "0.1,10", "--t-end", "1",
                     "--out", str(tmp_path / "base.csv")])
        assert code == 0
        assert (tmp_path / "base_K_0.1.csv").exists()
        assert (tmp_path / "base_K_10.csv").exists()

    def test_sweep_rejects_values_that_name_one_file(self, cli_run):
        # the case checks the exit, the error line and that no file is left
        _, stdout, stderr, outdir = cli_run(CASE["sweep-values-share-a-file"].argv)
        assert stdout == ""
        path = outdir / "run_K_0.1.csv"
        assert strict_error(stderr)["message"] == (f"sweep values 0.1000001 and 0.1000002 would "
                                                   f"both be written to {path}")

    def test_sweep_repeated_value_keeps_its_name(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "fig2", "--param", "K",
                     "--values", "0.1000001,0.1000001,0.1000011", "--t-end", "1",
                     "--out", str(tmp_path / "base.csv")])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base_K_0.1.csv",
                                                              "base_K_0.100001.csv"]

    def test_sweep_runs_and_writes_each_distinct_value_once(self, tmp_path, capsys,
                                                            monkeypatch):
        from spinchannel import runner
        swept = []

        def counting_run(cfg):
            swept.append(cfg.K)
            return run_scenario(cfg)

        monkeypatch.setattr(runner, "run_scenario", counting_run)
        # the case sweep-repeated-value checks the files this leaves
        assert main(CASE["sweep-repeated-value"].argv_in(tmp_path)) == 0
        assert swept == [0.1, 10.0]
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [f"wrote {tmp_path / 'run_K_0.1.csv'}",
                         f"wrote {tmp_path / 'run_K_10.csv'}"]
        # the library sweep still gives one result per given value
        assert len(sweep(short(preset_config("fig2"), t_end=0.5), "K", [0.1, 0.1])) == 2

    def test_unknown_set_key(self, capsys):
        code = main(["run", "--scenario", "fig2", "--set", "oscillators.mass=2"])
        assert code == 2
        assert "unknown config field" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "fig2", "--set", "K=nan", "--t-end", "1"],
        ["run", "--scenario", "fig2", "--set", "x1=inf", "--t-end", "1"],
        ["run", "--scenario", "fig2", "--tol", "nan", "--t-end", "1"],
        ["sweep", "--scenario", "fig2", "--param", "K", "--values", "nan", "--t-end", "1"],
    ])
    def test_non_finite_input_fails_fast(self, argv, tmp_path):
        code, _, stderr = run_main(argv + ["--out", str(tmp_path / "x.csv")], 1.0)
        assert code == 2
        err = strict_error(stderr)
        assert err["category"] == "config"
        assert "finite" in err["message"]
        assert not list(tmp_path.iterdir())

    # Each derived an infinite quantity without raising: D = inf failed later as
    # an integration error about d1 = inf, omega1^2 = inf as an OverflowError
    # traceback (exit 1), and Omega0 = inf as a ZeroDivisionError in the
    # Gibbs-limit message or, at beta = 0, as "dt_out must be positive".
    @pytest.mark.parametrize("scenario, overrides, message", [
        ("fig2", ["K=1e300", "omega2=1e10"],
         "the coupling D = K |omega1^2 - omega2^2| overflows: OverflowError: D = inf"),
        ("fig2", ["D=0.3", "omega1=1e200"],
         "a squared oscillator frequency overflows: OverflowError: omega1^2 = inf"),
        ("fig8", ["quantum.g=1e150", "quantum.omega=2.9999999999"],
         "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 10.0 overflows: "
         "OverflowError: Omega0 = inf"),
        ("fig8", ["quantum.g=1e150", "quantum.omega=2.9999999999", "beta=0"],
         "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 10.0 overflows: "
         "OverflowError: Omega0 = inf"),
        ("fig8", ["quantum.omega0=1e308", "quantum.n=0"],
         "the effective coupling Omega0 = g^2/(omega0 - omega) at n = 0.0 overflows: "
         "OverflowError: 2 (Omega0 + omega0R) = inf"),
        # 2 gamma used to overflow inside the rhs, without raising, into a NaN
        # step size: an integration error that named neither gamma nor 2 gamma
        ("fig2", ["gamma=1e308", "F=1"],
         "the damping factor 2 gamma overflows: OverflowError: 2 gamma = inf"),
    ])
    def test_non_finite_derived_quantity_is_a_config_error(self, scenario, overrides, message,
                                                           tmp_path, capsys):
        argv = ["run", "--scenario", scenario, "--t-end", "1", "--out", str(tmp_path / "x.csv")]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"] == message
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario, overrides", [
        ("fig2", {"omega1": 1e300}),
        ("fig8", {"q_g": 1e200}),
    ])
    def test_overflow_in_validate_is_a_config_error(self, scenario, overrides):
        cfg = apply_overrides(preset_config(scenario), overrides)
        with pytest.raises(ConfigError, match="overflows: OverflowError"):
            cfg.validate()

    @pytest.mark.parametrize("overrides, message", [
        # fig8 used to divide by a zero dt_out (a ZeroDivisionError traceback)
        # and to run a negative one on a two-point grid
        (["--set", "dt_out=0"], "dt_out must be positive, got 0.0"),
        (["--set", "dt_out=-1"], "dt_out must be positive, got -1.0"),
        (["--set", "t_end=1e8", "--set", "dt_out=1e-300"], "the output grid overflows: "),
    ])
    def test_quantum_output_grid_is_checked(self, overrides, message, tmp_path, capsys):
        code = main(["run", "--scenario", "fig8", *overrides, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "config"
        assert err["message"].startswith(message)
        assert not list(tmp_path.iterdir())

    def test_output_grid_bound_counts_every_photon_number(self):
        # 4 photon numbers of 250001 samples each: over the bound, though one
        # photon number's grid is not
        cfg = apply_overrides(preset_config("fig8"), {"t_end": 250.0, "dt_out": 1e-3})
        with pytest.raises(ConfigError, match="has 1000004 rows, more than"):
            cfg.validate()
        cfg = apply_overrides(cfg, {"n_values": (10.0,)})
        assert cfg.validate() is cfg

    def test_overflowing_custom_amplitudes_are_a_config_error(self, tmp_path, capsys):
        # the norm overflowed with a numpy warning, ahead of a misleading
        # "not normalized" error from the stepper
        code = main(["run", "--scenario", "fig2", "--set", "state=custom",
                     "--set", "amplitudes=1e300,1e300,0,0,0,0,0,0", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == ("the norm of the initial state overflows: "
                                  "FloatingPointError: overflow encountered in dot")
        assert not list(tmp_path.iterdir())

    def test_flags_win_over_set(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["run", "--scenario", "fig2", "--set", "t_end=5", "--t-end", "1",
                     "--set", "tol=1e-6", "--tol", "1e-8", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        # dt_out 0.05 over t_end 1: 21 rows after the header
        assert len(out.read_text().splitlines()) == 1 + 21

    def test_integration_error_names_its_locus(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig3", "--tol", "1e-4", "--t-end", "2000",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "integration"
        assert "norm drift" in err["message"]
        assert 0.0 < err["t"] < 2000.0
        assert 0.0 < err["h"] < 2000.0
        assert 0.0 < err["err_norm"] <= 1.0  # raised after an accepted step
        assert not list(tmp_path.iterdir())

    def test_step_size_underflow_names_its_locus(self, tmp_path, capsys):
        # x1 = 1e100 makes the first step size fall below the floor at once
        code = main(["run", "--scenario", "fig3", "--set", "x1=1e100", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "integration"
        assert "StepSizeUnderflowError" in err["message"]
        assert err["t"] == 0.0
        assert 0.0 < err["h"] < 1e-14
        assert "err_norm" in err and err["err_norm"] is None  # no trial step was made
        assert not list(tmp_path.iterdir())

    @staticmethod
    def assert_one_json_error_line(sets, tmp_path):
        code, _, stderr = run_main(["run", "--scenario", "fig5", *sets, "--t-end", "1",
                                    "--out", str(tmp_path / "x.csv")], 30.0)
        assert code == 3
        err = strict_error(stderr)
        assert err["category"] == "integration"
        assert "FloatingPointError: non-finite first-derivative scale d1 = inf" in err["message"]
        assert err["t"] == 0.0 and err["h"] is None and err["err_norm"] is None
        assert not list(tmp_path.iterdir())

    # Each overflows the scaled first derivative of the initial step-size
    # estimate, as the case fig5-F-overflows-d1 does; it used to print a numpy
    # RuntimeWarning ahead of the JSON object and fail with
    # "ZeroDivisionError: float division by zero".
    def test_overflowing_initial_velocity(self, tmp_path):
        self.assert_one_json_error_line(["--set", "v1=1e300"], tmp_path)

    def test_overflowing_duffing_force(self, tmp_path):
        self.assert_one_json_error_line(["--set", "x1=1e60", "--set", "xi=1"], tmp_path)

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "fig2", "--t-end", "1e-20"],
        ["sweep", "--scenario", "fig2", "--param", "K", "--values", "0.1", "--t-end", "1e-15"],
    ])
    def test_span_below_the_step_floor_runs(self, argv, tmp_path, capsys):
        # the first step, clipped to the span, fell below the 1e-14 floor, and
        # the run failed as "step size underflow ... appears stiff"
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0, capsys.readouterr().err
        assert capsys.readouterr().err == ""
        (out,) = tmp_path.iterdir()
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(HYBRID_CSV_HEADER)
        assert len(lines) == 1 + 2
        assert float(lines[2].split(",")[0]) == float(argv[-1])

    @pytest.mark.parametrize("argv", [CASE["fig5-Omega-step-budget"].argv.split(),
                                      CASE["fig2-D-step-budget"].argv.split()])
    def test_step_budget_ends_an_unbounded_run(self, argv, cli_run):
        # the case checks the exit, the error line's category and prefix and
        # that no file is left, within a time limit an unbounded run exceeds
        err = strict_error(cli_run(" ".join(argv))[2])
        span = float(argv[argv.index("--t-end") + 1])
        assert err["message"].endswith(f"more than {100_000 + 10_000 * span:.6g} = 100000 + "
                                       f"10000 per unit time over the span {span!r}")
        assert 0.0 < err["t"] < span and err["h"] > 0.0 and 0.0 < err["err_norm"] <= 1.0

    def test_integration_error_names_the_exception_class(self, tmp_path, capsys):
        # x1 = 1e150 overflows the first evaluation of the right-hand side
        code = main(["run", "--scenario", "fig3", "--set", "x1=1e150", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "integration"
        assert "OverflowError" in err["message"]
        assert err["t"] == 0.0 and err["h"] is None and err["err_norm"] is None

    @pytest.mark.parametrize("key", ["omega_R", "delta", "spin.omega_R", "spin.delta"])
    def test_rabi_keys_are_not_config_fields(self, key, tmp_path, capsys):
        code = main(["run", "--scenario", "fig2", "--set", f"{key}=2", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "config"
        assert "unknown config field" in err["message"]

    def test_io_failure_category(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig2", "--t-end", "0",
                     "--out", str(tmp_path / "nope" / "x.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "io"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: spinchannel ")
        assert captured.err == ""

    # argparse used to print its usage text and a plain error line to stderr
    @pytest.mark.parametrize("argv, message", [
        (["run", "--scenario", "fig2", "--tol", "abc"],
         "argument --tol: invalid float value: 'abc'"),
        (["frobnicate"], "argument command: invalid choice: "),
        ([], "the following arguments are required: command"),
        (["run"], "one of the arguments --scenario --config is required"),
        (["sweep", "--scenario", "fig2", "--values", "1"],
         "the following arguments are required: --param"),
        (["presets", "list"], "unrecognized arguments: list"),
    ], ids=["bad-float", "unknown-command", "no-command", "no-source", "sweep-without-param",
            "presets-argument"])
    def test_malformed_command_line_is_one_config_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = strict_error(captured.err)
        assert err == {"category": "config", "message": err["message"]}
        assert err["message"].startswith(message)

    def test_scenario_and_config_fail_before_the_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert main(["run", "--scenario", "fig2", "--config", missing]) == 2
        err = strict_error(capsys.readouterr().err)
        assert err["category"] == "config"
        assert err["message"] == "argument --config: not allowed with argument --scenario"
        # alone, the same path is opened and fails as an I/O error
        assert main(["run", "--config", missing]) == 4
        err = strict_error(capsys.readouterr().err)
        assert err["category"] == "io"
        assert missing in err["message"]

    def test_format_flag_and_set_share_one_check(self, tmp_path, capsys):
        errors = []
        for flag in (["--format", "xml"], ["--set", "output.format=xml"]):
            assert main(["run", "--scenario", "fig2", *flag, "--out", str(tmp_path / "x")]) == 2
            errors.append(strict_error(capsys.readouterr().err))
        assert errors[0] == errors[1] == {"category": "config",
                                          "message": "format must be 'csv' or 'json', got 'xml'"}
        assert not list(tmp_path.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["run", "--scenario", "fig2", "--tol", "abc", "--t-end", "0",
                   "--out", "{out}/x.csv"])
    @example(argv=["run", "--scenario", "fig2", "--set", "x1=1e300", "--t-end", "0",
                   "--out", "{out}/x.csv"])
    def test_every_argv_runs_or_fails_in_one_json_line(self, argv):
        with tempfile.TemporaryDirectory() as out:
            code, _, stderr = run_main([arg.replace("{out}", out) for arg in argv], 10.0)
            if code != 0:
                err = strict_error(stderr)
                assert CATEGORY[code] == err["category"]
                return
            assert stderr == ""
            for path in Path(out).iterdir():
                text = path.read_text()
                if text.startswith("{"):
                    json.loads(text, parse_constant=reject_constant)
                else:
                    cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
                    assert all(math.isfinite(float(cell)) for cell in cells), path.name
