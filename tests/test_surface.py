"""The exported surface: every name a module's ``__all__`` lists resolves,
the package exports exactly the names below, the README's library snippet
runs, and the second definitions that moved to tests/oracles.py or were
deleted, with the knobs no caller set, stay gone."""

import dataclasses
import importlib
import inspect
import re
import types
import warnings
from pathlib import Path

import pytest

import spinchannel

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spin_algebra", "hybrid_dynamics", "correlators", "quantum_channel",
           "config", "runner", "dp45", "cli"]

PACKAGE_EXPORTS = {
    "SpinParams", "basis_state", "bell_phi_minus", "embed", "expm_hermitian", "pauli",
    "sz_nv",
    "HybridState", "IntegrationError", "OscParams", "Regime",
    "RegimeError", "TimeSeries", "classical_energy", "energy_budget", "integrate",
    "CorrelatorRecord", "otoc_product",
    "QuantumChannelParams", "concurrence", "eigensystem", "gme", "h_total",
    "otoc_bell_spectral", "otoc_numeric", "thermal_concurrence",
    "thermal_density", "thermal_otoc",
    "ScenarioConfig", "parse_config", "preset_config", "render_config",
    "RunResult", "run_scenario", "sweep", "write_output",
}

# moved to tests/oracles.py, or deleted (connectivity; otoc_analytic, the printed
# Bell-state OTOC, which the closed form and the full model contradict; the
# feedback-free propagator, whose oracle is tests/oracles.py::feedback_free_psi)
REMOVED = ["derivative", "build_spin_hamiltonian", "site_hamiltonian", "_real_expectation",
           "connectivity", "otoc_commutator", "two_point", "expectation", "commutator",
           "classical_limit_report", "ClassicalLimitRow", "otoc_analytic",
           "propagate_nofeedback", "CoefficientSeries", "_nofeedback_rhs"]


def modules():
    return [spinchannel] + [importlib.import_module(f"spinchannel.{m}") for m in MODULES]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"spinchannel.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"spinchannel.{module}.__all__ names missing {name!r}"


def test_package_exports():
    exported = {name for name, value in vars(spinchannel).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PACKAGE_EXPORTS


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    for mod in modules():
        assert not hasattr(mod, name), f"{mod.__name__}.{name} still exists"
        assert name not in getattr(mod, "__all__", [])
    with pytest.raises(ImportError):
        exec(f"from spinchannel import {name}", {})


def test_removed_knobs_are_gone():
    assert not hasattr(spinchannel.SpinParams, "from_rabi")
    # the keyword-only Wt lets the quantum runner share its W(t) = U^dag W U
    parameters = inspect.signature(spinchannel.otoc_product).parameters
    assert list(parameters) == ["U", "psi0", "W", "V", "Wt"]
    assert parameters["Wt"].kind is inspect.Parameter.KEYWORD_ONLY
    assert [f.name for f in dataclasses.fields(spinchannel.CorrelatorRecord)] == ["F", "C", "G2"]
    # integrate starts from U = I and samples the sigma_z probes
    assert "otoc_ops" not in inspect.signature(spinchannel.integrate).parameters
    assert "U" not in [f.name for f in dataclasses.fields(spinchannel.HybridState)]


def library_snippet() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs(capsys):
    code = library_snippet()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md (Library use)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the comments' claims: no mean-field signal for either probe pair, a
    # quantum-channel one
    assert float(lines[0]) < 1e-10
    assert float(lines[1]) < 1e-10
    assert float(lines[3]) > 0.1
