"""Quantum-information scrambling between two spins coupled through a
classical or quantum oscillator channel.

Submodules:
    spin_algebra       dense one-/two-qubit operators, states, exact propagators
    hybrid_dynamics    mean-field spin-oscillator integration (classical channel)
    correlators        the OTOC and two-point correlator of a propagator stack
    quantum_channel    effective oscillator-mediated spin-spin model (quantum channel)
    config / runner    scenario presets, sweeps, CSV/JSON output
    cli                command-line entry point

Second definitions that no run path uses (the complex equations of motion,
the feedback-free control on a prescribed trajectory, the commutator-form
OTOC, the classical-limit report) are test oracles in tests/oracles.py.
"""

from .spin_algebra import (SpinParams, basis_state, bell_phi_minus, embed,
                           expm_hermitian, pauli, sz_nv)
from .hybrid_dynamics import (HybridState, IntegrationError, OscParams, Regime,
                              RegimeError, TimeSeries, classical_energy, energy_budget,
                              integrate)
from .correlators import CorrelatorRecord, otoc_product
from .quantum_channel import (QuantumChannelParams, concurrence, eigensystem, gme,
                              h_total, otoc_bell_spectral, otoc_numeric,
                              thermal_concurrence, thermal_density, thermal_otoc)
from .config import ScenarioConfig, parse_config, preset_config, render_config
from .runner import RunResult, run_scenario, sweep, write_output

__version__ = "0.1.0"
