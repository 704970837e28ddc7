"""Quantum-information scrambling between two spins coupled through a
classical or quantum oscillator channel.

Submodules:
    spin_algebra       dense one-/two-qubit operators, states, exact propagators
    hybrid_dynamics    mean-field spin-oscillator integration (classical channel)
                       and feedback-free spin propagation on a prescribed trajectory
    correlators        OTOC and two-point correlators
    quantum_channel    effective oscillator-mediated spin-spin model (quantum channel)
    config / runner    scenario presets, sweeps, CSV/JSON output
    cli                command-line entry point
"""

from .spin_algebra import (SpinParams, basis_state, bell_phi_minus, embed,
                           expectation, expm_hermitian, pauli, sz_nv)
from .hybrid_dynamics import (CoefficientSeries, HybridState, IntegrationError,
                              OscParams, Regime, RegimeError, TimeSeries,
                              build_spin_hamiltonian, classical_energy, connectivity,
                              derivative, energy_budget, integrate, propagate_nofeedback)
from .correlators import CorrelatorRecord, otoc_commutator, otoc_product, two_point
from .quantum_channel import (QuantumChannelParams, classical_limit_report,
                              concurrence, eigensystem, gme, h_total,
                              otoc_analytic, otoc_bell_spectral, otoc_numeric,
                              thermal_concurrence, thermal_density, thermal_otoc)
from .config import ScenarioConfig, parse_config, preset_config, render_config
from .runner import RunResult, run_scenario, sweep, write_output

__version__ = "0.1.0"
