"""Test oracles: second definitions that tests compare run-path values against.

No run path calls these; they are kept here, as written when they lived in
``spinchannel``, so that each run-path routine is checked against an
independent formula.  Each oracle and the tests that use it:

    site_hamiltonian        test_hybrid_dynamics.py::TestSpinHamiltonian
    build_spin_hamiltonian  test_hybrid_dynamics.py::TestSpinHamiltonian, TestDerivative,
                            TestPropagateNoFeedback
    derivative              test_hybrid_dynamics.py::TestDerivative, TestHybridRhs (of _hybrid_rhs)
    _real_expectation       the mean-field forces of ``derivative``
    otoc_commutator         test_correlators.py::TestOtocCommutator, test_acceptance.py criterion 8
    two_point               test_correlators.py::TestTwoPoint
    expectation             test_spin_algebra.py::TestExpectation
    commutator              test_spin_algebra.py::TestPauli, TestEmbed
    classical_limit_report  test_quantum_channel.py::TestClassicalLimitReport
    ClassicalLimitRow       test_quantum_channel.py::TestClassicalLimitReport
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spinchannel.correlators import _check_state, _check_unitary
from spinchannel.hybrid_dynamics import HybridState, OscParams, _force
from spinchannel.quantum_channel import (QuantumChannelParams, h_total, otoc_numeric,
                                         thermal_otoc)
from spinchannel.spin_algebra import SpinParams, _dagger, embed, expm_hermitian, pauli

_I2 = np.eye(2, dtype=complex)
_SZ = pauli("z")


# -- the complex equations of motion ------------------------------------------

def site_hamiltonian(x: float, sp: SpinParams) -> np.ndarray:
    """Single-site 2x2 spin Hamiltonian at oscillator displacement x."""
    return 0.5 * sp.omega0 * _SZ + (sp.g * x) * sp.site_operator()


def build_spin_hamiltonian(x1: float, x2: float, sp: SpinParams) -> np.ndarray:
    """Two-spin Hamiltonian at oscillator displacements (x1, x2).

    (omega0/2)(sigma1_z + sigma2_z) + g x1 S1^z + g x2 S2^z, with S^z the
    dressed-basis spin operator of each site.  Always a sum of single-site
    terms, hence its propagator factorizes exactly.
    """
    return np.kron(site_hamiltonian(x1, sp), _I2) + np.kron(_I2, site_hamiltonian(x2, sp))


def derivative(s: HybridState, op: OscParams, sp: SpinParams) -> HybridState:
    """Time derivative of every dynamical variable, as a HybridState whose
    fields hold the derivatives (x fields carry velocities, v fields carry
    accelerations, psi/U carry d(psi)/dt and dU/dt)."""
    H = build_spin_hamiltonian(s.x1, s.x2, sp)
    f1 = _real_expectation(s.psi, embed(sp.site_operator(), 1))
    f2 = _real_expectation(s.psi, embed(sp.site_operator(), 2))
    a1, a2 = _force(op, sp.g)(s.t, s.x1, s.v1, s.x2, s.v2, f1, f2)
    return HybridState(t=s.t, x1=s.v1, v1=a1, x2=s.v2, v2=a2,
                       psi=-1j * (H @ s.psi), U=-1j * (H @ s.U))


def _real_expectation(psi: np.ndarray, op: np.ndarray) -> float:
    return float(np.vdot(psi, op @ psi).real)


# -- correlators ----------------------------------------------------------------

def otoc_commutator(U: np.ndarray, psi0: np.ndarray, W: np.ndarray, V: np.ndarray) -> float:
    """OTOC from the commutator form, (1/2) <psi0| [W(t),V]^dag [W(t),V] |psi0>."""
    U = _check_unitary(U, "U")
    psi0 = _check_state(psi0)
    W = _check_unitary(W, "W")
    V = _check_unitary(V, "V")
    Wt = _dagger(U) @ W @ U
    comm_psi = (Wt @ (V @ psi0)) - (V @ (Wt @ psi0))
    return 0.5 * float(np.vdot(comm_psi, comm_psi).real)


def two_point(U: np.ndarray, psi0: np.ndarray, W: np.ndarray, V: np.ndarray) -> complex:
    """Time-ordered two-point correlator <psi0| W(t) V |psi0>."""
    U = _check_unitary(U, "U")
    psi0 = _check_state(psi0)
    Wt = _dagger(U) @ np.asarray(W, dtype=complex) @ U
    return complex(np.vdot(psi0, Wt @ (np.asarray(V, dtype=complex) @ psi0)))


# -- spin algebra -----------------------------------------------------------------

def expectation(state: np.ndarray, op: np.ndarray) -> complex:
    """<psi|op|psi> for a length-4 state vector."""
    state = np.asarray(state, dtype=complex)
    return complex(np.vdot(state, op @ state))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# -- the classical limit of the quantum channel ------------------------------------

@dataclass(frozen=True)
class ClassicalLimitRow:
    """Peak OTOC signals within the observation window at one photon number."""

    n: float
    otoc_amplitude: float
    thermal_otoc_amplitude: float


def classical_limit_report(p: QuantumChannelParams, t_max: float,
                           n_grid: list[float], samples: int = 512) -> list[ClassicalLimitRow]:
    """Peak Bell-state and thermal OTOC over [0, t_max] for increasing n.

    As n grows, Omega_n shrinks and any feedback signature needs waiting
    times ~ 1/Omega_n; within a fixed window the peaks fade accordingly.
    """
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    ts = np.linspace(0.0, t_max, samples)
    rows = []
    for n in n_grid:
        pn = QuantumChannelParams(omega0=p.omega0, omega=p.omega, g=p.g, n=n, beta=p.beta)
        U = expm_hermitian(h_total(pn), ts)
        rows.append(ClassicalLimitRow(
            n=n, otoc_amplitude=float(otoc_numeric(pn, ts, U=U).max()),
            thermal_otoc_amplitude=float(thermal_otoc(pn, ts, U=U).max())))
    return rows
