"""Test oracles: second definitions that tests compare run-path values against.

No run path calls these; they are kept here, as written when they lived in
``spinchannel``, so that each run-path routine is checked against an
independent formula.  The Tavis-Cummings model never lived there: it is the
full spin-oscillator model that the quantum channel's effective Hamiltonian
approximates.  Nor did ``feedback_free_psi``, which shares no code with the
package's stepping path (no DP45, accepted-step guard or real-form maps), so
that it checks ``integrate`` independently.  Each oracle and the tests that
use it:

    _force                  the oscillator accelerations of ``derivative``, and
                            test_hybrid_dynamics.py::TestHybridRhsBuffer (the forces
                            that ``_hybrid_rhs`` evaluates inline, bit for bit)
    site_hamiltonian        test_hybrid_dynamics.py::TestSpinHamiltonian
    build_spin_hamiltonian  test_hybrid_dynamics.py::TestSpinHamiltonian, TestDerivative,
                            TestPropagateNoFeedback (its exact propagator at g = 0)
    feedback_free_psi       test_hybrid_dynamics.py::TestPropagateNoFeedback (integrate at
                            tiny g)
    derivative              test_hybrid_dynamics.py::TestDerivative, TestHybridRhs (of _hybrid_rhs)
    Derivative              the return type of ``derivative``
    _real_expectation       the mean-field forces of ``derivative``
    otoc_commutator         test_correlators.py::TestOtocCommutator, test_acceptance.py criterion 8
    two_point               test_correlators.py::TestTwoPoint
    expectation             test_spin_algebra.py::TestExpectation
    commutator              test_spin_algebra.py::TestPauli, TestEmbed
    classical_limit_report  test_quantum_channel.py::TestClassicalLimitReport
    ClassicalLimitRow       test_quantum_channel.py::TestClassicalLimitReport
    spin_flip_concurrence   test_quantum_channel.py::TestWoottersReference (of concurrence)
    tavis_cummings_hamiltonian, tavis_cummings_bell_otoc
                            test_quantum_channel.py::TestTavisCummings (of otoc_bell_spectral,
                            the one closed form of the Bell OTOC)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from spinchannel.correlators import _check_state, _check_unitary
from spinchannel.hybrid_dynamics import HybridState, OscParams
from spinchannel.quantum_channel import (QuantumChannelParams, h_total, otoc_numeric,
                                         thermal_otoc)
from spinchannel.spin_algebra import (SpinParams, _dagger, bell_phi_minus, embed,
                                      expm_hermitian, pauli)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_SZ = pauli("z")
_YY = np.kron(pauli("y"), pauli("y"))


# -- the complex equations of motion ------------------------------------------

def _force(op: OscParams, g: float):
    """The oscillator accelerations (a1, a2) as a function of
    (t, x1, v1, x2, v2, f1, f2), with the parameters bound once: damped,
    driven Duffing forces, the linear coupling, and the mean-field
    back-action -g f_i with f_i = <S_i^z>."""
    two_gamma, xi, F, Omega, D = 2.0 * op.gamma, op.xi, op.F, op.Omega, op.D
    w1sq, w2sq = op.omega1**2, op.omega2**2

    def force(t: float, x1: float, v1: float, x2: float, v2: float,
              f1: float, f2: float) -> tuple[float, float]:
        drive = F * math.cos(Omega * t)
        a1 = -two_gamma * v1 - xi * x1**3 + drive - w1sq * x1 - D * (x1 - x2) - g * f1
        a2 = -two_gamma * v2 - xi * x2**3 + drive - w2sq * x2 + D * (x1 - x2) - g * f2
        return a1, a2

    return force


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


def feedback_free_psi(traj, sp: SpinParams, psi0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """psi(t) at each t in ts, an (n, 4) array, of the two spins on the
    prescribed oscillator trajectory traj(t) = (x1, x2), which they do not act
    back on: scipy's DOP853 at rtol = atol = 1e-13 on the complex Schroedinger
    equation d psi/dt = -i build_spin_hamiltonian(x1(t), x2(t)) psi, from
    psi0 at ts[0]."""
    sol = solve_ivp(lambda t, psi: -1j * (build_spin_hamiltonian(*traj(t), sp) @ psi),
                    (ts[0], ts[-1]), np.asarray(psi0, dtype=complex), method="DOP853",
                    t_eval=ts, rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    return sol.y.T


@dataclass(frozen=True)
class Derivative:
    """The time derivative of each dynamical variable: the x fields carry
    velocities, the v fields accelerations, psi and U d(psi)/dt and dU/dt."""

    x1: float
    v1: float
    x2: float
    v2: float
    psi: np.ndarray
    U: np.ndarray


def derivative(s: HybridState, op: OscParams, sp: SpinParams,
               U: np.ndarray = _I4) -> Derivative:
    """Time derivative of every dynamical variable of the state s and of a
    propagator U (the identity unless given)."""
    H = build_spin_hamiltonian(s.x1, s.x2, sp)
    f1 = _real_expectation(s.psi, embed(sp.site_operator(), 1))
    f2 = _real_expectation(s.psi, embed(sp.site_operator(), 2))
    a1, a2 = _force(op, sp.g)(s.t, s.x1, s.v1, s.x2, s.v2, f1, f2)
    return Derivative(x1=s.v1, v1=a1, x2=s.v2, v2=a2, psi=-1j * (H @ s.psi), U=-1j * (H @ U))


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


# -- entanglement ----------------------------------------------------------------

def spin_flip_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a density matrix or a (..., 4, 4) stack from the
    eigenvalues of the spin-flipped product rho YY rho* YY (Wootters, PRL 80,
    2245 (1998)), YY = sigma_y x sigma_y, by a dense non-Hermitian eigensolve.
    Near a pure state three of those eigenvalues are zero but for rounding,
    and their square roots leave errors of ~1e-8."""
    evals = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    roots = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=-1)[..., ::-1]
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(c > 0.0, c, 0.0)[()]


# -- the full spin-oscillator model of the quantum channel -------------------------

def tavis_cummings_hamiltonian(omega0: float, omega: float, g: float,
                               cutoff: int) -> np.ndarray:
    """Two spins and one mode, on spin1 (x) spin2 (x) Fock states |0>..|cutoff-1>:

        omega a^dag a + (omega0/2)(sigma1_z + sigma2_z) + g sum_i (a s_i^+ + a^dag s_i^-)

    with the rotating-wave coupling of Tavis & Cummings (Phys. Rev. 170, 379
    (1968)); s^+ = |0><1| raises a spin to sigma_z = +1, the package's |0>.
    The coupling conserves photons plus raised spins, and the block of k
    such excitations holds at most k photons, so the truncation is exact for
    every state of fewer than cutoff excitations."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    fock = np.eye(cutoff)
    H = (omega * np.kron(_I4, _dagger(a) @ a)
         + 0.5 * omega0 * np.kron(embed(_SZ, 1) + embed(_SZ, 2), fock))
    raise_ = np.array([[0, 1], [0, 0]], dtype=complex)
    for site in (1, 2):
        s_plus = embed(raise_, site)
        H += g * (np.kron(s_plus, a) + np.kron(_dagger(s_plus), _dagger(a)))
    return H


def tavis_cummings_bell_otoc(omega0: float, omega: float, g: float, ts: np.ndarray,
                             n: int = 0, cutoff: int = 4) -> np.ndarray:
    """OTOC 1 - Re <psi0| W(t) V W(t) V |psi0> of W = sigma1_z, V = sigma2_z
    at each t in ts, with psi0 the Bell state (|01> - |10>)/sqrt(2) times the
    Fock state |n>, and W(t) = U^dagger W U for the propagator U of the dense
    ``tavis_cummings_hamiltonian`` (n + 1 excitations: exact for
    cutoff > n + 1)."""
    E, Q = np.linalg.eigh(tavis_cummings_hamiltonian(omega0, omega, g, cutoff))
    fock = np.eye(cutoff)
    W, V = (np.kron(embed(_SZ, site), fock) for site in (1, 2))
    psi0 = np.kron(bell_phi_minus(), fock[n])
    out = []
    for t in np.asarray(ts, dtype=float):
        U = (Q * np.exp(-1j * E * t)) @ _dagger(Q)
        Wt = _dagger(U) @ W @ U
        out.append(1.0 - np.vdot(psi0, Wt @ V @ Wt @ V @ psi0).real)
    return np.array(out)
