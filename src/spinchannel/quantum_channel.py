"""Two spins coupled through a quantized linear oscillator, treated exactly.

After eliminating the linear spin-oscillator coupling to second order, the
oscillator enters only through its mean occupation n, and the rescaled
effective two-spin Hamiltonian is

    H = (omega0R + Omega0)(sigma1_z + sigma2_z)
        + Omega_n (sigma1_+ sigma2_- + sigma1_- sigma2_+),

with Omega0 = g^2/(omega0 - omega), Omega_n = Omega0/(2n+1) and
omega0R = omega0/(2n+1).  Everything downstream (eigensystem, OTOC, thermal
state, concurrence) is closed-form in these three constants; the numeric
routes recompute each quantity from dense 4x4 algebra as a cross-check.
Evaluators take t as a scalar or a 1-D time grid (one spectral decomposition
of H per call), and the cross-checks hold at every grid point.

The oscillator is never represented as a Fock ladder: n is a fixed
non-negative real parameter, and the n -> infinity limit (Omega_n -> 0,
omega0R -> 0) is the classical-channel limit in which the OTOC signal
vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import correlators
from .spin_algebra import _dagger, basis_state, bell_phi_minus, embed, expm_hermitian, pauli

__all__ = [
    "QuantumChannelParams",
    "h_total",
    "eigensystem",
    "otoc_analytic",
    "otoc_bell_spectral",
    "otoc_numeric",
    "thermal_density",
    "validate_density",
    "thermal_otoc",
    "concurrence",
    "gme",
    "thermal_concurrence",
    "classical_limit_report",
    "ClassicalLimitRow",
]

_S1Z = embed(pauli("z"), 1)
_S2Z = embed(pauli("z"), 2)
_YY = np.kron(pauli("y"), pauli("y"))

CROSS_CHECK_TOL = 1e-10
EIGENVALUE_CLAMP = -1e-10


@dataclass(frozen=True)
class QuantumChannelParams:
    """Spin frequency omega0, oscillator frequency omega, coupling g, mean
    photon number n, and inverse temperature beta (energies in hbar = 1
    units)."""

    omega0: float
    omega: float
    g: float
    n: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.omega0 == self.omega:
            raise ValueError("omega0 must differ from omega (the effective coupling diverges)")
        if self.n < 0:
            raise ValueError(f"mean photon number must be non-negative, got {self.n}")
        if self.beta < 0:
            raise ValueError(f"inverse temperature must be non-negative, got {self.beta}")

    @property
    def Omega0(self) -> float:
        return self.g**2 / (self.omega0 - self.omega)

    @property
    def Omega_n(self) -> float:
        return self.g**2 / ((self.omega0 - self.omega) * (2 * self.n + 1))

    @property
    def omega0R(self) -> float:
        return self.omega0 / (2 * self.n + 1)

    @property
    def zeeman(self) -> float:
        """Combined longitudinal coefficient Omega0 + omega0R."""
        return self.Omega0 + self.omega0R


def h_total(p: QuantumChannelParams) -> np.ndarray:
    """Rescaled effective two-spin Hamiltonian as a 4x4 matrix:
    diag block 2(Omega0+omega0R), an Omega_n flip-flop block on {|01>,|10>},
    and -2(Omega0+omega0R)."""
    a = 2 * p.zeeman
    on = p.Omega_n
    return np.array([[a, 0, 0, 0],
                     [0, 0, on, 0],
                     [0, on, 0, 0],
                     [0, 0, 0, -a]], dtype=complex)


def eigensystem(p: QuantumChannelParams) -> list[tuple[float, np.ndarray]]:
    """Closed-form eigenpairs, ordered (E1..E4):

    E1 = +2(Omega0+omega0R), |00>;   E2 = +Omega_n, (|10>+|01>)/sqrt(2);
    E3 = -Omega_n, (|10>-|01>)/sqrt(2);   E4 = -2(Omega0+omega0R), |11>.
    """
    s = 1 / math.sqrt(2.0)
    phi2 = np.array([0, s, s, 0], dtype=complex)
    phi3 = np.array([0, -s, s, 0], dtype=complex)
    return [
        (2 * p.zeeman, basis_state("00")),
        (p.Omega_n, phi2),
        (-p.Omega_n, phi3),
        (-2 * p.zeeman, basis_state("11")),
    ]


def otoc_analytic(p: QuantumChannelParams, t: float | np.ndarray) -> float | np.ndarray:
    """Stated closed-form Bell-state OTOC, 2 sin^2(4 Omega_n t).

    Note: the exact propagator evaluation of the same quantity follows
    1 - cos(4 Omega_n t) = 2 sin^2(2 Omega_n t) instead (otoc_bell_spectral,
    which otoc_numeric matches to rounding).  Both forms are exposed
    deliberately; the test suite pins down the disagreement.
    """
    return 2.0 * np.sin(4.0 * p.Omega_n * np.asarray(t)) ** 2


def otoc_bell_spectral(p: QuantumChannelParams, t: float | np.ndarray) -> float | np.ndarray:
    """Bell-state OTOC from the eigenphase structure: 1 - cos(4 Omega_n t).

    The four-operator product sigma1_z(t) sigma2_z sigma1_z(t) sigma2_z is
    diagonal in the energy eigenbasis with phases {0, +-4 Omega_n t, 0}; the
    singlet-like Bell state projects onto a single phase, giving this form.
    """
    return 1.0 - np.cos(4.0 * p.Omega_n * np.asarray(t))


def otoc_numeric(p: QuantumChannelParams, t: float | np.ndarray,
                 psi0: np.ndarray | None = None) -> float | np.ndarray:
    """OTOC of sigma1_z(t), sigma2_z on psi0 (default the Bell state),
    evaluated from the exact propagator of the effective Hamiltonian."""
    psi0 = bell_phi_minus() if psi0 is None else np.asarray(psi0, dtype=complex)
    U = expm_hermitian(h_total(p), t)
    return correlators.otoc_product(U, psi0, _S1Z, _S2Z, t=t).C


def thermal_density(p: QuantumChannelParams) -> np.ndarray:
    """Gibbs state of the effective Hamiltonian in the computational basis.

    Diagonal weights e^{-beta E_i}/Z over the closed-form eigenbasis with
    Z = 2 cosh(2 beta (Omega0+omega0R)) + 2 cosh(beta Omega_n); the middle
    block is non-diagonal in the computational basis.
    """
    Z = 2 * math.cosh(2 * p.beta * p.zeeman) + 2 * math.cosh(p.beta * p.Omega_n)
    rho = np.zeros((4, 4), dtype=complex)
    for energy, vec in eigensystem(p):
        rho += (math.exp(-p.beta * energy) / Z) * np.outer(vec, vec.conj())
    return rho


def validate_density(rho: np.ndarray, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12,
                     psd_tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of rho or of a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    herm = np.abs(rho - _dagger(rho)).max()
    if herm > herm_tol:
        raise ValueError(f"density matrix is not Hermitian (defect {herm:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).ravel()
    worst = complex(tr[np.argmax(np.abs(tr - 1.0))])
    if abs(worst - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace is {worst!r}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -psd_tol:
        raise ValueError(f"density matrix has a negative eigenvalue ({evals.min():.3e})")
    return rho


def _cross_check(quantity: str, route: str, t, closed, numeric) -> None:
    """Raise unless closed form and dense route agree at every t; name the worst t."""
    t, closed, numeric = (a.ravel() for a in np.broadcast_arrays(t, closed, numeric))
    k = np.argmax(np.abs(closed - numeric))
    if abs(closed[k] - numeric[k]) > CROSS_CHECK_TOL:
        raise RuntimeError(f"{quantity} cross-check failed at t = {float(t[k])!r}: closed "
                           f"form {float(closed[k])!r} vs {route} {float(numeric[k])!r}")


def thermal_otoc(p: QuantumChannelParams, t: float | np.ndarray) -> float | np.ndarray:
    """Thermally averaged OTOC of sigma1_z(t), sigma2_z.

    Evaluates the closed form

        C = 1 - [cosh(2 beta (Omega0+omega0R)) + cos(4 Omega_n t) cosh(beta Omega_n)]
              / [cosh(2 beta (Omega0+omega0R)) + cosh(beta Omega_n)]

    and the defining trace Re Tr{rho sigma1_z(t) sigma2_z sigma1_z(t) sigma2_z};
    the two must agree to within CROSS_CHECK_TOL at every t or the call fails.
    """
    a = math.cosh(2 * p.beta * p.zeeman)
    b = math.cosh(p.beta * p.Omega_n)
    closed = 1.0 - (a + np.cos(4 * p.Omega_n * np.asarray(t)) * b) / (a + b)

    U = expm_hermitian(h_total(p), t)
    s1z_t = _dagger(U) @ _S1Z @ U
    chain = s1z_t @ _S2Z @ s1z_t @ _S2Z
    traced = 1.0 - np.trace(thermal_density(p) @ chain, axis1=-2, axis2=-1).real
    _cross_check("thermal OTOC", "trace", t, closed, traced)
    return closed


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix or a (..., 4, 4) stack.

    max(0, R1 - R2 - R3 - R4) with R_i the descending square roots of the
    eigenvalues of rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  Tiny
    negative eigenvalues in [EIGENVALUE_CLAMP, 0) are clamped to zero;
    anything more negative is rejected.
    """
    rho = validate_density(rho)
    R = rho @ _YY @ rho.conj() @ _YY
    evals = np.linalg.eigvals(R).real
    if evals.min() < EIGENVALUE_CLAMP:
        raise ValueError(f"spin-flip spectrum has a negative eigenvalue ({evals.min():.3e})")
    roots = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=-1)[..., ::-1]
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(c > 0.0, c, 0.0)[()]


def gme(c: float | np.ndarray) -> float | np.ndarray:
    """Geometric measure of entanglement of a two-qubit state with
    concurrence c: (1 - sqrt(1 - c)) / 2, elementwise over an array of c."""
    c = np.asarray(c, dtype=float)
    outside = ~((-1e-12 <= c) & (c <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"concurrence must lie in [0, 1], got {float(c[outside][0])}")
    return 0.5 * (1.0 - np.sqrt(1.0 - np.clip(c, 0.0, 1.0)))


def thermal_concurrence(p: QuantumChannelParams, t: float | np.ndarray) -> float | np.ndarray:
    """Concurrence of the (time-evolved) thermal state.

    Closed form 2 max(0, (|sinh(beta Omega_n)| - 1) / Z) with
    Z = 2 cosh(2 beta (Omega0+omega0R)) + 2 cosh(beta Omega_n), checked
    against the Wootters pipeline on the state evolved to every t.  The
    thermal state is stationary, so the result is t-independent; t only
    exercises that.
    """
    Z = 2 * math.cosh(2 * p.beta * p.zeeman) + 2 * math.cosh(p.beta * p.Omega_n)
    closed = np.full(np.shape(t), 2.0 * max(0.0, (abs(math.sinh(p.beta * p.Omega_n)) - 1.0) / Z))

    U = expm_hermitian(h_total(p), t)
    _cross_check("thermal concurrence", "Wootters", t, closed,
                 concurrence(U @ thermal_density(p) @ _dagger(U)))
    return closed[()]


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
        rows.append(ClassicalLimitRow(n=n, otoc_amplitude=float(otoc_numeric(pn, ts).max()),
                                      thermal_otoc_amplitude=float(thermal_otoc(pn, ts).max())))
    return rows
