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
Evaluators take t as a scalar or a 1-D time grid, and the cross-checks hold
at every grid point.  The numeric routes need the propagator
U = exp(-i h_total(p) t) on that t; ``otoc_numeric``, ``thermal_otoc`` and
``thermal_concurrence`` build it (one spectral decomposition of H per call)
unless it is passed as the keyword-only ``U``.  Given or built, the results
are the same bytes, so a caller that needs several quantities on one grid
computes U once and shares it: the quantum runner builds one U per photon
number, and its columns and both cross-checks all come from it.
``concurrence`` runs the Wootters pipeline once per bitwise-distinct member
of a stack and copies each result to the member's repeats, with the same
bytes as evaluating every member.  The Bell start is an eigenstate of H, so
U rho0 U^dagger differs from rho0 only by rounding and repeats itself: the
Bell stacks of fig8 run to t_end 400 have 281-414 distinct members in 1906.

The oscillator is never represented as a Fock ladder: n is a fixed
non-negative real parameter, and the n -> infinity limit (Omega_n -> 0,
omega0R -> 0) is the classical-channel limit in which the OTOC signal
vanishes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import correlators
from .spin_algebra import _dagger, _rdot, basis_state, bell_phi_minus, embed, expm_hermitian, pauli

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
]

_S1Z = embed(pauli("z"), 1)
_S2Z = embed(pauli("z"), 2)
# sigma1_z and sigma2_z are diagonal: X @ S is X with its columns scaled
_S1Z_DIAG = np.diag(_S1Z).real.copy()
_S2Z_DIAG = np.diag(_S2Z).real.copy()
# kron(sigma_y, sigma_y) is anti-diagonal with signs (-1, 1, 1, -1): X times
# it is X with its columns reversed, times these signs
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

CROSS_CHECK_TOL = 1e-10
EIGENVALUE_CLAMP = -1e-10
DENSITY_HERM_TOL = 1e-12    # validate_density: max |rho - rho^dagger|
DENSITY_TRACE_TOL = 1e-12   # validate_density: max |tr rho - 1|
DENSITY_PSD_TOL = 1e-10     # validate_density: most negative eigenvalue allowed
# Largest beta * max|E_i| over the eigenvalues of h_total: each Gibbs weight
# e^{-beta E_i}, and each cosh in the closed forms, is then at most DBL_MAX/4,
# so Z = 2 cosh(2 beta zeeman) + 2 cosh(beta Omega_n) stays below DBL_MAX/2
GIBBS_EXPONENT_LIMIT = math.log(sys.float_info.max / 4)


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
        widest = max(2 * abs(self.zeeman), abs(self.Omega_n))  # max |E_i|
        if self.beta * widest > GIBBS_EXPONENT_LIMIT:
            beta_max = GIBBS_EXPONENT_LIMIT / widest
            raise ValueError(
                f"inverse temperature beta = {self.beta!r} (T = {1 / self.beta!r}) is too "
                f"large at n = {self.n!r}: the Gibbs weights overflow above beta = "
                f"{beta_max!r} (below T = {1 / beta_max!r})")

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


def _propagator(p: QuantumChannelParams, t: float | np.ndarray,
                U: np.ndarray | None) -> np.ndarray:
    """exp(-i h_total(p) t), or the given U once its shape matches t."""
    if U is None:
        return expm_hermitian(h_total(p), t)
    if np.shape(U) != np.shape(t) + (4, 4):
        raise ValueError(f"propagator of shape {np.shape(U)} does not match t of shape "
                         f"{np.shape(t)}; expected {np.shape(t) + (4, 4)}")
    return U


def otoc_numeric(p: QuantumChannelParams, t: float | np.ndarray,
                 psi0: np.ndarray | None = None, *,
                 U: np.ndarray | None = None) -> float | np.ndarray:
    """OTOC of sigma1_z(t), sigma2_z on psi0 (default the Bell state),
    evaluated from the exact propagator U of the effective Hamiltonian on t
    (built here unless given)."""
    psi0 = bell_phi_minus() if psi0 is None else np.asarray(psi0, dtype=complex)
    return correlators.otoc_product(_propagator(p, t, U), psi0, _S1Z, _S2Z).C


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


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of rho or of a (..., 4, 4) stack.

    Non-finite entries are rejected first, before any arithmetic on them.
    Positivity is certified per member by Gershgorin's discs (Horn & Johnson,
    Matrix Analysis, 6.1): every eigenvalue is at least
    min_i (Re rho_ii - sum_{j != i} |rho_ij|), and a member whose bound is at
    least -DENSITY_PSD_TOL/2 passes without an eigen-solve.  eigvalsh reads
    one triangle, whose mirror differs from the other by at most
    DENSITY_HERM_TOL an entry, which moves the bound by at most three times
    that, so eigvalsh would also find such a member's smallest eigenvalue
    above -DENSITY_PSD_TOL.  Only the other members go through eigvalsh,
    which decides, and names the most negative eigenvalue, exactly as over
    the whole stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if rho.size == 0:
        return rho
    finite = np.isfinite(rho)
    if not finite.all():
        i, j = np.argwhere(~finite)[0, -2:]
        raise ValueError(f"density matrix has non-finite entries, the first "
                         f"{complex(rho[~finite][0])!r} at row {i}, column {j}")
    herm = np.abs(rho - _dagger(rho)).max()
    if herm > DENSITY_HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian (defect {herm:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).ravel()
    worst = complex(tr[np.argmax(np.abs(tr - 1.0))])
    if abs(worst - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix trace is {worst!r}, expected 1")
    diag = rho.diagonal(axis1=-2, axis2=-1)
    bound = (diag.real + np.abs(diag) - np.abs(rho).sum(axis=-1)).min(axis=-1)
    uncertified = bound < -0.5 * DENSITY_PSD_TOL
    if uncertified.any():
        evals = np.linalg.eigvalsh(rho[uncertified])
        if evals.min() < -DENSITY_PSD_TOL:
            raise ValueError(f"density matrix has a negative eigenvalue ({evals.min():.3e})")
    return rho


def _cross_check(quantity: str, route: str, t, closed, numeric) -> None:
    """Raise unless closed form and dense route agree at every t; name the worst t."""
    t, closed, numeric = (a.ravel() for a in np.broadcast_arrays(t, closed, numeric))
    k = np.argmax(np.abs(closed - numeric))
    if abs(closed[k] - numeric[k]) > CROSS_CHECK_TOL:
        raise RuntimeError(f"{quantity} cross-check failed at t = {float(t[k])!r}: closed "
                           f"form {float(closed[k])!r} vs {route} {float(numeric[k])!r}")


def thermal_otoc(p: QuantumChannelParams, t: float | np.ndarray, *,
                 U: np.ndarray | None = None) -> float | np.ndarray:
    """Thermally averaged OTOC of sigma1_z(t), sigma2_z.

    Evaluates the closed form

        C = 1 - [cosh(2 beta (Omega0+omega0R)) + cos(4 Omega_n t) cosh(beta Omega_n)]
              / [cosh(2 beta (Omega0+omega0R)) + cosh(beta Omega_n)]

    and the defining trace Re Tr{rho sigma1_z(t) sigma2_z sigma1_z(t) sigma2_z}
    from the propagator U on t (built here unless given); the two must agree
    to within CROSS_CHECK_TOL at every t or the call fails.
    """
    a = math.cosh(2 * p.beta * p.zeeman)
    b = math.cosh(p.beta * p.Omega_n)
    closed = 1.0 - (a + np.cos(4 * p.Omega_n * np.asarray(t)) * b) / (a + b)

    U = _propagator(p, t, U)
    m = ((_dagger(U) * _S1Z_DIAG) @ U) * _S2Z_DIAG  # sigma1_z(t) sigma2_z
    # Tr(rho m m) = Tr(m rho m): one GEMM for m rho, then an elementwise contraction
    traced = 1.0 - np.einsum("...ij,...ji->...", _rdot(m, thermal_density(p)), m).real
    _cross_check("thermal OTOC", "trace", t, closed, traced)
    return closed


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix or a (..., 4, 4) stack.

    max(0, R1 - R2 - R3 - R4) with R_i the descending square roots of the
    eigenvalues of rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  Tiny
    negative eigenvalues in [EIGENVALUE_CLAMP, 0) are clamped to zero;
    anything more negative is rejected.

    Each bitwise-distinct member of a stack is validated and evaluated once,
    in order of first occurrence, and its result is copied to every repeat,
    so the result and any error message are the same bytes as evaluating
    every member.  Members are told apart by their bytes, not by ==, so 0.0
    and -0.0 (and NaN payloads) stay distinct.  A stack in which no member
    repeats is evaluated as given.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        return _wootters(rho)  # validate_density names the shape
    rank = {}
    inverse = [rank.setdefault(key, len(rank))
               for key in rho.reshape(-1, 16).view(np.dtype((np.void, 256))).ravel().tolist()]
    if len(rank) == len(inverse):
        return _wootters(rho)[()]  # nothing repeats: a copy of the members saves no work
    members = np.frombuffer(b"".join(rank), dtype=complex).reshape(-1, 4, 4)
    return _wootters(members)[inverse].reshape(rho.shape[:-2])[()]


def _wootters(rho: np.ndarray) -> np.ndarray:
    """Validate the (..., 4, 4) stack rho and return the Wootters concurrence
    of each of its members."""
    evals = np.linalg.eigvals(_spin_flip(validate_density(rho))).real
    if evals.min(initial=0.0) < EIGENVALUE_CLAMP:
        raise ValueError(f"spin-flip spectrum has a negative eigenvalue ({evals.min():.3e})")
    roots = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=-1)[..., ::-1]
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(c > 0.0, c, 0.0)


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y), grouped left to right,
    with each product by sigma_y x sigma_y taken as a signed column reversal."""
    return ((rho[..., ::-1] * _YY_SIGNS) @ rho.conj())[..., ::-1] * _YY_SIGNS


def gme(c: float | np.ndarray) -> float | np.ndarray:
    """Geometric measure of entanglement of a two-qubit state with
    concurrence c: (1 - sqrt(1 - c)) / 2, elementwise over an array of c."""
    c = np.asarray(c, dtype=float)
    outside = ~((-1e-12 <= c) & (c <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"concurrence must lie in [0, 1], got {float(c[outside][0])}")
    return 0.5 * (1.0 - np.sqrt(1.0 - np.clip(c, 0.0, 1.0)))


def thermal_concurrence(p: QuantumChannelParams, t: float | np.ndarray, *,
                        U: np.ndarray | None = None) -> float | np.ndarray:
    """Concurrence of the (time-evolved) thermal state.

    Closed form 2 max(0, (|sinh(beta Omega_n)| - 1) / Z) with
    Z = 2 cosh(2 beta (Omega0+omega0R)) + 2 cosh(beta Omega_n), checked
    against the Wootters pipeline on the state evolved to every t by the
    propagator U on t (built here unless given).  The
    thermal state is stationary, so the result is t-independent; t only
    exercises that.
    """
    Z = 2 * math.cosh(2 * p.beta * p.zeeman) + 2 * math.cosh(p.beta * p.Omega_n)
    closed = np.full(np.shape(t), 2.0 * max(0.0, (abs(math.sinh(p.beta * p.Omega_n)) - 1.0) / Z))

    U = _propagator(p, t, U)
    _cross_check("thermal concurrence", "Wootters", t, closed,
                 concurrence(_rdot(U, thermal_density(p)) @ _dagger(U)))
    return closed[()]
