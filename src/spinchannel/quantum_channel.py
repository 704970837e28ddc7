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

Each closed form is written once.  The Bell-state OTOC is
``otoc_bell_spectral``, 1 - cos(4 Omega_n t), as a dense Tavis-Cummings
model confirms at n = 0 (tests/oracles.py; n > 0 is not checked); the paper
prints 2 sin^2(4 Omega_n t).  The Gibbs state is the factor X0 of
``_gibbs_factor``, and ``thermal_density`` is X0 X0^dagger.

Evaluators take t as a scalar or a 1-D time grid, and the cross-checks hold
at every grid point.  The numeric routes need the propagator
U = exp(-i h_total(p) t) on that t; ``otoc_numeric``, ``thermal_otoc`` and
``thermal_concurrence`` build it (one spectral decomposition of H per call)
unless it is passed as the keyword-only ``U``.  Given or built, the results
are the same bytes, so a caller that needs several quantities on one grid
computes U once and shares it: the quantum runner builds one U per photon
number, and its columns and both cross-checks all come from it.  In the
same way ``otoc_numeric`` and ``thermal_otoc`` take sigma1_z(t) =
U^dagger sigma1_z U as the keyword-only ``s1z_t``, else otoc_product and
the trace route each form it from U with correlators' one Heisenberg
operator; the runner forms it once per photon number, right after U, and
its Bell OTOC column and the thermal-OTOC check share it.  A given U or
s1z_t must have t's shape followed by (4, 4).
A pure start stays pure, so the runner's concurrence column is
2 |psi00 psi11 - psi01 psi10| of psi(t) = U psi0 (Hill & Wootters, PRL 78,
5022 (1997)), exact to rounding.  Wootters' formula for a mixed state
(PRL 80, 2245 (1998)) takes the R_i from tau = X^T (sigma_y x sigma_y) X of
a factor rho = X X^dagger, in one of two ways.  ``thermal_concurrence`` has
its factor for free, the evolved Gibbs factor U X0, on which
tau tau^dagger is diagonal to rounding: one batched eigvalsh gives every
R_i^2 to rounding, with no density stack.  ``concurrence`` takes any rho,
whose eigh factor need not make tau tau^dagger diagonal; eigvalsh there
would lose half the digits of a near-zero R_i, so it takes the singular
values of tau.  The probes sigma1_z, sigma2_z are spin_algebra's.  Every
dense check, the trace of the evolved thermal state among them, is one
worst-point search (``_cross_check``): a failure raises an IntegrationError
that carries the worst t; an empty time grid gives empty results and
checks nothing.

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
from .hybrid_dynamics import IntegrationError
from .spin_algebra import _S1Z, _S2Z, _dagger, _rdot, basis_state, bell_phi_minus, expm_hermitian

__all__ = [
    "QuantumChannelParams",
    "h_total",
    "eigensystem",
    "otoc_bell_spectral",
    "otoc_numeric",
    "thermal_density",
    "validate_density",
    "thermal_otoc",
    "concurrence",
    "gme",
    "thermal_concurrence",
]

# sigma2_z is diagonal: X @ sigma2_z is X with its columns scaled
_S2Z_DIAG = np.diag(_S2Z).real.copy()
# kron(sigma_y, sigma_y) is anti-diagonal with signs (-1, 1, 1, -1): it times
# X is X with its rows reversed, each row times its sign
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

CROSS_CHECK_TOL = 1e-10
DENSITY_HERM_TOL = 1e-12    # validate_density: max |rho - rho^dagger|
DENSITY_TRACE_TOL = 1e-12   # validate_density, thermal_concurrence: max |tr rho - 1|
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
        # |Omega_n| <= |Omega0| and omega0R <= omega0, so these two are all that can overflow
        for name, value in (("Omega0", self.Omega0), ("2 (Omega0 + omega0R)", 2 * self.zeeman)):
            if not math.isfinite(value):
                raise OverflowError(f"{name} = {value!r}")
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


def otoc_bell_spectral(p: QuantumChannelParams, t: float | np.ndarray) -> float | np.ndarray:
    """Bell-state OTOC from the eigenphase structure: 1 - cos(4 Omega_n t).

    The four-operator product sigma1_z(t) sigma2_z sigma1_z(t) sigma2_z is
    diagonal in the energy eigenbasis with phases {0, +-4 Omega_n t, 0}; the
    singlet-like Bell state projects onto a single phase, giving this form,
    which otoc_numeric matches to rounding.  It is 2 sin^2(2 Omega_n t), not
    the printed 2 sin^2(4 Omega_n t).
    """
    return 1.0 - np.cos(4.0 * p.Omega_n * np.asarray(t))


def _on_grid(name: str, op: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """A given operator on t as a complex array, once its shape matches t."""
    if np.shape(op) != np.shape(t) + (4, 4):
        raise ValueError(f"{name} of shape {np.shape(op)} does not match t of shape "
                         f"{np.shape(t)}; expected {np.shape(t) + (4, 4)}")
    return np.asarray(op, dtype=complex)


def _propagator(p: QuantumChannelParams, t: float | np.ndarray,
                U: np.ndarray | None) -> np.ndarray:
    """exp(-i h_total(p) t), or the given U once its shape matches t."""
    return expm_hermitian(h_total(p), t) if U is None else _on_grid("propagator", U, t)


def otoc_numeric(p: QuantumChannelParams, t: float | np.ndarray,
                 psi0: np.ndarray | None = None, *, U: np.ndarray | None = None,
                 s1z_t: np.ndarray | None = None) -> float | np.ndarray:
    """OTOC of sigma1_z(t), sigma2_z on psi0 (default the Bell state),
    evaluated from the exact propagator U of the effective Hamiltonian on t
    and sigma1_z(t) = U^dagger sigma1_z U (each built from the other inputs
    unless given)."""
    psi0 = bell_phi_minus() if psi0 is None else np.asarray(psi0, dtype=complex)
    Wt = None if s1z_t is None else _on_grid("sigma1_z(t)", s1z_t, t)
    return correlators.otoc_product(_propagator(p, t, U), psi0, _S1Z, _S2Z, Wt=Wt).C


def thermal_density(p: QuantumChannelParams) -> np.ndarray:
    """Gibbs state X0 X0^dagger of the effective Hamiltonian in the
    computational basis, from the factor X0 of _gibbs_factor; the middle
    block is non-diagonal in the computational basis."""
    X0 = _gibbs_factor(p)
    return X0 @ _dagger(X0)


def _partition_function(p: QuantumChannelParams) -> float:
    """Z = 2 cosh(2 beta (Omega0+omega0R)) + 2 cosh(beta Omega_n)."""
    return 2 * math.cosh(2 * p.beta * p.zeeman) + 2 * math.cosh(p.beta * p.Omega_n)


def _gibbs_factor(p: QuantumChannelParams) -> np.ndarray:
    """The Gibbs state's factor X0, whose columns are the closed-form
    eigenvectors weighted as sqrt(e^{-beta E_i}/Z) phi_i."""
    Z = _partition_function(p)
    return np.stack([math.sqrt(math.exp(-p.beta * energy) / Z) * vec
                     for energy, vec in eigensystem(p)], axis=-1)


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of rho or of a (..., 4, 4) stack.

    Non-finite entries are rejected first, before any arithmetic on them;
    eigvalsh then decides positivity for every member and names the most
    negative eigenvalue of the stack.
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
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -DENSITY_PSD_TOL:
        raise ValueError(f"density matrix has a negative eigenvalue ({evals.min():.3e})")
    return rho


def _cross_check(quantity: str, route: str, t, closed, numeric,
                 tol: float = CROSS_CHECK_TOL) -> None:
    """Raise an IntegrationError unless closed form and dense route agree to
    within tol at every t (none on an empty grid); name the worst t, and
    carry it as the error's t."""
    t, closed, numeric = (a.ravel() for a in np.broadcast_arrays(t, closed, numeric))
    if not t.size:
        return
    k = np.argmax(np.abs(closed - numeric))  # the first NaN, if any
    if not abs(closed[k] - numeric[k]) <= tol:
        raise IntegrationError(f"{quantity} cross-check failed at t = {float(t[k])!r}: "
                               f"closed form {float(closed[k])!r} vs {route} "
                               f"{float(numeric[k])!r}", t=float(t[k]))


def thermal_otoc(p: QuantumChannelParams, t: float | np.ndarray, *,
                 U: np.ndarray | None = None,
                 s1z_t: np.ndarray | None = None) -> float | np.ndarray:
    """Thermally averaged OTOC of sigma1_z(t), sigma2_z.

    Evaluates the closed form

        C = 1 - [cosh(2 beta (Omega0+omega0R)) + cos(4 Omega_n t) cosh(beta Omega_n)]
              / [cosh(2 beta (Omega0+omega0R)) + cosh(beta Omega_n)]

    and the defining trace Re Tr{rho sigma1_z(t) sigma2_z sigma1_z(t) sigma2_z},
    with sigma1_z(t) = U^dagger sigma1_z U of the propagator U on t formed as
    otoc_product forms it: built here from U (itself built unless given)
    unless given as ``s1z_t``, which then needs no U.  The two must agree to
    within CROSS_CHECK_TOL at every t or the call fails.
    """
    a = math.cosh(2 * p.beta * p.zeeman)
    b = math.cosh(p.beta * p.Omega_n)
    closed = 1.0 - (a + np.cos(4 * p.Omega_n * np.asarray(t)) * b) / (a + b)

    if s1z_t is None:
        s1z_t = correlators._heisenberg(_propagator(p, t, U), _S1Z)
    m = _on_grid("sigma1_z(t)", s1z_t, t) * _S2Z_DIAG  # sigma1_z(t) sigma2_z
    # Tr(rho m m) = Tr(m rho m): one GEMM for m rho, then an elementwise contraction
    traced = 1.0 - np.einsum("...ij,...ji->...", _rdot(m, thermal_density(p)), m).real
    _cross_check("thermal OTOC", "trace", t, closed, traced)
    return closed


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix or a (..., 4, 4) stack.

    max(0, R1 - R2 - R3 - R4) with R_i the descending singular values of
    Wootters' tau = X^T (sigma_y x sigma_y) X for a factor rho = X X^dagger
    (Wootters, PRL 80, 2245 (1998)); their squares are the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  X = V sqrt(lambda) comes
    from eigh of the validated rho, with the eigenvalues that validate_density
    lets through below zero (down to -DENSITY_PSD_TOL) taken as zero.  The
    svd takes no square root of a near-zero spectrum, so a near-pure rho is
    as exact as any other; eigvalsh of tau tau^dagger would not be, since
    rho's eigenbasis need not make tau diagonal.
    """
    evals, vecs = np.linalg.eigh(validate_density(rho))
    roots = np.linalg.svd(_wootters_tau(vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]),
                          compute_uv=False)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(c > 0.0, c, 0.0)[()]


def _wootters_tau(X: np.ndarray) -> np.ndarray:
    """Wootters' tau = X^T (sigma_y x sigma_y) X of each factor in a (..., 4, k)
    stack, with the product by sigma_y x sigma_y taken as a signed row reversal."""
    return X.swapaxes(-1, -2) @ (X[..., ::-1, :] * _YY_SIGNS[:, None])


def _pure_concurrence(psi: np.ndarray) -> np.ndarray:
    """Concurrence 2 |psi00 psi11 - psi01 psi10| of each normalized two-qubit
    state in a (..., 4) stack (Hill & Wootters, PRL 78, 5022 (1997)): the
    Wootters concurrence of |psi><psi|, without its square roots."""
    return 2.0 * np.abs(psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2])


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

    Closed form 2 max(0, (|sinh(beta Omega_n)| - 1) / Z), with Z the
    partition function, checked against Wootters' formula at every t, on the
    factor X(t) = U X0 of the evolved Gibbs state rho(t) = X X^dagger (X0 of
    _gibbs_factor; U the propagator on t, built here unless given).  There
    the R_i^2 are the eigenvalues of the Hermitian tau tau^dagger,
    tau = X^T (sigma_y x sigma_y) X.  U only rephases the columns of X0, so
    tau is zero to rounding outside its diagonal and its |00>, |11> corners,
    tau tau^dagger is diagonal to rounding, and eigvalsh finds each R_i^2 to
    rounding of its own size, near-pure states included.  The trace of
    rho(t), ||X(t)||_F^2, must be 1 within DENSITY_TRACE_TOL at every t, a
    cross-check like the others.  The
    public ``concurrence`` of thermal_density(p) is checked against the same
    closed form once, at t = 0.  The thermal state is stationary, so the
    result is t-independent; t only exercises that.
    """
    Z = _partition_function(p)
    value = 2.0 * max(0.0, (abs(math.sinh(p.beta * p.Omega_n)) - 1.0) / Z)
    closed = np.full(np.shape(t), value)

    X = _rdot(_propagator(p, t, U), _gibbs_factor(p))
    parts = X.view(float)  # real and imaginary parts side by side, no copy
    tr = np.einsum("...ij,...ij->...", parts, parts)  # ||X||_F^2 = tr rho(t)
    _cross_check("thermal state trace", "||U X0||_F^2", t, 1.0, tr, tol=DENSITY_TRACE_TOL)
    tau = _wootters_tau(X)
    roots = np.sqrt(np.clip(np.linalg.eigvalsh(tau @ _dagger(tau)), 0.0, None))  # ascending
    c = roots[..., 3] - roots[..., 2] - roots[..., 1] - roots[..., 0]
    _cross_check("thermal concurrence", "Wootters", t, closed, np.where(c > 0.0, c, 0.0))
    _cross_check("thermal concurrence", "Wootters", 0.0, value, concurrence(thermal_density(p)))
    return closed[()]
