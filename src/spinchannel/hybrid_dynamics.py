"""Coupled dynamics of two classical oscillators and two quantum spins.

The classical coordinates obey driven, damped Duffing equations with a linear
inter-oscillator coupling; each oscillator additionally feels the mean-field
back-action g<S^z> of its spin.  The integrated state is the classical phase
space and the two-spin propagator U(t) from the initial time t0 (the identity
there) under the position-dependent spin Hamiltonian, 4 + 32 reals; the
wavefunction psi(t) = U(t) psi0 is derived from it wherever it is needed, and
the OTOC column is that of the probes sigma1_z, sigma2_z on psi0.
Because that Hamiltonian is a sum of single-site terms, U(t) stays a
Kronecker product u1 (x) u2 of 2x2 propagators.  That property is checked,
not assumed: every sample records the Frobenius distance of U from the
nearest Kronecker product (``separability_defect``).

Integration uses the adaptive Dormand-Prince 5(4) pair with dense output at
a uniform sampling interval; the right-hand side acts on the real form of
the state.  After every accepted step the wavefunction norm and the
propagator unitarity defect are recorded and, above a small threshold, U is
replaced by its polar factor (a Newton-Schulz iteration whose result is
checked); runs abort if the accumulated drift ever exceeds
``CUM_DRIFT_LIMIT`` so a silently inaccurate integration cannot masquerade
as physics, and once their trial steps exceed a budget that grows with the
span (``MIN_STEP_BUDGET``, ``STEPS_PER_UNIT_TIME``), so a step size that
collapses cannot make a run's work unbounded.  The sampled states are
stored during stepping and every output column is evaluated afterwards in
one pass over the whole stack, which checks that every value is finite.

``propagate_nofeedback`` is the control case without back-action: the spins
follow a prescribed oscillator trajectory, and U alone is integrated with
the same left-multiplication maps, accepted-step guard, sample fix-up and
output grid as the coupled run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import correlators
from .dp45 import DormandPrince45
from .spin_algebra import _S1Z, _S2Z, SpinParams, _dagger, _rdot, embed, pauli

__all__ = [
    "OscParams",
    "Regime",
    "RegimeError",
    "IntegrationError",
    "HybridState",
    "TimeSeries",
    "IntegrationDiagnostics",
    "EnergyBudget",
    "separability_defect",
    "integrate",
    "CoefficientSeries",
    "propagate_nofeedback",
    "classical_energy",
    "energy_budget",
]

RENORM_THRESHOLD = 1e-12   # per-step defect above which U is projected
CUM_DRIFT_LIMIT = 1e-6     # run is aborted if accumulated drift exceeds this
# A run is aborted once its trial steps (accepted plus rejected) exceed
# MIN_STEP_BUDGET + STEPS_PER_UNIT_TIME * (t_end - t0): 31x the densest preset's
# 318 per unit time at tol 1e-12, and a floor for short spans
MIN_STEP_BUDGET = 100_000
STEPS_PER_UNIT_TIME = 10_000
_POLAR_ITERATIONS = 3      # Newton-Schulz iterations before a projection fails
_POLAR_ROUNDING = 1e-14    # unitarity defect at which the iteration has converged

_I4 = np.eye(4, dtype=complex)
_SIGMA_OPS = [embed(pauli(ax), site) for site in (1, 2) for ax in ("x", "y", "z")]


class RegimeError(ValueError):
    """Oscillator parameters match none of the four dynamical regimes."""


class IntegrationError(RuntimeError):
    """Integration failed (stiffness, excessive invariant drift, or a quantum
    channel cross-check).

    ``t``, ``h`` and ``err_norm`` locate a failure of the stepping loop: the
    stepper's time, its step size (the step being tried or, after an accepted
    step, the next one proposed) and the error norm of its last trial step.
    If the stepper was never built, t is the start time and h and err_norm
    are None; all three are None for a failure outside the loop.  A failed
    cross-check gives the worst t on its grid, and an output column that is
    not finite the first t at which it is not, with h and err_norm None.
    """

    def __init__(self, message: str, t: float | None = None, h: float | None = None,
                 err_norm: float | None = None):
        super().__init__(message)
        self.t = t
        self.h = h
        self.err_norm = err_norm


@dataclass(frozen=True)
class OscParams:
    """Two coupled Duffing oscillators with a common external drive.

    omega1, omega2 -- bare angular frequencies
    D              -- linear coupling constant
    xi             -- quartic (Duffing) nonlinearity
    gamma          -- damping constant (force term -2 gamma v)
    F, Omega       -- drive amplitude and angular frequency (F cos(Omega t)
                      applied to both oscillators)
    """

    omega1: float
    omega2: float
    D: float
    xi: float = 0.0
    gamma: float = 0.0
    F: float = 0.0
    Omega: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.F < 0:
            raise ValueError(f"F must be non-negative, got {self.F}")

    @classmethod
    def from_connectivity(cls, omega1: float, omega2: float, K: float, **kwargs) -> "OscParams":
        """Build from the dimensionless connectivity K = D / |omega1^2 - omega2^2|."""
        if omega1 == omega2:
            raise ValueError("connectivity is undefined for degenerate oscillator frequencies")
        D = K * abs(omega1**2 - omega2**2)
        return cls(omega1=omega1, omega2=omega2, D=D, **kwargs)


class Regime(enum.Enum):
    """The four dynamical regimes of the classical subsystem."""

    AUTONOMOUS_LINEAR = "autonomous_linear"        # F = 0, gamma = 0, xi = 0
    AUTONOMOUS_NONLINEAR = "autonomous_nonlinear"  # F = 0, gamma = 0, xi != 0
    DRIVEN_LINEAR = "driven_linear"                # F != 0, gamma != 0, xi = 0
    DRIVEN_NONLINEAR = "driven_nonlinear"          # F != 0, gamma != 0, xi != 0

    @classmethod
    def classify(cls, op: OscParams) -> "Regime":
        if op.F == 0.0 and op.gamma == 0.0:
            return cls.AUTONOMOUS_LINEAR if op.xi == 0.0 else cls.AUTONOMOUS_NONLINEAR
        if op.F != 0.0 and op.gamma != 0.0:
            return cls.DRIVEN_LINEAR if op.xi == 0.0 else cls.DRIVEN_NONLINEAR
        raise RegimeError(
            f"parameters (F={op.F}, gamma={op.gamma}, xi={op.xi}) match none of the four "
            f"regimes: autonomous requires F=0 and gamma=0, driven requires F!=0 and gamma!=0")


@dataclass
class HybridState:
    """Snapshot of the coupled system: classical phase space and two-spin
    wavefunction."""

    t: float
    x1: float
    v1: float
    x2: float
    v2: float
    psi: np.ndarray


@dataclass
class IntegrationDiagnostics:
    """Raw per-step and per-sample invariant drift, recorded before projection."""

    n_steps: int = 0
    n_rejected: int = 0
    max_step_norm_drift: float = 0.0
    cum_norm_drift: float = 0.0
    max_step_unitarity_defect: float = 0.0
    cum_unitarity_defect: float = 0.0
    max_output_norm_drift: float = 0.0
    max_output_unitarity_defect: float = 0.0


@dataclass
class TimeSeries:
    """Uniformly sampled trajectory records.

    Columns follow the output schema: positions/velocities, direct spin
    expectations, the OTOC and two-point correlator of sigma1_z, sigma2_z,
    and the three energy contributions.  ``psis``/``Us`` keep the sampled
    quantum state, psi(t) = U(t) psi0, for downstream analysis (the OTOC of
    other probes is ``correlators.otoc_product(Us, psi0, W, V)``);
    ``sep_defect`` is the Frobenius distance of U from the nearest Kronecker
    product of 2x2 matrices.
    """

    t: np.ndarray
    x1: np.ndarray
    v1: np.ndarray
    x2: np.ndarray
    v2: np.ndarray
    s1x: np.ndarray
    s1y: np.ndarray
    s1z: np.ndarray
    s2x: np.ndarray
    s2y: np.ndarray
    s2z: np.ndarray
    otoc: np.ndarray
    two_point: np.ndarray
    h0: np.ndarray
    h_nv: np.ndarray
    v_int: np.ndarray
    sep_defect: np.ndarray
    psis: np.ndarray
    Us: np.ndarray
    psi0: np.ndarray
    diagnostics: IntegrationDiagnostics

    def __len__(self) -> int:
        return self.t.size

    @property
    def final_state(self) -> HybridState:
        """The state at the last sample."""
        return HybridState(t=self.t[-1], x1=float(self.x1[-1]), v1=float(self.v1[-1]),
                           x2=float(self.x2[-1]), v2=float(self.v2[-1]), psi=self.psis[-1].copy())


@dataclass
class CoefficientSeries:
    """Basis coefficients C1..C4 of the propagated wavefunction on a uniform
    time grid (``coefficients[k]`` is the length-4 vector at ``t[k]``)."""

    t: np.ndarray
    coefficients: np.ndarray
    max_norm_drift: float

    def __len__(self) -> int:
        return self.t.size


@dataclass
class EnergyBudget:
    """Energy bookkeeping of a run: classical H0, spin <H_NV>, interaction <V>,
    their modulation depths (max - min), and the drift of the total.

    ``max_total_drift_rel`` divides the drift by |total(t0)|, which is near 0
    for some valid inputs (|01> at a small displacement: its spin energy is
    0).  ``max_total_drift_scaled`` divides it by the energy scale of the
    run, the largest |H0| + |<H_NV>| + |<V>| over the samples.
    """

    h0: np.ndarray
    h_nv: np.ndarray
    v_int: np.ndarray
    total: np.ndarray
    depth_h0: float
    depth_h_nv: float
    depth_v: float
    max_total_drift_rel: float
    max_total_drift_scaled: float


def classical_energy(s: HybridState, op: OscParams) -> float:
    """Oscillator energy: kinetic + harmonic + quartic + coupling terms
    (elementwise if the state's coordinates are arrays)."""
    return (0.5 * (s.v1**2 + s.v2**2)
            + 0.5 * op.omega1**2 * s.x1**2 + 0.5 * op.omega2**2 * s.x2**2
            + 0.25 * op.xi * (s.x1**4 + s.x2**4)
            + 0.5 * op.D * (s.x1 - s.x2)**2)


def separability_defect(U: np.ndarray) -> float | np.ndarray:
    """Frobenius distance of a 4x4 matrix from the nearest Kronecker product
    A (x) B of 2x2 matrices: realigned as R[(i,k),(j,l)] = U[(i,j),(k,l)],
    A (x) B becomes the rank-one vec(A) vec(B)^T, and the distance is the norm
    of all but the leading singular value of R (Van Loan & Pitsianis 1993).
    A (..., 4, 4) stack gives an array of its leading shape."""
    U = np.asarray(U)
    R = U.reshape(*U.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2).reshape(*U.shape[:-2], 4, 4)
    s = np.linalg.svd(R, compute_uv=False)
    d = np.sqrt(np.sum(s[..., 1:] ** 2, axis=-1))
    return float(d) if d.ndim == 0 else d


def _max_abs(E: np.ndarray) -> float:
    """max |E| over every entry: ``np.abs(E).max()`` without the Python
    wrapper of ``ndarray.max``."""
    return np.maximum.reduce(np.abs(E), axis=None)


def _polar_projection(U: np.ndarray, E: np.ndarray, defect: float | None = None
                      ) -> np.ndarray:
    """Nearest unitary matrix (polar factor) of a near-unitary U, or of each
    member of a (..., 4, 4) stack, by the Newton-Schulz iteration
    U <- U (I - E/2) with E = U^dagger U - I, which the caller has already
    formed to measure the defect (Higham 1986).  A caller that has measured
    that defect, max |E|, passes it as ``defect``.

    The unitarity defect is measured after every iteration and squares on
    each, so one iteration reaches rounding level from the defects an
    accurate step leaves.  The iteration converges to the polar factor only
    while the singular values of U lie in (0, sqrt(3)), so a defect of 1/4
    or more, or one still above RENORM_THRESHOLD after _POLAR_ITERATIONS,
    raises FloatingPointError rather than returning some other unitary.
    """
    if defect is None:
        defect = _max_abs(E)
    if not defect < 0.25:
        raise FloatingPointError(f"propagator too far from unitary to project "
                                 f"(unitarity defect {defect:.3e})")
    for _ in range(_POLAR_ITERATIONS):
        if U.ndim == 2:   # one matrix (the per-step guard): no matmul dispatch
            U = U - 0.5 * U.dot(E)
            E = U.conj().T.dot(U) - _I4
        else:
            U = U - 0.5 * (U @ E)
            E = _dagger(U) @ U - _I4
        defect = _max_abs(E)
        if defect <= _POLAR_ROUNDING:
            return U
    if defect > RENORM_THRESHOLD:
        raise FloatingPointError(f"polar projection left a unitarity defect {defect:.3e} "
                                 f"after {_POLAR_ITERATIONS} iterations")
    return U


def _coupling_operators(sp: SpinParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S1, S2 (the dressed spin operator on each site) and the bare spin
    Hamiltonian Z4 = (omega0/2)(sigma1_z + sigma2_z)."""
    Snv = sp.site_operator()
    return embed(Snv, 1), embed(Snv, 2), 0.5 * sp.omega0 * (_S1Z + _S2Z)


def _real_form(M: np.ndarray) -> np.ndarray:
    """Real matrix acting on interleaved (re, im) pairs as the complex M acts
    on complex vectors: a + ib becomes a I2 + b J."""
    return np.kron(M.real, np.eye(2)) + np.kron(M.imag, np.array([[0.0, -1.0], [1.0, 0.0]]))


def _spin_maps(sp: SpinParams) -> np.ndarray:
    """The left-multiplication maps U -> -i M U of M = Z4, S1, S2 on the 32
    reals u of U, stacked as one real (96, 32) matrix, so that
    dU/dt = [1, g x1, g x2] @ (maps @ u).reshape(3, 32)."""
    S1, S2, Z4 = _coupling_operators(sp)
    return np.vstack([_real_form(np.kron(-1j * M, _I4)) for M in (Z4, S1, S2)])


def _hybrid_rhs(op: OscParams, sp: SpinParams, psi0: np.ndarray):
    """Right-hand side of the 36-real state (x1, v1, x2, v2, U) with
    psi = U psi0, in real form.

    dU/dt = -i (Z4 + g x1 S1 + g x2 S2) U is real-linear in the 32 reals u of
    U, and <S_i> = <psi|S_i|psi> is a real quadratic form u.Q_i u in them.
    One stacked (160, 32) matrix B holds the three maps of ``_spin_maps``
    and Q_1, Q_2, so an evaluation is one B @ u, one (2, 32) @ u and one
    linear combination of the three maps' images.  The oscillator forces are
    evaluated inline, with ``tests/oracles.py::_force`` their bit-for-bit
    reference.

    Hot-path rule: the closure owns the 160-real intermediate z = B u and
    its two views, and each call overwrites them (``B.dot(u, z)``, the same
    BLAS product as the allocating ``B.dot(u)``).  It writes the derivative
    into the caller's ``out`` (``DormandPrince45``'s contract: a stage row
    the stepper owns, never sharing memory with ``y``) and keeps neither
    ``y`` nor ``out``.  The buffer belongs to this one closure, so each run
    has its own.
    """
    g = sp.g
    S1, S2, _ = _coupling_operators(sp)
    lift = _real_form(np.kron(_I4, psi0[None, :]))     # u -> psi, (8, 32)
    B = np.vstack([_spin_maps(sp)] + [lift.T @ _real_form(S) @ lift for S in (S1, S2)])

    two_gamma, xi, F, Omega, D = 2.0 * op.gamma, op.xi, op.F, op.Omega, op.D
    w1sq, w2sq = op.omega1**2, op.omega2**2
    coeffs = np.ones(3)   # [1, g x1, g x2], refilled by each call
    z = np.empty(160)     # B u, overwritten by each call
    images = z[:96].reshape(3, 32)   # the three maps' images of u
    quad = z[96:].reshape(2, 32)     # Q_1 u, Q_2 u

    def rhs(t: float, y: np.ndarray, out: np.ndarray) -> None:
        u = y[4:]
        B.dot(u, z)
        f1, f2 = quad.dot(u).tolist()
        x1, v1, x2, v2 = y[:4].tolist()
        drive = F * math.cos(Omega * t)
        coupling = D * (x1 - x2)
        out[0] = v1
        out[1] = -two_gamma * v1 - xi * x1**3 + drive - w1sq * x1 - coupling - g * f1
        out[2] = v2
        out[3] = -two_gamma * v2 - xi * x2**3 + drive - w2sq * x2 + coupling - g * f2
        coeffs[1] = g * x1
        coeffs[2] = g * x2
        coeffs.dot(images, out[4:])

    return rhs


def _nofeedback_rhs(traj: Callable[[float], tuple[float, float]], sp: SpinParams):
    """Right-hand side of the 32 reals u of U under a prescribed trajectory:
    dU/dt = [1, g x1, g x2] @ (maps @ u).reshape(3, 32), written into the
    caller's ``out`` as ``_hybrid_rhs`` writes its own."""
    maps = _spin_maps(sp)
    g = sp.g

    def rhs(t: float, u: np.ndarray, out: np.ndarray) -> None:
        x1, x2 = traj(t)
        np.array([1.0, g * x1, g * x2]).dot(maps.dot(u).reshape(3, 32), out)

    return rhs


def _checked_state(psi: np.ndarray, tol: float) -> np.ndarray:
    """A complex copy of the initial psi, once tol lies in [1e-12, 1e-4] and
    psi is normalized."""
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    return correlators._check_state(psi).copy()


def _grid_intervals(span: float, dt_out: float) -> int:
    """Intervals of the uniform output grid over span: dt_out is adjusted to
    the nearest exact divisor, so the grid lands on both ends; none if span is 0."""
    if dt_out <= 0:
        raise ValueError(f"dt_out must be positive, got {dt_out}")
    return max(1, round(span / dt_out)) if span else 0


def _time_grid(t0: float, t_end: float, dt_out: float) -> np.ndarray:
    """Uniform output grid from t0 to t_end (the point t0 alone if they are equal)."""
    n_out = _grid_intervals(t_end - t0, dt_out)
    if n_out == 0:
        return np.array([t0])
    return t0 + (t_end - t0) * np.arange(n_out + 1) / n_out


def _guard_step(y: np.ndarray, psi0: np.ndarray, diag: IntegrationDiagnostics,
                tol: float) -> np.ndarray | None:
    """Accepted-step guard of a state whose last 32 reals are U.

    Records the norm drift of psi = U psi0 and the unitarity defect of U,
    aborts once the accumulated norm drift exceeds CUM_DRIFT_LIMIT and, above
    RENORM_THRESHOLD, returns the state with U replaced by its polar factor
    (None if U is kept).
    """
    U = y[-32:].view(complex).reshape(4, 4)
    G = U.conj().T.dot(U)
    # |psi|^2 = psi0^dagger G psi0
    drift = abs(math.sqrt(np.vdot(psi0, G.dot(psi0)).real) - 1.0)
    E = G - _I4
    udef = float(_max_abs(E))
    if drift > diag.max_step_norm_drift:
        diag.max_step_norm_drift = drift
    if udef > diag.max_step_unitarity_defect:
        diag.max_step_unitarity_defect = udef
    diag.cum_norm_drift += drift
    diag.cum_unitarity_defect += udef
    if diag.cum_norm_drift > CUM_DRIFT_LIMIT:
        raise IntegrationError(
            f"accumulated wavefunction norm drift {diag.cum_norm_drift:.3e} exceeds "
            f"{CUM_DRIFT_LIMIT:.1e}; tolerance {tol:.1e} is too loose for this run")
    if drift <= RENORM_THRESHOLD and udef <= RENORM_THRESHOLD:
        return None
    y = y.copy()
    y[-32:] = _polar_projection(U, E, udef).reshape(-1).view(float)
    return y


def _fix_samples(U: np.ndarray, psi0: np.ndarray, t: np.ndarray,
                 diag: IntegrationDiagnostics) -> np.ndarray:
    """Sample fix-up of a (n, 4, 4) stack of sampled propagators at times t.

    Records the output norm drift of psi = U psi0 and the unitarity defect of
    U, replaces in place the members above RENORM_THRESHOLD by their polar
    factor, and returns psi = U psi0 for every member.
    """
    psi = _rdot(U, psi0)
    drift = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    E = _dagger(U) @ U - _I4
    udef = np.abs(E).max(axis=(-2, -1))
    diag.max_output_norm_drift = max(diag.max_output_norm_drift, float(drift.max()))
    diag.max_output_unitarity_defect = max(diag.max_output_unitarity_defect,
                                           float(udef.max()))
    fix = (drift > RENORM_THRESHOLD) | (udef > RENORM_THRESHOLD)
    if fix.any():
        try:
            U[fix] = _polar_projection(U[fix], E[fix])
        except FloatingPointError as exc:
            raise IntegrationError(f"projection of the samples at t = "
                                   f"{t[fix][0]}..{t[fix][-1]} failed: {exc}") from exc
        psi[fix] = _rdot(U[fix], psi0)
    return psi


def _propagate(rhs, y0: np.ndarray, t_grid: np.ndarray, t_end: float, tol: float,
               psi0: np.ndarray, diag: IntegrationDiagnostics
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate a state whose last 32 reals are U, with psi = U psi0, by the
    adaptive DP45 from t_grid[0] to t_end, under the accepted-step guard,
    sampling its dense output at every grid time.

    Returns the leading reals sampled on the grid, (len(y0) - 32, n), and
    the sampled U, (n, 4, 4), and psi, (n, 4), after the sample fix-up; both
    are split once from one (n, len(y0)) buffer of a row per grid time.
    The run fails once its trial steps exceed the step budget
    MIN_STEP_BUDGET + STEPS_PER_UNIT_TIME * (t_end - t0), checked after each
    step.  Failures of the stepping loop other than IntegrationError are
    re-raised as IntegrationError naming the exception class; every
    IntegrationError from the loop leaves with the stepper's t, h and last
    err_norm.
    """
    n, m = t_grid.size, y0.size - 32
    samples = np.empty((n, y0.size))
    samples[0] = y0
    if n > 1:
        grid = t_grid.tolist()
        budget = MIN_STEP_BUDGET + STEPS_PER_UNIT_TIME * (t_end - grid[0])
        stepper = None
        try:
            stepper = DormandPrince45(rhs, grid[0], y0, t_end, tol=tol)
            k = 1
            while stepper.step():
                if stepper.n_steps + stepper.n_rejected > budget:
                    raise IntegrationError(
                        f"step budget exceeded: {stepper.n_steps} accepted and "
                        f"{stepper.n_rejected} rejected steps, more than {budget:.6g} = "
                        f"{MIN_STEP_BUDGET} + {STEPS_PER_UNIT_TIME} per unit time over "
                        f"the span {t_end - grid[0]!r}")
                t = stepper.t
                while k < n and grid[k] <= t + 1e-12 * max(1.0, abs(t)):
                    samples[k] = stepper.interpolate(grid[k])
                    k += 1
                y = _guard_step(stepper.y, psi0, diag, tol)
                if y is not None:
                    stepper.replace_state(y)
        except Exception as exc:
            t, h, err_norm = ((float(t_grid[0]), None, None) if stepper is None
                              else (stepper.t, stepper.h, stepper.err_norm))
            if isinstance(exc, IntegrationError):
                exc.t, exc.h, exc.err_norm = t, h, err_norm
                raise
            raise IntegrationError(f"integration failed at t = {t}: "
                                   f"{type(exc).__name__}: {exc}", t, h, err_norm) from exc
        diag.n_steps = stepper.n_steps
        diag.n_rejected = stepper.n_rejected
    Us = samples[:, m:].copy().view(complex).reshape(n, 4, 4)
    return samples[:, :m].T.copy(), Us, _fix_samples(Us, psi0, t_grid, diag)


def integrate(initial: HybridState, op: OscParams, sp: SpinParams,
              t_end: float, dt_out: float, tol: float) -> TimeSeries:
    """Integrate the coupled system and sample it every dt_out.

    tol is the relative tolerance of the adaptive stepper (also used as the
    absolute tolerance; the dynamical variables are O(1) in model units) and
    must lie in [1e-12, 1e-4].  U is integrated from the identity at
    initial.t, so psi(t) = U(t) psi0; the OTOC/two-point columns are those of
    the probes sigma1_z, sigma2_z on psi0.  dt_out is adjusted to the nearest
    exact divisor of the time span so the grid lands on both endpoints.  The
    parameters must classify as one of the four regimes (RegimeError
    otherwise).  The stepper only stores the sampled states; every output
    column is evaluated afterwards in one pass over the whole stack, and a
    value in it that is not finite (an energy that overflows) is an
    IntegrationError naming its column.
    """
    if t_end < initial.t:
        raise ValueError(f"t_end ({t_end}) must not precede the initial time ({initial.t})")
    psi0 = _checked_state(initial.psi, tol)
    t_grid = _time_grid(initial.t, t_end, dt_out)
    Regime.classify(op)

    diag = IntegrationDiagnostics()
    y0 = np.concatenate(([initial.x1, initial.v1, initial.x2, initial.v2],
                         _I4.reshape(-1).view(float)))
    xs, Us, psis = _propagate(_hybrid_rhs(op, sp, psi0), y0, t_grid, t_end, tol, psi0, diag)

    # <sigma> of both sites, then f1, f2 and h_nv; the copy frees the complex
    # einsum result
    ops = np.stack(_SIGMA_OPS + list(_coupling_operators(sp)))
    expect = np.einsum("ki,oij,kj->ok", psis.conj(), ops, psis, optimize=True).real.copy()
    rec = correlators.otoc_product(Us, psi0, _S1Z, _S2Z)

    x1, v1, x2, v2 = xs
    s1x, s1y, s1z, s2x, s2y, s2z, f1, f2, h_nv = expect
    state = HybridState(t=t_grid, x1=x1, v1=v1, x2=x2, v2=v2, psi=psis)
    # finite coordinates can still overflow an energy column, e.g. at t_end = t0,
    # where nothing is stepped; _check_columns reports that, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        columns = dict(x1=x1, v1=v1, x2=x2, v2=v2,
                       s1x=s1x, s1y=s1y, s1z=s1z, s2x=s2x, s2y=s2y, s2z=s2z,
                       otoc=rec.C, two_point=rec.G2,
                       h0=classical_energy(state, op), h_nv=h_nv,
                       v_int=sp.g * x1 * f1 + sp.g * x2 * f2,
                       sep_defect=separability_defect(Us))
    _check_columns(t_grid, columns)
    return TimeSeries(t=t_grid, **columns, psis=psis, Us=Us, psi0=psi0, diagnostics=diag)


def _check_columns(t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Raise an IntegrationError at the first time t at which an output
    column is not finite, naming the first such column and its value."""
    finite = np.logical_and.reduce([np.isfinite(col) for col in columns.values()])
    if not finite.all():
        k = int(finite.argmin())
        name = next(name for name, col in columns.items() if not np.isfinite(col[k]))
        raise IntegrationError(f"output column {name} is not finite at t = {float(t[k])!r}: "
                               f"{columns[name][k]}", t=float(t[k]))


def propagate_nofeedback(traj: Callable[[float], tuple[float, float]], sp: SpinParams,
                         psi0: np.ndarray, t_end: float, tol: float,
                         dt_out: float = 0.05) -> CoefficientSeries:
    """Propagate the two-spin wavefunction under a prescribed trajectory.

    ``traj(t)`` supplies the oscillator displacements (x1, x2); the spins
    evolve under the corresponding time-dependent Hamiltonian with no
    back-action on the trajectory.  U alone is integrated from the identity
    with the maps of ``_spin_maps``, under the accepted-step guard and the
    sample fix-up of ``integrate`` (same tol range, thresholds and drift
    limit), and the coefficients are U(t) psi0 on the uniform grid from t = 0.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    psi0 = _checked_state(psi0, tol)
    t_grid = _time_grid(0.0, t_end, dt_out)
    diag = IntegrationDiagnostics()
    _, _, psis = _propagate(_nofeedback_rhs(traj, sp), _I4.reshape(-1).view(float), t_grid,
                            t_end, tol, psi0, diag)
    return CoefficientSeries(t=t_grid, coefficients=psis, max_norm_drift=diag.max_step_norm_drift)


def energy_budget(series: TimeSeries, sp: SpinParams, op: OscParams) -> EnergyBudget:
    """Energy decomposition of a run and the conservation residual.

    The total H0 + <V> + <H_NV> is a constant of motion only for autonomous
    runs (F = 0, gamma = 0); for driven runs the drift figure simply records
    the injected energy.
    """
    total = series.h0 + series.h_nv + series.v_int
    drift = float(np.abs(total - total[0]).max())
    ref = abs(total[0]) if total[0] != 0 else 1.0
    scale = float((np.abs(series.h0) + np.abs(series.h_nv) + np.abs(series.v_int)).max())
    return EnergyBudget(
        h0=series.h0, h_nv=series.h_nv, v_int=series.v_int, total=total,
        depth_h0=float(series.h0.max() - series.h0.min()),
        depth_h_nv=float(series.h_nv.max() - series.h_nv.min()),
        depth_v=float(series.v_int.max() - series.v_int.min()),
        max_total_drift_rel=drift / ref,
        max_total_drift_scaled=drift / scale if scale > 0 else drift,
    )
