"""Coupled dynamics of two classical oscillators and two quantum spins.

The classical coordinates obey driven, damped Duffing equations with a linear
inter-oscillator coupling; each oscillator additionally feels the mean-field
back-action g<S^z> of its spin.  The integrated state is the classical phase
space and the accumulated two-spin propagator U(t) under the
position-dependent spin Hamiltonian, 4 + 32 reals; the wavefunction
psi(t) = U(t) U(t0)^dagger psi0 is derived from it wherever it is needed.
Because that Hamiltonian is a sum of single-site terms, U(t) stays a
Kronecker product u1 (x) u2 of 2x2 propagators.  That property is checked,
not assumed: every sample records the Frobenius distance of U from the
nearest Kronecker product (``separability_defect``).

Integration uses the adaptive Dormand-Prince 5(4) pair with dense output at
a uniform sampling interval.  After every accepted step the wavefunction
norm and the propagator unitarity defect are recorded and, above a small
threshold, U is replaced by its polar factor; runs abort if the
accumulated drift ever exceeds ``CUM_DRIFT_LIMIT`` so a silently inaccurate
integration cannot masquerade as physics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import correlators
from .dp45 import DormandPrince45
from .spin_algebra import SpinParams, embed, pauli

__all__ = [
    "OscParams",
    "Regime",
    "RegimeError",
    "IntegrationError",
    "HybridState",
    "TimeSeries",
    "IntegrationDiagnostics",
    "EnergyBudget",
    "build_spin_hamiltonian",
    "site_hamiltonian",
    "connectivity",
    "derivative",
    "separability_defect",
    "integrate",
    "classical_energy",
    "energy_budget",
]

RENORM_THRESHOLD = 1e-12   # per-step defect above which U is projected
CUM_DRIFT_LIMIT = 1e-6     # run is aborted if accumulated drift exceeds this

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_SZ = pauli("z")
_SIGMA_OPS = [embed(pauli(ax), site) for site in (1, 2) for ax in ("x", "y", "z")]


class RegimeError(ValueError):
    """Oscillator parameters match none of the four dynamical regimes."""


class IntegrationError(RuntimeError):
    """Integration failed (stiffness or excessive invariant drift)."""


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


def connectivity(op: OscParams) -> float:
    """Dimensionless inter-oscillator coupling strength K = D / |w1^2 - w2^2|."""
    denom = abs(op.omega1**2 - op.omega2**2)
    if denom == 0.0:
        raise ValueError("connectivity is undefined: omega1 and omega2 are degenerate")
    return op.D / denom


class Regime(enum.Enum):
    """The four dynamical regimes of the classical subsystem."""

    AUTONOMOUS_LINEAR = "autonomous_linear"        # F = 0, gamma = 0, xi = 0
    AUTONOMOUS_NONLINEAR = "autonomous_nonlinear"  # F = 0, gamma = 0, xi != 0
    DRIVEN_LINEAR = "driven_linear"                # F != 0, gamma != 0, xi = 0
    DRIVEN_NONLINEAR = "driven_nonlinear"          # F != 0, gamma != 0, xi != 0

    @property
    def autonomous(self) -> bool:
        return self in (Regime.AUTONOMOUS_LINEAR, Regime.AUTONOMOUS_NONLINEAR)

    @classmethod
    def classify(cls, op: OscParams) -> "Regime":
        if op.F == 0.0 and op.gamma == 0.0:
            return cls.AUTONOMOUS_LINEAR if op.xi == 0.0 else cls.AUTONOMOUS_NONLINEAR
        if op.F != 0.0 and op.gamma != 0.0:
            return cls.DRIVEN_LINEAR if op.xi == 0.0 else cls.DRIVEN_NONLINEAR
        raise RegimeError(
            f"parameters (F={op.F}, gamma={op.gamma}, xi={op.xi}) match none of the four "
            f"regimes: autonomous requires F=0 and gamma=0, driven requires F!=0 and gamma!=0")

    def validate(self, op: OscParams) -> None:
        actual = Regime.classify(op)
        if actual is not self:
            raise RegimeError(f"parameters classify as {actual.value}, not {self.value}")


@dataclass
class HybridState:
    """Snapshot of the coupled system: classical phase space, two-spin
    wavefunction, and the accumulated propagator (identity at the initial
    time)."""

    t: float
    x1: float
    v1: float
    x2: float
    v2: float
    psi: np.ndarray
    U: np.ndarray = field(default_factory=lambda: _I4.copy())

    def norm_defect(self) -> float:
        return abs(np.linalg.norm(self.psi) - 1.0)

    def unitarity_defect(self) -> float:
        return float(np.abs(self.U.conj().T @ self.U - _I4).max())


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
    expectations, the OTOC and two-point correlator of the configured probe
    pair, and the three energy contributions.  ``psis``/``Us`` keep the
    sampled quantum state for downstream analysis; ``sep_defect`` is the
    Frobenius distance of U from the nearest Kronecker product of 2x2
    matrices.
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
    final_state: HybridState
    diagnostics: IntegrationDiagnostics

    def __len__(self) -> int:
        return self.t.size


@dataclass
class EnergyBudget:
    """Energy bookkeeping of a run: classical H0, spin <H_NV>, interaction <V>,
    their modulation depths (max - min), and the relative drift of the total."""

    h0: np.ndarray
    h_nv: np.ndarray
    v_int: np.ndarray
    total: np.ndarray
    depth_h0: float
    depth_h_nv: float
    depth_v: float
    max_total_drift_rel: float


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


def classical_energy(s: HybridState, op: OscParams) -> float:
    """Oscillator energy: kinetic + harmonic + quartic + coupling terms."""
    return (0.5 * (s.v1**2 + s.v2**2)
            + 0.5 * op.omega1**2 * s.x1**2 + 0.5 * op.omega2**2 * s.x2**2
            + 0.25 * op.xi * (s.x1**4 + s.x2**4)
            + 0.5 * op.D * (s.x1 - s.x2)**2)


def derivative(s: HybridState, op: OscParams, sp: SpinParams,
               regime: Regime | None = None) -> HybridState:
    """Time derivative of every dynamical variable, as a HybridState whose
    fields hold the derivatives (x fields carry velocities, v fields carry
    accelerations, psi/U carry d(psi)/dt and dU/dt)."""
    if regime is not None:
        regime.validate(op)
    H = build_spin_hamiltonian(s.x1, s.x2, sp)
    f1 = _real_expectation(s.psi, embed(sp.site_operator(), 1))
    f2 = _real_expectation(s.psi, embed(sp.site_operator(), 2))
    a1, a2 = _accelerations(op, sp.g, s.t, s.x1, s.v1, s.x2, s.v2, f1, f2)
    return HybridState(t=s.t, x1=s.v1, v1=a1, x2=s.v2, v2=a2,
                       psi=-1j * (H @ s.psi), U=-1j * (H @ s.U))


def _accelerations(op: OscParams, g: float, t: float, x1: float, v1: float,
                   x2: float, v2: float, f1: float, f2: float) -> tuple[float, float]:
    """Oscillator accelerations: damped, driven Duffing forces, the linear
    coupling, and the mean-field back-action -g f_i with f_i = <S_i^z>."""
    drive = op.F * math.cos(op.Omega * t)
    a1 = (-2.0 * op.gamma * v1 - op.xi * x1**3 + drive
          - op.omega1**2 * x1 - op.D * (x1 - x2) - g * f1)
    a2 = (-2.0 * op.gamma * v2 - op.xi * x2**3 + drive
          - op.omega2**2 * x2 + op.D * (x1 - x2) - g * f2)
    return a1, a2


def _real_expectation(psi: np.ndarray, op: np.ndarray) -> float:
    return float(np.vdot(psi, op @ psi).real)


def separability_defect(U: np.ndarray) -> float:
    """Frobenius distance of a 4x4 matrix from the nearest Kronecker product
    A (x) B of 2x2 matrices: realigned as R[(i,k),(j,l)] = U[(i,j),(k,l)],
    A (x) B becomes the rank-one vec(A) vec(B)^T, and the distance is the norm
    of all but the leading singular value of R (Van Loan & Pitsianis 1993)."""
    R = np.asarray(U).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(R, compute_uv=False)
    return math.sqrt(float(np.sum(s[1:] ** 2)))


def _polar_projection(U: np.ndarray) -> np.ndarray:
    """Nearest unitary matrix (polar factor)."""
    w, _, vh = np.linalg.svd(U)
    return w @ vh


def _integrate_sampled(rhs, y0: np.ndarray, t_grid: np.ndarray, t_end: float, tol: float,
                       sample, correct) -> DormandPrince45:
    """Drive the adaptive DP45 from t_grid[0] to t_end.

    ``sample(k, y)`` receives the dense output at each later grid time;
    ``correct(y)`` receives every accepted state, records its invariants and
    returns a corrected state to substitute, or None to keep it.  Failures
    other than IntegrationError are re-raised as IntegrationError.
    """
    stepper = DormandPrince45(rhs, t_grid[0], y0, t_end, rtol=tol, atol=tol)
    next_k = 1
    try:
        while stepper.step():
            while next_k < t_grid.size and \
                    t_grid[next_k] <= stepper.t + 1e-12 * max(1.0, abs(stepper.t)):
                sample(next_k, stepper.interpolate(t_grid[next_k]))
                next_k += 1
            y_corr = correct(stepper.y)
            if y_corr is not None:
                stepper.replace_state(y_corr)
    except IntegrationError:
        raise
    except Exception as exc:
        raise IntegrationError(f"integration failed at t = {stepper.t}: {exc}") from exc
    return stepper


def integrate(initial: HybridState, op: OscParams, sp: SpinParams,
              regime: Regime | None, t_end: float, dt_out: float, tol: float,
              otoc_ops: tuple[np.ndarray, np.ndarray] | None = None) -> TimeSeries:
    """Integrate the coupled system and sample it every dt_out.

    tol is the relative tolerance of the adaptive stepper (also used as the
    absolute tolerance; the dynamical variables are O(1) in model units) and
    must lie in [1e-12, 1e-4].  The OTOC/two-point columns use the probe pair
    ``otoc_ops`` (default sigma1_z, sigma2_z) with the initial psi as the
    reference state.  dt_out is adjusted to the nearest exact divisor of the
    time span so the grid lands on both endpoints.
    """
    if t_end < initial.t:
        raise ValueError(f"t_end ({t_end}) must not precede the initial time ({initial.t})")
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    if dt_out <= 0:
        raise ValueError(f"dt_out must be positive, got {dt_out}")
    regime = Regime.classify(op) if regime is None else regime
    regime.validate(op)

    psi0 = np.asarray(initial.psi, dtype=complex).copy()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("initial psi is not normalized")
    if otoc_ops is None:
        otoc_ops = (embed(pauli("z"), 1), embed(pauli("z"), 2))
    W, V = otoc_ops
    U0 = np.asarray(initial.U, dtype=complex)
    # psi(t) = U(t) phi0 with psi(t0) = psi0
    phi0 = U0.conj().T @ psi0

    g, Snv = sp.g, sp.site_operator()
    S1, S2 = embed(Snv, 1), embed(Snv, 2)
    Z4 = 0.5 * sp.omega0 * (embed(_SZ, 1) + embed(_SZ, 2))

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x1, v1, x2, v2 = y[:4]
        U = y[4:].view(complex).reshape(4, 4)
        psi = U @ phi0
        a1, a2 = _accelerations(op, g, t, x1, v1, x2, v2,
                                np.vdot(psi, S1 @ psi).real, np.vdot(psi, S2 @ psi).real)
        H = Z4 + (g * x1) * S1 + (g * x2) * S2
        dy = np.empty_like(y)
        dy[:4] = v1, a1, v2, a2
        dy[4:] = (-1j * (H @ U)).reshape(-1).view(float)
        return dy

    diag = IntegrationDiagnostics()

    def project(y: np.ndarray, record_step: bool):
        """Record the norm drift of psi and the unitarity defect of U and,
        above RENORM_THRESHOLD, replace U by its polar factor; returns
        (U, psi, the corrected state or None if U was kept)."""
        U = y[4:].view(complex).reshape(4, 4)
        psi = U @ phi0
        drift = abs(np.linalg.norm(psi) - 1.0)
        udef = float(np.abs(U.conj().T @ U - _I4).max())
        if record_step:
            diag.max_step_norm_drift = max(diag.max_step_norm_drift, drift)
            diag.max_step_unitarity_defect = max(diag.max_step_unitarity_defect, udef)
            diag.cum_norm_drift += drift
            diag.cum_unitarity_defect += udef
            if diag.cum_norm_drift > CUM_DRIFT_LIMIT:
                raise IntegrationError(
                    f"accumulated wavefunction norm drift {diag.cum_norm_drift:.3e} exceeds "
                    f"{CUM_DRIFT_LIMIT:.1e}; tolerance {tol:.1e} is too loose for this run")
        else:
            diag.max_output_norm_drift = max(diag.max_output_norm_drift, drift)
            diag.max_output_unitarity_defect = max(diag.max_output_unitarity_defect, udef)
        if drift <= RENORM_THRESHOLD and udef <= RENORM_THRESHOLD:
            return U, psi, None
        U = _polar_projection(U)
        return U, U @ phi0, np.concatenate((y[:4], U.reshape(-1).view(float)))

    if t_end == initial.t:
        n_out = 0
        t_grid = np.array([initial.t])
    else:
        n_out = max(1, round((t_end - initial.t) / dt_out))
        t_grid = initial.t + (t_end - initial.t) * np.arange(n_out + 1) / n_out

    cols = {name: np.empty(n_out + 1) for name in
            ("x1", "v1", "x2", "v2", "s1x", "s1y", "s1z", "s2x", "s2y", "s2z",
             "otoc", "h0", "h_nv", "v_int", "sep_defect")}
    two_pt = np.empty(n_out + 1, dtype=complex)
    psis = np.empty((n_out + 1, 4), dtype=complex)
    Us = np.empty((n_out + 1, 4, 4), dtype=complex)

    def emit(k: int, y: np.ndarray) -> None:
        U, psi, _ = project(y, record_step=False)
        x1, v1, x2, v2 = y[:4]
        cols["x1"][k], cols["v1"][k], cols["x2"][k], cols["v2"][k] = x1, v1, x2, v2
        for name, sop in zip(("s1x", "s1y", "s1z", "s2x", "s2y", "s2z"), _SIGMA_OPS):
            cols[name][k] = np.vdot(psi, sop @ psi).real
        rec = correlators.otoc_product(U, psi0, W, V, t=t_grid[k])
        cols["otoc"][k] = rec.C
        two_pt[k] = rec.G2
        f1 = np.vdot(psi, S1 @ psi).real
        f2 = np.vdot(psi, S2 @ psi).real
        state = HybridState(t=t_grid[k], x1=x1, v1=v1, x2=x2, v2=v2, psi=psi, U=U)
        cols["h0"][k] = classical_energy(state, op)
        cols["h_nv"][k] = np.vdot(psi, Z4 @ psi).real
        cols["v_int"][k] = g * x1 * f1 + g * x2 * f2
        cols["sep_defect"][k] = separability_defect(U)
        psis[k] = psi
        Us[k] = U

    y0 = np.concatenate(([initial.x1, initial.v1, initial.x2, initial.v2],
                         U0.reshape(-1).view(float)))
    emit(0, y0)
    if n_out >= 1:
        stepper = _integrate_sampled(rhs, y0, t_grid, t_end, tol, emit,
                                     lambda y: project(y, record_step=True)[2])
        diag.n_steps = stepper.n_steps
        diag.n_rejected = stepper.n_rejected

    final = HybridState(t=t_grid[-1], x1=float(cols["x1"][-1]), v1=float(cols["v1"][-1]),
                        x2=float(cols["x2"][-1]), v2=float(cols["v2"][-1]),
                        psi=psis[-1].copy(), U=Us[-1].copy())
    return TimeSeries(t=t_grid, x1=cols["x1"], v1=cols["v1"], x2=cols["x2"], v2=cols["v2"],
                      s1x=cols["s1x"], s1y=cols["s1y"], s1z=cols["s1z"],
                      s2x=cols["s2x"], s2y=cols["s2y"], s2z=cols["s2z"],
                      otoc=cols["otoc"], two_point=two_pt,
                      h0=cols["h0"], h_nv=cols["h_nv"], v_int=cols["v_int"],
                      sep_defect=cols["sep_defect"], psis=psis, Us=Us, psi0=psi0,
                      final_state=final, diagnostics=diag)


def energy_budget(series: TimeSeries, sp: SpinParams, op: OscParams) -> EnergyBudget:
    """Energy decomposition of a run and the conservation residual.

    The total H0 + <V> + <H_NV> is a constant of motion only for autonomous
    runs (F = 0, gamma = 0); for driven runs the drift figure simply records
    the injected energy.
    """
    total = series.h0 + series.h_nv + series.v_int
    ref = abs(total[0]) if total[0] != 0 else 1.0
    return EnergyBudget(
        h0=series.h0, h_nv=series.h_nv, v_int=series.v_int, total=total,
        depth_h0=float(series.h0.max() - series.h0.min()),
        depth_h_nv=float(series.h_nv.max() - series.h_nv.min()),
        depth_v=float(series.v_int.max() - series.v_int.min()),
        max_total_drift_rel=float(np.abs(total - total[0]).max() / ref),
    )
