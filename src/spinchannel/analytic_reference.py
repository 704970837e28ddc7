"""Closed-form steady-state response and feedback-free spin propagation.

``forced_response`` evaluates the printed steady-state formula for the driven
coupled-oscillator pair verbatim, including its unconventional mixing of
squared and unsquared frequency quantities (nu carries units of frequency
squared yet is compared against the drive frequency, and gamma enters
unsquared under the square roots).  It is exposed as a reference formula
evaluator only; the numeric oracle for the linear regime is the exact
normal-mode solution (see tests).

``propagate_nofeedback`` integrates the two-spin wavefunction under a
prescribed oscillator trajectory, yielding the four basis coefficients
C1..C4 whose closed forms are too unwieldy to state explicitly.

``spin_expectations_from_coefficients`` evaluates the printed expectation
formulas verbatim next to the direct operator expectations.  The two
disagree by a site swap for some components (the printed formulas follow the
opposite site-labelling convention); both are returned so the discrepancy is
visible rather than silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hybrid_dynamics import (CUM_DRIFT_LIMIT, IntegrationError, RENORM_THRESHOLD,
                              _integrate_sampled, build_spin_hamiltonian)
from .spin_algebra import SpinParams, embed, expectation, pauli

__all__ = [
    "AnalyticParams",
    "forced_response",
    "propagate_nofeedback",
    "CoefficientSeries",
    "SpinExpectations",
    "spin_expectations_from_coefficients",
]


@dataclass(frozen=True)
class AnalyticParams:
    """Oscillator parameters plus the induced-oscillation amplitudes A1, A2
    that feed the nonlinear frequency corrections."""

    omega1: float
    omega2: float
    D: float
    xi: float = 0.0
    gamma: float = 0.0
    F: float = 0.0
    Omega: float = 1.0
    A1: float = 0.0
    A2: float = 0.0

    @property
    def K(self) -> float:
        if self.D == 0.0:
            return 0.0
        denom = abs(self.omega1**2 - self.omega2**2)
        if denom == 0.0:
            raise ValueError("connectivity is undefined for degenerate frequencies")
        return self.D / denom

    @property
    def nu1(self) -> float:
        s = self.omega1**2 + self.omega2**2 + 2 * self.D
        return s - 0.5 * (self.omega2**2 - self.omega1**2) * math.sqrt(1 + self.K**2)

    @property
    def nu2(self) -> float:
        s = self.omega1**2 + self.omega2**2 + 2 * self.D
        return s + 0.5 * (self.omega2**2 - self.omega1**2) * math.sqrt(1 + self.K**2)

    @property
    def delta1(self) -> float:
        return (3 * self.xi / 8) * math.sqrt(2 / (self.omega1**2 + self.omega2**2)) \
            * (self.A1**2 + self.A2**2)

    @property
    def delta2(self) -> float:
        return (3 * self.xi / 8) * math.sqrt(2 / (self.omega1**2 + self.omega2**2 + 4 * self.D)) \
            * (self.A1**2 + self.A2**2)

    @classmethod
    def from_osc_params(cls, op, A1: float | None = None, A2: float | None = None) -> "AnalyticParams":
        """Adopt oscillator parameters; default A1, A2 to the steady-state
        linear-response amplitude of each driven normal mode (common drive F
        on both oscillators, damping included)."""
        if A1 is None or A2 is None:
            a1, a2 = _normal_mode_amplitudes(op)
            A1 = a1 if A1 is None else A1
            A2 = a2 if A2 is None else A2
        return cls(omega1=op.omega1, omega2=op.omega2, D=op.D, xi=op.xi,
                   gamma=op.gamma, F=op.F, Omega=op.Omega, A1=A1, A2=A2)


def _normal_mode_amplitudes(op) -> tuple[float, float]:
    stiffness = np.array([[op.omega1**2 + op.D, -op.D],
                          [-op.D, op.omega2**2 + op.D]])
    lam, vecs = np.linalg.eigh(stiffness)
    force = np.array([op.F, op.F])
    amps = []
    for i in range(2):
        q = float(vecs[:, i] @ force)
        amps.append(abs(q) / math.sqrt((lam[i] - op.Omega**2) ** 2 + (2 * op.gamma * op.Omega) ** 2))
    return amps[0], amps[1]


def forced_response(p: AnalyticParams, t: float) -> tuple[float, float]:
    """Steady-state displacements (x1, x2) of the driven pair at time t.

    x_{1,2}(t) = F (omega_{2,1}^2 - Omega^2 + 2D) cos(Omega t) /
                 [4 nu1 nu2 sqrt((nu1+delta1-Omega)^2+gamma)
                            sqrt((nu2+delta2-Omega)^2+gamma)]
    """
    if p.F == 0.0:
        return 0.0, 0.0
    den = (4 * p.nu1 * p.nu2
           * math.sqrt((p.nu1 + p.delta1 - p.Omega) ** 2 + p.gamma)
           * math.sqrt((p.nu2 + p.delta2 - p.Omega) ** 2 + p.gamma))
    if abs(den) < 1e-300:
        raise ValueError("vanishing denominator in the forced-response formula")
    c = math.cos(p.Omega * t) / den
    x1 = p.F * (p.omega2**2 - p.Omega**2 + 2 * p.D) * c
    x2 = p.F * (p.omega1**2 - p.Omega**2 + 2 * p.D) * c
    return x1, x2


@dataclass
class CoefficientSeries:
    """Basis coefficients C1..C4 of the propagated wavefunction on a uniform
    time grid (``coefficients[k]`` is the length-4 vector at ``t[k]``)."""

    t: np.ndarray
    coefficients: np.ndarray
    max_norm_drift: float

    def __len__(self) -> int:
        return self.t.size


def propagate_nofeedback(traj: Callable[[float], tuple[float, float]], sp: SpinParams,
                         psi0: np.ndarray, t_end: float, tol: float,
                         dt_out: float = 0.05, t0: float = 0.0) -> CoefficientSeries:
    """Propagate the two-spin wavefunction under a prescribed trajectory.

    ``traj(t)`` supplies the oscillator displacements (x1, x2); the spin
    state evolves under the corresponding time-dependent Hamiltonian with no
    back-action on the trajectory.  The norm is renormalized above the usual
    per-step threshold (drift recorded) and the run aborts if accumulated
    drift exceeds the module-wide limit.
    """
    if t_end <= t0:
        raise ValueError(f"t_end ({t_end}) must exceed t0 ({t0})")
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("psi0 is not normalized")

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x1, x2 = traj(t)
        return (-1j * (build_spin_hamiltonian(x1, x2, sp) @ y.view(complex))).view(float)

    n_out = max(1, round((t_end - t0) / dt_out))
    t_grid = t0 + (t_end - t0) * np.arange(n_out + 1) / n_out
    coeffs = np.empty((n_out + 1, 4), dtype=complex)
    coeffs[0] = psi0
    cum_drift = 0.0
    max_drift = 0.0

    def sample(k: int, y: np.ndarray) -> None:
        psi = y.view(complex)
        nrm = np.linalg.norm(psi)
        coeffs[k] = psi / nrm if abs(nrm - 1.0) > RENORM_THRESHOLD else psi

    def correct(y: np.ndarray) -> np.ndarray | None:
        nonlocal cum_drift, max_drift
        psi = y.view(complex)
        drift = abs(np.linalg.norm(psi) - 1.0)
        max_drift = max(max_drift, drift)
        cum_drift += drift
        if cum_drift > CUM_DRIFT_LIMIT:
            raise IntegrationError(
                f"accumulated norm drift {cum_drift:.3e} exceeds {CUM_DRIFT_LIMIT:.1e}")
        return (psi / np.linalg.norm(psi)).view(float) if drift > RENORM_THRESHOLD else None

    _integrate_sampled(rhs, psi0.view(float), t_grid, t_end, tol, sample, correct)
    return CoefficientSeries(t=t_grid, coefficients=coeffs, max_norm_drift=max_drift)


@dataclass(frozen=True)
class SpinExpectations:
    """Spin expectations computed two ways from (C1..C4).

    ``printed`` evaluates the stated coefficient formulas verbatim; ``direct``
    evaluates <psi|sigma|psi> with the operators of this package's basis
    convention.  Components are ordered (s1x, s1y, s1z, s2x, s2y, s2z).
    """

    printed: tuple[float, float, float, float, float, float]
    direct: tuple[float, float, float, float, float, float]

    @property
    def max_discrepancy(self) -> float:
        return max(abs(a - b) for a, b in zip(self.printed, self.direct))


_SIGMA_EMB = [embed(pauli(ax), site) for site in (1, 2) for ax in ("x", "y", "z")]


def spin_expectations_from_coefficients(coefficients: np.ndarray) -> SpinExpectations:
    """Evaluate the six spin expectations from basis coefficients C1..C4.

    The coefficient formulas are evaluated exactly as stated:

        <s1x> =  2 Re(C1* C2 + C3* C4)      <s2x> =  2 Re(C1 C3* + C2 C4*)
        <s1y> = -2 Im(C1* C2 + C3* C4)      <s2y> = -2 Im(C1 C3* + C2 C4*)
        <s1z> = |C1|^2+|C3|^2-|C2|^2-|C4|^2 <s2z> = |C1|^2+|C2|^2-|C3|^2-|C4|^2

    Under this package's ordering (site 1 = left factor) those formulas
    describe the opposite sites for several components; the direct operator
    expectations are therefore returned alongside.
    """
    c = np.asarray(coefficients, dtype=complex).reshape(4)
    norm_sq = float(np.vdot(c, c).real)
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"coefficients are not normalized (sum |C|^2 = {norm_sq!r})")
    c1, c2, c3, c4 = c
    a = np.conj(c1) * c2 + np.conj(c3) * c4
    b = c1 * np.conj(c3) + c2 * np.conj(c4)
    printed = (
        2 * a.real,
        -2 * a.imag,
        abs(c1)**2 + abs(c3)**2 - abs(c2)**2 - abs(c4)**2,
        2 * b.real,
        -2 * b.imag,
        abs(c1)**2 + abs(c2)**2 - abs(c3)**2 - abs(c4)**2,
    )
    direct = tuple(expectation(c, op).real for op in _SIGMA_EMB)
    return SpinExpectations(printed=printed, direct=direct)
