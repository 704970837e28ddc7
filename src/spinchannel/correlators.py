"""Out-of-time-ordered and time-ordered correlators of two-qubit operators.

All routines take an accumulated propagator U (the full evolution operator
from the initial time), the initial state, and a pair of unitary probe
operators W, V.  Heisenberg picture: W(t) = U^dag W U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import _dagger

__all__ = ["CorrelatorRecord", "otoc_product", "otoc_commutator", "two_point"]

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class CorrelatorRecord:
    """Out-of-time-order product F, OTOC C = 1 - Re F and two-point
    correlator G2, at one time or (as arrays) over a stack of propagators."""

    t: float | np.ndarray
    F: complex | np.ndarray
    C: float | np.ndarray
    G2: complex | np.ndarray


def _check_unitary(m: np.ndarray, name: str, tol: float = UNITARITY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    defect = np.abs(_dagger(m) @ m - np.eye(m.shape[-1])).max()
    if defect > tol:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e} > {tol:.1e})")
    return m


def _check_state(psi: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > tol:
        raise ValueError(f"state is not normalized (|norm-1| = {drift:.3e})")
    return psi


def otoc_product(U: np.ndarray, psi0: np.ndarray, W: np.ndarray, V: np.ndarray,
                 t: float | np.ndarray = 0.0) -> CorrelatorRecord:
    """OTOC from the out-of-time-order product form.

    F = <psi0| U^dag W^dag U V^dag U^dag W U V |psi0>,  C = 1 - Re F.
    For unitary W, V this equals the commutator form (see otoc_commutator).
    Also evaluates the two-point correlator G2 = <psi0| U^dag W U V |psi0>.
    A (..., 4, 4) stack U, each member checked, gives F, C, G2 of its shape.
    """
    U = _check_unitary(U, "U")
    psi0 = _check_state(psi0)
    W = _check_unitary(W, "W")
    V = _check_unitary(V, "V")
    Wt = _dagger(U) @ W @ U
    # kets are (..., 4, 1) columns so that every operator applies over the stack
    wt_v_psi = Wt @ (V @ psi0)[:, None]
    F = (psi0.conj() @ (_dagger(Wt) @ (_dagger(V) @ wt_v_psi)))[..., 0][()]
    G2 = (psi0.conj() @ wt_v_psi)[..., 0][()]
    return CorrelatorRecord(t=t, F=F, C=1.0 - F.real, G2=G2)


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
