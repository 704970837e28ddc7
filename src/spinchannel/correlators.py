"""Out-of-time-ordered and time-ordered correlators of two-qubit operators.

``otoc_product`` takes an accumulated propagator U (the full evolution
operator from the initial time), the initial state, and a pair of unitary
probe operators W, V.  Heisenberg picture: W(t) = U^dag W U, formed only by
``_heisenberg``.  ``otoc_product`` forms it unless it is given as the
keyword-only ``Wt``; the quantum runner forms sigma1_z(t) once per photon
number and passes it, through ``otoc_numeric``, here and to the thermal
OTOC's trace route.  The commutator form of the OTOC and a scalar
two-point correlator, which no run path needs, are test oracles in
tests/oracles.py.

Over a stack U, U^dag W and W(t) V psi0 are one GEMM each (``_rdot``); stack
times stack, and V^dag and <psi0| acting from the left, stay on ``@`` (as
row products they round otherwise for a general V and psi0).  U^dag is
conjugated into C order for ``_rdot``; W(t)^dag and V^dag, which multiply
columns, stay strided views, as a GEMV rounds differently for another layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import _dagger, _rdot

__all__ = ["CorrelatorRecord", "otoc_product"]

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class CorrelatorRecord:
    """Out-of-time-order product F, OTOC C = 1 - Re F and two-point
    correlator G2, of one propagator or (as arrays) of a stack."""

    F: complex | np.ndarray
    C: float | np.ndarray
    G2: complex | np.ndarray


def _check_unitary(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    defect = np.abs(_dagger(m) @ m - np.eye(m.shape[-1])).max(initial=0.0)
    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
        raise ValueError(f"{name} is not unitary (defect {defect:.3e} > {UNITARITY_TOL:.1e})")
    return m


def _check_state(psi: np.ndarray) -> np.ndarray:
    """psi as a complex array, once its norm is 1 to within UNITARITY_TOL."""
    psi = np.asarray(psi, dtype=complex)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if not drift <= UNITARITY_TOL:
        raise ValueError(f"state is not normalized (|norm-1| = {drift:.3e})")
    return psi


def _heisenberg(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W(t) = U^dagger W U of one propagator or of each member of a stack, with
    U^dagger conjugated into C order for ``_rdot`` to flatten without a copy."""
    return _rdot(np.conj(U.swapaxes(-1, -2), order="C"), W) @ U


def otoc_product(U: np.ndarray, psi0: np.ndarray, W: np.ndarray, V: np.ndarray, *,
                 Wt: np.ndarray | None = None) -> CorrelatorRecord:
    """OTOC from the out-of-time-order product form.

    F = <psi0| U^dag W^dag U V^dag U^dag W U V |psi0>,  C = 1 - Re F.
    For unitary W, V this equals the commutator form
    (1/2) <psi0| [W(t),V]^dag [W(t),V] |psi0>.
    Also evaluates the two-point correlator G2 = <psi0| U^dag W U V |psi0>.
    A (..., 4, 4) stack U, each member checked, gives F, C, G2 of its shape.
    W(t) = U^dag W U is formed here unless given as the keyword-only ``Wt``,
    of U's shape; U, W and V are checked either way.
    """
    U = _check_unitary(U, "U")
    psi0 = _check_state(psi0)
    W = _check_unitary(W, "W")
    V = _check_unitary(V, "V")
    Wt = _heisenberg(U, W) if Wt is None else np.asarray(Wt, dtype=complex)
    if Wt.shape != U.shape:
        raise ValueError(f"Heisenberg operator of shape {Wt.shape} does not match U of "
                         f"shape {U.shape}")
    # kets are (..., 4, 1) columns so that every operator applies over the stack
    wt_v_psi = _rdot(Wt, (V @ psi0)[:, None])
    F = (psi0.conj() @ (_dagger(Wt) @ (_dagger(V) @ wt_v_psi)))[..., 0][()]
    G2 = (psi0.conj() @ wt_v_psi)[..., 0][()]
    return CorrelatorRecord(F=F, C=1.0 - F.real, G2=G2)
