"""Dense one- and two-qubit operator algebra.

Operators are plain complex ndarrays (2x2 for a single site, 4x4 for the
pair); states are length-4 complex vectors over the computational basis
{|00>, |01>, |10>, |11>} with site 1 as the left tensor factor and the
convention sigma_z |0> = +|0>.  hbar = 1 throughout.

Hot-path rule: a (..., n, k) stack times one fixed operator is one GEMM over
the stacked rows (``_rdot``, the bytes of ``@``, which calls BLAS once per
member); a stack times a stack stays on ``@``.

Layout rule for conjugate transposes: ``_dagger`` is a strided view.  A stack
times a stack takes the view: its per-member GEMMs cost and round the same
for either layout, so a C-order copy would only add its own cost.  A stack
that ``_rdot`` flattens is conjugated straight into C order, which costs
less than the strided copy its reshape would make of the view.  A stack
times a column or a vector, and a single matrix, take the view: there BLAS
runs a GEMV, whose bytes depend on the layout of its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "pauli",
    "sz_nv",
    "embed",
    "expm_hermitian",
    "SpinParams",
    "basis_state",
    "bell_phi_minus",
    "BASIS_LABELS",
]

BASIS_LABELS = ("00", "01", "10", "11")
HERMITICITY_TOL = 1e-10   # anti-Hermitian part expm_hermitian accepts

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
}

_I2 = np.eye(2, dtype=complex)


def pauli(axis: str) -> np.ndarray:
    """Single-qubit Pauli matrix.

    ``axis`` is one of ``x``, ``y``, ``z``, ``plus``, ``minus`` with
    sigma^+- = (sigma_x +- i sigma_y)/2, i.e. sigma^+|1> = |0>.
    """
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of {sorted(_PAULI)}") from None


def sz_nv(alpha: float) -> np.ndarray:
    """Spin operator of a driven NV center in its dressed eigenbasis.

    Returns (cos(alpha) sigma_z + sin(alpha) sigma_x) / 2, where alpha is the
    mixing angle set by the Rabi frequency and detuning (tan(alpha) =
    -omega_R/delta).  Hermitian with eigenvalues +-1/2 for every alpha.
    """
    return 0.5 * (math.cos(alpha) * _PAULI["z"] + math.sin(alpha) * _PAULI["x"])


def embed(op: np.ndarray, site: int) -> np.ndarray:
    """Embed a 2x2 operator on one site of the two-qubit space.

    Site 1 is the left tensor factor (op x I), site 2 the right (I x op).
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if site == 1:
        return np.kron(op, _I2)
    if site == 2:
        return np.kron(_I2, op)
    raise ValueError(f"site must be 1 or 2, got {site!r}")


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes of a matrix or a stack, as
    a strided view (see the layout rule in the module docstring)."""
    return np.conj(m).swapaxes(-1, -2)


def _rdot(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a (..., n, k) stack a and one (k, m) or (k,) operand m, as
    one product of the stacked rows by m, with the bytes of a @ m.  A strided
    stack is copied to C order by the reshape, so pass U^dagger conjugated
    into C order (``np.conj(U.swapaxes(-1, -2), order="C")``), which costs
    less; times a vector, the product of the copy differs from @ on the view,
    which takes a transposed kernel that rounds otherwise."""
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]) @ m
    return rows.reshape(a.shape[:-1] + m.shape[1:])


def expm_hermitian(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-i h t) for Hermitian h via spectral decomposition.

    Exact (to rounding) at any t, unlike truncated series; times of shape (T,)
    share one eigendecomposition and give a (T, n, n) stack.  Rejects input
    whose anti-Hermitian part exceeds HERMITICITY_TOL or is NaN.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.abs(h - _dagger(h)).max()
    if not defect <= HERMITICITY_TOL:  # a NaN defect fails too
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * np.asarray(t, dtype=float)[..., None])
    return _rdot(vectors * phases[..., None, :], _dagger(vectors))


@dataclass(frozen=True)
class SpinParams:
    """Parameters of the two identical NV spins.

    omega0 -- level splitting (hbar = 1), sqrt(omega_R^2 + delta^2) for a
              Rabi frequency omega_R and detuning delta.
    g      -- spin-oscillator coupling strength.
    alpha  -- mixing angle of the dressed basis, tan(alpha) = -omega_R/delta.
    """

    omega0: float
    g: float
    alpha: float

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")

    def site_operator(self) -> np.ndarray:
        """The 2x2 dressed spin operator entering the coupling, sz_nv(alpha)."""
        return sz_nv(self.alpha)


def basis_state(label: str) -> np.ndarray:
    """Computational basis state |ab> as a length-4 vector."""
    try:
        idx = BASIS_LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}") from None
    state = np.zeros(4, dtype=complex)
    state[idx] = 1.0
    return state


def bell_phi_minus() -> np.ndarray:
    """The singlet-like Bell state (|01> - |10>)/sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
