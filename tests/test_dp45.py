import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinchannel import hybrid_dynamics, preset_config, runner
from spinchannel.dp45 import (_A, _B, _C, _E, _MAX_FACTOR, _MIN_FACTOR, _P, _PI_ALPHA,
                              _PI_BETA, _SAFETY, DormandPrince45, StepSizeUnderflowError)
from spinchannel.hybrid_dynamics import (IntegrationDiagnostics, _guard_step, _hybrid_rhs,
                                         _nofeedback_rhs, _spin_maps)


def drive(stepper):
    while stepper.step():
        pass
    return stepper


class TestBasics:
    def test_exponential_decay(self):
        s = DormandPrince45(lambda t, y, out: np.negative(y, out=out), 0.0, np.array([1.0]),
                            5.0, tol=1e-10)
        drive(s)
        assert s.y[0] == pytest.approx(np.exp(-5.0), abs=1e-9)
        assert s.t == 5.0

    def test_harmonic_oscillator_long_run(self):
        f = lambda t, y, out: np.copyto(out, (y[1], -y[0]))
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 50.0, tol=1e-11)
        drive(s)
        assert s.y[0] == pytest.approx(np.cos(50.0), abs=1e-8)
        assert s.y[1] == pytest.approx(-np.sin(50.0), abs=1e-8)

    @pytest.mark.parametrize("t_end", [0.0, -3.0, math.nan])
    def test_forward_only(self, t_end):
        with pytest.raises(ValueError, match="must exceed t0"):
            DormandPrince45(lambda t, y, out: np.negative(y, out=out), 0.0, np.array([1.0]),
                            t_end, tol=1e-10)

    def test_lands_exactly_on_t_end(self):
        s = DormandPrince45(lambda t, y, out: np.copyto(out, np.cos(t)), 0.0,
                            np.array([0.0]), 7.3, tol=1e-9)
        drive(s)
        assert s.t == 7.3


class TestDenseOutput:
    def test_interpolant_accuracy(self):
        f = lambda t, y, out: np.copyto(out, (y[1], -y[0]))
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 10.0, tol=1e-9)
        worst = 0.0
        while s.step():
            for theta in (0.25, 0.5, 0.75):
                tm = s.t_old + theta * (s.t - s.t_old)
                worst = max(worst, abs(s.interpolate(tm)[0] - np.cos(tm)))
        assert worst < 1e-8

    def test_interpolant_endpoint_consistency(self):
        s = DormandPrince45(lambda t, y, out: np.negative(y, out=out), 0.0, np.array([1.0]),
                            2.0, tol=1e-8)
        s.step()
        assert np.allclose(s.interpolate(s.t), s.y, atol=1e-15)
        assert np.allclose(s.interpolate(s.t_old), s.y_old, atol=1e-15)


class TestAgainstScipy:
    def test_nonlinear_system(self):
        # damped driven Duffing oscillator, integrated by two implementations
        def f(t, y):
            return np.array([y[1], -0.1 * y[1] - y[0] - y[0] ** 3 + 0.4 * np.cos(0.9 * t)])
        y0 = np.array([0.5, 0.0])
        ours = drive(DormandPrince45(lambda t, y, out: np.copyto(out, f(t, y)), 0.0, y0, 30.0,
                                     tol=1e-11)).y
        ref = solve_ivp(f, [0, 30.0], y0, method="RK45", rtol=1e-11, atol=1e-12).y[:, -1]
        assert np.abs(ours - ref).max() < 1e-7


class TestControl:
    def test_tightening_tol_reduces_error(self):
        f = lambda t, y, out: np.copyto(out, (y[1], -y[0]))
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            s = drive(DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 20.0, tol=tol))
            errs.append(abs(s.y[0] - np.cos(20.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_step_size_underflow_reports_time(self):
        # finite-time blow-up: y' = y^2 diverges at t = 1
        s = DormandPrince45(lambda t, y, out: np.square(y, out=out), 0.0, np.array([1.0]),
                            2.0, tol=1e-9)
        with pytest.raises(StepSizeUnderflowError) as err:
            drive(s)
        assert 0.99 < err.value.t <= 1.01
        # the step that fell below the floor, and the norm of the trial before it
        assert 0.0 < err.value.h < 1e-14 * max(1.0, err.value.t)
        assert math.isfinite(err.value.err_norm) and err.value.err_norm == s.err_norm

    @pytest.mark.parametrize("t0, span", [(0.0, 1e-20), (1e6, 2e-9)])
    def test_span_below_the_step_floor(self, t0, span):
        # the floor, 1e-14 max(1, |t|), is 1e-8 at t = 1e6; the first step,
        # clipped to the span, fell below it and was called an underflow
        t_end = t0 + span
        assert t_end - t0 < 1e-14 * max(1.0, t0)
        s = drive(DormandPrince45(lambda t, y, out: np.negative(y, out=out), t0,
                                  np.array([1.0]), t_end, tol=1e-9))
        assert (s.t, s.n_steps, s.n_rejected) == (t_end, 1, 0)
        assert s.y[0] == pytest.approx(math.exp(-(t_end - t0)), rel=1e-15)

    def test_error_norm_of_the_last_trial(self):
        s = DormandPrince45(lambda t, y, out: np.negative(y, out=out), 0.0, np.array([1.0]),
                            1.0, tol=1e-9)
        assert s.err_norm is None
        assert s.step()
        assert 0.0 <= s.err_norm <= 1.0

    @pytest.mark.parametrize("y0", [math.nan, math.inf])
    def test_non_finite_state_raises(self, y0):
        # NaN never passes the acceptance test, so an unguarded step() retries forever
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            drive(DormandPrince45(lambda t, y, out: np.negative(y, out=out), 0.0,
                                  np.array([y0]), 1.0, tol=1e-9))

    @pytest.mark.parametrize("scale, rhs", [
        ("first-derivative scale d1", lambda t, y, out: np.copyto(out, 1e300)),
        ("second-derivative scale d2", lambda t, y, out: np.copyto(out, 1e300 * t + 1.0)),
    ])
    def test_overflowing_initial_step_estimate_raises(self, scale, rhs):
        # a scaled norm that overflows used to leave h0 = 0 and a division by
        # it; the suite turns any numpy overflow warning into a failure
        with pytest.raises(FloatingPointError, match=f"non-finite {scale} = inf .* t = 0.0"):
            DormandPrince45(rhs, 0.0, np.array([0.0]), 1.0, tol=1e-9)

    def test_rejections_are_counted(self):
        # drive frequency kick forces at least some rejected trials
        def f(t, y, out):
            out[0] = np.cos(40.0 * t) * 40.0
        s = drive(DormandPrince45(f, 0.0, np.array([0.0]), 5.0, tol=1e-9))
        assert s.n_steps > 50
        assert s.y[0] == pytest.approx(np.sin(200.0), abs=1e-7)


class TestReplaceState:
    def test_renormalization_hook(self):
        # complex rotation packed as two reals; keep the norm pinned to 1
        def f(t, y, out):
            out[:] = -y[1], y[0]
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 20.0, tol=1e-8)
        while s.step():
            n = np.hypot(*s.y)
            if abs(n - 1.0) > 1e-14:
                s.replace_state(s.y / n)
        assert np.hypot(*s.y) == pytest.approx(1.0, abs=1e-12)
        assert s.y[0] == pytest.approx(np.cos(20.0), abs=1e-6)


class ReferenceDP45(DormandPrince45):
    """The stepper with its stage sums written over transposed views
    (K[:i].T @ A_i) and the error norm as an np.mean of the squared scaled
    error: the formulas of the straightforward implementation.  It records
    the error norm of every trial step in trial_norms."""

    def __init__(self, *args, **kwargs):
        self.trial_norms = []
        super().__init__(*args, **kwargs)

    def step(self):
        t, y = self.t, self.y
        if t >= self.t_end:
            return False
        K = self._K
        while True:
            h = self._h
            if t + h > self.t_end:
                h = self.t_end - t
            K[0] = self.f
            for i in range(1, 6):
                self.fun(t + _C[i] * h, y + h * (K[:i].T @ _A[i]), K[i])
            y_new = y + h * (K[:6].T @ _B)
            self.fun(t + h, y_new, K[6])
            err = h * (K.T @ _E)
            scale = self.tol + self.tol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = math.sqrt(np.mean((err / scale) ** 2))
            self.trial_norms.append(err_norm)
            if err_norm <= 1.0:
                break
            self.n_rejected += 1
            self._h = h * max(_MIN_FACTOR, min(0.9, _SAFETY * err_norm ** -0.2))
        self.t_old, self.y_old = t, y
        self.t = t + h
        self.y = y_new
        self.f = K[6].copy()
        self._h_last = h
        self.n_steps += 1
        factor = (_MAX_FACTOR if err_norm == 0.0
                  else _SAFETY * err_norm ** -_PI_ALPHA * self._err_prev ** _PI_BETA)
        self._err_prev = max(err_norm, 1e-4)
        self._h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        return True


def six_oscillators(t, y, out):
    np.concatenate((y[6:], -np.linspace(5.0, 20.0, 6) ** 2 * y[:6]), out=out)


SIX_Y0 = np.concatenate((np.linspace(1.0, 0.5, 6), np.zeros(6)))


class TestAgainstReference:
    """Six undamped oscillators up to omega = 20, started with h = 0.5, which
    is far too large: the first trials are rejected."""

    @staticmethod
    def pair(tol):
        ours = DormandPrince45(six_oscillators, 0.0, SIX_Y0, 3.0, tol=tol)
        ref = ReferenceDP45(six_oscillators, 0.0, SIX_Y0, 3.0, tol=tol)
        ours._h = ref._h = 0.5
        return ours, ref

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10])
    def test_same_decisions_from_the_same_state(self, tol):
        ours, ref = self.pair(tol)
        rejected = 0
        while True:   # each step starts from the reference's state
            ours.t, ours.y, ours.f = ref.t, ref.y, ref.f
            ours._h, ours._err_prev = ref._h, ref._err_prev
            ours.n_rejected = rejected
            assert ours.step() and ref.step()
            assert ours.n_rejected == ref.n_rejected
            assert abs(ours._h_last / ref._h_last - 1.0) <= 1e-12
            assert abs(ours._h / ref._h - 1.0) <= 1e-12
            if ref.t >= ref.t_end:
                break
            rejected = ref.n_rejected
        assert ref.n_rejected >= 2

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_same_decisions_over_a_run(self, tol):
        # free-running, the rounding differences of the two sets of formulas
        # feed back through the controller; they may break a tie (an error
        # norm within 1e-9 of 1) either way, after which the runs part
        steppers = self.pair(tol)
        decisions = []   # accept (True) or reject (False), trial by trial
        for s in steppers:
            trials, rejected = [], 0
            while s.step():
                trials += [False] * (s.n_rejected - rejected) + [True]
                rejected = s.n_rejected
            decisions.append(trials)
        norms = steppers[1].trial_norms
        assert len(norms) == len(decisions[1])
        n = next((k for k, e in enumerate(norms) if abs(e - 1.0) < 1e-9), len(norms))
        assert decisions[0][:n] == decisions[1][:n]


def allocated(fun, t, y):
    """fun(t, y, out) evaluated into an output allocated for this one call."""
    out = np.empty_like(y)
    fun(t, y, out)
    return out


class AllocatingDP45(DormandPrince45):
    """The stepper of the straightforward implementation: every stage
    derivative goes into a fresh output that is then copied into the stage
    array, the stage sums allocate (``y + h * A_i.dot(K[:i])``,
    ``tol + tol * max(...)``), the FSAL derivative is copied out of the
    stage array, ``replace_state`` copies its state, and ``interpolate``
    forms K^T P at every sample.  The stage rows written by the rhs, the
    stage-input buffer, the kept stage row and the cached K^T P of
    ``DormandPrince45`` must reproduce it bit for bit."""

    def step(self):
        t, y = self.t, self.y
        if t >= self.t_end:
            return False
        K = self._K
        fun, t_end, tol = self.fun, self.t_end, self.tol
        abs_y = np.abs(y)
        K[0] = self.f
        while True:
            h = self._h
            if not math.isfinite(h):
                raise FloatingPointError(f"non-finite step size {h!r} at t = {t!r}")
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(t, h, self.err_norm)
            if t + h > t_end:
                h = t_end - t
            for i in range(1, 6):
                K[i] = allocated(fun, t + _C[i] * h, y + h * _A[i].dot(K[:i]))
            y_new = y + h * _B.dot(K[:6])
            K[6] = allocated(fun, t + h, y_new)
            r = _E.dot(K) / (tol + tol * np.maximum(abs_y, np.abs(y_new)))
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

    def interpolate(self, t):
        if self._h_last == 0.0:
            return self.y.copy()
        theta = (t - self.t_old) / self._h_last
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y_old + self._h_last * self._K.T.dot(_P).dot(p)

    def replace_state(self, y):
        self.y = np.asarray(y, dtype=float).copy()
        self.f = allocated(self.fun, self.t, self.y)


def assert_same_state(ours, ref):
    assert ours.y.tobytes() == ref.y.tobytes()
    assert ours.f.tobytes() == ref.f.tobytes()
    assert ours.t == ref.t and ours.h == ref.h and ours.err_norm == ref.err_norm
    assert ours.n_rejected == ref.n_rejected


def assert_same_steps(ours, ref, max_steps=None, after_step=None):
    """Step both in lockstep and require equal bits after every step, and
    again after ``after_step(stepper)``, if given, has run on each."""
    n = 0
    while max_steps is None or n < max_steps:
        more = ours.step()
        assert ref.step() == more
        if not more:
            break
        n += 1
        assert_same_state(ours, ref)
        if after_step is not None:
            after_step(ours)
            after_step(ref)
            assert_same_state(ours, ref)
    return n


class TestInPlaceStageSums:
    """The in-place stage sums of ``step`` give the bits of the allocating
    formulas: the same states, derivatives, step sizes and rejections."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10])
    def test_six_oscillators(self, tol):
        ours = DormandPrince45(six_oscillators, 0.0, SIX_Y0, 3.0, tol=tol)
        ref = AllocatingDP45(six_oscillators, 0.0, SIX_Y0, 3.0, tol=tol)
        ours._h = ref._h = 0.5   # far too large: the first trials are rejected
        assert assert_same_steps(ours, ref) > 10
        assert ref.n_rejected >= 2 and ref.t == 3.0

    def test_fig2_hybrid_rhs(self):
        # the whole fig2 run to t_end 20 under the accepted-step guard of
        # _propagate: the FSAL derivative kept as the stage row must give the
        # bits of a copied one across the steps that project and refresh it
        cfg = preset_config("fig2")
        op, sp, psi0 = cfg.osc_params(), cfg.spin_params(), cfg.initial_spin_state()
        y0 = np.concatenate(([cfg.x1, cfg.v1, cfg.x2, cfg.v2],
                             np.eye(4, dtype=complex).reshape(-1).view(float)))
        ours, ref = (cls(_hybrid_rhs(op, sp, psi0), 0.0, y0, 20.0, tol=cfg.tol)
                     for cls in (DormandPrince45, AllocatingDP45))
        diags = {ours: IntegrationDiagnostics(), ref: IntegrationDiagnostics()}
        projected = {ours: 0, ref: 0}

        def guard(stepper):
            y = _guard_step(stepper.y, psi0, diags[stepper], cfg.tol)
            if y is not None:
                stepper.replace_state(y)
                projected[stepper] += 1

        steps = assert_same_steps(ours, ref, after_step=guard)
        assert ours.t == ref.t == 20.0
        assert diags[ours] == diags[ref]
        assert projected[ours] == projected[ref]
        assert 0 < projected[ours] < steps

    def test_nofeedback_rhs(self):
        # propagate_nofeedback's rhs, written into the stage rows, against the
        # allocating expression it replaced, under the same guard
        cfg = preset_config("fig2")
        sp, psi0, tol = cfg.spin_params(), cfg.initial_spin_state(), cfg.tol
        maps, g = _spin_maps(sp), sp.g

        def traj(t):
            return math.cos(1.3 * t), 0.5 * math.sin(0.7 * t)

        def allocating(t, u, out):
            x1, x2 = traj(t)
            out[:] = np.array([1.0, g * x1, g * x2]).dot(maps.dot(u).reshape(3, 32))

        u0 = np.eye(4, dtype=complex).reshape(-1).view(float)
        ours = DormandPrince45(_nofeedback_rhs(traj, sp), 0.0, u0, 20.0, tol=tol)
        ref = AllocatingDP45(allocating, 0.0, u0, 20.0, tol=tol)
        diags = {ours: IntegrationDiagnostics(), ref: IntegrationDiagnostics()}
        projected = {ours: 0, ref: 0}

        def guard(stepper):
            y = _guard_step(stepper.y, psi0, diags[stepper], tol)
            if y is not None:
                stepper.replace_state(y)
                projected[stepper] += 1

        steps = assert_same_steps(ours, ref, after_step=guard)
        assert ours.t == ref.t == 20.0
        assert diags[ours] == diags[ref]
        assert projected[ours] == projected[ref]
        assert 0 < projected[ours] < steps


def fig2_stepper():
    cfg = preset_config("fig2")
    op, sp, psi0 = cfg.osc_params(), cfg.spin_params(), cfg.initial_spin_state()
    y0 = np.concatenate(([cfg.x1, cfg.v1, cfg.x2, cfg.v2],
                         np.eye(4, dtype=complex).reshape(-1).view(float)))
    return DormandPrince45(_hybrid_rhs(op, sp, psi0), 0.0, y0, 20.0, tol=cfg.tol)


class TestBufferOwnership:
    """The stepper owns every buffer it hands the rhs: ``out`` never shares
    memory with ``y``, a refreshed FSAL derivative leaves the stage rows
    alone, and the rhs has one calling convention."""

    def test_out_never_shares_memory_with_y(self, monkeypatch):
        calls, shared = [0], []
        make_rhs = hybrid_dynamics._hybrid_rhs

        def spied(*args):
            rhs = make_rhs(*args)

            def spy(t, y, out):
                calls[0] += 1
                if np.shares_memory(y, out):
                    shared.append(t)
                rhs(t, y, out)

            return spy

        monkeypatch.setattr(hybrid_dynamics, "_hybrid_rhs", spied)
        result = runner.run_scenario(preset_config("fig2"))
        steps = result.diagnostics["n_steps"]
        assert calls[0] > 6 * steps > 0
        assert shared == []

    def test_interpolate_survives_replace_state(self):
        # two steppers in lockstep: one samples the step before its state is
        # replaced, the other only after
        before, after = fig2_stepper(), fig2_stepper()
        for _ in range(40):
            assert before.step() and after.step()
            t_mid = 0.5 * (before.t_old + before.t)
            sampled = before.interpolate(t_mid).tobytes()
            for s in (before, after):
                s.replace_state(s.y * (1.0 + 2.0 ** -30))
            assert after.interpolate(t_mid).tobytes() == sampled
            assert before.interpolate(t_mid).tobytes() == sampled

    def test_two_argument_rhs_fails_at_construction(self):
        with pytest.raises(TypeError):
            DormandPrince45(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, tol=1e-9)


class TestDenseOutputProduct:
    def test_fig2_samples_at_dt_out_0_01(self, monkeypatch):
        # several samples per step: K^T P formed once per step gives the bytes
        # of the product formed at every sample
        cfg = dataclasses.replace(preset_config("fig2"), dt_out=0.01)
        ours = runner.run_scenario(cfg)
        monkeypatch.setattr(hybrid_dynamics, "DormandPrince45", AllocatingDP45)
        ref = runner.run_scenario(cfg)
        assert len(ours.series) > 3 * ours.diagnostics["n_steps"]
        assert ours.diagnostics == ref.diagnostics
        for name, value in vars(ours.series).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(ref.series, name).tobytes(), name
