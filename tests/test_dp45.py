import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinchannel.dp45 import DormandPrince45, StepSizeUnderflowError


def drive(stepper):
    while stepper.step():
        pass
    return stepper


class TestBasics:
    def test_exponential_decay(self):
        s = DormandPrince45(lambda t, y: -y, 0.0, np.array([1.0]), 5.0,
                            rtol=1e-10, atol=1e-10)
        drive(s)
        assert s.y[0] == pytest.approx(np.exp(-5.0), abs=1e-9)
        assert s.t == 5.0

    def test_harmonic_oscillator_long_run(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 50.0, rtol=1e-11, atol=1e-11)
        drive(s)
        assert s.y[0] == pytest.approx(np.cos(50.0), abs=1e-8)
        assert s.y[1] == pytest.approx(-np.sin(50.0), abs=1e-8)

    def test_backward_integration(self):
        s = DormandPrince45(lambda t, y: -y, 0.0, np.array([1.0]), -3.0,
                            rtol=1e-10, atol=1e-10)
        drive(s)
        assert s.y[0] == pytest.approx(np.exp(3.0), rel=1e-9)

    def test_lands_exactly_on_t_end(self):
        s = DormandPrince45(lambda t, y: np.array([np.cos(t)]), 0.0,
                            np.array([0.0]), 7.3, rtol=1e-9, atol=1e-9)
        drive(s)
        assert s.t == 7.3


class TestDenseOutput:
    def test_interpolant_accuracy(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 10.0, rtol=1e-9, atol=1e-9)
        worst = 0.0
        while s.step():
            for theta in (0.25, 0.5, 0.75):
                tm = s.t_old + theta * (s.t - s.t_old)
                worst = max(worst, abs(s.interpolate(tm)[0] - np.cos(tm)))
        assert worst < 1e-8

    def test_interpolant_endpoint_consistency(self):
        s = DormandPrince45(lambda t, y: -y, 0.0, np.array([1.0]), 2.0,
                            rtol=1e-8, atol=1e-8)
        s.step()
        assert np.allclose(s.interpolate(s.t), s.y, atol=1e-15)
        assert np.allclose(s.interpolate(s.t_old), s.y_old, atol=1e-15)


class TestAgainstScipy:
    def test_nonlinear_system(self):
        # damped driven Duffing oscillator, integrated by two implementations
        def f(t, y):
            return np.array([y[1], -0.1 * y[1] - y[0] - y[0] ** 3 + 0.4 * np.cos(0.9 * t)])
        y0 = np.array([0.5, 0.0])
        ours = drive(DormandPrince45(f, 0.0, y0, 30.0, rtol=1e-11, atol=1e-11)).y
        ref = solve_ivp(f, [0, 30.0], y0, method="RK45", rtol=1e-11, atol=1e-12).y[:, -1]
        assert np.abs(ours - ref).max() < 1e-7


class TestControl:
    def test_tightening_tol_reduces_error(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            s = drive(DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 20.0,
                                      rtol=tol, atol=tol))
            errs.append(abs(s.y[0] - np.cos(20.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_max_step_respected(self):
        s = DormandPrince45(lambda t, y: -0.01 * y, 0.0, np.array([1.0]), 10.0,
                            rtol=1e-6, atol=1e-6, max_step=0.5)
        while s.step():
            assert s.t - s.t_old <= 0.5 + 1e-12

    def test_step_size_underflow_reports_time(self):
        # finite-time blow-up: y' = y^2 diverges at t = 1
        s = DormandPrince45(lambda t, y: y**2, 0.0, np.array([1.0]), 2.0,
                            rtol=1e-9, atol=1e-9)
        with pytest.raises(StepSizeUnderflowError) as err:
            drive(s)
        assert 0.99 < err.value.t <= 1.01

    @pytest.mark.parametrize("y0", [math.nan, math.inf])
    def test_non_finite_state_raises(self, y0):
        # NaN never passes the acceptance test, so an unguarded step() retries forever
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            drive(DormandPrince45(lambda t, y: -y, 0.0, np.array([y0]), 1.0,
                                  rtol=1e-9, atol=1e-9))

    def test_rejections_are_counted(self):
        # drive frequency kick forces at least some rejected trials
        def f(t, y):
            return np.array([np.cos(40.0 * t) * 40.0])
        s = drive(DormandPrince45(f, 0.0, np.array([0.0]), 5.0, rtol=1e-9, atol=1e-9))
        assert s.n_steps > 50
        assert s.y[0] == pytest.approx(np.sin(200.0), abs=1e-7)


class TestReplaceState:
    def test_renormalization_hook(self):
        # complex rotation packed as two reals; keep the norm pinned to 1
        def f(t, y):
            return np.array([-y[1], y[0]])
        s = DormandPrince45(f, 0.0, np.array([1.0, 0.0]), 20.0, rtol=1e-8, atol=1e-8)
        while s.step():
            n = np.hypot(*s.y)
            if abs(n - 1.0) > 1e-14:
                s.replace_state(s.y / n)
        assert np.hypot(*s.y) == pytest.approx(1.0, abs=1e-12)
        assert s.y[0] == pytest.approx(np.cos(20.0), abs=1e-6)
