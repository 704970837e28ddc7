import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinchannel import correlators, hybrid_dynamics, preset_config
from spinchannel.correlators import otoc_product
from spinchannel.hybrid_dynamics import (RENORM_THRESHOLD, HybridState,
                                         IntegrationDiagnostics, IntegrationError,
                                         OscParams, Regime, RegimeError, _coupling_operators,
                                         _fix_samples, _guard_step, _hybrid_rhs,
                                         _polar_projection, _real_form, classical_energy,
                                         energy_budget, integrate, separability_defect)
from spinchannel.runner import run_scenario
from spinchannel.spin_algebra import (SpinParams, basis_state, bell_phi_minus, embed,
                                      expm_hermitian, pauli)

from oracles import (_force, build_spin_hamiltonian, derivative, feedback_free_psi,
                     site_hamiltonian)

SP = SpinParams(omega0=1.5, g=1.0, alpha=math.pi / 3)
PSI01 = basis_state("01")
PSI00 = basis_state("00")


def initial(psi=None, x1=1.0):
    return HybridState(t=0.0, x1=x1, v1=0.0, x2=0.0, v2=0.0,
                       psi=PSI01 if psi is None else psi)


def weak_k(**kw):
    return OscParams.from_connectivity(1.0, 1.5, 0.1, **kw)


def normal_mode_solution(op, t, x0=(1.0, 0.0)):
    """Closed-form trajectory of the undriven linear pair released from rest:
    diagonalize the 2x2 stiffness matrix and superpose the two cosines."""
    M = np.array([[op.omega1**2 + op.D, -op.D], [-op.D, op.omega2**2 + op.D]])
    lam, V = np.linalg.eigh(M)
    a = V.T @ np.asarray(x0)
    return (V * a) @ np.cos(np.sqrt(lam)[:, None] * np.atleast_1d(t)[None, :])


class TestOscParams:
    def test_from_connectivity_fig_values(self):
        assert weak_k().D == pytest.approx(0.125)
        assert OscParams.from_connectivity(1.0, 1.5, 10.0).D == pytest.approx(12.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            OscParams(omega1=1.0, omega2=1.5, D=0.1, gamma=-1.0)
        with pytest.raises(ValueError, match="F"):
            OscParams(omega1=1.0, omega2=1.5, D=0.1, F=-0.5)


class TestRegime:
    def test_classification(self):
        assert Regime.classify(weak_k()) is Regime.AUTONOMOUS_LINEAR
        assert Regime.classify(weak_k(xi=1.0)) is Regime.AUTONOMOUS_NONLINEAR
        assert Regime.classify(weak_k(F=0.5, gamma=0.15)) is Regime.DRIVEN_LINEAR
        assert Regime.classify(weak_k(F=0.5, gamma=0.15, xi=1.0)) is Regime.DRIVEN_NONLINEAR

    def test_outside_the_four_cases(self):
        with pytest.raises(RegimeError):
            Regime.classify(weak_k(F=0.5))  # driven but undamped
        with pytest.raises(RegimeError):
            Regime.classify(weak_k(gamma=0.1))  # damped but undriven

    def test_integrate_classifies(self):
        with pytest.raises(RegimeError):
            integrate(initial(), weak_k(F=0.5), SP, 1.0, 0.1, 1e-9)


class TestSpinHamiltonian:
    def test_decoupled_diagonal(self):
        h = build_spin_hamiltonian(0.0, 0.0, SP)
        assert np.allclose(h, np.diag([1.5, 0.0, 0.0, -1.5]), atol=1e-15)

    def test_alpha_zero_diagonal(self):
        sp = SpinParams(omega0=2.0, g=0.7, alpha=0.0)
        a, b = 0.9, -0.4
        h = build_spin_hamiltonian(a, b, sp)
        g, w0 = sp.g, sp.omega0
        expected = np.diag([w0 + (a + b) * g / 2, (a - b) * g / 2,
                            (b - a) * g / 2, -w0 - (a + b) * g / 2])
        assert np.allclose(h, expected, atol=1e-14)

    def test_hermitian_for_any_input(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sp = SpinParams(omega0=rng.uniform(0, 3), g=rng.uniform(-2, 2),
                            alpha=rng.uniform(-np.pi, np.pi))
            h = build_spin_hamiltonian(rng.normal(), rng.normal(), sp)
            assert np.abs(h - h.conj().T).max() < 1e-14

    def test_site_splitting(self):
        h = build_spin_hamiltonian(0.3, -1.2, SP)
        rebuilt = np.kron(site_hamiltonian(0.3, SP), np.eye(2)) + \
            np.kron(np.eye(2), site_hamiltonian(-1.2, SP))
        assert np.array_equal(h, rebuilt)


class TestDerivative:
    def test_simple_harmonic_limit(self):
        op = OscParams(omega1=1.3, omega2=1.0, D=0.0)
        sp = SpinParams(omega0=0.0, g=0.0, alpha=0.0)
        d = derivative(initial(), op, sp)
        assert d.x1 == 0.0  # dx1/dt = v1
        assert d.v1 == pytest.approx(-1.3**2)

    def test_feedback_signs_for_basis_state(self):
        op = OscParams(omega1=1.0, omega2=1.5, D=0.0)
        sp = SpinParams(omega0=1.5, g=1.0, alpha=0.0)
        d = derivative(HybridState(t=0.0, x1=0.0, v1=0.0, x2=0.0, v2=0.0, psi=PSI01),
                       op, sp)
        assert d.v1 == pytest.approx(-0.5)  # -g <S1^z> = -(+1/2)
        assert d.v2 == pytest.approx(+0.5)  # -g <S2^z> = -(-1/2)

    def test_symmetric_displacement_sees_no_coupling(self):
        opD = OscParams(omega1=1.0, omega2=1.5, D=3.0)
        op0 = OscParams(omega1=1.0, omega2=1.5, D=0.0)
        s = HybridState(t=0.0, x1=0.7, v1=0.0, x2=0.7, v2=0.0, psi=PSI01)
        dD, d0 = derivative(s, opD, SP), derivative(s, op0, SP)
        assert dD.v1 == pytest.approx(d0.v1)
        assert dD.v2 == pytest.approx(d0.v2)

    def test_schroedinger_term(self):
        s = initial()
        U = expm_hermitian(build_spin_hamiltonian(0.3, -0.2, SP), 0.7)
        d = derivative(s, weak_k(), SP, U)
        H = build_spin_hamiltonian(s.x1, s.x2, SP)
        assert np.allclose(d.psi, -1j * (H @ s.psi), atol=0)
        assert np.allclose(d.U, -1j * (H @ U), atol=0)
        assert np.allclose(derivative(s, weak_k(), SP).U, -1j * H, atol=0)


def random_unitary(values):
    """Q factor of the complex 4x4 matrix whose real and imaginary parts are
    the 32 ``values``: a random unitary for Gaussian values."""
    z = np.asarray(values, dtype=float).reshape(2, 4, 4)
    q, _ = np.linalg.qr(z[0] + 1j * z[1])
    return q


unit = st.floats(-1.0, 1.0)


class TestHybridRhs:
    """The real-form right-hand side the integrator steps equals the complex
    ``derivative`` of the state it encodes."""

    @settings(max_examples=60, deadline=None)
    @given(xv=st.tuples(*[st.floats(-2.0, 2.0)] * 4), t=st.floats(0.0, 100.0),
           u=st.lists(unit, min_size=32, max_size=32),
           phi=st.lists(unit, min_size=8, max_size=8),
           g=st.floats(-2.0, 2.0), alpha=st.floats(-math.pi, math.pi))
    def test_matches_derivative(self, xv, t, u, phi, g, alpha):
        phi0 = np.asarray(phi[:4]) + 1j * np.asarray(phi[4:])
        assume(np.linalg.norm(phi0) > 0.1)
        phi0 = phi0 / np.linalg.norm(phi0)
        U = random_unitary(u)
        op = OscParams(omega1=1.0, omega2=1.5, D=0.4, xi=0.7, gamma=0.15, F=0.5, Omega=1.1)
        sp = SpinParams(omega0=1.5, g=g, alpha=alpha)
        y = np.concatenate((xv, U.reshape(-1).view(float)))
        dy = np.empty(36)
        _hybrid_rhs(op, sp, phi0)(t, y, dy)
        x1, v1, x2, v2 = xv
        d = derivative(HybridState(t=t, x1=x1, v1=v1, x2=x2, v2=v2, psi=U @ phi0), op, sp, U)
        assert np.abs(dy[:4] - [d.x1, d.v1, d.x2, d.v2]).max() <= 1e-13
        assert np.abs(dy[4:].view(complex).reshape(4, 4) - d.U).max() <= 1e-13


def reference_hybrid_rhs(op, sp, phi0):
    """The right-hand side with its intermediate B u allocated afresh by
    every call: the formulas ``_hybrid_rhs`` must reproduce bit for bit."""
    g = sp.g
    S1, S2, Z4 = _coupling_operators(sp)
    I4 = hybrid_dynamics._I4
    lift = _real_form(np.kron(I4, phi0[None, :]))
    B = np.vstack([_real_form(np.kron(-1j * M, I4)) for M in (Z4, S1, S2)]
                  + [lift.T @ _real_form(S) @ lift for S in (S1, S2)])
    force = _force(op, g)
    coeffs = np.ones(3)

    def rhs(t, y):
        u = y[4:]
        z = B.dot(u).reshape(5, 32)
        f1, f2 = z[3:].dot(u).tolist()
        x1, v1, x2, v2 = y[:4].tolist()
        out = np.empty(36)
        out[0] = v1
        out[2] = v2
        out[1], out[3] = force(t, x1, v1, x2, v2, f1, f2)
        coeffs[1] = g * x1
        coeffs[2] = g * x2
        np.dot(coeffs, z[:3], out=out[4:])
        return out

    return rhs


class TestHybridRhsBuffer:
    """The right-hand side reuses one intermediate per closure, with the bits
    of the allocating form, and writes only into the caller's ``out``."""

    OP = OscParams(omega1=1.0, omega2=1.5, D=0.4, xi=0.7, gamma=0.15, F=0.5, Omega=1.1)

    def test_matches_allocating_reference(self):
        rng = np.random.default_rng(11)
        phi0 = random_unitary(rng.normal(size=32))[:, 0]
        rhs, ref = _hybrid_rhs(self.OP, SP, phi0), reference_hybrid_rhs(self.OP, SP, phi0)
        for _ in range(200):
            U = near_unitary(rng, 10.0 ** rng.uniform(-14, -6))
            y = np.concatenate((rng.normal(size=4), U.reshape(-1).view(float)))
            t = rng.uniform(0.0, 100.0)
            out = np.full(36, np.nan)   # every entry must be written
            rhs(t, y, out)
            assert np.array_equal(out, ref(t, y))

    def test_results_are_not_aliased(self):
        rng = np.random.default_rng(12)
        rhs = _hybrid_rhs(self.OP, SP, PSI01)
        ys = [np.concatenate((rng.normal(size=4), random_unitary(rng.normal(size=32))
                              .reshape(-1).view(float))) for _ in range(3)]
        inputs = [y.copy() for y in ys]
        kept = np.empty(36)
        rhs(0.5, ys[0], kept)
        snapshot = kept.copy()
        later = [np.empty(36) for _ in ys[1:]]
        for y, out in zip(ys[1:], later):
            rhs(1.0, y, out)
        # a later call writes neither an earlier output nor any input
        assert np.array_equal(kept, snapshot)
        assert all(np.array_equal(y, y_in) for y, y_in in zip(ys, inputs))
        assert not np.array_equal(later[0], later[1])


def near_unitary(rng, defect):
    """A random unitary times I + e H, with H Hermitian of unit max entry, so
    that max|U^dagger U - I| is about 2 e = defect."""
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    return random_unitary(rng.normal(size=32)) @ (np.eye(4) + 0.5 * defect * h / np.abs(h).max())


def svd_polar(U):
    w, _, vh = np.linalg.svd(U)
    return w @ vh


def gram(U):
    return np.conj(U).swapaxes(-1, -2) @ U


class TestPolarProjection:
    """The Newton-Schulz projection returns the SVD polar factor of near-unitary
    input and refuses input it cannot project."""

    @pytest.mark.parametrize("defect", [1e-12, 1e-10, 5e-11, 1e-8, 1e-6])
    def test_single_matches_svd(self, defect):
        rng = np.random.default_rng(int(-math.log10(defect) * 10))
        for _ in range(20):
            U = near_unitary(rng, defect)
            P = _polar_projection(U, gram(U) - np.eye(4))
            assert np.abs(P - svd_polar(U)).max() <= 1e-14
            assert np.abs(gram(P) - np.eye(4)).max() <= RENORM_THRESHOLD

    @pytest.mark.parametrize("defect", [1e-11, 1e-9, 1e-6])
    def test_single_matrix_gives_the_bytes_of_a_stack_of_one(self, defect):
        # one matrix (the per-step guard) takes ndarray.dot, a stack (the
        # sample fix-up) takes @; the two paths must agree bit for bit
        rng = np.random.default_rng(int(-math.log10(defect)) + 100)
        for _ in range(20):
            U = near_unitary(rng, defect)
            E = gram(U) - np.eye(4)
            single = _polar_projection(U, E)
            stacked = _polar_projection(U[None], E[None])
            assert single.shape == (4, 4) and stacked.shape == (1, 4, 4)
            assert single.tobytes() == stacked[0].tobytes()

    def test_stack_matches_svd(self):
        rng = np.random.default_rng(5)
        defects = 10.0 ** rng.uniform(-12, -6, size=64)
        Us = np.stack([near_unitary(rng, d) for d in defects])
        P = _polar_projection(Us, gram(Us) - np.eye(4))
        assert P.shape == Us.shape
        assert np.abs(P - svd_polar(Us)).max() <= 1e-14
        assert np.abs(gram(P) - np.eye(4)).max() <= RENORM_THRESHOLD

    @pytest.mark.parametrize("bad", [2.0 * np.eye(4), np.zeros((4, 4)),
                                     np.full((4, 4), np.nan)])
    def test_grossly_non_unitary_raises(self, bad):
        bad = bad.astype(complex)
        with pytest.raises(FloatingPointError, match="unitar"):
            _polar_projection(bad, gram(bad) - np.eye(4))
        stack = np.stack([np.eye(4, dtype=complex), bad])
        with pytest.raises(FloatingPointError):
            _polar_projection(stack, gram(stack) - np.eye(4))

    def test_unconverged_iteration_raises(self):
        # a defect of 0.2 is inside the convergence region, but three
        # iterations leave about 0.75^7 0.2^8 > RENORM_THRESHOLD
        U = near_unitary(np.random.default_rng(2), 0.2)
        with pytest.raises(FloatingPointError, match="after 3 iterations"):
            _polar_projection(U, gram(U) - np.eye(4))

    def test_failure_in_a_step_is_an_integration_error_at_t(self, monkeypatch):
        def guard(y, phi0, diag, tol):
            bad = 2.0 * np.eye(4, dtype=complex)
            return _polar_projection(bad, gram(bad) - np.eye(4))

        monkeypatch.setattr(hybrid_dynamics, "_guard_step", guard)
        with pytest.raises(IntegrationError, match="integration failed at t = "
                           ".*FloatingPointError: .*unitary") as info:
            integrate(initial(), weak_k(), SP, 1.0, 0.5, 1e-9)
        # the guard of the first accepted step failed: the locus is past t0,
        # with the next step proposed
        assert info.value.t > 0.0
        assert info.value.h is not None and info.value.h > 0.0

    def test_failure_in_a_sample_is_an_integration_error(self):
        # the sample fix-up of a zero-length run, whose one sample is 2 I
        bad = 2.0 * np.eye(4, dtype=complex)[None]
        with pytest.raises(IntegrationError, match=r"projection of the samples at "
                           r"t = 0\.0\.\.0\.0 failed: .*unitary"):
            _fix_samples(bad, PSI01, np.array([0.0]), IntegrationDiagnostics())


class TestGuardStep:
    """The accepted-step guard takes the norm drift of psi = U psi0 from the
    Gram matrix G = U^dagger U it forms for the unitarity defect."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_defect=st.floats(-14.0, -9.0))
    @example(seed=0, log_defect=-14.0)
    @example(seed=0, log_defect=-9.0)
    def test_drift_from_gram_matches_norm(self, seed, log_defect):
        rng = np.random.default_rng(seed)
        U = near_unitary(rng, 10.0 ** log_defect)
        phi0 = random_unitary(rng.normal(size=32))[:, 0]
        y = np.concatenate((rng.normal(size=4), U.reshape(-1).view(float)))
        y_in = y.copy()
        diag = IntegrationDiagnostics()
        y_corr = _guard_step(y, phi0, diag, 1e-9)
        drift = abs(np.linalg.norm(U @ phi0) - 1.0)
        udef = np.abs(gram(U) - np.eye(4)).max()
        assert abs(diag.max_step_norm_drift - drift) <= 1e-15
        assert diag.cum_norm_drift == diag.max_step_norm_drift
        assert diag.max_step_unitarity_defect == pytest.approx(udef, rel=1e-12)
        assert np.array_equal(y, y_in)
        if diag.max_step_norm_drift <= RENORM_THRESHOLD and udef <= RENORM_THRESHOLD:
            assert y_corr is None
        else:
            assert np.array_equal(y_corr[:4], y[:4])
            P = y_corr[4:].view(complex).reshape(4, 4)
            assert np.abs(gram(P) - np.eye(4)).max() <= RENORM_THRESHOLD
        # a second, exactly unitary step adds to the sums and keeps the maxima
        first, second = dataclasses.replace(diag), IntegrationDiagnostics()
        exact = np.concatenate((y[:4], np.eye(4, dtype=complex).reshape(-1).view(float)))
        assert _guard_step(exact, phi0, second, 1e-9) is None
        assert _guard_step(exact, phi0, diag, 1e-9) is None
        assert second.max_step_unitarity_defect == 0.0
        assert diag.max_step_unitarity_defect == first.max_step_unitarity_defect
        assert diag.max_step_norm_drift == max(first.max_step_norm_drift,
                                               second.max_step_norm_drift)
        assert diag.cum_norm_drift == first.cum_norm_drift + second.cum_norm_drift

    @pytest.mark.parametrize("log_defect", [-11.0, -9.0, -6.0])
    def test_projection_equals_one_applied_by_hand(self, log_defect):
        # the guard hands its measured defect to the projection; the result
        # must be the bytes of a projection that measures it itself
        rng = np.random.default_rng(int(-log_defect))
        for _ in range(20):
            U = near_unitary(rng, 10.0 ** log_defect)
            phi0 = random_unitary(rng.normal(size=32))[:, 0]
            y = np.concatenate((rng.normal(size=4), U.reshape(-1).view(float)))
            diag = IntegrationDiagnostics()
            y_corr = _guard_step(y, phi0, diag, 1e-9)
            E = gram(U) - np.eye(4)
            assert diag.max_step_unitarity_defect == np.abs(E).max()
            assert np.array_equal(y_corr[:4], y[:4])
            assert np.array_equal(y_corr[4:], _polar_projection(U, E).reshape(-1).view(float))

    @pytest.mark.parametrize("s", [1.12, 2.0, math.nan])
    def test_defect_of_a_quarter_or_more_raises(self, s):
        # psi = U e0 keeps its norm, so the drift limit does not trip first;
        # U^dagger U - I has the entry s^2 - 1 >= 1/4 (or NaN)
        U = np.diag([1.0, s, 1.0, 1.0]).astype(complex)
        y = np.concatenate((np.zeros(4), U.reshape(-1).view(float)))
        with pytest.raises(FloatingPointError, match="too far from unitary"):
            _guard_step(y, PSI00, IntegrationDiagnostics(), 1e-9)


def unitary_from_angles(a, b, c):
    """exp(-i (a sx + b sy + c sz)) as a 2x2 matrix."""
    return expm_hermitian(a * pauli("x") + b * pauli("y") + c * pauli("z"), 1.0)


class TestSeparabilityDefect:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.0, 2.5])
    def test_zz_rotation(self, theta):
        # exp(-i theta Z(x)Z) = cos(theta) I(x)I - i sin(theta) Z(x)Z realigns to
        # singular values 2|cos theta| and 2|sin theta|
        zz = np.kron(pauli("z"), pauli("z"))
        expected = 2 * min(abs(math.cos(theta)), abs(math.sin(theta)))
        assert separability_defect(expm_hermitian(zz, theta)) == \
            pytest.approx(expected, abs=1e-14)

    def test_products_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u1, u2 = (unitary_from_angles(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(2))
            assert separability_defect(np.kron(u1, u2)) <= 1e-14

    def test_distance_not_unitarity(self):
        # non-unitary products are products too; a product plus E is at most |E| away
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        assert separability_defect(np.kron(a, b)) <= 1e-14
        E = 1e-3 * rng.normal(size=(4, 4))
        assert separability_defect(np.kron(a, b) + E) <= np.linalg.norm(E) + 1e-15


def patch_rhs(monkeypatch, fault):
    """Make integrate step an rhs that calls fault(t, out) after the real one
    has written out."""
    real = hybrid_dynamics._hybrid_rhs

    def factory(op, sp, psi0):
        rhs = real(op, sp, psi0)

        def faulty(t, y, out):
            rhs(t, y, out)
            fault(t, out)

        return faulty

    monkeypatch.setattr(hybrid_dynamics, "_hybrid_rhs", factory)


class TestIntegrate:
    def test_normal_mode_oracle(self):
        # no feedback, no drive: must match the closed-form two-mode solution
        sp0 = SpinParams(omega0=1.5, g=0.0, alpha=math.pi / 3)
        series = integrate(initial(), weak_k(), sp0, 100.0, 0.5, 1e-9)
        X = normal_mode_solution(weak_k(), series.t)
        assert np.abs(X[0] - series.x1).max() < 1e-6
        assert np.abs(X[1] - series.x2).max() < 1e-6

    def test_duffing_energy_conservation(self):
        # single undamped quartic oscillator (site 2 never moves)
        op = OscParams(omega1=1.0, omega2=1.5, D=0.0, xi=2.0)
        sp0 = SpinParams(omega0=0.0, g=0.0, alpha=0.0)
        tol = 1e-9
        series = integrate(initial(), op, sp0, 100.0, 0.1, tol)
        energy = (0.5 * series.v1**2 + 0.5 * op.omega1**2 * series.x1**2
                  + 0.25 * op.xi * series.x1**4)
        assert np.abs(energy - energy[0]).max() < tol * 100.0
        assert np.all(series.x2 == 0.0)

    def test_norm_and_unitarity_held_at_outputs(self):
        series = integrate(initial(), weak_k(), SP, 20.0, 0.1, 1e-9)
        for k in range(0, len(series), 50):
            assert abs(np.linalg.norm(series.psis[k]) - 1.0) < 1e-8
            U = series.Us[k]
            assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-8
        d = series.diagnostics
        assert d.max_step_norm_drift < 1e-8
        assert d.max_step_unitarity_defect < 1e-8
        assert d.cum_norm_drift < 1e-6

    def test_separability_defect_small(self):
        series = integrate(initial(), weak_k(xi=1.0), SP, 20.0, 0.1, 1e-9)
        assert series.sep_defect.max() < 1e-8

    def test_strictly_increasing_uniform_grid(self):
        series = integrate(initial(), weak_k(), SP, 10.0, 0.05, 1e-9)
        dt = np.diff(series.t)
        assert np.all(dt > 0)
        assert np.abs(dt - dt[0]).max() < 1e-12

    def test_halving_tol_changes_endpoint_within_bound(self):
        # short-horizon tolerance consistency on the weak-connectivity scenario
        for tol in (1e-6, 1e-9):
            a = integrate(initial(), weak_k(), SP, 1.0, 0.5, tol)
            b = integrate(initial(), weak_k(), SP, 1.0, 0.5, tol / 2)
            scale = np.abs(a.x1).max()
            assert abs(a.final_state.x1 - b.final_state.x1) < 10.0 * tol * scale

    def test_zero_length_run(self):
        series = integrate(initial(), weak_k(), SP, 0.0, 0.05, 1e-9)
        assert len(series) == 1
        assert series.t[0] == 0.0
        assert series.two_point[0] == pytest.approx(-1.0)

    def test_nonzero_start_time(self):
        # an autonomous run shifted in time must reproduce the t=0 run
        base = integrate(initial(), weak_k(), SP, 10.0, 0.5, 1e-10)
        shifted_ini = HybridState(t=5.0, x1=1.0, v1=0.0, x2=0.0, v2=0.0, psi=PSI01)
        shifted = integrate(shifted_ini, weak_k(), SP, 15.0, 0.5, 1e-10)
        assert shifted.t[0] == 5.0 and shifted.t[-1] == 15.0
        assert np.abs(shifted.x1 - base.x1).max() < 1e-8
        assert np.abs(shifted.psis - base.psis).max() < 1e-8

    def test_tol_domain(self):
        with pytest.raises(ValueError, match="tol"):
            integrate(initial(), weak_k(), SP, 1.0, 0.1, 1e-3)

    def test_loose_tolerance_trips_drift_failsafe(self):
        with pytest.raises(IntegrationError, match="norm drift") as info:
            integrate(initial(), weak_k(), SP, 100.0, 1.0, 1e-4)
        # raised by the step guard after an accepted step, inside the run
        assert 0.0 < info.value.t < 100.0
        assert 0.0 < info.value.h < 100.0
        assert 0.0 < info.value.err_norm <= 1.0  # the last trial was accepted

    def test_step_budget_bounds_the_trial_steps(self, monkeypatch):
        d = integrate(initial(), weak_k(), SP, 10.0, 0.5, 1e-9).diagnostics
        trials = d.n_steps + d.n_rejected
        monkeypatch.setattr(hybrid_dynamics, "STEPS_PER_UNIT_TIME", 10)
        # a budget of exactly the run's trial steps lets it complete
        monkeypatch.setattr(hybrid_dynamics, "MIN_STEP_BUDGET", trials - 100)
        assert integrate(initial(), weak_k(), SP, 10.0, 0.5, 1e-9).t[-1] == 10.0
        # one less stops it after its last step, with the loop's locus
        monkeypatch.setattr(hybrid_dynamics, "MIN_STEP_BUDGET", trials - 101)
        with pytest.raises(IntegrationError) as info:
            integrate(initial(), weak_k(), SP, 10.0, 0.5, 1e-9)
        assert str(info.value) == (
            f"step budget exceeded: {d.n_steps} accepted and {d.n_rejected} rejected steps, "
            f"more than {trials - 1} = {trials - 101} + 10 per unit time over the span 10.0")
        assert info.value.t == 10.0 and info.value.h > 0.0
        assert 0.0 < info.value.err_norm <= 1.0  # the last trial was accepted

    @pytest.mark.parametrize("state, message", [
        (dict(x1=1e300), "output column h0 is not finite at t = 0.0: nan"),
        (dict(v2=1e160), "output column h0 is not finite at t = 0.0: inf"),
    ], ids=["x1", "v2"])
    def test_zero_span_checks_its_columns(self, state, message):
        # nothing is stepped, so only the column pass sees h0 overflow; it used
        # to return h0 = nan (inf) with numpy warnings, errors in this suite
        start = dataclasses.replace(initial(), **state)
        with pytest.raises(IntegrationError) as info:
            integrate(start, weak_k(), SP, 0.0, 0.1, 1e-9)
        assert str(info.value) == message
        assert info.value.t == 0.0 and info.value.h is None and info.value.err_norm is None

    def test_first_row_with_a_non_finite_column_is_named(self):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        columns = {"x1": np.array([0.0, 0.0, 0.0, np.inf]),
                   "two_point": np.array([0j, 0j, complex(np.nan, 0.0), 0j]),
                   "h0": np.array([1.0, 1.0, -np.inf, 1.0])}
        with pytest.raises(IntegrationError) as info:
            hybrid_dynamics._check_columns(t, columns)
        assert str(info.value) == "output column two_point is not finite at t = 1.0: (nan+0j)"
        assert info.value.t == 1.0 and info.value.h is None and info.value.err_norm is None
        columns["two_point"][2] = columns["h0"][2] = 0.0
        columns["x1"][3] = 0.0
        hybrid_dynamics._check_columns(t, columns)

    def test_initial_psi_must_be_normalized(self):
        bad = initial(psi=2.0 * PSI01)
        with pytest.raises(ValueError, match="not normalized"):
            integrate(bad, weak_k(), SP, 1.0, 0.1, 1e-9)

    def test_nan_initial_psi_is_not_normalized(self):
        # rejected before the stepper is built, not as an IntegrationError
        psi = PSI01.copy()
        psi[0] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            integrate(initial(psi=psi), weak_k(), SP, 1.0, 0.1, 1e-9)

    @pytest.mark.parametrize("t_bad", [0.0, 1.0])
    def test_nan_derivative_raises(self, monkeypatch, t_bad):
        def nan_from_t_bad(t, out):
            if t >= t_bad:
                out[:] = math.nan

        patch_rhs(monkeypatch, nan_from_t_bad)
        with pytest.raises(IntegrationError, match="integration failed at t = ") as info:
            integrate(initial(), weak_k(), SP, 5.0, 0.05, 1e-9)
        # the locus is the step that met the NaN
        t, h, err_norm = info.value.t, info.value.h, info.value.err_norm
        if t_bad == 0.0:
            # the first step size is already NaN, so no trial step was made
            assert t == 0.0 and math.isnan(h) and err_norm is None
        else:
            assert t < t_bad <= t + h
            assert math.isnan(err_norm)

    def test_rhs_failing_at_start_raises_integration_error(self, monkeypatch):
        # the stepper evaluates the rhs while it is built, before the first step
        def fail_at_start(t, out):
            if t == 0.0:
                raise ValueError("no derivative before t = 0+")

        patch_rhs(monkeypatch, fail_at_start)
        with pytest.raises(IntegrationError,
                           match=r"failed at t = 0\.0: ValueError: no derivative") as info:
            integrate(initial(), weak_k(), SP, 5.0, 0.05, 1e-9)
        assert info.value.t == 0.0 and info.value.h is None and info.value.err_norm is None

    def test_bell_initial_state_runs(self):
        series = integrate(initial(psi=bell_phi_minus()), weak_k(), SP, 10.0, 0.1, 1e-9)
        assert series.otoc.max() < 1e-8

    def test_custom_probe_pair(self):
        # other probes on the sampled propagators: the call integrate makes
        # for sigma1_z, sigma2_z
        series = integrate(initial(), weak_k(), SP, 5.0, 0.1, 1e-9)
        rec = otoc_product(series.Us, series.psi0, embed(pauli("x"), 1), embed(pauli("x"), 2))
        assert rec.C.max() < 1e-8  # still a product propagator
        z = otoc_product(series.Us, series.psi0, embed(pauli("z"), 1), embed(pauli("z"), 2))
        assert np.array_equal(z.C, series.otoc) and np.array_equal(z.G2, series.two_point)

    def test_time_reversal_short(self):
        # autonomous and real Hamiltonian: v -> -v, psi -> conj(psi) rewinds
        f = integrate(initial(), weak_k(), SP, 20.0, 1.0, 1e-10).final_state
        back = HybridState(t=0.0, x1=f.x1, v1=-f.v1, x2=f.x2, v2=-f.v2,
                           psi=f.psi.conj())
        b = integrate(back, weak_k(), SP, 20.0, 1.0, 1e-10).final_state
        assert abs(b.x1 - 1.0) < 1e-7
        assert abs(b.v1) < 1e-7
        assert np.abs(b.psi.conj() - PSI01).max() < 1e-7


class TestAccuracy:
    """integrate against an independent solver: scipy's DOP853 at rtol = atol
    = 1e-13 on the complex equations of motion of tests/oracles.py
    (``derivative``), over t <= 10 on the output grids of fig2 to fig6: both
    connectivities, autonomous linear and nonlinear, and driven nonlinear.

    The max absolute error of each of x1, v1, x2, v2 and psi, over tol, is
    measured separately (README's "Numerical policy" lists them at tol 1e-9).
    The largest of them at tol 1e-9 (1e-10 agreed within 3.1%): fig2 1.2,
    fig3 47, fig4 8.6, fig5 1.1, fig6 20.  The bounds are twice that.  The
    error is proportional to tol: the largest at 1e-10 over that at 1e-9
    measured 0.97-1.03, and must lie in [0.8, 1.25]."""

    T_END = 10.0
    MEASURED = {"fig2": 1.2, "fig3": 47.0, "fig4": 8.6, "fig5": 1.1, "fig6": 20.0}

    @pytest.mark.parametrize("name", sorted(MEASURED))
    def test_global_error_is_bounded_and_proportional_to_tol(self, name):
        from scipy.integrate import solve_ivp

        cfg = preset_config(name)
        op, sp, psi0 = cfg.osc_params(), cfg.spin_params(), cfg.initial_spin_state()
        start = HybridState(t=0.0, x1=cfg.x1, v1=cfg.v1, x2=cfg.x2, v2=cfg.v2, psi=psi0)

        def f(t, y):
            d = derivative(HybridState(t=t, x1=y[0], v1=y[1], x2=y[2], v2=y[3],
                                       psi=y[4:8] + 1j * y[8:]), op, sp)
            return np.concatenate(([d.x1, d.v1, d.x2, d.v2], d.psi.real, d.psi.imag))

        y0 = np.concatenate(([cfg.x1, cfg.v1, cfg.x2, cfg.v2], psi0.real, psi0.imag))
        per_column = []   # error / tol of each column, at tol 1e-9 and 1e-10
        for tol in (1e-9, 1e-10):
            series = integrate(start, op, sp, self.T_END, cfg.resolved_dt_out(), tol)
            if not per_column:
                ref = solve_ivp(f, (0.0, self.T_END), y0, method="DOP853", t_eval=series.t,
                                rtol=1e-13, atol=1e-13)
                assert ref.success
                x, psi = ref.y[:4], (ref.y[4:8] + 1j * ref.y[8:]).T
            errors = {col: np.abs(getattr(series, col) - x[k]).max() / tol
                      for k, col in enumerate(("x1", "v1", "x2", "v2"))}
            errors["psi"] = np.abs(series.psis - psi).max() / tol
            per_column.append(errors)
        worst = [max(errors.values()) for errors in per_column]
        assert worst[0] <= 2.0 * self.MEASURED[name], per_column[0]
        assert 0.8 <= worst[1] / worst[0] <= 1.25, per_column


class TestStackedEmission:
    """The output columns, evaluated over stacks of samples, equal the public
    per-sample calls on the sampled U and psi."""

    @pytest.fixture(scope="class")
    def fig2(self):
        return run_scenario(dataclasses.replace(preset_config("fig2"), t_end=12.0,
                                                dt_out=0.01))

    def test_columns_match_per_sample_calls(self, fig2):
        s, cfg = fig2.series, fig2.config
        sp, op = cfg.spin_params(), cfg.osc_params()
        W, V = embed(pauli("z"), 1), embed(pauli("z"), 2)
        S1, S2 = embed(sp.site_operator(), 1), embed(sp.site_operator(), 2)
        Z4 = 0.5 * sp.omega0 * (embed(pauli("z"), 1) + embed(pauli("z"), 2))
        sigmas = [embed(pauli(ax), site) for site in (1, 2) for ax in "xyz"]
        spin_cols = np.stack([s.s1x, s.s1y, s.s1z, s.s2x, s.s2y, s.s2z], axis=1)
        assert len(s) == 1201
        for k in range(len(s)):
            U, psi = s.Us[k], s.psis[k]
            assert np.abs(psi - U @ s.psi0).max() <= 1e-14
            rec = otoc_product(U, s.psi0, W, V)
            assert abs(rec.C - s.otoc[k]) <= 1e-14
            assert abs(rec.G2 - s.two_point[k]) <= 1e-14
            assert abs(separability_defect(U) - s.sep_defect[k]) <= 1e-14
            expect = [np.vdot(psi, sop @ psi).real for sop in sigmas]
            assert np.abs(spin_cols[k] - expect).max() <= 1e-14
            f1, f2 = np.vdot(psi, S1 @ psi).real, np.vdot(psi, S2 @ psi).real
            assert abs(s.h_nv[k] - np.vdot(psi, Z4 @ psi).real) <= 1e-14
            assert abs(s.v_int[k] - sp.g * (s.x1[k] * f1 + s.x2[k] * f2)) <= 1e-14
            state = HybridState(t=s.t[k], x1=float(s.x1[k]), v1=float(s.v1[k]),
                                x2=float(s.x2[k]), v2=float(s.v2[k]), psi=psi)
            assert abs(s.h0[k] - classical_energy(state, op)) <= 1e-14

    def test_projected_samples_are_unitary(self, fig2):
        s = fig2.series
        # the interpolated samples needed projecting, and every one now holds
        assert s.diagnostics.max_output_unitarity_defect > RENORM_THRESHOLD
        assert np.abs(gram(s.Us) - np.eye(4)).max() <= RENORM_THRESHOLD

    def test_one_otoc_call_per_block(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return otoc_product(*args, **kwargs)

        monkeypatch.setattr(correlators, "otoc_product", counting)
        series = integrate(initial(), weak_k(), SP, 12.0, 0.01, 1e-9)
        rows = len(series)
        assert rows == 1201
        # the whole run is one block
        assert len(calls) == 1


angles = st.floats(-math.pi, math.pi)


class TestRandomizedInvariants:
    """README invariants of the classical channel over a box of valid
    autonomous inputs and random cross-site probe pairs."""

    @settings(max_examples=40, deadline=None)
    @given(K=st.floats(0.05, 10.0), xi=st.floats(0.0, 1.0), x1=st.floats(-1.5, 1.5),
           bell=st.booleans(), spinor=st.tuples(angles, angles, angles, angles),
           probes=st.tuples(*[angles] * 6))
    def test_invariants(self, K, xi, x1, bell, spinor, probes):
        if bell:
            psi0 = bell_phi_minus()
        else:
            t1, p1, t2, p2 = spinor
            psi0 = np.kron([math.cos(t1 / 2), np.exp(1j * p1) * math.sin(t1 / 2)],
                           [math.cos(t2 / 2), np.exp(1j * p2) * math.sin(t2 / 2)])
        W = embed(unitary_from_angles(*probes[:3]), 1)
        V = embed(unitary_from_angles(*probes[3:]), 2)
        op = OscParams.from_connectivity(1.0, 1.5, K, xi=xi)
        series = integrate(initial(psi=psi0, x1=x1), op, SP, 5.0, 0.1, 1e-9)
        d = series.diagnostics
        assert series.otoc.max() <= 1e-10
        assert otoc_product(series.Us, series.psi0, W, V).C.max() <= 1e-10
        assert series.sep_defect.max() <= 1e-10
        assert max(d.max_step_norm_drift, d.max_step_unitarity_defect,
                   d.max_output_norm_drift, d.max_output_unitarity_defect) <= 1e-8


class TestClassicalEnergy:
    def test_all_zero(self):
        s = HybridState(t=0, x1=0, v1=0, x2=0, v2=0, psi=PSI01)
        assert classical_energy(s, weak_k()) == 0.0

    def test_single_displacement(self):
        s = HybridState(t=0, x1=1.0, v1=0, x2=0, v2=0, psi=PSI01)
        op = OscParams(omega1=1.0, omega2=1.5, D=0.0)
        assert classical_energy(s, op) == pytest.approx(0.5)

    def test_coupling_term(self):
        s = HybridState(t=0, x1=1.0, v1=0, x2=-1.0, v2=0, psi=PSI01)
        op = OscParams(omega1=0.0, omega2=0.0, D=2.0)
        assert classical_energy(s, op) == pytest.approx(4.0)


class TestEnergyBudget:
    def test_decoupled_spin_energy_constant(self):
        sp0 = SpinParams(omega0=1.5, g=0.0, alpha=math.pi / 3)
        series = integrate(initial(), weak_k(), sp0, 50.0, 0.1, 1e-9)
        eb = energy_budget(series, sp0, weak_k())
        assert eb.depth_h_nv < 1e-9

    def test_autonomous_conservation(self):
        series = integrate(initial(), weak_k(), SP, 100.0, 0.1, 1e-9)
        eb = energy_budget(series, SP, weak_k())
        assert eb.max_total_drift_rel < 1e-6

    def test_strong_connectivity_budget_snapshot(self):
        # Regression values for the strong-connectivity energy exchange with
        # the package's default initial displacement x1(0) = 1.  The classical
        # modulation depth matches the quoted 1.5 closely; the spin depth is
        # initial-condition dependent (see notes in the README).
        op = OscParams.from_connectivity(1.0, 1.5, 10.0)
        series = integrate(initial(), op, SP, 100.0, 0.05, 1e-9)
        eb = energy_budget(series, SP, op)
        assert eb.depth_h0 == pytest.approx(1.5, rel=0.2)
        assert eb.depth_h_nv == pytest.approx(0.763, abs=0.05)
        assert eb.max_total_drift_rel < 1e-6

    def test_scaled_drift_definition(self):
        # |01> at x1 = 1e-8 starts with a total energy of about 1e-8, so the
        # drift relative to it says nothing about the integration
        series = integrate(initial(x1=1e-8), weak_k(), SP, 5.0, 0.1, 1e-9)
        eb = energy_budget(series, SP, weak_k())
        drift = np.abs(eb.total - eb.total[0]).max()
        scale = (np.abs(eb.h0) + np.abs(eb.h_nv) + np.abs(eb.v_int)).max()
        assert eb.max_total_drift_scaled == drift / scale
        assert eb.max_total_drift_rel == drift / abs(eb.total[0])
        assert abs(eb.total[0]) < 1e-7 < scale

    @settings(max_examples=30, deadline=None)
    @given(K=st.floats(0.05, 10.0), xi=st.floats(0.0, 1.0),
           x1=st.one_of(st.sampled_from([1e-8, -1e-8]), st.floats(-1.5, 1.5)),
           tol=st.sampled_from([1e-9, 1e-7]))
    @example(K=0.1, xi=0.0, x1=1e-8, tol=1e-9)
    @example(K=10.0, xi=1.0, x1=-1.5, tol=1e-7)
    def test_scaled_drift_follows_tolerance(self, K, xi, x1, tol):
        # autonomous runs conserve the total; its drift over the run's energy
        # scale stays within a fixed multiple of the tolerance
        op = OscParams.from_connectivity(1.0, 1.5, K, xi=xi)
        series = integrate(initial(x1=x1), op, SP, 5.0, 0.1, tol)
        eb = energy_budget(series, SP, op)
        assert eb.max_total_drift_scaled <= 1e3 * tol


class TestPropagateNoFeedback:
    """integrate propagating with no feedback (g = 0) or almost none (tiny
    g), against the feedback-free control of tests/oracles.py: with g = 0 the
    spins cannot see the trajectory, and at tiny g they barely move it, so
    psi(t) follows the spins on a prescribed trajectory."""

    SP0 = SpinParams(omega0=1.5, g=0.0, alpha=math.pi / 3)

    def test_dark_basis_state_is_stationary(self):
        # |01> has zero Zeeman eigenvalue; with g = 0 nothing evolves
        series = integrate(initial(), weak_k(), self.SP0, 10.0, 0.05, 1e-10)
        assert np.abs(series.psis - PSI01).max() < 1e-9

    def test_pure_phase_on_00(self):
        series = integrate(initial(psi=PSI00), weak_k(), self.SP0, 10.0, 1.0, 1e-10)
        c1 = series.psis[:, 0]
        assert np.abs(np.abs(c1) - 1.0).max() < 1e-9
        assert np.abs(c1 - np.exp(-1j * self.SP0.omega0 * series.t)).max() < 1e-7

    def test_agreement_with_self_consistent_run_when_feedback_off(self):
        # with g = 0 the trajectory cannot influence the spins: the coupled
        # integration must follow the exact propagator of the x = 0 Hamiltonian
        hybrid = integrate(initial(), weak_k(), self.SP0, 100.0, 0.5, 1e-10)
        exact = expm_hermitian(build_spin_hamiltonian(0.0, 0.0, self.SP0), hybrid.t) @ PSI01
        assert np.abs(hybrid.psis - exact).max() < 1e-7

    def test_tiny_coupling_agreement(self):
        # g small: the self-consistent trajectory deviates from the g = 0
        # closed form only at O(g), and psi picks it up at O(g^2 T)
        spg = SpinParams(omega0=1.5, g=1e-6, alpha=math.pi / 3)
        op = OscParams(omega1=1.0, omega2=1.5, D=0.125)

        def traj(t):
            x1, x2 = normal_mode_solution(op, t)[:, 0]
            return float(x1), float(x2)

        hybrid = integrate(initial(), op, spg, 50.0, 0.5, 1e-10)
        prescribed = feedback_free_psi(traj, spg, PSI01, hybrid.t)
        assert np.abs(hybrid.psis - prescribed).max() < 1e-7
