import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchannel.hybrid_dynamics import (HybridState, IntegrationError, OscParams,
                                         Regime, RegimeError, build_spin_hamiltonian,
                                         classical_energy, connectivity, derivative,
                                         energy_budget, integrate, separability_defect,
                                         site_hamiltonian)
from spinchannel.spin_algebra import (SpinParams, basis_state, bell_phi_minus, embed,
                                      expm_hermitian, pauli)

SP = SpinParams(omega0=1.5, g=1.0, alpha=math.pi / 3)
PSI01 = basis_state("01")


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


class TestConnectivity:
    def test_fig2_value(self):
        assert connectivity(OscParams(omega1=1.0, omega2=1.5, D=0.125)) == pytest.approx(0.1)

    def test_fig3_value(self):
        assert connectivity(OscParams(omega1=1.0, omega2=1.5, D=12.5)) == pytest.approx(10.0)

    def test_uncoupled(self):
        assert connectivity(OscParams(omega1=1.0, omega2=1.5, D=0.0)) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            connectivity(OscParams(omega1=1.0, omega2=1.0, D=0.1))


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

    def test_validate_mismatch(self):
        with pytest.raises(RegimeError, match="classify as"):
            Regime.DRIVEN_LINEAR.validate(weak_k())


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
        d = derivative(s, weak_k(), SP)
        H = build_spin_hamiltonian(s.x1, s.x2, SP)
        assert np.allclose(d.psi, -1j * (H @ s.psi), atol=0)
        assert np.allclose(d.U, -1j * (H @ s.U), atol=0)

    def test_regime_checked_when_supplied(self):
        with pytest.raises(RegimeError):
            derivative(initial(), weak_k(), SP, regime=Regime.DRIVEN_NONLINEAR)


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


class TestIntegrate:
    def test_normal_mode_oracle(self):
        # no feedback, no drive: must match the closed-form two-mode solution
        sp0 = SpinParams(omega0=1.5, g=0.0, alpha=math.pi / 3)
        series = integrate(initial(), weak_k(), sp0, None, 100.0, 0.5, 1e-9)
        X = normal_mode_solution(weak_k(), series.t)
        assert np.abs(X[0] - series.x1).max() < 1e-6
        assert np.abs(X[1] - series.x2).max() < 1e-6

    def test_duffing_energy_conservation(self):
        # single undamped quartic oscillator (site 2 never moves)
        op = OscParams(omega1=1.0, omega2=1.5, D=0.0, xi=2.0)
        sp0 = SpinParams(omega0=0.0, g=0.0, alpha=0.0)
        tol = 1e-9
        series = integrate(initial(), op, sp0, None, 100.0, 0.1, tol)
        energy = (0.5 * series.v1**2 + 0.5 * op.omega1**2 * series.x1**2
                  + 0.25 * op.xi * series.x1**4)
        assert np.abs(energy - energy[0]).max() < tol * 100.0
        assert np.all(series.x2 == 0.0)

    def test_norm_and_unitarity_held_at_outputs(self):
        series = integrate(initial(), weak_k(), SP, None, 20.0, 0.1, 1e-9)
        for k in range(0, len(series), 50):
            assert abs(np.linalg.norm(series.psis[k]) - 1.0) < 1e-8
            U = series.Us[k]
            assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-8
        d = series.diagnostics
        assert d.max_step_norm_drift < 1e-8
        assert d.max_step_unitarity_defect < 1e-8
        assert d.cum_norm_drift < 1e-6

    def test_separability_defect_small(self):
        series = integrate(initial(), weak_k(xi=1.0), SP, None, 20.0, 0.1, 1e-9)
        assert series.sep_defect.max() < 1e-8

    def test_strictly_increasing_uniform_grid(self):
        series = integrate(initial(), weak_k(), SP, None, 10.0, 0.05, 1e-9)
        dt = np.diff(series.t)
        assert np.all(dt > 0)
        assert np.abs(dt - dt[0]).max() < 1e-12

    def test_halving_tol_changes_endpoint_within_bound(self):
        # short-horizon tolerance consistency on the weak-connectivity scenario
        for tol in (1e-6, 1e-9):
            a = integrate(initial(), weak_k(), SP, None, 1.0, 0.5, tol)
            b = integrate(initial(), weak_k(), SP, None, 1.0, 0.5, tol / 2)
            scale = np.abs(a.x1).max()
            assert abs(a.final_state.x1 - b.final_state.x1) < 10.0 * tol * scale

    def test_zero_length_run(self):
        series = integrate(initial(), weak_k(), SP, None, 0.0, 0.05, 1e-9)
        assert len(series) == 1
        assert series.t[0] == 0.0
        assert series.two_point[0] == pytest.approx(-1.0)

    def test_nonzero_start_time(self):
        # an autonomous run shifted in time must reproduce the t=0 run
        base = integrate(initial(), weak_k(), SP, None, 10.0, 0.5, 1e-10)
        shifted_ini = HybridState(t=5.0, x1=1.0, v1=0.0, x2=0.0, v2=0.0, psi=PSI01)
        shifted = integrate(shifted_ini, weak_k(), SP, None, 15.0, 0.5, 1e-10)
        assert shifted.t[0] == 5.0 and shifted.t[-1] == 15.0
        assert np.abs(shifted.x1 - base.x1).max() < 1e-8
        assert np.abs(shifted.psis - base.psis).max() < 1e-8

    def test_tol_domain(self):
        with pytest.raises(ValueError, match="tol"):
            integrate(initial(), weak_k(), SP, None, 1.0, 0.1, 1e-3)

    def test_loose_tolerance_trips_drift_failsafe(self):
        with pytest.raises(IntegrationError, match="norm drift"):
            integrate(initial(), weak_k(), SP, None, 100.0, 1.0, 1e-4)

    def test_initial_psi_must_be_normalized(self):
        bad = initial(psi=2.0 * PSI01)
        with pytest.raises(ValueError, match="not normalized"):
            integrate(bad, weak_k(), SP, None, 1.0, 0.1, 1e-9)

    def test_bell_initial_state_runs(self):
        series = integrate(initial(psi=bell_phi_minus()), weak_k(), SP, None,
                           10.0, 0.1, 1e-9)
        assert series.otoc.max() < 1e-8

    def test_custom_probe_pair(self):
        ops = (embed(pauli("x"), 1), embed(pauli("x"), 2))
        series = integrate(initial(), weak_k(), SP, None, 5.0, 0.1, 1e-9,
                           otoc_ops=ops)
        assert series.otoc.max() < 1e-8  # still a product propagator

    def test_time_reversal_short(self):
        # autonomous and real Hamiltonian: v -> -v, psi -> conj(psi) rewinds
        f = integrate(initial(), weak_k(), SP, None, 20.0, 1.0, 1e-10).final_state
        back = HybridState(t=0.0, x1=f.x1, v1=-f.v1, x2=f.x2, v2=-f.v2,
                           psi=f.psi.conj())
        b = integrate(back, weak_k(), SP, None, 20.0, 1.0, 1e-10).final_state
        assert abs(b.x1 - 1.0) < 1e-7
        assert abs(b.v1) < 1e-7
        assert np.abs(b.psi.conj() - PSI01).max() < 1e-7


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
        series = integrate(initial(psi=psi0, x1=x1), op, SP, None, 5.0, 0.1, 1e-9,
                           otoc_ops=(W, V))
        d = series.diagnostics
        assert series.otoc.max() <= 1e-10
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
        series = integrate(initial(), weak_k(), sp0, None, 50.0, 0.1, 1e-9)
        eb = energy_budget(series, sp0, weak_k())
        assert eb.depth_h_nv < 1e-9

    def test_autonomous_conservation(self):
        series = integrate(initial(), weak_k(), SP, None, 100.0, 0.1, 1e-9)
        eb = energy_budget(series, SP, weak_k())
        assert eb.max_total_drift_rel < 1e-6

    def test_strong_connectivity_budget_snapshot(self):
        # Regression values for the strong-connectivity energy exchange with
        # the package's default initial displacement x1(0) = 1.  The classical
        # modulation depth matches the quoted 1.5 closely; the spin depth is
        # initial-condition dependent (see notes in the README).
        op = OscParams.from_connectivity(1.0, 1.5, 10.0)
        series = integrate(initial(), op, SP, None, 100.0, 0.05, 1e-9)
        eb = energy_budget(series, SP, op)
        assert eb.depth_h0 == pytest.approx(1.5, rel=0.2)
        assert eb.depth_h_nv == pytest.approx(0.763, abs=0.05)
        assert eb.max_total_drift_rel < 1e-6
