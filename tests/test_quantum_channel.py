import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchannel import correlators, quantum_channel
from spinchannel.config import preset_config
from spinchannel.hybrid_dynamics import IntegrationError
from spinchannel.quantum_channel import (DENSITY_PSD_TOL, GIBBS_EXPONENT_LIMIT,
                                         QuantumChannelParams, concurrence,
                                         eigensystem, gme, h_total,
                                         otoc_bell_spectral, otoc_numeric,
                                         thermal_concurrence, thermal_density,
                                         thermal_otoc, validate_density)
from spinchannel.spin_algebra import (_dagger, basis_state, bell_phi_minus, embed,
                                      expm_hermitian, pauli)

import oracles
from oracles import ClassicalLimitRow, classical_limit_report, tavis_cummings_bell_otoc

FIG8 = dict(omega0=3.0, omega=2.0, g=1.0)


def params(n=0.0, beta=0.0, **kw):
    base = dict(FIG8)
    base.update(kw)
    return QuantumChannelParams(n=n, beta=beta, **base)


def zeeman_free(beta):
    """Omega0 = -omega0R = -1 at n = 0: the ground state is a Bell state."""
    return QuantumChannelParams(omega0=1.0, omega=3.0, g=2**0.5, n=0.0, beta=beta)


def random_params(rng, with_beta=False):
    omega0 = rng.uniform(1.0, 5.0)
    return QuantumChannelParams(
        omega0=omega0, omega=omega0 - rng.uniform(0.3, 2.0),
        g=rng.uniform(0.3, 2.0), n=rng.uniform(0.0, 50.0),
        beta=rng.uniform(0.0, 2.0) if with_beta else 0.0)


class TestParams:
    def test_derived_constants(self):
        p = params(n=10.0)
        assert p.Omega0 == pytest.approx(1.0)
        assert p.Omega_n == pytest.approx(1.0 / 21.0)
        assert p.omega0R == pytest.approx(3.0 / 21.0)

    def test_degenerate_frequencies_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            QuantumChannelParams(omega0=2.0, omega=2.0, g=1.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="photon"):
            params(n=-1.0)

    @pytest.mark.parametrize("kw, name", [(dict(omega=2.9999999999, g=1e150), "Omega0"),
                                          (dict(omega0=1e308), "2 (Omega0 + omega0R)")])
    def test_non_finite_derived_constant_rejected(self, kw, name):
        # at beta = 0 the Gibbs limit cannot see it: 0 * inf is nan
        with pytest.raises(OverflowError) as err:
            params(**kw)
        assert str(err.value) == f"{name} = inf"

    def test_classical_limit_of_constants(self):
        p = params(n=1e9)
        assert abs(p.Omega_n) < 1e-8
        assert abs(p.omega0R) < 1e-8

    @pytest.mark.parametrize("kw", [dict(n=10.0), dict(n=0.0),
                                    # zeeman = 0 to rounding: Omega_n sets the widest energy
                                    dict(omega0=1.0, omega=3.0, g=2**0.5)])
    def test_gibbs_weights_stay_finite_up_to_the_limit(self, kw):
        widest = max(2 * abs(params(**kw).zeeman), abs(params(**kw).Omega_n))
        beta_max = GIBBS_EXPONENT_LIMIT / widest
        inside = params(beta=beta_max * (1 - 1e-12), **kw)
        rho = thermal_density(inside)
        assert np.isfinite(rho).all()
        validate_density(rho)
        ts = np.linspace(0.0, 50.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(thermal_otoc(inside, ts)).all()
            assert np.isfinite(thermal_concurrence(inside, ts)).all()
        with pytest.raises(ValueError) as err:
            params(beta=beta_max * (1 + 1e-12), **kw)
        message = str(err.value)
        assert f"at n = {inside.n!r}:" in message
        assert f"above beta = {beta_max!r} (below T = {1 / beta_max!r})" in message

    def test_low_temperature_reproducer_names_beta_and_t(self):
        with pytest.raises(ValueError) as err:
            params(n=10.0, beta=1 / 0.002)
        assert str(err.value).startswith("inverse temperature beta = 500.0 (T = 0.002) is too "
                                         "large at n = 10.0")


class TestHTotal:
    def test_fig8_matrix_at_n_zero(self):
        expected = np.array([[8, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -8]],
                            dtype=complex)
        assert np.allclose(h_total(params()), expected, atol=1e-15)

    def test_decoupled_is_pure_zeeman(self):
        p = QuantumChannelParams(omega0=3.0, omega=2.0, g=0.0, n=2.0)
        w = 3.0 / 5.0
        assert np.allclose(h_total(p), np.diag([2 * w, 0, 0, -2 * w]), atol=1e-15)

    def test_hermitian(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            h = h_total(random_params(rng))
            assert np.abs(h - h.conj().T).max() == 0


class TestEigensystem:
    def test_fig8_eigenvalues(self):
        energies = [e for e, _ in eigensystem(params())]
        assert energies == pytest.approx([8.0, 1.0, -1.0, -8.0])

    def test_matches_numeric_diagonalization(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            p = random_params(rng)
            H = h_total(p)
            numeric = np.linalg.eigvalsh(H)
            analytic = sorted(e for e, _ in eigensystem(p))
            assert np.allclose(numeric, analytic, atol=1e-12)
            for energy, vec in eigensystem(p):
                assert np.abs(H @ vec - energy * vec).max() < 1e-12

    def test_flip_flop_degeneracy_at_zero_coupling(self):
        p = QuantumChannelParams(omega0=3.0, omega=2.0, g=0.0, n=1.0)
        energies = [e for e, _ in eigensystem(p)]
        assert energies[1] == energies[2] == 0.0

    def test_bell_state_is_eigenvector(self):
        rng = np.random.default_rng(53)
        bell = bell_phi_minus()
        for _ in range(20):
            p = random_params(rng)
            residual = h_total(p) @ bell - (-p.Omega_n) * bell
            assert np.abs(residual).max() < 1e-12


class TestBellOtoc:
    """``otoc_bell_spectral`` is the one closed form of the Bell-state OTOC
    (the "analytic" one of these tests)."""

    def test_analytic_at_zero(self):
        assert otoc_bell_spectral(params(), 0.0) == 0.0

    def test_analytic_peak(self):
        p = params()  # Omega_n = 1
        assert otoc_bell_spectral(p, math.pi / 4) == pytest.approx(2.0)

    def test_analytic_classical_limit(self):
        assert otoc_bell_spectral(params(n=1e12), 5.0) < 1e-20

    def test_numeric_at_zero(self):
        assert otoc_numeric(params(), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_numeric_matches_spectral_form(self):
        rng = np.random.default_rng(54)
        for _ in range(15):
            p = random_params(rng)
            for t in rng.uniform(0.0, 20.0, size=8):
                assert otoc_numeric(p, t) == pytest.approx(otoc_bell_spectral(p, t),
                                                           abs=1e-12)

    def test_analytic_and_spectral_forms_disagree(self):
        # The paper prints 2 sin^2(4 Omega_n t), which doubles the phase
        # argument of 1 - cos(4 Omega_n t) = 2 sin^2(2 Omega_n t); the two
        # agree only at isolated times.  TestTavisCummings shows which one
        # the full model follows.
        p = params()
        ts = np.linspace(0.0, 3.0, 301)
        printed = 2.0 * np.sin(4.0 * p.Omega_n * ts) ** 2
        assert np.abs(printed - otoc_bell_spectral(p, ts)).max() > 1.5

    def test_numeric_on_zeeman_eigenstate_vs_brute_force(self):
        p = params(n=2.0)
        psi0 = basis_state("00")
        for t in (0.4, 1.3):
            U = expm_hermitian(h_total(p), t)
            s1z, s2z = embed(pauli("z"), 1), embed(pauli("z"), 2)
            wt = U.conj().T @ s1z @ U
            brute = 1 - np.vdot(psi0, wt @ s2z @ wt @ s2z @ psi0).real
            assert otoc_numeric(p, t, psi0) == pytest.approx(brute, abs=1e-12)

    def test_period_scales_with_photon_number(self):
        # first full revival at 4 Omega_n t = 2 pi
        p = params(n=10.0)
        revival = math.pi / (2 * p.Omega_n)
        assert otoc_numeric(p, revival) == pytest.approx(0.0, abs=1e-10)


class TestTavisCummings:
    """At n = 0 the dense two-spin Tavis-Cummings model (tests/oracles.py)
    follows the closed form 1 - cos(4 Omega_n t) and not the printed
    2 sin^2(4 Omega_n t).  Dispersive parameters: g/Delta = 0.02 with
    Delta = omega0 - omega = 1, so 4 Omega_n t reaches 2.7 by t = 1700.  The
    elimination of the mode is exact only to leading order in
    (g/Delta)^2 = 4e-4: the full model's frequency is 0.25% lower, and the
    gap grows with the phase.  The largest gap measured at these times is
    4.3e-3 (t = 1000); the bound is 25 (g/Delta)^2 = 1e-2."""

    TS = np.array([500.0, 1000.0, 1700.0])
    P = QuantumChannelParams(omega0=3.0, omega=2.0, g=0.02, n=0.0)

    def test_full_model_follows_the_spectral_form(self):
        full = tavis_cummings_bell_otoc(3.0, 2.0, 0.02, self.TS, n=0, cutoff=4)
        assert np.abs(full - [0.3035, 1.0249, 1.9116]).max() < 1e-4
        # the Bell start holds one excitation: a larger cutoff changes nothing
        assert np.abs(full - tavis_cummings_bell_otoc(3.0, 2.0, 0.02, self.TS, n=0,
                                                      cutoff=8)).max() < 1e-12
        assert np.abs(full - otoc_bell_spectral(self.P, self.TS)).max() <= 25 * 0.02**2
        assert np.abs(full - otoc_numeric(self.P, self.TS)).max() <= 25 * 0.02**2

    def test_full_model_departs_from_the_printed_form(self):
        full = tavis_cummings_bell_otoc(3.0, 2.0, 0.02, self.TS, n=0, cutoff=4)
        printed = 2.0 * np.sin(4.0 * self.P.Omega_n * self.TS) ** 2
        assert (np.abs(full - printed) >= 0.5).all()


class TestThermalDensity:
    def test_infinite_temperature(self):
        assert np.allclose(thermal_density(params(beta=0.0)), np.eye(4) / 4, atol=1e-15)

    def test_ground_state_limit(self):
        rho = thermal_density(params(beta=50.0))
        proj11 = np.zeros((4, 4), dtype=complex)
        proj11[3, 3] = 1.0
        assert np.abs(rho - proj11).max() < 1e-12

    def test_spectrum_matches_boltzmann_weights(self):
        p = params(n=3.0, beta=0.7)
        rho = thermal_density(p)
        validate_density(rho)
        energies = np.array([e for e, _ in eigensystem(p)])
        weights = np.exp(-p.beta * energies)
        weights /= weights.sum()
        assert np.allclose(sorted(np.linalg.eigvalsh(rho)), sorted(weights), atol=1e-12)

    def test_stationarity(self):
        p = params(n=1.0, beta=0.9)
        rho = thermal_density(p)
        H = h_total(p)
        assert np.abs(rho @ H - H @ rho).max() < 1e-12

    def test_middle_block_is_coherent_in_computational_basis(self):
        rho = thermal_density(params(beta=1.0))
        assert abs(rho[1, 2]) > 1e-4
        assert rho[1, 2] == pytest.approx(-math.sinh(1.0) /
                                          (2 * math.cosh(8.0) + 2 * math.cosh(1.0)))

    def test_validate_density_rejects_bad_input(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            bad = np.eye(4, dtype=complex) / 4
            bad[0, 1] = 1j
            validate_density(bad)

    @pytest.mark.parametrize("value, name", [(complex(np.nan, 0.0), "(nan+0j)"),
                                             (complex(0.0, np.inf), "infj"),
                                             (complex(-np.inf, 1.0), "(-inf+1j)")])
    def test_non_finite_member_is_named_before_any_arithmetic(self, value, name):
        good = np.eye(4, dtype=complex) / 4
        bad = good.copy()
        bad[2, 1] = value
        stack = np.stack([good, good, bad, good, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, no LinAlgError
            for evaluate in (validate_density, concurrence):
                with pytest.raises(ValueError) as err:
                    evaluate(stack)
                assert str(err.value) == (f"density matrix has non-finite entries, the first "
                                          f"{name} at row 2, column 1")


class TestThermalOtoc:
    def test_exactly_zero_at_t0(self):
        for beta in (0.0, 0.01, 1.0, 10.0):
            assert thermal_otoc(params(n=3.0, beta=beta), 0.0) == 0.0

    def test_infinite_temperature_limit(self):
        # beta -> 0 reduces to sin^2(2 Omega_n t)
        p = params(n=4.0, beta=0.0)
        for t in (0.3, 2.0, 7.7):
            expected = math.sin(2 * p.Omega_n * t) ** 2
            assert thermal_otoc(p, t) == pytest.approx(expected, abs=1e-12)
        tiny = params(n=4.0, beta=1e-12)
        assert thermal_otoc(tiny, 2.0) == pytest.approx(
            math.sin(2 * tiny.Omega_n * 2.0) ** 2, abs=1e-9)

    def test_closed_form_equals_trace_on_grid(self):
        # the function cross-checks internally; exercise a parameter grid
        rng = np.random.default_rng(55)
        for _ in range(25):
            p = random_params(rng, with_beta=True)
            thermal_otoc(p, rng.uniform(0.0, 30.0))

    @staticmethod
    def fig8_grid():
        cfg = dataclasses.replace(preset_config("fig8"), t_end=400.0, dt_out=0.21)
        return cfg, np.linspace(0.0, cfg.t_end, round(cfg.t_end / cfg.resolved_dt_out()) + 1)

    @staticmethod
    def spy_cross_check(monkeypatch, perturb=None):
        """Record the thermal OTOC cross-check's arguments; perturb, if given,
        edits the closed form before the check runs."""
        seen = []
        check = quantum_channel._cross_check

        def recording(quantity, route, t, closed, numeric):
            if quantity == "thermal OTOC":
                seen.append(numeric)
                if perturb is not None:
                    closed = perturb(np.array(closed, dtype=float))
            return check(quantity, route, t, closed, numeric)

        monkeypatch.setattr(quantum_channel, "_cross_check", recording)
        return seen

    @pytest.mark.parametrize("n", preset_config("fig8").n_values)
    def test_trace_equals_the_square_route_on_fig8_grids(self, n, monkeypatch):
        cfg, ts = self.fig8_grid()
        p = cfg.quantum_params(n)
        seen = self.spy_cross_check(monkeypatch)
        thermal_otoc(p, ts)
        U = expm_hermitian(h_total(p), ts)
        m = ((_dagger(U) * np.diag(embed(pauli("z"), 1)).real) @ U) \
            * np.diag(embed(pauli("z"), 2)).real
        square = 1.0 - np.einsum("ij,...ji->...", thermal_density(p), m @ m).real
        assert len(seen) == 1 and seen[0].shape == ts.shape
        assert np.abs(seen[0] - square).max() <= 1e-15

    def test_cross_check_raises_on_a_perturbed_closed_form(self, monkeypatch):
        cfg, ts = self.fig8_grid()
        p = cfg.quantum_params(10.0)

        def kick(size):
            def perturb(closed):
                closed[777] += size
                return closed
            return perturb

        self.spy_cross_check(monkeypatch, kick(0.5 * quantum_channel.CROSS_CHECK_TOL))
        thermal_otoc(p, ts)
        self.spy_cross_check(monkeypatch, kick(2 * quantum_channel.CROSS_CHECK_TOL))
        with pytest.raises(RuntimeError, match=rf"thermal OTOC cross-check failed at "
                                               rf"t = {float(ts[777])!r}:"):
            thermal_otoc(p, ts)

    def test_bounded(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            p = random_params(rng, with_beta=True)
            c = thermal_otoc(p, rng.uniform(0.0, 30.0))
            assert -1e-12 <= c <= 2.0 + 1e-12

    def test_fig8_family_amplitudes_fall_with_n(self):
        amps = []
        ts = np.linspace(0.0, 100.0, 501)
        for n in (10.0, 100.0, 1000.0, 10000.0):
            p = params(n=n, beta=0.01)
            amps.append(max(thermal_otoc(p, t) for t in ts))
        assert amps[0] > amps[1] > amps[2] > amps[3]
        assert amps[3] < 0.01 * amps[0]


class TestConcurrence:
    def test_bell_state(self):
        bell = bell_phi_minus()
        assert concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        psi = basis_state("00")
        assert concurrence(np.outer(psi, psi.conj())) == 0.0

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4, dtype=complex) / 4) == 0.0

    def test_werner_family_closed_form(self):
        # rho = p |Bell><Bell| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
        bell = bell_phi_minus()
        proj = np.outer(bell, bell.conj())
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = p * proj + (1 - p) * np.eye(4) / 4
            assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            concurrence(np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))

    def test_empty_stack_gives_a_result_of_its_leading_shape(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert validate_density(empty).shape == (0, 4, 4)
        assert concurrence(empty).shape == (0,)
        assert concurrence(np.zeros((2, 0, 4, 4), dtype=complex)).shape == (2, 0)
        assert gme(concurrence(empty)).shape == (0,)


class TestDistinctMembers:
    """concurrence of a stack gives the same bytes, and the same errors, as
    concurrence of each of its members, and evaluates the stack as given."""

    @staticmethod
    def fig8_stacks(n):
        """The Bell and thermal stacks of the quantum_thermal workload at n."""
        cfg = dataclasses.replace(preset_config("fig8"), t_end=400.0, dt_out=0.21)
        ts = np.linspace(0.0, cfg.t_end, round(cfg.t_end / cfg.resolved_dt_out()) + 1)
        p = cfg.quantum_params(n)
        U = expm_hermitian(h_total(p), ts)
        bell = bell_phi_minus()
        return [U @ rho @ U.conj().swapaxes(-1, -2)
                for rho in (np.outer(bell, bell.conj()), thermal_density(p))]

    @pytest.mark.parametrize("n", preset_config("fig8").n_values)
    def test_fig8_stacks_equal_per_member(self, n):
        for stack in self.fig8_stacks(n):
            assert stack.shape == (1906, 4, 4)
            assert np.array_equal(concurrence(stack), [concurrence(m) for m in stack])

    def test_nested_stack(self):
        bell_stack = self.fig8_stacks(10.0)[0][:600]
        stack = bell_stack.reshape(2, 300, 4, 4)
        c = concurrence(stack)
        assert c.shape == (2, 300)
        assert np.array_equal(c, np.reshape([concurrence(m) for m in bell_stack], (2, 300)))

    @pytest.mark.parametrize("first, second", [(1.5, 0.5), (0.5, 1.5)])
    def test_repeated_bad_trace_names_the_first_worst_member(self, first, second):
        # |tr - 1| is 0.5 for both: the first in stack order is named
        a, b = (np.eye(4, dtype=complex) * (tr / 4) for tr in (first, second))
        good = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError) as err:
            concurrence(np.stack([good, a, b, good, a, b, b]))
        assert str(err.value) == f"density matrix trace is {complex(first)!r}, expected 1"

    def test_repeated_negative_eigenvalue_message(self):
        bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
        good = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError) as err:
            concurrence(np.stack([good, bad, good, bad, bad]))
        assert str(err.value) == "density matrix has a negative eigenvalue (-5.000e-01)"

    def test_one_evaluation_per_call(self, monkeypatch):
        bell_stack, thermal_stack = self.fig8_stacks(100.0)
        entered, seen = [], []
        public, check = quantum_channel.concurrence, quantum_channel.validate_density
        monkeypatch.setattr(quantum_channel, "concurrence",
                            lambda rho: entered.append(1) or public(rho))
        monkeypatch.setattr(quantum_channel, "validate_density",
                            lambda rho: seen.append(rho) or check(rho))
        stacks = (bell_stack, thermal_stack, thermal_stack[7], bell_stack[:3])
        for rho in stacks:
            quantum_channel.concurrence(rho)
        # never re-entered through its public name, which a tracer would count
        assert len(entered) == 4
        # every stack reaches the evaluator as given, repeats and all, not copied
        assert len(seen) == 4 and all(a is b for a, b in zip(seen, stacks))


class TestPureConcurrence:
    """The pure-state route 2 |psi00 psi11 - psi01 psi10| of the runner's
    concurrence column."""

    EPS = np.finfo(float).eps

    @staticmethod
    def random_states(seed, size):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
        return psi / np.linalg.norm(psi, axis=-1, keepdims=True)

    def test_schmidt_family(self):
        # cos a |00> + sin a |11> has concurrence |sin 2a|
        a = np.linspace(0.0, math.pi, 1001)
        psi = np.zeros((a.size, 4), dtype=complex)
        psi[:, 0], psi[:, 3] = np.cos(a), np.sin(a)
        c = quantum_channel._pure_concurrence(psi)
        assert c.shape == a.shape
        assert np.abs(c - np.abs(np.sin(2 * a))).max() <= 1e-15

    def test_agrees_with_wootters_on_random_pure_states(self):
        # the singular values of Wootters' tau take no square root of the
        # three zero eigenvalues of a pure state's spin-flip product: 7.5 eps
        # measured on these 2000 states, at most 11 eps over 40 such seeds
        psi = self.random_states(0, 2000)
        wootters = concurrence(psi[:, :, None] * psi.conj()[:, None, :])
        assert np.abs(quantum_channel._pure_concurrence(psi) - wootters).max() <= 16 * self.EPS

    def test_stays_within_its_range(self):
        psi = np.concatenate([self.random_states(1, 2000), [bell_phi_minus()],
                              [basis_state("01")]])
        c = quantum_channel._pure_concurrence(psi)
        assert c.min() >= 0.0 and c.max() <= 1.0 + 4 * self.EPS
        # 1/sqrt(2) rounds below itself, so its square is 1/2 - eps/2
        assert abs(c[-2] - 1.0) <= self.EPS and c[-1] == 0.0


def eigvalsh_rule(rho):
    """The message validate_density raises for positivity when every member
    goes through eigvalsh, or None if the stack passes."""
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -DENSITY_PSD_TOL:
        return f"density matrix has a negative eigenvalue ({evals.min():.3e})"
    return None


def density_with_spectrum(lam, q):
    """q diag(lam) q^dagger, made Hermitian to rounding."""
    rho = (q * lam) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


@st.composite
def near_psd_stacks(draw):
    """Hermitian unit-trace members whose smallest eigenvalue is drawn in
    [-2e-10, 0], with eigenvectors of the computational basis (the bound is
    the smallest eigenvalue), slightly rotated (small discs) or random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        lam_min = draw(st.one_of(st.floats(-2e-10, 0.0),
                                 st.sampled_from([-7e-11, -1.2e-10, -5e-11, -1e-10, 0.0])))
        rest = rng.uniform(0.0, 1.0, 3)
        rest *= (1.0 - lam_min) / rest.sum()
        lam = rng.permutation(np.concatenate([[lam_min], rest]))
        kind = draw(st.sampled_from(["basis", "rotated", "random"]))
        if kind == "basis":
            q = np.eye(4, dtype=complex)[rng.permutation(4)]
        else:
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            angle = 10.0 ** rng.uniform(-14, -9) if kind == "rotated" else 1.0
            q = expm_hermitian(h + h.conj().T, angle)
        members.append(density_with_spectrum(lam, q))
    return np.stack(members)


class TestPositivity:
    """validate_density accepts and rejects what eigvalsh of every member
    does, with the same message, over a stack and member by member."""

    @staticmethod
    def outcome(rho):
        try:
            validate_density(rho)
        except ValueError as exc:
            return str(exc)
        return None

    @given(near_psd_stacks())
    @settings(max_examples=150, deadline=None)
    def test_same_decision_and_message_as_eigvalsh(self, stack):
        assert self.outcome(stack) == eigvalsh_rule(stack)
        for member in stack:
            assert self.outcome(member) == eigvalsh_rule(member)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_members_either_side_of_the_tolerance(self, rotate):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = expm_hermitian(h + h.conj().T, 0.7) if rotate else np.eye(4, dtype=complex)
        accepted = density_with_spectrum(np.array([0.3, -7e-11, 0.4, 0.3 + 7e-11]), q)
        rejected = density_with_spectrum(np.array([0.3, -1.2e-10, 0.4, 0.3 + 1.2e-10]), q)
        assert self.outcome(accepted) is None
        assert self.outcome(np.stack([accepted] * 3)) is None
        message = eigvalsh_rule(rejected)
        assert message == "density matrix has a negative eigenvalue (-1.200e-10)"
        assert self.outcome(rejected) == message
        assert self.outcome(np.stack([accepted, rejected, accepted])) == message


def random_densities(seed, size, rank=4):
    """size random two-qubit densities of the given rank, exactly Hermitian."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, 4, rank)) + 1j * rng.normal(size=(size, 4, rank))
    rhos = a @ a.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    return 0.5 * (rhos + rhos.conj().swapaxes(-1, -2))


class TestWoottersReference:
    """concurrence by the singular values of Wootters' tau against the
    spin-flip eigenvalue route of oracles.spin_flip_concurrence."""

    def test_random_full_rank_densities(self):
        # 9.5e-13 measured on these 2000 states; the reference's square roots
        # of small spin-flip eigenvalues lose the digits (median 9.2e-13 and
        # worst 5.3e-11 over 20 seeds of 2000)
        rhos = random_densities(10, 2000)
        c = concurrence(rhos)
        assert 0.5 < np.mean(c > 0.0) < 1.0  # entangled and separable members alike
        assert np.abs(c - oracles.spin_flip_concurrence(rhos)).max() <= 1e-11

    @pytest.mark.parametrize("n", preset_config("fig8").n_values)
    def test_fig8_thermal_grids(self, n):
        cfg = preset_config("fig8")  # the runner's grid: 477 times over [0, 100]
        ts = np.linspace(0.0, cfg.t_end, round(cfg.t_end / cfg.resolved_dt_out()) + 1)
        p = cfg.quantum_params(n)
        U = expm_hermitian(h_total(p), ts)
        rhos = U @ thermal_density(p) @ U.conj().swapaxes(-1, -2)
        c = concurrence(rhos)
        assert np.abs(c - thermal_concurrence(p, ts)).max() <= 1e-15
        assert np.abs(c - oracles.spin_flip_concurrence(rhos)).max() <= 1e-15

    def test_near_pure_bell_thermal_state(self):
        # zeeman 0, n = 0 and beta = 50: the Gibbs state is the pure Bell
        # ground state but for weights of ~1e-44, where the reference misses
        # the closed form 1.0 by 1.1e-8
        rho = thermal_density(zeeman_free(beta=50.0))
        assert abs(concurrence(rho) - 1.0) <= 4 * np.finfo(float).eps

    def test_stack_equals_per_member(self):
        rhos = np.concatenate([random_densities(11, 150), random_densities(12, 150, rank=1),
                               random_densities(13, 150, rank=2)])
        c = concurrence(rhos.reshape(3, 150, 4, 4))
        assert c.shape == (3, 150)
        assert np.array_equal(c.ravel(), [concurrence(r) for r in rhos])


class TestGme:
    def test_reference_points(self):
        assert gme(1.0) == pytest.approx(0.5)
        assert gme(0.0) == 0.0
        assert gme(0.75) == pytest.approx(0.25)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gme(1.5)
        with pytest.raises(ValueError):
            gme(-0.2)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, c):
        v = gme(c)
        assert 0.0 <= v <= 0.5
        assert gme(min(1.0, c + 0.1)) >= v


@st.composite
def gibbs_params(draw):
    """Channel parameters with beta anywhere up to the Gibbs-weight limit, log
    uniformly, so that most draws are near-pure; a third are zeeman-free, with
    a Bell ground state."""
    omega0, d = draw(st.floats(0.5, 5.0)), draw(st.floats(0.3, 3.0))
    n = draw(st.floats(0.0, 50.0))
    kind = draw(st.sampled_from(["zeeman_free", "below", "above"]))
    if kind == "zeeman_free":  # Omega0 = -omega0R
        q = QuantumChannelParams(omega0=omega0, omega=omega0 + d, n=n,
                                 g=math.sqrt(d * omega0 / (2 * n + 1)))
    else:
        q = QuantumChannelParams(omega0=omega0, omega=omega0 + (d if kind == "above" else -d),
                                 g=draw(st.floats(0.3, 2.0)), n=n)
    widest = max(2 * abs(q.zeeman), abs(q.Omega_n))
    fraction = min(10.0 ** draw(st.floats(-4.0, 0.0)), 1.0 - 1e-12)
    return dataclasses.replace(q, beta=fraction * GIBBS_EXPONENT_LIMIT / widest)


class TestThermalConcurrence:
    def test_infinite_temperature(self):
        assert thermal_concurrence(params(n=3.0, beta=0.0), 1.0) == 0.0

    def test_classical_limit(self):
        assert thermal_concurrence(params(n=1e6, beta=2.0), 1.0) == 0.0

    def test_time_independent(self):
        p = params(n=1.0, beta=1.2)
        vals = {thermal_concurrence(p, t) for t in (0.0, 0.7, 3.3, 11.0)}
        assert len(vals) == 1

    def test_asymptotic_family(self):
        # zeeman = 1 and Omega_n = 1: closed form becomes
        # 2 (sinh b - 1) / (2 cosh 2b + 2 cosh b) once sinh b > 1, -> 0 as b grows
        def p_at(beta):
            return QuantumChannelParams(omega0=0.0, omega=-1.0, g=1.0, n=0.0, beta=beta)
        assert p_at(0.0).Omega_n == pytest.approx(1.0)
        assert p_at(0.0).zeeman == pytest.approx(1.0)
        for beta in (0.5, 1.0, 2.0, 5.0):
            expected = 2 * max(0.0, (math.sinh(beta) - 1) /
                               (2 * math.cosh(2 * beta) + 2 * math.cosh(beta)))
            assert thermal_concurrence(p_at(beta), 0.3) == pytest.approx(expected, abs=1e-12)
        assert thermal_concurrence(p_at(30.0), 0.0) < 1e-12

    def test_cross_check_on_random_grid(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            p = random_params(rng, with_beta=True)
            thermal_concurrence(p, rng.uniform(0.0, 10.0))  # internal consistency check

    @given(gibbs_params(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_never_raises_up_to_the_gibbs_limit(self, p, times):
        c = thermal_concurrence(p, np.array(times))
        assert c.shape == (len(times),) and 0.0 <= c[0] <= 1.0

    def test_cross_checks_hold_on_near_pure_states(self):
        # 200 Gibbs states within 1e-12 of their pure ground state, 100 of
        # them zeeman-free with a Bell ground state of concurrence ~1; the
        # cross-checks hold CROSS_CHECK_TOL at every t
        rng = np.random.default_rng(21)
        kept = 0
        while kept < 200:
            omega0, d, n = rng.uniform(0.5, 5.0), rng.uniform(0.3, 3.0), rng.uniform(0.0, 20.0)
            zeeman_free = kept < 100
            g = math.sqrt(d * omega0 / (2 * n + 1)) if zeeman_free else rng.uniform(0.3, 2.0)
            q = QuantumChannelParams(omega0=omega0, omega=omega0 + d, g=g, n=n)
            widest = max(2 * abs(q.zeeman), abs(q.Omega_n))
            p = dataclasses.replace(q, beta=GIBBS_EXPONENT_LIMIT / widest * rng.uniform(0.1, 1.0))
            # the Boltzmann weights are the squared column norms of the Gibbs factor
            weights = np.linalg.norm(quantum_channel._gibbs_factor(p), axis=0) ** 2
            if 1.0 - weights.max() > 1e-12:
                continue
            c = thermal_concurrence(p, rng.uniform(0.0, 100.0, 32))
            if zeeman_free:
                assert c[0] > 1.0 - 1e-12
            kept += 1

    @pytest.mark.parametrize("value", [1.0 + 1e-9, np.nan])
    def test_trace_of_the_evolved_state_is_checked_at_every_t(self, value):
        # a failed trace is a failed cross-check like any other: an
        # IntegrationError that carries the worst t (it was a ValueError)
        p = params(n=3.0, beta=0.5)
        ts = np.linspace(0.0, 10.0, 50)
        U = expm_hermitian(h_total(p), ts)
        U[17] *= value
        with pytest.raises(IntegrationError) as err:
            thermal_concurrence(p, ts, U=U)
        assert str(err.value).startswith(f"thermal state trace cross-check failed at "
                                         f"t = {float(ts[17])!r}: closed form 1.0 vs "
                                         f"||U X0||_F^2 ")
        assert err.value.t == float(ts[17])
        assert err.value.h is None and err.value.err_norm is None

    def test_public_concurrence_checks_the_gibbs_state_once(self, monkeypatch):
        public = quantum_channel.concurrence
        seen = []
        monkeypatch.setattr(quantum_channel, "concurrence",
                            lambda rho: seen.append(rho) or public(rho))
        p = zeeman_free(beta=2.0)  # entangled: closed form 0.55
        ts = np.linspace(0.0, 10.0, 50)
        assert thermal_concurrence(p, ts)[0] > 0.5
        assert len(seen) == 1 and np.array_equal(seen[0], thermal_density(p))
        # a public route off by 2e-10 fails the check, which names t = 0
        monkeypatch.setattr(quantum_channel, "concurrence", lambda rho: public(rho) + 2e-10)
        with pytest.raises(RuntimeError, match=r"cross-check failed at t = 0\.0: ") as err:
            thermal_concurrence(p, ts)
        assert err.value.t == 0.0

    def test_wrong_gibbs_factor_fails_the_grid_check(self, monkeypatch):
        p = zeeman_free(beta=2.0)
        ts = np.linspace(0.0, 10.0, 50)
        # the maximally mixed state: unit trace, concurrence 0
        monkeypatch.setattr(quantum_channel, "_gibbs_factor",
                            lambda p: np.eye(4, dtype=complex) / 2)
        with pytest.raises(RuntimeError, match="cross-check failed at t = 0.0: closed form "
                                               "0.55") as err:
            thermal_concurrence(p, ts)
        assert err.value.t == 0.0


class TestClassicalLimitReport:
    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            classical_limit_report(params(beta=0.01), 10.0, [10.0, 5.0])

    def test_short_window_amplitudes_are_small_and_monotone(self):
        p = params(beta=0.01)
        rows = list(classical_limit_report(p, t_max=1.0, n_grid=[100.0, 1000.0, 10000.0]))
        assert all(isinstance(r, ClassicalLimitRow) for r in rows)
        assert rows[0].otoc_amplitude > rows[1].otoc_amplitude > rows[2].otoc_amplitude
        assert rows[-1].otoc_amplitude < 1e-4

    def test_one_propagator_per_photon_number(self, monkeypatch):
        calls = []
        exact = quantum_channel.expm_hermitian

        def counting(h, t):
            calls.append(np.shape(t))
            return exact(h, t)

        # the report's own propagator and any the evaluators would build
        monkeypatch.setattr(oracles, "expm_hermitian", counting)
        monkeypatch.setattr(quantum_channel, "expm_hermitian", counting)
        classical_limit_report(params(beta=0.01), t_max=1.0, n_grid=[1.0, 10.0, 100.0],
                               samples=64)
        assert calls == [(64,)] * 3

    def test_full_oscillation_reached_at_small_n(self):
        p = params(beta=0.01)
        t_max = math.pi / (2 * p.Omega_n)  # beyond the first peak of the numeric form
        rows = classical_limit_report(p, t_max=t_max, n_grid=[0.0], samples=2048)
        assert rows[0].otoc_amplitude == pytest.approx(2.0, abs=1e-3)


@st.composite
def channel_params(draw):
    omega0 = draw(st.floats(1.0, 5.0))
    return QuantumChannelParams(omega0=omega0, omega=omega0 - draw(st.floats(0.3, 2.0)),
                                g=draw(st.floats(0.3, 2.0)), n=draw(st.floats(0.0, 50.0)),
                                beta=draw(st.floats(0.0, 2.0)))


class TestTimeGrid:
    """A time grid goes through the same arithmetic as a single time."""

    @given(channel_params(), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12),
           st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
               lambda a: np.linalg.norm(a) > 0.1))
    @settings(max_examples=40, deadline=None)
    def test_grid_equals_per_time_calls(self, p, times, amplitudes):
        ts = np.array(times)
        psi0 = np.array(amplitudes[0::2]) + 1j * np.array(amplitudes[1::2])
        psi0 /= np.linalg.norm(psi0)
        U = expm_hermitian(h_total(p), ts)
        for evaluator in (otoc_numeric, thermal_otoc, thermal_concurrence):
            grid = evaluator(p, ts)
            assert grid.shape == ts.shape
            assert np.array_equal(grid, [evaluator(p, t) for t in ts]), evaluator.__name__
            # a shared propagator selects no behaviour: the same bytes as building
            # it, also when given as nested lists
            assert np.array_equal(evaluator(p, ts, U=U), grid), evaluator.__name__
            assert np.array_equal(evaluator(p, ts, U=U.tolist()), grid), evaluator.__name__
        assert np.array_equal(otoc_numeric(p, ts, psi0), [otoc_numeric(p, t, psi0) for t in ts])
        assert np.array_equal(otoc_numeric(p, ts, psi0, U=U), otoc_numeric(p, ts, psi0))
        assert U.shape == (ts.size, 4, 4)
        assert all(np.array_equal(U[k], expm_hermitian(h_total(p), t)) for k, t in enumerate(ts))
        rhos = U @ np.outer(psi0, psi0.conj()) @ U.conj().swapaxes(-1, -2)
        c = concurrence(rhos)
        assert np.array_equal(c, [concurrence(r) for r in rhos])
        assert np.array_equal(gme(c), [gme(v) for v in c])

    @pytest.mark.parametrize("evaluator", [otoc_numeric, thermal_otoc, thermal_concurrence])
    def test_empty_grid_gives_an_empty_result(self, evaluator):
        # an empty grid has no point to cross-check; it used to raise numpy's
        # "attempt to get argmax of an empty sequence" in the thermal checks
        result = evaluator(params(n=3.0, beta=0.5), np.array([]))
        assert isinstance(result, np.ndarray) and result.shape == (0,)

    def test_scalar_time_gives_scalars(self):
        p = params(n=2.0, beta=0.5)
        assert expm_hermitian(h_total(p), 0.7).shape == (4, 4)
        for value in (otoc_numeric(p, 0.7), thermal_otoc(p, 0.7), thermal_concurrence(p, 0.7),
                      gme(0.3), concurrence(thermal_density(p))):
            assert isinstance(value, float) and np.ndim(value) == 0

    def test_stack_validation_checks_every_member(self):
        rhos = np.stack([np.eye(4, dtype=complex) / 4] * 5)
        rhos[3, 0, 0] += 0.1
        with pytest.raises(ValueError, match="trace"):
            concurrence(rhos)
        with pytest.raises(ValueError, match="got 1.5"):
            gme(np.array([0.2, 1.5, 0.3]))


class TestHeisenbergOperator:
    """sigma1_z(t) = U^dagger sigma1_z U has one definition,
    correlators._heisenberg, which the thermal OTOC's trace route and
    otoc_product both call."""

    def test_thermal_trace_route_and_otoc_product_form_the_same_bytes(self, monkeypatch):
        shared = correlators._heisenberg
        formed = []
        monkeypatch.setattr(correlators, "_heisenberg",
                            lambda U, W: formed.append((W, shared(U, W))) or formed[-1][1])
        s1z, s2z = embed(pauli("z"), 1), embed(pauli("z"), 2)
        p = params(n=3.0, beta=0.5)
        rng = np.random.default_rng(24)
        for size in (1, 7, 64):
            # random unitaries: the Q factors of complex Gaussian matrices
            U = np.linalg.qr(rng.normal(size=(size, 4, 4))
                             + 1j * rng.normal(size=(size, 4, 4)))[0]
            formed.clear()
            try:  # U is not the propagator, so the closed form need not hold
                thermal_otoc(p, np.linspace(0.0, 1.0, size), U=U)
            except IntegrationError:
                pass
            correlators.otoc_product(U, bell_phi_minus(), s1z, s2z)
            (w_trace, trace_route), (w_product, product_route) = formed
            assert np.array_equal(w_trace, s1z) and np.array_equal(w_product, s1z)
            assert trace_route.tobytes() == product_route.tobytes()
            np.testing.assert_allclose(trace_route, _dagger(U) @ s1z @ U, rtol=0, atol=1e-14)


class TestBatchedCrossChecks:
    """One corrupted grid point out of many still trips the dense checks."""

    TS = np.linspace(0.0, 40.0, 1906)

    @pytest.mark.parametrize("evaluator", [thermal_otoc, thermal_concurrence])
    def test_cross_check_names_the_corrupted_time(self, evaluator, monkeypatch):
        p = params(n=0.0, beta=5.0)  # near the ground state |11>, which the kick entangles
        assert evaluator(p, self.TS).shape == self.TS.shape
        kick = expm_hermitian(np.kron(pauli("x"), pauli("x")), 0.3)
        exact = quantum_channel.expm_hermitian

        def corrupted(h, t):
            U = exact(h, t)
            U[-1] = kick @ U[-1]
            return U

        # the propagator passed in, then the one the evaluator builds
        with pytest.raises(RuntimeError, match="cross-check failed") as passed:
            evaluator(p, self.TS, U=corrupted(h_total(p), self.TS))
        monkeypatch.setattr(quantum_channel, "expm_hermitian", corrupted)
        with pytest.raises(RuntimeError, match="cross-check failed") as built:
            evaluator(p, self.TS)
        assert str(passed.value) == str(built.value)
        message = str(built.value)
        assert f"at t = {float(self.TS[-1])!r}:" in message
        assert len(message) < 200  # values, never the whole grid

    def test_nan_in_the_propagator_fails_the_thermal_otoc_check(self):
        # a NaN difference compares False with the tolerance: it used to pass
        p = params(n=3.0, beta=0.5)
        U = expm_hermitian(h_total(p), self.TS)
        U[17, 2, 1] = np.nan
        with pytest.raises(RuntimeError) as err:
            thermal_otoc(p, self.TS, U=U)
        assert str(err.value).startswith(
            f"thermal OTOC cross-check failed at t = {float(self.TS[17])!r}: ")
        assert str(err.value).endswith(" vs trace nan")

    @pytest.mark.parametrize("evaluator", [otoc_numeric, thermal_otoc, thermal_concurrence])
    def test_propagator_must_match_the_grid(self, evaluator):
        p = params(n=3.0, beta=0.5)
        U = expm_hermitian(h_total(p), self.TS[:50])
        with pytest.raises(ValueError, match="does not match t"):
            evaluator(p, self.TS[:49], U=U)
        with pytest.raises(ValueError, match="does not match t"):
            evaluator(p, 0.5, U=U)

    def test_non_unitary_slice_rejected(self):
        U = expm_hermitian(h_total(params(n=3.0)), self.TS[:50])
        U[17] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="U is not unitary"):
            correlators.otoc_product(U, bell_phi_minus(), embed(pauli("z"), 1),
                                     embed(pauli("z"), 2))
