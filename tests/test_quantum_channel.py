import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchannel import correlators, quantum_channel
from spinchannel.quantum_channel import (ClassicalLimitRow, QuantumChannelParams,
                                         classical_limit_report, concurrence,
                                         eigensystem, gme, h_total, otoc_analytic,
                                         otoc_bell_spectral, otoc_numeric,
                                         thermal_concurrence, thermal_density,
                                         thermal_otoc, validate_density)
from spinchannel.spin_algebra import basis_state, bell_phi_minus, embed, expm_hermitian, pauli

FIG8 = dict(omega0=3.0, omega=2.0, g=1.0)


def params(n=0.0, beta=0.0, **kw):
    base = dict(FIG8)
    base.update(kw)
    return QuantumChannelParams(n=n, beta=beta, **base)


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

    def test_classical_limit_of_constants(self):
        p = params(n=1e9)
        assert abs(p.Omega_n) < 1e-8
        assert abs(p.omega0R) < 1e-8


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
    def test_analytic_at_zero(self):
        assert otoc_analytic(params(), 0.0) == 0.0

    def test_analytic_peak(self):
        p = params()  # Omega_n = 1
        assert otoc_analytic(p, math.pi / 8) == pytest.approx(2.0)

    def test_analytic_classical_limit(self):
        assert otoc_analytic(params(n=1e12), 5.0) < 1e-20

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
        # The two closed forms differ by a factor of two in the phase
        # argument; they agree only at isolated times.  This pins down a
        # known inconsistency instead of letting either form drift.
        p = params()
        ts = np.linspace(0.0, 3.0, 301)
        gap = max(abs(otoc_analytic(p, t) - otoc_bell_spectral(p, t)) for t in ts)
        assert gap > 1.5

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
        for evaluator in (otoc_numeric, thermal_otoc, thermal_concurrence):
            grid = evaluator(p, ts)
            assert grid.shape == ts.shape
            assert np.array_equal(grid, [evaluator(p, t) for t in ts]), evaluator.__name__
        assert np.array_equal(otoc_numeric(p, ts, psi0), [otoc_numeric(p, t, psi0) for t in ts])
        U = expm_hermitian(h_total(p), ts)
        assert U.shape == (ts.size, 4, 4)
        assert all(np.array_equal(U[k], expm_hermitian(h_total(p), t)) for k, t in enumerate(ts))
        rhos = U @ np.outer(psi0, psi0.conj()) @ U.conj().swapaxes(-1, -2)
        c = concurrence(rhos)
        assert np.array_equal(c, [concurrence(r) for r in rhos])
        assert np.array_equal(gme(c), [gme(v) for v in c])

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

        monkeypatch.setattr(quantum_channel, "expm_hermitian", corrupted)
        with pytest.raises(RuntimeError, match="cross-check failed") as info:
            evaluator(p, self.TS)
        message = str(info.value)
        assert f"at t = {float(self.TS[-1])!r}:" in message
        assert len(message) < 200  # values, never the whole grid

    def test_non_unitary_slice_rejected(self):
        U = expm_hermitian(h_total(params(n=3.0)), self.TS[:50])
        U[17] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="U is not unitary"):
            correlators.otoc_product(U, bell_phi_minus(), embed(pauli("z"), 1),
                                     embed(pauli("z"), 2), t=self.TS[:50])
