import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchannel.spin_algebra import (SpinParams, _dagger, _rdot, basis_state,
                                      bell_phi_minus, commutator, embed, expectation,
                                      expm_hermitian, pauli, sz_nv)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def random_hermitian(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def taylor_expm(h, t, terms=60):
    """Independent series oracle for exp(-i h t), with argument halving to
    keep the series well inside its convergence region."""
    m = -1j * np.asarray(h, dtype=complex) * t
    halvings = 0
    while np.abs(m).max() > 0.5:
        m = m / 2
        halvings += 1
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    for _ in range(halvings):
        out = out @ out
    return out


class TestPauli:
    def test_z_is_diag(self):
        assert np.array_equal(pauli("z"), np.diag([1, -1]).astype(complex))

    def test_plus_minus_sum_to_x(self):
        assert np.array_equal(pauli("plus") + pauli("minus"), pauli("x"))

    def test_xy_commutator(self):
        assert np.allclose(commutator(pauli("x"), pauli("y")), 2j * pauli("z"), atol=0)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involutory_traceless_hermitian(self, axis):
        s = pauli(axis)
        assert np.array_equal(s @ s, I2)
        assert np.trace(s) == 0
        assert np.array_equal(s, s.conj().T)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown Pauli axis"):
            pauli("w")

    def test_copies_are_returned(self):
        a = pauli("z")
        a[0, 0] = 7
        assert pauli("z")[0, 0] == 1


class TestSzNv:
    def test_alpha_zero(self):
        assert np.allclose(sz_nv(0.0), 0.5 * pauli("z"), atol=0)

    def test_alpha_half_pi(self):
        assert np.allclose(sz_nv(math.pi / 2), 0.5 * pauli("x"), atol=1e-16)

    def test_alpha_pi_third(self):
        # the mixing angle used in every hybrid scenario
        expected = 0.5 * (0.5 * pauli("z") + (math.sqrt(3) / 2) * pauli("x"))
        assert np.allclose(sz_nv(math.pi / 3), expected, atol=1e-15)
        # eigenvalues +-1/2, by direct 2x2 diagonalization
        assert np.allclose(np.linalg.eigvalsh(sz_nv(math.pi / 3)), [-0.5, 0.5], atol=1e-15)

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_for_any_alpha(self, alpha):
        op = sz_nv(alpha)
        assert abs(np.trace(op)) < 1e-12
        assert abs(np.linalg.det(op) + 0.25) < 1e-12
        assert np.abs(op - op.conj().T).max() == 0


class TestEmbed:
    def test_site1_on_01(self):
        assert np.allclose(embed(pauli("z"), 1) @ basis_state("01"), basis_state("01"), atol=0)

    def test_site2_on_01(self):
        assert np.allclose(embed(pauli("z"), 2) @ basis_state("01"), -basis_state("01"), atol=0)

    def test_distinct_sites_commute_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_hermitian(rng, 2)
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            comm = commutator(embed(a, 1), embed(b, 2))
            assert np.all(comm == 0)  # bitwise zero, not just small

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 2)
        for site in (1, 2):
            e = embed(a, site)
            assert np.abs(e - e.conj().T).max() == 0

    def test_invalid_site(self):
        with pytest.raises(ValueError, match="site must be 1 or 2"):
            embed(pauli("z"), 3)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            embed(np.eye(4), 1)


class TestExpectation:
    def test_sz_site1_on_01(self):
        assert expectation(basis_state("01"), embed(sz_nv(0.0), 1)) == pytest.approx(0.5)

    def test_off_diagonal_operator(self):
        val = expectation(basis_state("01"), embed(sz_nv(math.pi / 2), 1))
        assert abs(val) < 1e-16

    def test_bell_symmetry(self):
        assert abs(expectation(bell_phi_minus(), embed(pauli("z"), 1))) < 1e-16

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert abs(expectation(psi, random_hermitian(rng)).imag) < 1e-12


class TestExpmHermitian:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(10)
        assert np.allclose(expm_hermitian(random_hermitian(rng), 0.0), I4, atol=1e-15)

    def test_diagonal_case(self):
        h = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
        t = 0.731
        expected = np.diag(np.exp(-1j * np.diag(h) * t))
        assert np.allclose(expm_hermitian(h, t), expected, atol=1e-15)

    def test_unitarity_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = expm_hermitian(random_hermitian(rng), rng.uniform(-5, 5))
            assert np.abs(u.conj().T @ u - I4).max() < 1e-10

    def test_against_taylor_series(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = random_hermitian(rng)
            t = rng.uniform(-2, 2)
            assert np.abs(expm_hermitian(h, t) - taylor_expm(h, t)).max() < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = random_hermitian(rng)
            t1, t2 = rng.uniform(-3, 3, size=2)
            lhs = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
            assert np.abs(lhs - expm_hermitian(h, t1 + t2)).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_hermitian(m, 1.0)


# the leading shapes of the stacks the call sites multiply by one operator:
# a single matrix, one member, an empty stack, a (k, T) sweep and a stack
# long enough that one product of its rows is split over OpenBLAS threads
_RDOT_LEADING = [(), (1,), (0,), (2, 300), (20001,)]


@st.composite
def rdot_operands(draw):
    """A (..., 4, 4) stack and one operand: a (4, 4) matrix, its conjugate
    transpose (a strided view), a (4, 1) column or a (4,) vector.  Every real
    and imaginary part comes from one drawn pool that holds 0.0 and -0.0.
    Times a matrix, the stack may be the conjugate transpose of a stack, as
    U^dagger is (times a vector, see test_strided_stack_times_vector)."""
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                                            st.floats(-1e100, 1e100)),
                                  min_size=1, max_size=12)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fill(shape):
        return pool[rng.integers(0, pool.size, shape + (2,))].view(complex)[..., 0]

    a = fill(draw(st.sampled_from(_RDOT_LEADING)) + (4, 4))
    m = draw(st.sampled_from([lambda: fill((4, 4)), lambda: _dagger(fill((4, 4))),
                              lambda: fill((4, 1)), lambda: fill((4,))]))()
    if m.ndim == 2 and m.shape[1] == 4 and draw(st.booleans()):
        a = _dagger(a)
    return a, m


class TestRdot:
    @given(rdot_operands())
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_matmul(self, operands):
        a, m = operands
        expected = a @ m
        got = _rdot(a, m)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(float), expected.view(float))

    def test_strided_stack_times_vector(self):
        # the product of the C-order copy: @ would take a transposed kernel
        rng = np.random.default_rng(5)
        a = _dagger(rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4)))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(_rdot(a, v).view(float), (np.ascontiguousarray(a) @ v).view(float))
        assert np.allclose(_rdot(a, v), a @ v, rtol=1e-14, atol=1e-14)

    def test_empty_stack(self):
        assert _rdot(np.zeros((0, 4, 4), dtype=complex), np.eye(4)).shape == (0, 4, 4)
        assert _rdot(np.zeros((3, 0, 4), dtype=complex), np.ones(4)).shape == (3, 0)


@st.composite
def dagger_stack_operands(draw):
    """A 4x4 matrix or a (..., 4, 4) stack, and one 4x4 operand, every entry
    from one drawn pool that holds 0.0 and -0.0."""
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                                            st.floats(-1e100, 1e100)),
                                  min_size=1, max_size=12)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leading = draw(st.sampled_from([(), (0,), (1,), (2, 300), (1906,)]))

    def fill(shape):
        return pool[rng.integers(0, pool.size, shape + (2,))].view(complex)[..., 0]

    return fill(leading + (4, 4)), fill((4, 4))


class TestConjugatedIntoCOrder:
    """U^dagger conjugated straight into C order, as otoc_product hands it to
    _rdot, gives the bytes of the product on the strided view."""

    @given(dagger_stack_operands())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_the_strided_view(self, operands):
        a, w = operands
        contiguous = np.conj(a.swapaxes(-1, -2), order="C")
        assert contiguous.flags.c_contiguous
        assert np.array_equal(contiguous.view(np.int64),
                              np.ascontiguousarray(_dagger(a)).view(np.int64))
        got, expected = _rdot(contiguous, w), _dagger(a) @ w
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestSpinParams:
    def test_direct_construction(self):
        sp = SpinParams(omega0=1.5, g=1.0, alpha=math.pi / 3)
        assert sp.omega0 == 1.5

    def test_negative_omega0_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpinParams(omega0=-1.0, g=1.0, alpha=0.0)

    @given(st.floats(0.01, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_from_rabi(self, omega_R, delta):
        sp = SpinParams.from_rabi(omega_R, delta, g=1.0)
        assert sp.omega0 == pytest.approx(math.hypot(omega_R, delta))
        assert sp.omega0 >= 0
        # tan(alpha) * delta = -omega_R, checked in product form to dodge poles
        assert abs(math.sin(sp.alpha) * delta + omega_R * math.cos(sp.alpha)) < \
            1e-12 * max(1.0, abs(omega_R), abs(delta))

    def test_site_operator_matches_alpha(self):
        sp = SpinParams(omega0=1.0, g=0.5, alpha=0.3)
        assert np.allclose(sp.site_operator(), sz_nv(0.3), atol=0)


class TestStates:
    def test_basis_labels(self):
        assert np.array_equal(basis_state("10"), np.array([0, 0, 1, 0], dtype=complex))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown basis label"):
            basis_state("2")

    def test_bell_normalized_and_antisymmetric(self):
        b = bell_phi_minus()
        assert np.linalg.norm(b) == pytest.approx(1.0)
        assert b[1] == -b[2]
        assert b[0] == b[3] == 0
