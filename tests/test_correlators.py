import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchannel.correlators import _heisenberg, otoc_product
from spinchannel.spin_algebra import (_dagger, _rdot, basis_state, bell_phi_minus, embed,
                                      expm_hermitian, pauli)

from oracles import otoc_commutator, two_point

S1Z = embed(pauli("z"), 1)
S2Z = embed(pauli("z"), 2)
I4 = np.eye(4, dtype=complex)


def haar_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def haar_stack(rng, leading):
    z = rng.normal(size=leading + (4, 4)) + 1j * rng.normal(size=leading + (4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def strided_view_otoc_product(U, psi0, W, V):
    """F and G2 of otoc_product as written with every conjugate transpose a
    strided view, the expression the contiguous products must reproduce."""
    Wt = _rdot(_dagger(U), W) @ U
    wt_v_psi = _rdot(Wt, (V @ psi0)[:, None])
    F = (psi0.conj() @ (_dagger(Wt) @ (_dagger(V) @ wt_v_psi)))[..., 0][()]
    G2 = (psi0.conj() @ wt_v_psi)[..., 0][()]
    return F, G2


def brute_force_F(U, psi0, W, V):
    """Plain left-to-right matrix chain, kept independent of the library."""
    Wt = U.conj().T @ W @ U
    m = Wt.conj().T @ V.conj().T @ Wt @ V
    return np.vdot(psi0, m @ psi0)


class TestOtocProduct:
    def test_identity_propagator(self):
        rec = otoc_product(I4, basis_state("01"), S1Z, S2Z)
        assert rec.F == pytest.approx(1.0)
        assert rec.C == 0.0

    def test_record_relation(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rec = otoc_product(haar_unitary(rng), random_state(rng), S1Z, S2Z)
            assert rec.C == 1.0 - rec.F.real  # identity by construction
            assert -1e-12 <= rec.C <= 2.0 + 1e-12

    def test_product_unitary_gives_zero(self):
        # W(t) stays on site 1 and commutes with the site-2 probe
        rng = np.random.default_rng(22)
        for _ in range(30):
            U = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rec = otoc_product(U, random_state(rng), S1Z, S2Z)
            assert abs(rec.C) < 1e-10

    def test_against_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            U, psi0 = haar_unitary(rng), random_state(rng)
            W, V = haar_unitary(rng), haar_unitary(rng)
            rec = otoc_product(U, psi0, W, V)
            assert rec.F == pytest.approx(brute_force_F(U, psi0, W, V), abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            U, psi0 = haar_unitary(rng), random_state(rng)
            base = otoc_product(U, psi0, S1Z, S2Z).C
            ph_state = np.exp(1j * rng.uniform(0, 2 * np.pi))
            ph_u = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert otoc_product(U, ph_state * psi0, S1Z, S2Z).C == pytest.approx(base, abs=1e-12)
            assert otoc_product(ph_u * U, psi0, S1Z, S2Z).C == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (0,), (1,), (2, 300), (1906,)]))
    @settings(max_examples=30, deadline=None)
    def test_same_bytes_as_the_strided_view_products(self, seed, leading):
        # random complex probes and state: a contiguous copy in a GEMV
        # contraction (V^dagger, Wt^dagger) would round otherwise
        rng = np.random.default_rng(seed)
        U, W, V = haar_stack(rng, leading), haar_unitary(rng), haar_unitary(rng)
        psi0 = random_state(rng)
        F, G2 = strided_view_otoc_product(U, psi0, W, V)
        # a given W(t) selects no behaviour: the same bytes as forming it
        given = otoc_product(U, psi0, W, V, Wt=_heisenberg(U, W))
        for rec in (otoc_product(U, psi0, W, V), given):
            for got, expected in ((rec.F, F), (rec.G2, G2), (rec.C, 1.0 - F.real)):
                assert np.shape(got) == leading
                assert np.array_equal(np.atleast_1d(got).view(np.int64),
                                      np.atleast_1d(expected).view(np.int64))

    def test_given_heisenberg_operator_must_match_U(self):
        U = haar_stack(np.random.default_rng(31), (5,))
        Wt = _heisenberg(U, S1Z)
        for wrong in (Wt[:4], Wt[0], Wt[:, :3]):
            with pytest.raises(ValueError, match="does not match U of shape"):
                otoc_product(U, basis_state("01"), S1Z, S2Z, Wt=wrong)
        U[2] *= 1.0 + 1e-6  # and U is still checked
        with pytest.raises(ValueError, match="U is not unitary"):
            otoc_product(U, basis_state("01"), S1Z, S2Z, Wt=Wt)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="U is not unitary"):
            otoc_product(2.0 * I4, basis_state("01"), S1Z, S2Z)
        with pytest.raises(ValueError, match="not normalized"):
            otoc_product(I4, 2.0 * basis_state("01"), S1Z, S2Z)

    def test_rejects_nan(self):
        # a NaN defect compares False with the tolerance, and is still rejected
        U = haar_stack(np.random.default_rng(30), (5,))
        U[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match="U is not unitary"):
            otoc_product(U, basis_state("01"), S1Z, S2Z)
        psi0 = basis_state("01")
        psi0[2] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            otoc_product(I4, psi0, S1Z, S2Z)
        W = S1Z.copy()
        W[0, 0] = np.nan
        with pytest.raises(ValueError, match="W is not unitary"):
            otoc_product(I4, basis_state("01"), W, S2Z)


class TestOtocCommutator:
    def test_matches_product_form(self):
        rng = np.random.default_rng(25)
        for k in range(200):
            U, psi0 = haar_unitary(rng), random_state(rng)
            if k % 2 == 0:
                W, V = S1Z, S2Z
            else:
                W, V = haar_unitary(rng), haar_unitary(rng)
            assert otoc_commutator(U, psi0, W, V) == \
                pytest.approx(otoc_product(U, psi0, W, V).C, abs=1e-10)

    def test_commuting_operators(self):
        rng = np.random.default_rng(26)
        U = np.kron(haar_unitary(rng, 2), np.eye(2))
        assert otoc_commutator(U, basis_state("01"), S1Z, S2Z) < 1e-12

    def test_identity_probes(self):
        rng = np.random.default_rng(27)
        assert otoc_commutator(haar_unitary(rng), basis_state("01"), I4, I4) == 0.0


class TestTwoPoint:
    def test_identity_on_01(self):
        assert two_point(I4, basis_state("01"), S1Z, S2Z) == pytest.approx(-1.0)

    def test_identity_on_00(self):
        assert two_point(I4, basis_state("00"), S1Z, S2Z) == pytest.approx(1.0)

    def test_x_rotation_of_site1(self):
        # rotating site 1 by theta about x turns <s1z(t) s2z> into -cos(2 theta)
        for theta in (0.0, 0.3, 1.1, np.pi / 2):
            U = np.kron(expm_hermitian(pauli("x"), theta), np.eye(2))
            val = two_point(U, basis_state("01"), S1Z, S2Z)
            assert val == pytest.approx(-np.cos(2 * theta), abs=1e-12)
            # cross-check with an explicit matrix product
            brute = np.vdot(basis_state("01"),
                            U.conj().T @ S1Z @ U @ S2Z @ basis_state("01"))
            assert val == pytest.approx(brute, abs=1e-14)

    def test_bounded_for_pauli_probes(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            val = two_point(haar_unitary(rng), random_state(rng), S1Z, S2Z)
            assert abs(val) <= 1.0 + 1e-12

    def test_otoc_record_carries_same_value(self):
        rng = np.random.default_rng(29)
        U, psi0 = haar_unitary(rng), random_state(rng)
        rec = otoc_product(U, psi0, S1Z, S2Z)
        assert rec.G2 == pytest.approx(two_point(U, psi0, S1Z, S2Z), abs=1e-14)
