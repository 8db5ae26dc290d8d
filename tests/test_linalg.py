import numpy as np
import pytest

from instability import channels as ch
from instability import linalg as la
from instability import tasks as tk
from instability.errors import ValidationError
from instability.sampling import (
    random_density,
    random_full_rank_density,
    random_hermitian,
    random_unitary,
)


class TestEigh:
    def test_diagonal(self):
        w, v = la.eigh(np.diag([2.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = la.eigh(x)
        assert np.allclose(w, [-1.0, 1.0])
        # columns proportional to (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        for col, sign in zip(v.T, (-1, 1)):
            col = col / col[0]
            assert np.allclose(col, [1, sign])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            la.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


class TestMatPow:
    def test_scalar_matrix(self):
        assert np.allclose(la.mat_pow(np.eye(2) / 4, 0.5), np.eye(2) / 2)

    def test_support_pseudo_inverse(self):
        out = la.mat_pow(np.diag([4.0, 0.0]).astype(complex), -1.0)
        assert np.allclose(out, np.diag([0.25, 0.0]))

    def test_cube_root_roundtrip(self, rng):
        rho = random_density(3, rng)
        root = la.mat_pow(rho, 1.0 / 3.0)
        assert np.abs(root @ root @ root - rho).max() <= 1e-9

    def test_zero_power_is_support_projector(self):
        proj = la.mat_pow(np.diag([0.5, 0.0, 0.5]).astype(complex), 0.0)
        assert np.allclose(proj, np.diag([1.0, 0.0, 1.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            la.mat_pow(np.diag([1.0, -1.0]).astype(complex), 0.5)


class TestValidateOnce:
    """The exact-Hermitian fast path and mat_pow's one decomposition are no looser."""

    @staticmethod
    def off_hermitian(rng, h, eps):
        """h plus an anti-Hermitian part of spectral norm eps."""
        k = random_hermitian(h.shape[0], rng)
        return h + 1j * eps * k / la.spectral_norm(k)

    def test_off_by_1e9_raises(self, rng):
        with pytest.raises(ValidationError, match="not Hermitian"):
            la.check_hermitian(self.off_hermitian(rng, random_hermitian(6, rng), 1e-9))
        p = self.off_hermitian(rng, random_full_rank_density(6, rng, 0.1), 1e-9)
        with pytest.raises(ValidationError, match="not Hermitian"):
            la.mat_pow(p, 0.5)

    def test_off_by_1e14_is_symmetrized(self, rng):
        m = self.off_hermitian(rng, random_hermitian(6, rng), 1e-14)
        assert not np.array_equal(m, m.conj().T)
        out = la.check_hermitian(m)
        assert np.array_equal(out, la.herm(m))
        assert np.array_equal(out, out.conj().T)

    def test_exact_input_is_returned_as_a_copy(self, rng):
        m = random_hermitian(5, rng)
        out = la.check_hermitian(m)
        assert np.array_equal(out, m) and out is not m

    def test_mat_pow_rejects_small_negative_eigenvalue(self, rng):
        u = random_unitary(4, rng)
        for p in (
            np.diag([1.0, 0.5, 0.25, -1e-6]).astype(complex),
            la.herm(u @ np.diag([1.0, 0.5, 0.25, -1e-6]) @ u.conj().T),
        ):
            with pytest.raises(ValidationError, match="negative eigenvalue"):
                la.mat_pow(p, 0.5)

    def test_mat_pow_exact_input_makes_one_eigh_and_no_svd(self, rng, linalg_calls):
        p = la.herm(random_full_rank_density(8, rng, 0.1))
        la.mat_pow(p, 0.5)
        assert linalg_calls == {"eigh": 1, "eigvalsh": 0, "svd": 0, "spectral_norm": 0}
        # An input within tolerance whose Frobenius bound settles the test
        # takes no spectral norm.
        la.mat_pow(p + 1j * 1e-15 * random_hermitian(8, rng), 0.5)
        assert linalg_calls == {"eigh": 2, "eigvalsh": 0, "svd": 0, "spectral_norm": 0}


class TestFrobeniusBounds:
    """The three tolerance tests decide as the spectral-norm rule does, on
    skews of 0.5, 0.99, 1.01 and 2 times the tolerance."""

    FACTORS = (0.5, 0.99, 1.01, 2.0)
    DIMS = (1, 2, 3, 8, 16)

    @staticmethod
    def skew(d, rank_one, rng):
        """A Hermitian direction of spectral norm 1, of rank 1 or full rank."""
        if rank_one:
            v = random_unitary(d, rng)[:, 0]
            return np.outer(v, v.conj())
        u = random_unitary(d, rng)
        w = np.r_[1.0, rng.uniform(0.1, 1.0, d - 1)] * rng.choice((-1.0, 1.0), d)
        return la.herm((u * w) @ u.conj().T)

    def cases(self, rng):
        for d in self.DIMS:
            for rank_one in (True, False):
                for f in self.FACTORS:
                    yield d, self.skew(d, rank_one, rng), f

    def test_check_hermitian(self, rng, linalg_calls):
        spectral = 0
        for d, k, f in self.cases(rng):
            # ||M||_2 below and above 1, and past where a Frobenius norm overflows
            for size in (0.5, 3.0, 1e160):
                h = random_hermitian(d, rng)
                h *= size / la.spectral_norm(h)
                # M - M^dagger = 2i c K, of spectral norm f t max(1, ||M||_2)
                m = h + 1j * (f * la.HERMITICITY_RTOL * max(1.0, size) / 2) * k
                expect = la.spectral_norm(m - m.conj().T) <= la.HERMITICITY_RTOL * max(
                    1.0, la.spectral_norm(m)
                )
                before = linalg_calls["spectral_norm"]
                if expect:
                    assert np.array_equal(la.check_hermitian(m), la.herm(m))
                else:
                    with pytest.raises(ValidationError, match="not Hermitian"):
                        la.check_hermitian(m)
                spectral += linalg_calls["spectral_norm"] > before
        assert spectral  # some cases fall in the band between the bounds
        with pytest.raises(ValidationError, match="not Hermitian"):
            la.check_hermitian([[0.0, 1e160], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            la.psd_eigh([[1e160, 1e160], [0.0, 1e160]])

    def test_channel_basis(self, rng):
        for d, k, f in self.cases(rng):
            # u u^dagger - I = f t K for u = (I + f t K)^{1/2} V
            w, v = np.linalg.eigh(np.eye(d) + f * ch.UNITARY_TOL * k)
            u = (v * np.sqrt(w)) @ v.conj().T @ random_unitary(d, rng)
            expect = la.spectral_norm(u @ u.conj().T - np.eye(d)) <= ch.UNITARY_TOL
            if expect:
                assert np.array_equal(ch._check_basis(u, d), u)
            else:
                with pytest.raises(ValidationError, match="not unitary"):
                    ch._check_basis(u, d)

    def test_compose_effect_scalar_dual(self, rng):
        gamma, ch_a, t = np.diag([1.0, 0.0]).astype(complex), ch.dephaser(2), 1.0
        for d, k, f in self.cases(rng):
            # the dephaser's dual image is the diagonal: 2^-t I + f 1e-8 diag(K)
            ch_b = ch.dephaser(d)
            p = np.diag(k).real
            lam = np.diag(2.0**-t + f * 1e-8 * p / np.abs(p).max()).astype(complex)
            dual_b = la.herm(ch_b.apply_dual(lam))
            expect = la.spectral_norm(dual_b - 2.0**-t * np.eye(d)) <= 1e-8
            if expect:
                out = tk.compose_effect(gamma, lam, t, ch_a, ch_b)
                assert out.shape == (2 * d, 2 * d)
            else:
                with pytest.raises(ValidationError, match="scalar-dual"):
                    tk.compose_effect(gamma, lam, t, ch_a, ch_b)


class TestSchattenNorm:
    def test_operator_norm(self):
        assert la.schatten_norm(np.eye(2) / 2, np.inf) == pytest.approx(0.5)

    def test_pythagorean(self):
        assert la.schatten_norm(np.diag([3.0, 4.0]).astype(complex), 2) == pytest.approx(5.0)

    def test_quasi_norm(self):
        # (1^{1/2} + 1^{1/2})^2 = 4
        assert la.schatten_norm(np.eye(2, dtype=complex), 0.5) == pytest.approx(4.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            la.schatten_norm(np.eye(2), 0.25)


class TestTensorAndPartialTrace:
    def test_roundtrip_product(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.eye(2, dtype=complex) / 2
        prod = la.tensor_product(a, b)
        assert np.allclose(la.partial_trace(prod, [2, 2], keep=[0]), a)

    def test_marginals_of_maximally_entangled(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        phi = np.outer(v, v.conj())
        for keep in ([0], [1]):
            assert np.allclose(la.partial_trace(phi, [2, 2], keep), np.eye(2) / 2)

    def test_trace_preserved(self, rng):
        for _ in range(20):
            x = random_hermitian(12, rng)
            pt = la.partial_trace(x, [2, 3, 2], keep=[1])
            assert np.trace(pt) == pytest.approx(np.trace(x).real)

    def test_exact_on_products(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        prod = la.tensor_product(a, b)
        back = la.partial_trace(prod, [2, 3], keep=[0]) / np.trace(b).real
        assert np.abs(back - a).max() <= 1e-12

    def test_ordering_left_significant(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 4.0]).astype(complex)
        assert np.allclose(np.diag(la.tensor_product(a, b)), [3, 4, 6, 8])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            la.partial_trace(np.eye(6, dtype=complex), [2, 2], keep=[0])


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(3, rng)
        assert la.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert la.trace_distance(a, b) == pytest.approx(1.0)

    def test_classical_total_variation(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert la.trace_distance(a, b) == pytest.approx(0.2)


class TestValidators:
    def test_density_checks(self, rng):
        la.check_density(random_density(4, rng))
        with pytest.raises(ValidationError):
            la.check_density(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(ValidationError):
            la.check_density(np.diag([1.5, -0.5]).astype(complex))

    def test_effect_checks(self):
        la.check_effect(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValidationError):
            la.check_effect(np.diag([1.2, 0.3]).astype(complex))
