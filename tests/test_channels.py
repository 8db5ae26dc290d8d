import numpy as np
import pytest

from instability import channels as ch
from instability.errors import ValidationError
from instability.linalg import herm, trace_norm
from instability.sampling import (
    random_density,
    random_full_rank_density,
    random_hermitian,
    random_unitary,
)
from instability.tasks import matrix_units
from tests.conftest import random_channel

GAMMA = np.diag([1 / 3, 2 / 3]).astype(complex)


class TestStandardChannels:
    def test_dephaser_block_structure(self):
        c = ch.dephaser(2)
        assert len(c.blocks) == 2
        assert all(b.d_a == 1 and b.d_b == 1 for b in c.blocks)

    def test_dephaser_kills_offdiagonals(self):
        assert np.allclose(ch.dephaser(2).apply(ch.plus_state(2)), np.eye(2) / 2)

    def test_dephaser_rotated_basis(self, rng):
        u = random_unitary(3, rng)
        c = ch.dephaser(3, u)
        rho = random_density(3, rng)
        expected = sum(
            (u[:, x].conj() @ rho @ u[:, x]) * np.outer(u[:, x], u[:, x].conj())
            for x in range(3)
        )
        assert np.abs(c.apply(rho) - expected).max() <= 1e-12

    def test_replacer(self, rng):
        c = ch.replacer(GAMMA)
        assert len(c.blocks) == 1 and c.blocks[0].d_a == 2 and c.blocks[0].d_b == 1
        assert np.allclose(c.apply(random_density(2, rng)), GAMMA)

    def test_replacer_needs_full_rank(self):
        with pytest.raises(ValidationError):
            ch.replacer(np.diag([1.0, 0.0]).astype(complex))

    def test_depolarizer(self, rng):
        c = ch.depolarizer(3)
        assert np.allclose(c.apply(random_density(3, rng)), np.eye(3) / 3)

    def test_cond_depolarizer_on_entangled(self):
        c = ch.cond_depolarizer(2, 2)
        phi = ch.maximally_entangled_state(2)
        assert np.allclose(c.apply(phi), np.kron(np.eye(2) / 2, np.eye(2) / 2))

    def test_cond_replacer(self, rng):
        c = ch.cond_replacer(GAMMA, 2)
        rho = random_density(4, rng)
        out = c.apply(rho)
        from instability.linalg import partial_trace

        assert np.allclose(out, np.kron(GAMMA, partial_trace(rho, [2, 2], [1])))

    def test_tpce_self_adjoint(self):
        c = ch.tpce([(1, 2), (2, 1)])
        assert c.dim == 4
        for e in matrix_units(4):
            assert trace_norm(c.apply(e) - c.apply_dual(e)) <= 1e-10
        assert np.allclose(c.apply_dual(np.eye(4)), np.eye(4))

    def test_standard_channel_dispatch(self):
        assert ch.standard_channel("dephaser", dim=3).dim == 3
        assert ch.standard_channel("replacer", gamma=GAMMA).dim == 2
        with pytest.raises(ValidationError):
            ch.standard_channel("nonsense", dim=2)


class TestChannelAxioms:
    def test_trace_preserving(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            c = random_channel(d, rng)
            x = random_hermitian(d, rng)
            assert abs(np.trace(c.apply(x)) - np.trace(x)) <= 1e-12 * d

    def test_adjoint_identity(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            x = random_hermitian(d, rng)
            y = random_hermitian(d, rng)
            lhs = np.trace(c.apply(x) @ y)
            rhs = np.trace(x @ c.apply_dual(y))
            assert abs(lhs - rhs) <= 1e-10 * max(1, abs(lhs))

    def test_dual_unital(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            c = random_channel(d, rng)
            assert np.abs(c.apply_dual(np.eye(d)) - np.eye(d)).max() <= 1e-12

    def test_dual_image_is_an_algebra(self, rng):
        # products of dual-fixed observables stay dual-fixed
        for _ in range(50):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            x = c.apply_dual(random_hermitian(d, rng))
            y = c.apply_dual(random_hermitian(d, rng))
            prod = x @ y
            assert trace_norm(c.apply_dual(prod) - prod) <= 1e-9

    def test_fixed_state_full_rank(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            c = random_channel(d, rng)
            sigma = c.fixed_state()
            assert np.linalg.eigvalsh(sigma)[0] > 1e-8
            assert trace_norm(c.apply(sigma) - sigma) <= 1e-12

    def test_kraus_choi_roundtrip(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            ops = c.kraus()
            x = random_density(d, rng)
            via = sum(k @ x @ k.conj().T for k in ops)
            assert np.abs(via - c.apply(x)).max() <= 1e-10
            assert np.abs(sum(k.conj().T @ k for k in ops) - np.eye(d)).max() <= 1e-10

    def test_rejects_bad_basis(self):
        with pytest.raises(ValidationError):
            ch.DestructionChannel(
                2, np.array([[1, 1], [0, 1]], dtype=complex), ch.dephaser(2).blocks
            )

    def test_rejects_inconsistent_blocks(self):
        with pytest.raises(ValidationError):
            ch.DestructionChannel(
                3, np.eye(3, dtype=complex), ch.dephaser(2).blocks
            )


class TestTwist:
    def test_unital_twist_is_identity(self, rng):
        c = ch.dephaser(3)
        x = random_hermitian(3, rng)
        for r in (-1.0, 0.5, 2.0):
            assert np.abs(c.twist(x, r) - x).max() <= 1e-12

    def test_replacer_twist_of_identity(self):
        c = ch.replacer(GAMMA)
        # Delta(I) = 2 gamma, so twisting I at r=1 gives 2 gamma.
        assert np.abs(c.twist(np.eye(2), 1.0) - 2 * GAMMA).max() <= 1e-12

    def test_twist_inverse_roundtrip(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            x = random_hermitian(d, rng)
            r = float(rng.uniform(-1.5, 1.5))
            assert np.abs(c.twist(c.twist(x, r), -r) - x).max() <= 1e-9

    def test_twist_product_identities(self, rng):
        # For operators fixed by the channel or its dual, powers of the twist
        # interact with products and operator powers transparently.
        d = 4
        c = random_channel(d, rng)
        x = herm(c.apply(random_density(d, rng) * 2))
        y = herm(c.apply_dual(random_hermitian(d, rng)))
        for r, s in ((0.5, -0.5), (1.0, 1.0), (-0.7, 0.2)):
            lhs = c.twist(x, r) @ c.twist(y, s)
            rhs = c.twist(x @ y, r + s)
            assert np.abs(lhs - rhs).max() <= 1e-9
        z = random_hermitian(d, rng)
        for r in (0.5, -1.0):
            lhs = c.twist(x, r) @ z @ c.twist(x, r)
            rhs = x @ c.twist(z, 2 * r) @ x
            assert np.abs(lhs - rhs).max() <= 1e-9
        from instability.linalg import mat_pow

        pos = herm(c.apply(random_full_rank_density(d, rng, 0.2)))
        for r in (0.5, 2.0, -1.0):
            lhs = mat_pow(c.twist(pos, 1.0), r)
            rhs = c.twist(mat_pow(pos, r), r)
            assert np.abs(lhs - rhs).max() <= 1e-8


class TestComposition:
    def test_dephaser_squares_to_dephaser(self):
        c = ch.tensor_channels(ch.dephaser(2), ch.dephaser(2))
        d4 = ch.dephaser(4)
        for e in matrix_units(4):
            assert trace_norm(c.apply(e) - d4.apply(e)) <= 1e-12

    def test_replacer_tensor_replacer(self, rng):
        g1 = random_full_rank_density(2, rng, 0.2)
        g2 = random_full_rank_density(2, rng, 0.2)
        c = ch.tensor_channels(ch.replacer(g1), ch.replacer(g2))
        target = ch.replacer(np.kron(g1, g2))
        x = random_density(4, rng)
        assert np.abs(c.apply(x) - target.apply(x)).max() <= 1e-12

    def test_locality_on_products(self, rng):
        for _ in range(200):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            c1, c2 = random_channel(d1, rng), random_channel(d2, rng)
            c12 = ch.tensor_channels(c1, c2)
            a, b = random_density(d1, rng), random_density(d2, rng)
            lhs = c12.apply(np.kron(a, b))
            rhs = np.kron(c1.apply(a), c2.apply(b))
            assert trace_norm(lhs - rhs) <= 1e-10

    def test_composite_is_valid_channel(self, rng):
        c = ch.tensor_channels(
            ch.cond_depolarizer(2, 2), ch.replacer(random_full_rank_density(2, rng, 0.2))
        )
        for e in matrix_units(8):
            assert trace_norm(c.apply(c.apply(e)) - c.apply(e)) <= 1e-10


class TestFreeStates:
    def test_dephaser_free_states_are_diagonal(self):
        c = ch.dephaser(2)
        for sigma in ch.enumerate_free_grid(c, 5):
            assert np.abs(sigma - np.diag(np.diag(sigma))).max() <= 1e-14

    def test_replacer_grid_is_single_state(self):
        grid = ch.enumerate_free_grid(ch.replacer(GAMMA), 21)
        assert len(grid) == 1
        assert np.allclose(grid[0], GAMMA)

    def test_grid_elements_are_fixed(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            for sigma in ch.enumerate_free_grid(c, 5):
                assert trace_norm(c.apply(sigma) - sigma) <= 1e-10

    def test_free_state_weights_validation(self):
        c = ch.dephaser(2)
        with pytest.raises(ValidationError):
            ch.free_state(c, [0.7, 0.7], [np.eye(1), np.eye(1)])

    def test_parameter_count(self):
        assert ch.free_parameter_count(ch.dephaser(2)) == 1
        assert ch.free_parameter_count(ch.replacer(GAMMA)) == 0
        assert ch.free_parameter_count(ch.cond_depolarizer(2, 2)) == 3


class TestBlockDiagonal:
    def test_parts_land_on_their_blocks(self, rng):
        # One stack per block group, its members in block order, lands on
        # the members' blocks; a round trip through the original frame
        # keeps it there.
        c = ch.tpce([(1, 2), (2, 1), (1, 1), (1, 2)], basis=random_unitary(7, rng))
        parts = [random_hermitian(2, rng), np.zeros((2, 2)), random_hermitian(1, rng),
                 random_hermitian(2, rng)]
        stacks = [np.stack([parts[k] for k in g.members]) for g in c._groups]
        xb = c.to_block_frame(c.from_block_frame(c._scatter(stacks)))
        expected = np.zeros((7, 7), dtype=complex)
        expected[:2, :2], expected[4:5, 4:5], expected[5:, 5:] = parts[0], parts[2], parts[3]
        assert np.abs(xb - expected).max() <= 1e-12


class TestFreeUnitaries:
    def test_covariance_of_seeded_draws(self, rng):
        worst = 0.0
        for seed in range(100):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            u = ch.random_free_unitary(c, seed)
            assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-10
            for e in matrix_units(d):
                res = trace_norm(
                    u @ c.apply(e) @ u.conj().T - c.apply(u @ e @ u.conj().T)
                )
                worst = max(worst, res)
        assert worst <= 1e-10

    def test_dephaser_admits_phases(self):
        c = ch.dephaser(2)
        u = ch.random_free_unitary(c, 3)
        # any free unitary of a dephaser keeps the basis states fixed
        assert np.abs(c.apply(u @ ch.basis_state(2, 0) @ u.conj().T) - ch.basis_state(2, 0)).max() <= 1e-10


def blockwise_reference(c, x, act):
    """The channel action written out block by block with numpy.kron."""
    xb = c.basis.conj().T @ x @ c.basis
    out = np.zeros_like(xb)
    off = 0
    for b in c.blocks:
        s = slice(off, off + b.dim)
        off += b.dim
        out[s, s] = act(b, xb[s, s].reshape(b.d_a, b.d_b, b.d_a, b.d_b))
    return c.basis @ out @ c.basis.conj().T


class TestBatchedAction:
    """Blocks of one shape act together; the result is the per-block one."""

    @pytest.fixture
    def channels(self, rng):
        return [
            ch.dephaser(5),
            ch.cond_replacer(random_full_rank_density(2, rng, 0.2), 3),
            ch.tpce([(1, 2), (2, 1), (1, 2), (3, 1)], basis=random_unitary(9, rng)),
        ]

    @staticmethod
    def inputs(d, rng):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return [g, random_density(d, rng)]

    def test_cond_replacer_gamma_is_complex(self, channels):
        assert np.abs(channels[1].blocks[0].tau.imag).max() > 1e-3

    def test_apply_is_bitwise_per_block(self, channels, rng):
        for c in channels:
            for x in self.inputs(c.dim, rng):
                ref = blockwise_reference(
                    c, x, lambda b, m: np.kron(b.tau, np.einsum("abad->bd", m))
                )
                assert np.array_equal(c.apply(x), ref)

    def test_dual_and_tp_expectation_match_per_block(self, channels, rng):
        for c in channels:
            for x in self.inputs(c.dim, rng):
                tol = 1e-14 * np.linalg.norm(x, 2)
                dual = blockwise_reference(
                    c,
                    x,
                    lambda b, m: np.kron(np.eye(b.d_a), np.einsum("ae,ebad->bd", b.tau, m)),
                )
                tp = blockwise_reference(
                    c,
                    x,
                    lambda b, m: np.kron(np.eye(b.d_a) / b.d_a, np.einsum("abad->bd", m)),
                )
                assert np.linalg.norm(c.apply_dual(x) - dual, 2) <= tol
                assert np.linalg.norm(c.apply_tp_expectation(x) - tp, 2) <= tol

    def test_fixed_input_power_matches_per_block(self, channels):
        from instability.linalg import mat_pow

        for c in channels:
            eye = np.eye(c.dim)
            for r in (1.0, 0.5, -0.5, -1.0):
                ref = blockwise_reference(
                    c, eye, lambda b, m: np.kron(mat_pow(b.d_a * b.tau, r), np.eye(b.d_b))
                )
                scale = max(1.0, np.linalg.norm(ref, 2))
                assert np.linalg.norm(c.fixed_input_power(r) - ref, 2) <= 1e-14 * scale


class TestHermitianBasisCache:
    def test_small_bases_hit_the_cache(self):
        for d in (1, 2, ch.BASIS_CACHE_MAX_DIM):
            assert ch.hermitian_basis(d) is ch.hermitian_basis(d)
        big = ch.BASIS_CACHE_MAX_DIM + 1
        assert ch.hermitian_basis(big) is not ch.hermitian_basis(big)

    def test_no_large_basis_outlives_a_solve(self, rng):
        import tracemalloc

        from instability.programs import restricted_ht

        # The first dimension above the bound: its 1.3 MB basis is built for
        # the solve's 0 <= G <= I rows and must not survive it.
        d = ch.BASIS_CACHE_MAX_DIM + 1
        rho, channel = random_density(d, rng), ch.dephaser(d)
        basis_bytes = d**4 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            res = restricted_ht(rho, channel, 0.1)
            largest = max(t.size for t in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        assert np.isfinite(res.value)
        assert largest < basis_bytes
        assert all(d <= ch.BASIS_CACHE_MAX_DIM for d in ch._basis_cache)
