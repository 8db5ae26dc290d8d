"""The closed forms that run on the channel's block-group stacks, each held
against the per-block or dense formula it replaced, and their cost in d x d
decompositions."""

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import linalg as la
from instability import optimize as op
from instability import programs as pr
from instability.linalg import herm, mat_pow, pow_from_eigh, schatten_norm, support_projector
from instability.sampling import random_density, random_full_rank_density, random_unitary
from tests.conftest import block_dual_reduction, place_blocks, random_channel

TOL = 1e-12


def channel_family(rng):
    """random_channel draws and channels with several block groups."""
    gamma = random_full_rank_density(2, rng, 0.3)
    return [
        *[random_channel(int(d), rng) for d in rng.integers(2, 6, size=6)],
        ch.tpce([(2, 2), (1, 3), (2, 2)]),
        ch.cond_replacer(gamma, 2),
        ch.dephaser(4, random_unitary(4, rng)),
        ch.tensor_channels(ch.dephaser(2), ch.tpce([(1, 2), (1, 1)])),
        ch.tensor_channels(ch.cond_replacer(gamma, 2), ch.dephaser(2)),
        ch.tensor_channels(ch.replacer(gamma), ch.replacer(gamma)),
    ]


def per_block_pure_dmax(psi, channel):
    """The value 2 log2 sum_i ||tau_i^{-1/2} Psi_i||_1 and its optimizer,
    one block at a time."""
    phi = channel.basis.conj().T @ psi
    cuts = np.cumsum([b.dim for b in channel.blocks])[:-1]
    total, roots = 0.0, []
    for b, part in zip(channel.blocks, np.split(phi, cuts)):
        root = pow_from_eigh(*np.linalg.eigh(b.tau), -0.5)
        _, s, vh = np.linalg.svd(root @ part.reshape(b.d_a, b.d_b), full_matrices=False)
        total += float(s.sum())
        roots.append((vh.T * s) @ vh.conj())
    omega = place_blocks(channel, [np.kron(b.tau, total * r) for b, r in zip(channel.blocks, roots)])
    return 2.0 * float(np.log2(total)), channel.basis @ omega @ channel.basis.conj().T


def dense_z1(x, r, channel):
    """(value, sigma_*, residual) of the z = 1 closed form from d x d matrices."""
    twisted = herm(channel.apply_dual(channel.twist(x, r - 1.0)))
    core = channel.twist(mat_pow(twisted, 1.0 / (1.0 - r)), 1.0)
    sigma = herm(core / np.trace(core).real)
    residual = op.fixed_point_residual(sigma, op.TraceFunctionalSpec(x, r, 1.0, channel))
    return schatten_norm(twisted, 1.0 / (1.0 - r)), sigma, residual


def per_block_d_min(rho, channel):
    """lambda_max(Delta^*(rho^0)), one block at a time."""
    proj = channel.basis.conj().T @ support_projector(rho) @ channel.basis
    return max(
        np.linalg.eigvalsh(herm(block_dual_reduction(channel, proj, i)))[-1]
        for i in range(len(channel.blocks))
    )


def test_pure_dmax_matches_per_block(rng):
    for channel in channel_family(rng):
        for _ in range(3):
            rho = random_density(channel.dim, rng, rank=1)
            w, v = np.linalg.eigh(rho)
            value, omega = per_block_pure_dmax(np.sqrt(w[-1]) * v[:, -1], channel)
            res = pr.dmax_smoothed_free(rho, channel, 0.0)
            assert res.method == "closed_form"
            assert abs(res.value - value) <= TOL
            assert np.abs(res.omega - omega).max() <= TOL * np.trace(omega).real


def test_fixed_state_dmax_matches_d_max(rng):
    gamma = random_full_rank_density(2, rng, 0.3)
    for channel in (
        ch.replacer(random_full_rank_density(3, rng, 0.3)),
        ch.depolarizer(4),
        ch.tensor_channels(ch.replacer(gamma), ch.replacer(gamma)),
        ch.tensor_channels(ch.replacer(gamma), ch.depolarizer(2)),
    ):
        fixed = channel.fixed_state()
        for rank in range(2, channel.dim + 1):
            rho = random_density(channel.dim, rng, rank=rank)
            res = pr.dmax_smoothed_free(rho, channel, 0.0)
            assert res.method == "closed_form" and np.array_equal(res.tau, rho)
            assert abs(res.value - dv.d_max(rho, fixed)) <= TOL
            assert np.abs(res.omega - 2.0**res.value * fixed).max() <= TOL * 2.0**res.value


def test_z1_matches_dense(rng):
    for channel in channel_family(rng):
        d = channel.dim
        for x, r in (
            (herm(random_full_rank_density(d, rng, 0.1) * rng.uniform(0.5, 3.0)), rng.uniform(-1.0, 0.9)),
            (random_density(d, rng, rank=max(1, d // 2)), rng.uniform(0.0, 0.9)),
        ):
            value, sigma, residual = dense_z1(x, float(r), channel)
            res = op.z1_closed_form(x, float(r), channel)
            assert abs(res.value - value) <= TOL * max(1.0, value)
            assert np.abs(res.sigma_star - sigma).max() <= TOL
            assert abs(res.residual - residual) <= TOL


def test_one_free_state_matches_dense(rng):
    gamma = random_full_rank_density(2, rng, 0.3)
    for channel in (ch.replacer(random_full_rank_density(3, rng, 0.3)),
                    ch.tensor_channels(ch.replacer(gamma), ch.depolarizer(2))):
        fixed = channel.fixed_state()
        for r, z in ((0.5, 1.0), (-0.4, 0.8), (0.3, 1.7)):
            spec = op.TraceFunctionalSpec(random_density(channel.dim, rng), r, z, channel)
            res = op.optimize_trace_functional(spec)
            assert res.method == "closed_form_z1"
            assert abs(res.value - op._functional_value(fixed, spec.x, r, z)) <= TOL
            assert np.abs(res.sigma_star - fixed).max() <= TOL
            assert abs(res.residual - op.fixed_point_residual(fixed, spec)) <= TOL


def test_d_min_matches_per_block(rng):
    for channel in channel_family(rng):
        d = channel.dim
        for rank in sorted({1, max(1, d // 2), d}):
            rho = random_density(d, rng, rank=rank)
            top = per_block_d_min(rho, channel)
            assert abs(op.d_min_free(rho, channel) + np.log2(top)) <= TOL
            res = op.petz_free(rho, 0.0, channel)
            sigma = res.sigma_star
            # a free state that attains the overlap
            assert np.abs(channel.apply(sigma) - sigma).max() <= TOL
            assert abs(np.trace(sigma).real - 1.0) <= TOL
            assert abs(np.trace(sigma @ support_projector(rho)).real - top) <= TOL


def test_petz_two_of_a_pure_state_is_its_d_max(rng):
    # Petz alpha = 2 of a pure state is 2 log2 sum_i ||tau_i^{-1/2} Psi_i||_1,
    # the pure-state D_max: at r = -1 the z = 1 value sums sqrt(w) over the
    # eigenvalues w of Psi_i^dag tau_i^{-1} Psi_i / d_A^2, where roundoff
    # below the rank cut would add about 1e-8 bits.
    for channel in (
        ch.cond_depolarizer(2, 3),
        ch.tpce([(2, 2), (1, 3)]),
        ch.cond_replacer(np.diag([0.3, 0.7]), 3),
        ch.dephaser(4),
    ):
        for _ in range(20):
            rho = random_density(channel.dim, rng, rank=1)
            dmax = pr.dmax_smoothed_free(rho, channel, 0.0)
            assert dmax.method == "closed_form"
            assert abs(op.petz_free(rho, 2.0, channel).value - dmax.value) <= TOL


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of eigh/eigvalsh and svd calls by the size of the matrices
    they decompose, and of spectral norms (which run an SVD inside numpy)."""
    calls = {}

    def spy(owner, name, key):
        fn = getattr(owner, name)

        def counted(a, *args, **kwargs):
            size = key(a)
            calls[name, size] = calls.get((name, size), 0) + 1
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("eigh", "eigvalsh", "svd"):
        spy(np.linalg, name, lambda a: np.shape(a)[-1])
    spy(la, "spectral_norm", lambda a: "any")
    return calls


def test_closed_forms_make_one_full_size_decomposition(rng, decompositions):
    channel = ch.tensor_channels(ch.tpce([(2, 2), (1, 3), (2, 2)]), ch.dephaser(2))
    d = channel.dim
    pure = random_density(d, rng, rank=1)
    x = herm(random_full_rank_density(d, rng, 0.1))
    rho = random_density(d, rng, rank=3)
    for run, validation in (
        (lambda: pr.dmax_smoothed_free(pure, channel, 0.0), "eigh"),
        (lambda: op.z1_closed_form(x, 0.4, channel), "eigvalsh"),
        (lambda: op.d_min_free(rho, channel), "eigh"),
        (lambda: pr.ht_free(rho, channel, 0.0), "eigh"),
    ):
        decompositions.clear()
        run()
        full = {k: n for k, n in decompositions.items() if k[1] in (d, "any")}
        assert full == {(validation, d): 1}
