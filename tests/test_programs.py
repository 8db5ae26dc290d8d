import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import programs as pr
from instability import sdp
from instability import tasks as tk
from instability.linalg import check_density, herm, rank_tol, spectral_norm
from instability.sampling import random_density, random_full_rank_density, random_unitary
from tests.conftest import block_dual_reduction, place_blocks, random_channel

PLUS = ch.plus_state(2)
DEPH2 = ch.dephaser(2)
GAMMA = np.diag([1 / 3, 2 / 3]).astype(complex)


def restricted_qubit_dephaser_oracle(rho, eps, grid=400001):
    """Scalar-dual effects of a qubit dephaser are c*I plus an off-diagonal
    term of modulus at most min(c, 1-c); scanning c and taking the phase of
    the off-diagonal aligned with rho gives the optimum directly."""
    r = abs(rho[0, 1])
    best = None
    for c in np.linspace(0.0, 1.0, grid):
        reach = c + 2 * r * min(c, 1 - c)
        if reach >= 1 - eps - 1e-12:
            best = c
            break
    return -np.log2(best) if best and best > 0 else np.inf


class TestRestrictedHt:
    def test_plus_eps_zero(self):
        res = pr.restricted_ht(PLUS, DEPH2, 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert np.abs(res.gamma - PLUS).max() <= 1e-6

    def test_eps_zero_face(self, rng):
        # At eps = 0 the program runs on the face of perfect tests, where
        # the iterates stay strictly complementary.  The replacer's
        # one-dimensional algebra takes the exact scan, with no solve.
        channels = [
            ch.dephaser(3),
            ch.replacer(random_full_rank_density(3, rng, 0.3)),
            ch.tpce([(1, 2), (1, 1)]),
        ]
        for c, method in zip(channels, ("sdp", "neyman_pearson", "sdp")):
            for rank in (1, 2):
                res = pr.restricted_ht(random_density(3, rng, rank=rank), c, 0.0)
                assert res.method == method
                if method != "sdp":
                    assert res.solution is None
                    continue
                assert res.solution.primal_residual <= 1e-10
                assert res.solution.dual_residual <= 1e-10
        for d in (2, 4, 9):
            res = pr.restricted_ht(ch.plus_state(d), ch.dephaser(d), 0.0)
            assert res.value == pytest.approx(np.log2(d), abs=1e-9)

    def test_full_rank_forces_identity(self, rng):
        rho = random_full_rank_density(2, rng)
        res = pr.restricted_ht(rho, DEPH2, 0.0)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_free_state_any_eps(self, rng):
        sigma = ch.random_free_state(DEPH2, rng)
        for eps in (0.0, 0.2, 0.5):
            res = pr.restricted_ht(sigma, DEPH2, eps)
            assert res.value == pytest.approx(-np.log2(1 - eps), abs=1e-7)

    def test_eps_one_degenerate(self, rng):
        res = pr.restricted_ht(random_density(2, rng), DEPH2, 1.0)
        assert res.value == np.inf
        assert np.allclose(res.gamma, 0)

    def test_witness_constraints_reverified(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.5))
            res = pr.restricted_ht(rho, c, eps)
            w = np.linalg.eigvalsh(res.gamma)
            assert w[0] >= -1e-8 and w[-1] <= 1 + 1e-8
            assert np.trace(rho @ res.gamma).real >= 1 - eps - 1e-8
            assert (
                spectral_norm(c.apply_dual(res.gamma) - res.type_two_error * np.eye(d)) <= 1e-8
            )

    def test_against_qubit_dephaser_oracle(self, rng):
        for _ in range(10):
            rho = random_density(2, rng)
            eps = float(rng.uniform(0.0, 0.6))
            sdp_val = pr.restricted_ht(rho, DEPH2, eps).value
            oracle = restricted_qubit_dephaser_oracle(rho, eps)
            assert sdp_val == pytest.approx(oracle, abs=1e-3)

    def test_against_replacer_oracle(self, rng):
        # under a replacer every effect has scalar dual image, so the
        # restricted quantity is plain hypothesis testing against gamma; the
        # interior-point body is tested, since restricted_ht itself runs the
        # Neyman-Pearson scan here
        for _ in range(10):
            d = int(rng.integers(2, 4))
            gamma = random_full_rank_density(d, rng, 0.2)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.6))
            sdp_val = pr._restricted_ht_sdp(rho, ch.replacer(gamma), eps).value
            oracle = dv.d_hypothesis(rho, gamma, eps)
            assert sdp_val == pytest.approx(oracle, abs=1e-7)

    def test_currency_additivity(self, rng):
        # h^eps(rho (x) phi_t) = h^eps(rho) + t
        rho = random_density(2, rng)
        for t in (1.0, 2.0):
            gamma_t = np.diag([2.0**-t, 1 - 2.0**-t]).astype(complex)
            joint = ch.tensor_channels(DEPH2, ch.replacer(gamma_t))
            state = np.kron(rho, ch.basis_state(2, 0))
            for eps in (0.0, 0.15):
                lhs = pr.restricted_ht(state, joint, eps).value
                rhs = pr.restricted_ht(rho, DEPH2, eps).value + t
                assert lhs == pytest.approx(rhs, abs=1e-6)


class TestHtFree:
    def test_replacer_reduction(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            gamma = random_full_rank_density(d, rng, 0.2)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.6))
            lhs = pr._ht_free_sdp(rho, ch.replacer(gamma), eps).value
            rhs = dv.d_hypothesis(rho, gamma, eps)
            assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_dephaser_plus_analytic(self):
        for eps in (0.0, 0.1, 0.3):
            res = pr.ht_free(PLUS, DEPH2, eps)
            assert res.value == pytest.approx(1 - np.log2(1 - eps), abs=1e-8)

    def test_dominates_restricted(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.5))
            free = pr.ht_free(rho, c, eps).value
            restr = pr.restricted_ht(rho, c, eps).value
            assert free >= restr - 1e-7

    def test_grid_oracle_dephaser(self, rng):
        # D_H^eps to the free set is the minimum of plain hypothesis testing
        # over free states
        for _ in range(5):
            rho = random_density(2, rng)
            eps = float(rng.uniform(0.05, 0.4))
            sdp_val = pr.ht_free(rho, DEPH2, eps).value
            grid = ch.enumerate_free_grid(DEPH2, 801)
            oracle = min(dv.d_hypothesis(rho, s, eps) for s in grid)
            assert sdp_val == pytest.approx(oracle, abs=1e-3)

    def test_currency_splitting(self, rng):
        # the free hypothesis-testing divergence gains exactly t bits from
        # an attached currency unit phi_t
        rho = random_density(2, rng)
        for t in (1.0, 1.7):
            gamma_t = np.diag([2.0**-t, 1 - 2.0**-t]).astype(complex)
            joint = ch.tensor_channels(DEPH2, ch.replacer(gamma_t))
            state = np.kron(rho, ch.basis_state(2, 0))
            for eps in (0.0, 0.2):
                lhs = pr.ht_free(state, joint, eps).value
                rhs = pr.ht_free(rho, DEPH2, eps).value + t
                assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_witness_feasible(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.4))
            res = pr.ht_free(rho, c, eps)
            w = np.linalg.eigvalsh(res.gamma)
            assert w[0] >= -1e-8 and w[-1] <= 1 + 1e-8
            assert np.trace(rho @ res.gamma).real >= 1 - eps - 1e-8
            dual_top = np.linalg.eigvalsh(herm(c.apply_dual(res.gamma)))[-1]
            assert dual_top <= res.type_two_error + 1e-10


class TestExactPath:
    """One block with d_B = 1: both tests are D_H^eps(rho || gamma)."""

    def test_trivial_algebra_takes_the_scan(self, rng, monkeypatch):
        gamma2 = random_full_rank_density(2, rng, 0.3)
        battery = ch.tensor_channels(ch.replacer(gamma2), tk.currency(1.0).channel)
        channels = {
            "replacer": ch.replacer(random_full_rank_density(3, rng, 0.3)),
            "depolarizer": ch.depolarizer(3),
            "replacer (x) replacer": ch.tensor_channels(ch.replacer(gamma2), ch.replacer(GAMMA)),
            "battery joint": battery,
        }

        def refuse(self, **kw):
            raise AssertionError("interior-point solve on the exact path")

        monkeypatch.setattr(sdp.HermitianProgram, "solve", refuse)
        for name, c in channels.items():
            rho = random_density(c.dim, rng, rank=c.dim - 1)
            for run, eps in ((pr.restricted_ht, 0.1), (pr.restricted_ht, 0.0), (pr.ht_free, 0.1)):
                res = run(rho, c, eps)
                assert res.method == "neyman_pearson", name
                assert res.solution is None and res.interval == (res.value, res.value)
                want = dv.d_hypothesis(rho, c.fixed_state(), eps)
                assert res.value == pytest.approx(want, abs=1e-12), name
                scalar = res.type_two_error * np.eye(c.dim)
                assert spectral_norm(c.apply_dual(res.gamma) - scalar) <= 1e-12

    def test_other_channels_stay_on_the_sdp(self, rng):
        channels = [
            ch.tensor_channels(ch.dephaser(2), ch.replacer(GAMMA)),
            ch.cond_replacer(GAMMA, 2),
        ]
        for c in channels:
            rho = random_density(c.dim, rng)
            assert pr.restricted_ht(rho, c, 0.1).method == "sdp"
            assert pr.ht_free(rho, c, 0.1).method == "sdp"

    def test_closed_forms(self, rng):
        rho = random_density(2, rng)
        full = random_full_rank_density(2, rng)
        assert pr.ht_free(rho, DEPH2, 0.0).method == "closed_form"
        assert pr.ht_free(rho, ch.replacer(GAMMA), 0.0).method == "closed_form"
        assert pr.restricted_ht(full, DEPH2, 0.0).method == "closed_form"
        assert pr.restricted_ht(rho, DEPH2, 1.0).method == "closed_form"
        assert pr.ht_free(rho, DEPH2, 1.0).method == "closed_form"

    def test_sdp_matches_neyman_pearson(self, rng):
        worst = 0.0
        for _ in range(40):
            d = int(rng.integers(2, 5))
            gamma = random_full_rank_density(d, rng, 0.2)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.05, 0.4))
            rep = ch.replacer(gamma)
            exact = dv.neyman_pearson(rho, gamma, eps).value
            assert pr.restricted_ht(rho, rep, eps).value == pytest.approx(exact, abs=1e-12)
            for body in (pr._restricted_ht_sdp, pr._ht_free_sdp):
                res = body(rho, rep, eps)
                assert res.method == "sdp"
                worst = max(worst, abs(res.value - exact))
        assert worst <= 1e-8


def pure_state(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def assert_pure_witness(res, rho, channel):
    """omega >= rho, omega free and log2 tr omega the value, each to 1e-12
    of tr omega."""
    size = np.trace(res.omega).real
    assert np.linalg.eigvalsh(herm(res.omega - rho))[0] >= -1e-12 * size
    assert spectral_norm(channel.apply(res.omega) - res.omega) <= 1e-12 * size
    assert np.log2(size) == pytest.approx(res.value, abs=1e-12)


class TestSmoothedDmax:
    def test_eps_zero_replacer(self, rng):
        for _ in range(5):
            rho = random_density(2, rng)
            for body in (pr.dmax_smoothed_free, pr._dmax_smoothed_sdp):
                res = body(rho, ch.replacer(GAMMA), 0.0)
                assert res.value == pytest.approx(dv.d_max(rho, GAMMA), abs=1e-7)

    def test_eps_zero_dephaser_grid(self, rng):
        for _ in range(3):
            rho = random_density(2, rng)
            grid = ch.enumerate_free_grid(DEPH2, 2001)
            oracle = min(dv.d_max(rho, s) for s in grid)
            for body in (pr.dmax_smoothed_free, pr._dmax_smoothed_sdp):
                res = body(rho, DEPH2, 0.0)
                assert res.value == pytest.approx(oracle, abs=1e-3)

    def test_pure_closed_form_matches_sdp(self, rng):
        channels = [
            ch.dephaser(4),
            ch.dephaser(4, random_unitary(4, rng)),
            ch.tpce([(2, 1), (1, 2)]),
            ch.cond_replacer(random_full_rank_density(2, rng, 0.3), 2),
            ch.cond_depolarizer(2, 2),
            ch.replacer(random_full_rank_density(3, rng, 0.3)),
            ch.tensor_channels(ch.dephaser(2), ch.tpce([(1, 2), (1, 1)])),
        ]
        worst = 0.0
        for channel in channels:
            for _ in range(3):
                rho = random_density(channel.dim, rng, rank=1)
                res = pr.dmax_smoothed_free(rho, channel, 0.0)
                assert res.method == "closed_form"
                assert np.array_equal(res.tau, rho)
                assert_pure_witness(res, rho, channel)
                worst = max(worst, abs(res.value - pr._dmax_smoothed_sdp(rho, channel, 0.0).value))
        assert worst <= 1e-7

    def test_pure_known_forms(self, rng):
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho = pure_state(psi)
            # Dephaser: the l1-norm of coherence, log2 (sum_i |psi_i|)^2.
            res = pr.dmax_smoothed_free(rho, ch.dephaser(4), 0.0)
            assert res.value == pytest.approx(2 * np.log2(np.abs(psi).sum()), abs=1e-12)
            # Replacer: D_max(psi psi^dagger || gamma) = log2 psi^dagger gamma^{-1} psi.
            gamma = random_full_rank_density(4, rng, 0.3)
            res = pr.dmax_smoothed_free(rho, ch.replacer(gamma), 0.0)
            exact = np.log2(np.vdot(psi, np.linalg.solve(gamma, psi)).real)
            assert res.value == pytest.approx(exact, abs=1e-12)

    def test_pure_degenerate_inputs(self, rng):
        res = pr.dmax_smoothed_free(ch.basis_state(4, 2), ch.dephaser(4), 0.0)
        assert res.method == "closed_form" and res.value == 0.0
        # No weight in the (1, 2) block: the (2, 1) block alone, tau = I/2.
        channel = ch.tpce([(2, 1), (1, 2)])
        rho = pure_state(np.concatenate([rng.normal(size=2) + 1j * rng.normal(size=2), [0, 0]]))
        res = pr.dmax_smoothed_free(rho, channel, 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert_pure_witness(res, rho, channel)
        # A near-singular tau: on this draw the interior-point body stops at max_iter.
        channel = ch.cond_replacer(np.diag([1 - 1e-6, 1e-6]), 2)
        rho = random_density(4, rng, rank=1)
        res = pr.dmax_smoothed_free(rho, channel, 0.0)
        assert res.method == "closed_form" and np.isfinite(res.value)
        assert_pure_witness(res, rho, channel)

    def test_one_dimensional_algebra_closed_form(self):
        # The n-fold replacer power: the interior-point body stops at
        # max_iter at n = 5 and sits 1.6e-8 below the exact value at n = 4.
        gamma = random_full_rank_density(2, np.random.default_rng(4), 0.3)
        channel = ch.replacer(gamma)
        for n in range(1, 6):
            if n > 1:
                channel = ch.tensor_channels(channel, ch.replacer(gamma))
            rho = random_density(2**n, np.random.default_rng(3))
            res = pr.dmax_smoothed_free(rho, channel, 0.0)
            assert res.method == "closed_form" and np.array_equal(res.tau, rho)
            omega = 2.0**res.value * channel.fixed_state()
            assert np.abs(res.omega - omega).max() <= 1e-12 * 2.0**res.value
            if n <= 3:
                assert abs(res.value - pr._dmax_smoothed_sdp(rho, channel, 0.0).value) <= 1e-7
        assert abs(res.value - 7.954608367427186) <= 1e-12

    def test_mixed_and_smoothed_states_take_the_sdp(self, rng):
        channel = ch.dephaser(3)
        pure = random_density(3, rng, rank=1)
        for rho, eps in ((random_density(3, rng, rank=2), 0.0), (pure, 0.1)):
            assert pr.dmax_smoothed_free(rho, channel, eps).method == "sdp"

    def test_nonincreasing_in_eps(self, rng):
        rho = random_density(3, rng)
        c = random_channel(3, rng)
        vals = [pr.dmax_smoothed_free(rho, c, e).value for e in (0.0, 0.05, 0.2, 0.4)]
        assert all(vals[i + 1] <= vals[i] + 1e-7 for i in range(len(vals) - 1))

    def test_witness_certifies_value(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.3))
            res = pr.dmax_smoothed_free(rho, c, eps)
            # tau inside the ball, omega in the free cone, omega >= tau
            from instability.linalg import trace_distance

            tau = res.tau / np.trace(res.tau).real
            assert trace_distance(tau, rho) <= eps + 1e-6
            assert np.linalg.eigvalsh(herm(res.omega - res.tau))[0] >= -1e-7
            assert spectral_norm(c.apply(res.omega) - res.omega) <= 1e-7
            assert np.log2(max(np.trace(res.omega).real, 1e-300)) == pytest.approx(
                res.value, abs=1e-6
            )


class TestSchurWeyl:
    """qubit_power_blocks against rho^{(x)n} built explicitly."""

    @pytest.mark.parametrize("rank", [2, 1], ids=["full-rank", "rank-1"])
    def test_blocks_reproduce_the_tensor_power(self, rank, rng):
        from math import comb

        for _ in range(3):
            rho = random_density(2, rng, rank=rank)
            rho_n = rho
            for n in range(1, 7):
                rho_n = rho if n == 1 else np.kron(rho_n, rho)
                blocks = pr.qubit_power_blocks(rho, n)
                assert [ell for ell, _, _ in blocks] == list(range(n // 2 + 1))
                assert sum(m * (n - 2 * ell + 1) for ell, m, _ in blocks) == 2**n
                for k in range(n + 1):
                    assert sum(m for ell, m, _ in blocks if ell <= min(k, n - k)) == comb(n, k)
                assert sum(m * np.trace(r).real for _, m, r in blocks) == pytest.approx(
                    1.0, abs=1e-13
                )
                spectrum = np.sort(np.concatenate(
                    [np.repeat(np.linalg.eigvalsh(r), m) for _, m, r in blocks]
                ))
                assert np.abs(spectrum - np.linalg.eigvalsh(rho_n)).max() <= 1e-13
                # Dicke index a of block l has Hamming weight l + a: the
                # blocks carry the diagonal mass of each weight class.
                weight = np.array([bin(x).count("1") for x in range(2**n)])
                mass = np.zeros(n + 1)
                for ell, m, r in blocks:
                    mass[ell:n - ell + 1] += m * np.diagonal(r).real
                assert np.abs(
                    mass - np.bincount(weight, weights=np.diagonal(rho_n).real)
                ).max() <= 1e-13
                # Block 0 is rho^{(x)n} on the Dicke states.
                dicke = np.stack([(weight == a) / np.sqrt(comb(n, a)) for a in range(n + 1)], 1)
                assert np.abs(blocks[0][2] - dicke.T @ rho_n @ dicke).max() <= 1e-13

    def test_every_block_is_a_dicke_projection(self, rng):
        # R_l = det(rho)^l Sym^N(rho), N = n - 2l, on the N-qubit Dicke states.
        from math import comb

        for rank in (2, 1):
            rho = random_density(2, rng, rank=rank)
            det = np.linalg.det(rho).real
            for n in range(1, 7):
                for ell, _, r in pr.qubit_power_blocks(rho, n):
                    big_n = n - 2 * ell
                    rho_n = np.eye(1)
                    for _ in range(big_n):
                        rho_n = np.kron(rho_n, rho)
                    weight = np.array([bin(x).count("1") for x in range(2**big_n)])
                    dicke = np.stack(
                        [(weight == a) / np.sqrt(comb(big_n, a)) for a in range(big_n + 1)], 1
                    )
                    assert np.abs(r - det**ell * dicke.T @ rho_n @ dicke).max() <= 1e-14

    def test_blocks_past_int64_binomials(self, rng):
        # C(68, 34) > 2^63: the binomials and multiplicities are floats.
        for rank in (2, 1):
            rho = random_density(2, rng, rank=rank)
            for n in (68, 100):
                blocks = pr.qubit_power_blocks(rho, n)
                assert len(blocks) == n // 2 + 1
                assert sum(m * (n - 2 * ell + 1) for ell, m, _ in blocks) == pytest.approx(
                    2.0**n, rel=1e-12
                )
                assert abs(sum(m * np.trace(r).real for _, m, r in blocks) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Row assembly: each program emits its Hermitian-basis rows as one family;
# the built problem must equal one assembled a row at a time.
# ---------------------------------------------------------------------------


class _Built(Exception):
    pass


def built_problem(monkeypatch, run):
    """The SdpProblem a program builds, taken at HermitianProgram.solve."""
    seen = []

    def capture(self):
        seen.append(self.build())
        raise _Built

    monkeypatch.setattr(sdp.HermitianProgram, "solve", capture)
    with pytest.raises(_Built):
        run()
    return seen[0]


def one_row(prog, terms, rhs, sense="=="):
    prog.add_constraint(terms, float(rhs), sense=sense)


def twin_frame(channel, rho):
    """The channel's identity-basis twin and rho in the channel's block
    frame, the Hermitian part of U^dagger rho U: the pair every program is
    assembled on."""
    return ch.DestructionChannel(channel.dim, np.eye(channel.dim), channel.blocks), (
        herm(channel.to_block_frame(rho))
    )


def algebra_rows(twin):
    """(Delta(I_A (x) h), d_A tr h, block i, d_A h) one row at a time, for
    each block i and h in hermitian_basis(d_B), with the row computed by the
    twin's channel action on I_A (x) h placed on block i."""
    for i, b in enumerate(twin.blocks):
        for h in ch.hermitian_basis(b.d_b):
            parts = [None] * len(twin.blocks)
            parts[i] = np.kron(np.eye(b.d_a), h)
            yield twin.apply(place_blocks(twin, parts)), b.d_a * np.real(np.trace(h)), i, b.d_a * h


def reference_restricted_ht(rho, channel, eps):
    twin, rho = twin_frame(channel, rho)
    d = channel.dim
    prog = sdp.HermitianProgram()
    g, s, c = prog.add_hermitian(d), prog.add_hermitian(d), prog.add_scalar()
    prog.add_objective(c, 1.0)
    for h in ch.hermitian_basis(d):
        one_row(prog, {g: h, s: h}, np.real(np.trace(h)))
    for row, unit, _, _ in algebra_rows(twin):
        one_row(prog, {g: row, c: -unit}, 0.0)
    one_row(prog, {g: rho}, 1.0 - eps, ">=")
    return prog.build()


def reference_restricted_face(rho, channel):
    twin, rho = twin_frame(channel, rho)
    d = channel.dim
    w, v = np.linalg.eigh(rho)
    live = w > rank_tol(d, w[-1])
    p, q = v[:, live] @ v[:, live].conj().T, v[:, ~live]
    k = q.shape[1]
    prog = sdp.HermitianProgram()
    g, s, c = prog.add_hermitian(k), prog.add_hermitian(k), prog.add_scalar()
    prog.add_objective(c, 1.0)
    for h in ch.hermitian_basis(k):
        one_row(prog, {g: h, s: h}, np.real(np.trace(h)))
    for row, unit, _, _ in algebra_rows(twin):
        one_row(prog, {g: q.conj().T @ row @ q, c: -unit}, -np.real(np.trace(row @ p)))
    return prog.build()


def reference_ht_free(rho, channel, eps):
    twin, rho = twin_frame(channel, rho)
    d = channel.dim
    prog = sdp.HermitianProgram()
    g, s, c = prog.add_hermitian(d), prog.add_hermitian(d), prog.add_scalar()
    z = [prog.add_hermitian(b.d_b) for b in channel.blocks]
    prog.add_objective(c, 1.0)
    for h in ch.hermitian_basis(d):
        one_row(prog, {g: h, s: h}, np.real(np.trace(h)))
    for row, unit, i, slack in algebra_rows(twin):
        one_row(prog, {g: row, c: -unit, z[i]: slack}, 0.0)
    one_row(prog, {g: rho}, 1.0 - eps, ">=")
    return prog.build()


def reference_dmax(rho, channel, eps):
    twin, rho = twin_frame(channel, rho)
    d = channel.dim
    prog = sdp.HermitianProgram()
    rr = prog.add_hermitian(d)
    betas = [prog.add_hermitian(b.d_b) for b in channel.blocks]
    for beta, b in zip(betas, channel.blocks):
        prog.add_objective(beta, np.eye(b.d_b))

    def omega_terms(h):
        return {beta: block_dual_reduction(twin, h, i) for i, beta in enumerate(betas)}

    basis = ch.hermitian_basis(d)
    if eps == 0.0:
        for h in basis:
            one_row(prog, {rr: -h, **omega_terms(h)}, np.real(np.trace(h.conj().T @ rho)))
        return prog.build()
    t, p, q = prog.add_hermitian(d), prog.add_hermitian(d), prog.add_hermitian(d)
    one_row(prog, {p: np.eye(d)}, eps, "<=")
    for h in basis:
        one_row(prog, {q: h, p: -h, t: h}, np.real(np.trace(h.conj().T @ rho)))
    for h in basis:
        one_row(prog, {t: -h, rr: -h, **omega_terms(h)}, 0.0)
    one_row(prog, {t: np.eye(d)}, 1.0)
    return prog.build()


def assembly_channels():
    rng = np.random.default_rng(7)
    return {
        "dephaser": ch.dephaser(3),
        "rotated-dephaser": ch.dephaser(3, basis=random_unitary(3, rng)),
        "tpce": ch.tpce([(1, 2), (1, 1)]),
        "replacer": ch.replacer(random_full_rank_density(3, rng, 0.3)),
    }


def assembly_states():
    rng = np.random.default_rng(11)
    return check_density(random_density(3, rng)), check_density(random_density(3, rng, rank=2))


class TestAssembly:
    @pytest.mark.parametrize("name", list(assembly_channels()))
    def test_programs_match_one_row_assembly(self, name, monkeypatch):
        channel = assembly_channels()[name]
        rho, face = assembly_states()
        cases = [
            (lambda: pr._restricted_ht_sdp(rho, channel, 0.1), reference_restricted_ht(rho, channel, 0.1)),
            (lambda: pr._restricted_ht_sdp(face, channel, 0.0), reference_restricted_face(face, channel)),
            (lambda: pr._ht_free_sdp(rho, channel, 0.1), reference_ht_free(rho, channel, 0.1)),
            (lambda: pr._dmax_smoothed_sdp(rho, channel, 0.0), reference_dmax(rho, channel, 0.0)),
            (lambda: pr.dmax_smoothed_free(rho, channel, 0.05), reference_dmax(rho, channel, 0.05)),
        ]
        for run, ref in cases:
            got = built_problem(monkeypatch, run)
            assert got.block_dims == ref.block_dims
            assert got.hermitian == ref.hermitian
            for field in ("A", "b", "c"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), field

    def test_reduced_programs_at_one_copy_match_the_tensor_programs(self, monkeypatch):
        # At n = 1 the Schur-Weyl blocks are rho itself, so each reduced
        # program must build the tensor path's problem on dephaser(2); only
        # `hermitian` may differ (1x1 beta_i against scalar f_k).
        channel = ch.dephaser(2)
        rng = np.random.default_rng(13)
        pure = check_density(random_density(2, rng, rank=1))
        mixed = check_density(random_density(2, rng))
        cases = [
            (lambda r, e: pr._symmetric_restricted_ht(pr.qubit_power_blocks(r, 1), 1, e),
             pr._restricted_ht_sdp, [(mixed, 0.05), (pure, 0.05), (pure, 0.0)]),
            (lambda r, e: pr._symmetric_dmax_free(pr.qubit_power_blocks(r, 1), 1, e),
             pr._dmax_smoothed_sdp, [(mixed, 0.0), (mixed, 0.05), (pure, 0.0), (pure, 0.05)]),
        ]
        for reduced, tensor, inputs in cases:
            for rho, eps in inputs:
                got = built_problem(monkeypatch, lambda: reduced(rho, eps))
                want = built_problem(monkeypatch, lambda: tensor(rho, channel, eps))
                assert got.block_dims == want.block_dims, (tensor.__name__, eps)
                for field in ("A", "b", "c"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_basis_reduced_once_per_block(self, monkeypatch):
        # One D_max build reduces the whole (d^2, d, d) basis stack in one
        # batched dual_marginals call, for every block group at once.
        channel = ch.dephaser(16)
        calls = []
        real = ch.DestructionChannel.dual_marginals

        def counting(self, xb, ops=None):
            calls.append(np.shape(xb))
            return real(self, xb, ops)

        monkeypatch.setattr(ch.DestructionChannel, "dual_marginals", counting)
        rho = random_density(16, np.random.default_rng(3))
        for eps in (0.0, 0.05):
            calls.clear()
            built_problem(monkeypatch, lambda: pr.dmax_smoothed_free(rho, channel, eps))
            assert calls == [(256, 16, 16)]

    def test_rotated_channel_builds_its_twin_problem(self, monkeypatch):
        # Every program is assembled in the block frame: on dephaser(d, U)
        # it builds the problem dephaser(d) builds at U^dagger rho U, and
        # returns the same value.
        rng = np.random.default_rng(17)
        u = random_unitary(3, rng)
        rotated, plain = ch.dephaser(3, u), ch.dephaser(3)
        rho = check_density(random_density(3, rng))
        rho_b = herm(u.conj().T @ rho @ u)
        for run in (
            lambda r, c: pr._restricted_ht_sdp(r, c, 0.1),
            lambda r, c: pr._ht_free_sdp(r, c, 0.1),
            lambda r, c: pr._dmax_smoothed_sdp(r, c, 0.0),
            lambda r, c: pr._dmax_smoothed_sdp(r, c, 0.05),
        ):
            got = built_problem(monkeypatch, lambda: run(rho, rotated))
            want = built_problem(monkeypatch, lambda: run(rho_b, plain))
            assert got.block_dims == want.block_dims
            for field in ("A", "b", "c"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            monkeypatch.undo()
            assert abs(run(rho, rotated).value - run(rho_b, plain).value) <= 1e-10

    def test_family_matches_single_rows(self, rng):
        # A <= family of two rows with a scalar term gets two slacks, each in
        # its own row, as two one-row calls do.
        mats = np.stack([random_density(2, rng) for _ in range(2)])
        family, rows = sdp.HermitianProgram(), sdp.HermitianProgram()
        for prog in (family, rows):
            x, y = prog.add_hermitian(2), prog.add_scalar()
            prog.add_objective(x, np.eye(2))
            if prog is family:
                prog.add_constraint({x: mats, y: [1.0, -2.0]}, [0.5, 0.25], sense="<=")
            else:
                for k, (coef, rhs) in enumerate(zip([1.0, -2.0], [0.5, 0.25])):
                    prog.add_constraint({x: mats[k], y: coef}, rhs, sense="<=")
        got, want = family.build(), rows.build()
        assert got.block_dims == want.block_dims == [2, 1, 1, 1]
        assert got.hermitian == want.hermitian == [True, False, False, False]
        for field in ("A", "b", "c"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


# ---------------------------------------------------------------------------
# The realified problem as an oracle: each n x n Hermitian block X solved as
# the real 2n x 2n block [[Re X, -Im X], [Im X, Re X]] must give the value
# the native Hermitian solve gives.
# ---------------------------------------------------------------------------


def realify(problem):
    """The real problem equivalent to a built Hermitian one.

    The 2n x 2n block of X is PSD iff X is, and each Hermitian coefficient
    K becomes half its realified block, so that the real inner products
    reproduce Re tr(KX).
    """

    def real_block(k):
        return np.block([[k.real, -k.imag], [k.imag, k.real]])

    dims, a_cols, c_cols = [], [], []
    for n, hermitian, seg in zip(problem.block_dims, problem.hermitian, problem.segments):
        if not hermitian:
            dims.append(n)
            a_cols.append(problem.A[:, seg])
            c_cols.append(problem.c[seg])
            continue

        def convert(v, n=n):
            return sdp.svec(real_block(sdp.hmat(v, n)) / 2)

        dims.append(2 * n)
        a_cols.append(np.stack([convert(row[seg]) for row in problem.A]))
        c_cols.append(convert(problem.c[seg]))
    return sdp.SdpProblem(dims, np.concatenate(c_cols), np.hstack(a_cols), problem.b)


class TestRealifiedOracle:
    @pytest.mark.parametrize("name", list(assembly_channels()))
    def test_native_matches_realified(self, name, monkeypatch):
        channel = assembly_channels()[name]
        rho, face = assembly_states()
        runs = [
            lambda: pr._restricted_ht_sdp(rho, channel, 0.1),
            lambda: pr._restricted_ht_sdp(face, channel, 0.0),
            lambda: pr._ht_free_sdp(rho, channel, 0.1),
            lambda: pr._dmax_smoothed_sdp(rho, channel, 0.0),
            lambda: pr.dmax_smoothed_free(rho, channel, 0.05),
        ]
        for run in runs:
            problem = built_problem(monkeypatch, run)
            real = realify(problem)
            assert not any(real.hermitian)
            assert sum(real.block_dims) == sum(
                n * (2 if h else 1) for n, h in zip(problem.block_dims, problem.hermitian)
            )
            native = sdp.solve(problem)
            oracle = sdp.solve(real)
            assert native.status == oracle.status == "optimal"
            assert abs(native.primal_objective - oracle.primal_objective) <= 1e-9


class TestSolverDefaults:
    def test_every_program_solves_at_the_solver_defaults(self, monkeypatch):
        """No program overrides sdp.solve's acceptance thresholds: each
        interior-point path calls it with no keywords."""
        channel = assembly_channels()["dephaser"]
        rho, face = assembly_states()
        blocks = pr.qubit_power_blocks(random_full_rank_density(2, np.random.default_rng(5)), 3)
        runs = {
            "restricted eps>0": lambda: pr.restricted_ht(rho, channel, 0.1),
            "restricted face": lambda: pr.restricted_ht(face, channel, 0.0),
            "ht_free": lambda: pr.ht_free(rho, channel, 0.1),
            "dmax eps=0": lambda: pr.dmax_smoothed_free(rho, channel, 0.0),
            "dmax eps>0": lambda: pr.dmax_smoothed_free(rho, channel, 0.05),
            "reduced restricted": lambda: pr._symmetric_restricted_ht(blocks, 3, 0.05),
            "reduced dmax": lambda: pr._symmetric_dmax_free(blocks, 3, 0.05),
        }
        solve = sdp.solve
        for name, run in runs.items():
            calls = []

            def record(problem, **kw):
                calls.append(kw)
                return solve(problem, **kw)

            monkeypatch.setattr(sdp, "solve", record)
            run()
            assert calls and all(kw == {} for kw in calls), (name, calls)
