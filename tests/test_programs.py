import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import programs as pr
from instability.linalg import herm, spectral_norm
from instability.sampling import random_density, random_full_rank_density
from tests.conftest import random_channel

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
        # the iterates stay strictly complementary.
        channels = [
            ch.dephaser(3),
            ch.replacer(random_full_rank_density(3, rng, 0.3)),
            ch.tpce([(1, 2), (1, 1)]),
        ]
        for c in channels:
            for rank in (1, 2):
                sol = pr.restricted_ht(random_density(3, rng, rank=rank), c, 0.0).solution
                assert sol.primal_residual <= 1e-10
                assert sol.dual_residual <= 1e-10
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
                spectral_norm(c.apply_dual(res.gamma) - res.scale * np.eye(d)) <= 1e-8
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
        # restricted quantity is plain hypothesis testing against gamma
        for _ in range(10):
            d = int(rng.integers(2, 4))
            gamma = random_full_rank_density(d, rng, 0.2)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.6))
            sdp_val = pr.restricted_ht(rho, ch.replacer(gamma), eps).value
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
            lhs = pr.ht_free(rho, ch.replacer(gamma), eps).value
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
            assert dual_top <= res.scale + 1e-10


class TestSmoothedDmax:
    def test_eps_zero_replacer(self, rng):
        for _ in range(5):
            rho = random_density(2, rng)
            res = pr.dmax_smoothed_free(rho, ch.replacer(GAMMA), 0.0)
            assert res.value == pytest.approx(dv.d_max(rho, GAMMA), abs=1e-7)

    def test_eps_zero_dephaser_grid(self, rng):
        for _ in range(3):
            rho = random_density(2, rng)
            res = pr.dmax_smoothed_free(rho, DEPH2, 0.0)
            grid = ch.enumerate_free_grid(DEPH2, 2001)
            oracle = min(dv.d_max(rho, s) for s in grid)
            assert res.value == pytest.approx(oracle, abs=1e-3)

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
