import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability.errors import BudgetError, SolverError, ValidationError
from instability.linalg import herm, mat_pow, schatten_norm, trace_norm
from instability.sampling import random_density, random_full_rank_density
from tests.conftest import random_channel

PLUS = ch.plus_state(2)
DEPH2 = ch.dephaser(2)
GAMMA = np.diag([1 / 3, 2 / 3]).astype(complex)


class TestZ1ClosedForm:
    def test_unital_channel_specialization(self, rng):
        # For a unital channel the twist is trivial: sigma* ~ Delta(X)^{1/(1-r)}
        c = ch.dephaser(3)
        x = herm(random_full_rank_density(3, rng) * 2.0)
        r = 0.4
        res = op.z1_closed_form(x, r, c)
        target = mat_pow(c.apply(x), 1 / (1 - r))
        target /= np.trace(target).real
        assert np.abs(res.sigma_star - target).max() <= 1e-10
        assert res.value == pytest.approx(schatten_norm(c.apply(x), 1 / (1 - r)))

    def test_dephaser_plus_half(self):
        res = op.z1_closed_form(PLUS, 0.5, DEPH2)
        assert np.abs(res.sigma_star - np.eye(2) / 2).max() <= 1e-12
        assert res.value == pytest.approx(1 / np.sqrt(2))

    def test_pythagorean_identity(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            x = herm(random_full_rank_density(d, rng) * rng.uniform(0.5, 3.0))
            r = float(rng.uniform(-0.9, 0.9))
            res = op.z1_closed_form(x, r, c)
            sigma = ch.random_free_state(c, rng)
            sigma = herm(0.9 * sigma + 0.1 * c.fixed_state())
            f_sigma = op._functional_value(sigma, x, r, 1.0)
            split = res.value * op.pythagorean_factor(sigma, res.sigma_star, r)
            assert abs(f_sigma - split) <= 1e-9 * max(1.0, abs(f_sigma))

    def test_rejects_r_one(self):
        with pytest.raises(ValidationError):
            op.z1_closed_form(PLUS, 1.0, DEPH2)


class TestFixedPoint:
    def test_replacer_shortcut(self, rng):
        spec = op.TraceFunctionalSpec(random_density(2, rng), 0.5, 1.0, ch.replacer(GAMMA))
        res = op.optimize_trace_functional(spec)
        assert np.abs(res.sigma_star - GAMMA).max() <= 1e-12

    def test_symmetric_dephaser_instance(self):
        spec = op.TraceFunctionalSpec(PLUS, 0.3, 1.0, DEPH2)
        res = op.optimize_trace_functional(spec)
        assert np.abs(res.sigma_star - np.eye(2) / 2).max() <= 1e-9

    def test_residual_contract(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            rho = random_full_rank_density(d, rng)
            alpha = float(rng.choice([0.3, 0.5, 0.9, 1.3, 1.8]))
            spec = op.TraceFunctionalSpec(mat_pow(rho, alpha), 1 - alpha, 1.0, c)
            res = op.optimize_trace_functional(spec, method="fixed_point")
            assert res.method == "fixed_point"
            assert res.residual <= 1e-9
            assert trace_norm(c.apply(res.sigma_star) - res.sigma_star) <= 1e-9

    def test_matches_closed_form(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            c = random_channel(d, rng)
            rho = random_full_rank_density(d, rng)
            alpha = float(rng.choice([0.3, 0.5, 0.9, 1.3, 1.8]))
            cf = op.petz_free(rho, alpha, c)
            spec = op.TraceFunctionalSpec(mat_pow(rho, alpha), 1 - alpha, 1.0, c)
            fp = op.optimize_trace_functional(spec, method="fixed_point")
            assert np.log2(fp.value) / (alpha - 1) == pytest.approx(cf.value, abs=1e-8)

    def test_z_not_one_against_grid(self, rng):
        for _ in range(5):
            c = ch.dephaser(2)
            rho = random_density(2, rng)
            spec = op.TraceFunctionalSpec(mat_pow(rho, 0.5 / 1.2), (1 - 0.5) / 1.2, 1.2, c)
            res = op.optimize_trace_functional(spec)
            _, grid_val = op.grid_oracle(spec, resolution=101)
            # concave direction: the optimizer cannot be beaten by the grid
            assert res.value >= grid_val - 1e-6
            assert abs(res.value - grid_val) <= 2e-3


    def test_accepted_iteration_makes_two_mat_pow_calls(self, rng, monkeypatch):
        counts = {"mat_pow": 0, "trace_norm": 0}

        def count(name):
            fn = getattr(op, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(op, name, counted)

        rho = random_full_rank_density(6, rng, 0.05)
        spec = op.TraceFunctionalSpec(
            mat_pow(rho, 0.5 / 0.75), 0.5 / 0.75, 0.75, ch.tpce([(1, 3), (1, 3)])
        )
        count("mat_pow")
        count("trace_norm")
        res = op.optimize_trace_functional(spec, method="fixed_point")
        assert res.method == "fixed_point"
        # One trace norm per accepted step, and one for the final residual.
        accepted = counts["trace_norm"] - 1
        rejected = res.iterations - accepted
        assert accepted >= 5
        # sigma^{r/2} once at the start; per accepted step one new half power
        # and one z-th power in the map; one half power per rejected step;
        # two for the final residual.
        assert counts["mat_pow"] <= 1 + 2 * accepted + rejected + 2


class TestPetzFree:
    def test_plus_half_alpha(self):
        res = op.petz_free(PLUS, 0.5, DEPH2)
        assert res.value == pytest.approx(1.0)
        assert np.abs(res.sigma_star - np.eye(2) / 2).max() <= 1e-10

    def test_free_state_gives_zero(self, rng):
        sigma = ch.random_free_state(DEPH2, rng)
        res = op.petz_free(sigma, 0.5, DEPH2)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.abs(res.sigma_star - sigma).max() <= 1e-8

    def test_replacer_reduces_to_divergence(self, rng):
        rho = random_density(2, rng)
        for alpha in (0.5, 1.5, 2.0):
            res = op.petz_free(rho, alpha, ch.replacer(GAMMA))
            assert res.value == pytest.approx(
                dv.d_alpha_z(rho, GAMMA, alpha=alpha, z=1.0), abs=1e-10
            )

    def test_alpha_one_dispatches(self, rng):
        rho = random_density(2, rng)
        assert op.petz_free(rho, 1.0, DEPH2).value == pytest.approx(
            op.umegaki_free(rho, DEPH2).value
        )

    def test_alpha_zero_dispatches(self, rng):
        rho = random_density(3, rng, rank=2)
        res = op.petz_free(rho, 0.0, ch.dephaser(3))
        assert res.value == pytest.approx(op.d_min_free(rho, ch.dephaser(3)))
        # the returned optimizer attains the d_min overlap
        overlap = np.trace(res.sigma_star @ mat_pow(rho, 0.0)).real
        assert -np.log2(overlap) == pytest.approx(res.value, abs=1e-9)

    def test_chain_rule(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            rho = random_full_rank_density(d, rng)
            alpha = float(rng.choice([0.3, 0.5, 0.9, 1.3, 1.8, 2.0]))
            res = op.petz_free(rho, alpha, c)
            sigma = herm(0.95 * ch.random_free_state(c, rng) + 0.05 * c.fixed_state())
            lhs = dv.d_alpha_z(rho, sigma, alpha=alpha, z=1.0)
            rhs = res.value + dv.d_alpha_z(res.sigma_star, sigma, alpha=alpha, z=1.0)
            assert abs(lhs - rhs) <= 1e-8


class TestDminUmegakiFree:
    def test_d_min_free_plus(self):
        assert op.d_min_free(PLUS, DEPH2) == pytest.approx(1.0)

    def test_d_min_free_full_rank(self, rng):
        assert op.d_min_free(random_full_rank_density(3, rng), ch.dephaser(3)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_d_min_free_replacer(self, rng):
        rho = random_density(2, rng, rank=1)
        expected = -np.log2(np.trace(GAMMA @ mat_pow(rho, 0.0)).real)
        assert op.d_min_free(rho, ch.replacer(GAMMA)) == pytest.approx(expected)

    def test_d_min_free_vs_grid(self, rng):
        for _ in range(5):
            rho = random_density(2, rng, rank=1)
            grid_val = min(
                dv.d_min(rho, s) for s in ch.enumerate_free_grid(DEPH2, 2001)
            )
            assert op.d_min_free(rho, DEPH2) == pytest.approx(grid_val, abs=1e-3)

    def test_umegaki_free(self, rng):
        assert op.umegaki_free(PLUS, DEPH2).value == pytest.approx(1.0)
        sigma = ch.random_free_state(DEPH2, rng)
        assert op.umegaki_free(sigma, DEPH2).value == pytest.approx(0.0, abs=1e-9)

    def test_umegaki_chain_rule(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            rho = random_full_rank_density(d, rng)
            sigma = herm(0.9 * ch.random_free_state(c, rng) + 0.1 * c.fixed_state())
            delta_rho = herm(c.apply(rho))
            lhs = dv.umegaki(rho, sigma)
            rhs = dv.umegaki(rho, delta_rho) + dv.umegaki(delta_rho, sigma)
            assert abs(lhs - rhs) <= 1e-8


class TestMLambda:
    def test_lambda_one_endpoint(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_full_rank_density(d, rng)
            a, z = (0.6, 1.0) if rng.integers(2) else (1.5, 1.2)
            res = op.m_lambda(rho, a, z, 1.0, c)
            assert res.value == pytest.approx(
                dv.d_alpha_z(rho, herm(c.apply(rho)), alpha=a, z=z), abs=1e-10
            )
            assert res.residual <= 1e-12

    def test_lambda_zero_matches_petz(self, rng):
        rho = random_full_rank_density(3, rng)
        c = ch.dephaser(3)
        assert op.m_lambda(rho, 0.5, 1.0, 0.0, c).value == pytest.approx(
            op.petz_free(rho, 0.5, c).value, abs=1e-9
        )

    def test_additivity(self, rng):
        for _ in range(5):
            c1 = ch.dephaser(2)
            c2 = ch.replacer(random_full_rank_density(2, rng, 0.3))
            c12 = ch.tensor_channels(c1, c2)
            r1, r2 = random_full_rank_density(2, rng), random_full_rank_density(2, rng)
            for a, z, lam in ((0.5, 1.0, 0.3), (1.6, 1.1, 0.7), (0.3, 2.0, 0.5)):
                m1 = op.m_lambda(r1, a, z, lam, c1).value
                m2 = op.m_lambda(r2, a, z, lam, c2).value
                m12 = op.m_lambda(np.kron(r1, r2), a, z, lam, c12).value
                assert abs(m12 - m1 - m2) <= 1e-7

    def test_normalized_on_currency(self):
        gamma1 = np.eye(2, dtype=complex) / 2
        c = ch.replacer(gamma1)
        phi = ch.basis_state(2, 0)
        for a, z, lam in ((0.5, 1.0, 0.0), (0.5, 1.0, 1.0), (1.5, 1.2, 0.5), (0.3, 0.8, 0.25)):
            assert op.m_lambda(phi, a, z, lam, c).value == pytest.approx(1.0, abs=1e-10)

    def test_monotone_under_destruction(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            a, z, lam = 0.6, 1.0, 0.4
            before = op.m_lambda(rho, a, z, lam, c).value
            after = op.m_lambda(herm(c.apply(rho)), a, z, lam, c).value
            assert after <= before + 1e-8

    def test_rejects_bad_lambda(self, rng):
        with pytest.raises(ValidationError):
            op.m_lambda(random_density(2, rng), 0.5, 1.0, 1.5, DEPH2)


class TestGridOracle:
    def test_replacer_single_evaluation(self, rng):
        spec = op.TraceFunctionalSpec(random_density(2, rng), 0.5, 1.0, ch.replacer(GAMMA))
        sigma, value = op.grid_oracle(spec)
        assert np.allclose(sigma, GAMMA)

    def test_dephaser_qubit_matches_closed_form(self, rng):
        rho = random_density(2, rng)
        spec = op.TraceFunctionalSpec(rho, 0.5, 1.0, DEPH2)
        _, value = op.grid_oracle(spec, resolution=1001)
        cf = op.z1_closed_form(rho, 0.5, DEPH2)
        assert abs(value - cf.value) <= 1e-3

    def test_no_grid_point_beats_optimizer(self, rng):
        rho = random_density(2, rng)
        spec = op.TraceFunctionalSpec(rho, 0.5, 1.0, DEPH2)
        cf = op.z1_closed_form(rho, 0.5, DEPH2)
        _, value = op.grid_oracle(spec, resolution=101)
        assert value <= cf.value + 1e-9

    def test_budget_guard(self, rng):
        big = ch.tensor_channels(ch.cond_depolarizer(2, 2), ch.cond_depolarizer(2, 2))
        spec = op.TraceFunctionalSpec(random_density(16, rng), 0.5, 1.0, big)
        with pytest.raises(BudgetError):
            op.grid_oracle(spec)

    def test_non_convergence_beyond_budget_is_solver_error(self):
        rho = random_density(4, np.random.default_rng(0), rank=2)
        big = ch.tpce([(1, 2), (1, 2)])
        assert ch.free_parameter_count(big) > op.GRID_PARAMETER_BUDGET
        with pytest.raises(SolverError, match="after 3 iterations"):
            op.m_lambda(rho, 0.3, 0.8, 0.0, big, max_iter=3)
        # Within the budget the grid still answers.
        small = random_density(2, np.random.default_rng(0))
        res = op.m_lambda(small, 0.5, 0.8, 0.0, DEPH2, max_iter=1)
        assert res.method == "grid_fallback"
