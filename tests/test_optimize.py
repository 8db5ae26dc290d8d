import inspect
import warnings

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability.errors import BudgetError, SolverError, ValidationError
from instability.linalg import herm, mat_pow, schatten_norm, support_projector, trace_norm
from instability.sampling import random_density, random_full_rank_density, random_unitary
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


    def test_one_core_eigh_per_evaluated_step(self, rng, monkeypatch):
        # Each evaluated step, accepted or rejected, decomposes its d x d core
        # once; F, the next target and the distances come from that one
        # decomposition and from the small factors, so the loop calls
        # neither mat_pow nor trace_norm.
        d = 6
        counts = {"eigh": 0, "mat_pow": 0, "trace_norm": 0}
        eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            counts["eigh"] += np.shape(a) == (d, d)
            return eigh(a, *args, **kwargs)

        def count(name):
            fn = getattr(op, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(op, name, counted)

        rho = random_full_rank_density(d, rng, 0.05)
        spec = op.TraceFunctionalSpec(
            mat_pow(rho, 0.5 / 0.75), 0.5 / 0.75, 0.75, ch.tpce([(1, 3), (1, 3)])
        )
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        count("mat_pow")
        count("trace_norm")
        res = op.optimize_trace_functional(spec, method="fixed_point")
        assert res.method == "fixed_point"
        assert res.iterations >= 5
        assert counts == {"eigh": res.iterations + 1, "mat_pow": 0, "trace_norm": 0}


def reference_fixed_point(spec, init):
    """The damped fixed point on dense d x d matrices, as it ran before the
    block-frame iteration: (sigma, F(sigma), residual, iterations)."""

    def value(half):
        core = herm(half @ spec.x @ half)
        return float(np.sum(np.clip(np.linalg.eigvalsh(core), 0.0, None) ** spec.z))

    def target(half):
        t = herm(spec.channel.apply(mat_pow(herm(half @ spec.x @ half), spec.z)))
        return t / np.trace(t).real

    maximize = spec.r >= 0.0
    sigma = init
    half = mat_pow(sigma, spec.r / 2.0)
    f_cur = value(half)
    tgt, eta = None, 1.0
    for iterations in range(1, op.FIXED_POINT_MAX_ITER + 1):
        if tgt is None:
            tgt = target(half)
        step = herm((1.0 - eta) * sigma + eta * tgt)
        step_half = mat_pow(step, spec.r / 2.0)
        f_new = value(step_half)
        worse = f_new < f_cur - 1e-15 * (1 + abs(f_cur)) if maximize else (
            f_new > f_cur + 1e-15 * (1 + abs(f_cur))
        )
        if worse and eta > op.ETA_FLOOR:
            eta = max(eta / 2.0, op.ETA_FLOOR)
            continue
        delta = trace_norm(step - sigma)
        sigma, f_cur, half, tgt = step, f_new, step_half, None
        if delta < op.FIXED_POINT_STEP_TOL:
            break
    return sigma, f_cur, trace_norm(sigma - target(half)), iterations


class TestBlockFrameFixedPoint:
    """The block-frame iteration against the dense reference loop."""

    @staticmethod
    def cases(rng):
        gamma = random_full_rank_density(2, rng, 0.2)
        cond_replacer = ch.cond_replacer(gamma, 2)
        composite = ch.tensor_channels(ch.dephaser(2), cond_replacer)
        # States with a pure B part: the factor beta is rank one, and the
        # roundoff eigenvalue (about 1e-17) of its decomposition must be cut
        # before the power r/2 < 0.
        rank_deficient = [
            herm(np.kron(random_full_rank_density(2, rng), random_density(2, rng, rank=1)))
            for _ in range(3)
        ]
        return [
            ("haar-dephaser", ch.dephaser(4, basis=random_unitary(4, rng)),
             random_full_rank_density(4, rng), 0.5, 0.75),
            ("tpce", ch.tpce([(2, 2), (1, 3)]), random_full_rank_density(7, rng), 0.8, 0.9),
            ("cond-replacer", cond_replacer, random_full_rank_density(4, rng), 0.5, 0.75),
            ("composite", composite, random_full_rank_density(8, rng), 1.5, 1.2),
            *[("rank-deficient", cond_replacer, rho, 1.5, 1.2) for rho in rank_deficient],
        ]

    def test_matches_dense_reference(self, rng):
        for name, c, rho, alpha, z in self.cases(rng):
            spec = op.TraceFunctionalSpec(mat_pow(rho, alpha / z), (1 - alpha) / z, z, c)
            sigma, value, residual, _ = reference_fixed_point(spec, op._default_init(spec))
            res = op.optimize_trace_functional(spec, method="fixed_point")
            assert res.method == "fixed_point" and residual <= 1e-9, name
            assert abs(res.value - value) <= 1e-10, name
            assert np.abs(res.sigma_star - sigma).max() <= 1e-8, name
            assert abs(res.residual - residual) <= 1e-9, name

    def test_every_producer_returns_a_free_state(self, rng, monkeypatch):
        c = ch.dephaser(3, basis=random_unitary(3, rng))
        rho = random_full_rank_density(3, rng)
        x = mat_pow(rho, 0.5)
        r = 0.5

        def dense_z1(x, r):
            twisted = herm(c.apply_dual(c.twist(x, r - 1.0)))
            core = c.twist(mat_pow(twisted, 1.0 / (1.0 - r)), 1.0)
            return herm(core / np.trace(core).real)

        def top_projector(rho):
            # onto the top eigenvector of Delta^*(rho^0), on this dephaser a
            # free pure state attaining sup tr[sigma rho^0]
            _, v = np.linalg.eigh(herm(c.apply_dual(support_projector(rho))))
            return np.outer(v[:, -1], v[:, -1].conj())

        delta_rho = herm(c.apply(rho))
        wing = mat_pow(delta_rho, (1 - 1.5) / (2 * 1.2))
        xz = mat_pow(herm(wing @ mat_pow(rho, 1.5 / 1.2) @ wing), 1.2)
        gamma = random_full_rank_density(2, rng, 0.2)
        replacer = ch.replacer(gamma)
        rank_one = random_density(3, rng, rank=1)
        closed = {
            "z1": (op.z1_closed_form(x, r, c), dense_z1(x, r)),
            "petz": (op.petz_free(rho, 0.7, c), dense_z1(mat_pow(rho, 0.7), 0.3)),
            "petz0": (op.petz_free(rank_one, 0.0, c), top_projector(rank_one)),
            "umegaki": (op.umegaki_free(rho, c), delta_rho),
            "endpoint": (op.m_lambda(rho, 1.5, 1.2, 1.0, c), herm(c.apply(xz)) / np.trace(xz).real),
            "replacer": (
                op.optimize_trace_functional(op.TraceFunctionalSpec(x[:2, :2], 0.5, 0.8, replacer)),
                gamma,
            ),
        }
        assert closed["endpoint"][0].method == "endpoint"
        fixed_point = op.optimize_trace_functional(
            op.TraceFunctionalSpec(x, 0.5, 0.8, c), method="fixed_point"
        )
        monkeypatch.setattr(op, "FIXED_POINT_MAX_ITER", 1)
        iterated = {
            "fixed_point": fixed_point,
            "grid_fallback": op.m_lambda(random_density(2, rng), 0.5, 0.8, 0.0, DEPH2),
        }
        assert iterated["grid_fallback"].method == "grid_fallback"
        results = {**{k: v for k, (v, _) in closed.items()}, **iterated}
        for name, res in results.items():
            sigma = res.sigma_star
            assert trace_norm(res.channel.apply(sigma) - sigma) <= 1e-12, name
            assert abs(np.trace(sigma) - 1.0) <= 1e-12, name
        for name, (res, dense) in closed.items():
            assert np.abs(res.sigma_star - dense).max() <= 1e-12, name


def dpi_draw(rng):
    """(alpha, z) in the data-processing region with z != 1, and lambda < 1."""
    alpha = float(rng.choice([0.3, 0.5, 0.7, 0.9, 1.2, 1.5, 1.8, 2.0]))
    if alpha < 1:
        z = float(rng.uniform(max(alpha, 1 - alpha), 1.5))
    else:
        z = float(rng.uniform(max(alpha / 2, alpha - 1), alpha))
    return alpha, z, float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))


def draw_channel(k, rng):
    """Channel k of a rotation through the block-structured families."""
    gamma = random_full_rank_density(2, rng, 0.2)
    return [
        lambda: ch.dephaser(3, basis=random_unitary(3, rng)),
        lambda: ch.tpce([(2, 2), (1, 3)]),
        lambda: ch.cond_replacer(gamma, 2),
        lambda: ch.cond_depolarizer(2, 2),
        lambda: ch.tensor_channels(ch.dephaser(2), ch.cond_replacer(gamma, 1)),
    ][k % 5]()


def damped_m_lambda(monkeypatch, rho, alpha, z, lam, channel):
    """m_lambda with the damped reference loop in place of the optimizer."""

    def damped(spec, *, method="auto"):
        sigma, value, residual, iterations = reference_fixed_point(spec, op._default_init(spec))
        return op.OptimizerResult(
            value, (value, value), "damped", op._factors(sigma, spec.channel), spec.channel,
            residual, iterations,
        )

    with monkeypatch.context() as m:
        m.setattr(op, "optimize_trace_functional", damped)
        return op.m_lambda(rho, alpha, z, lam, channel)


class TestAndersonFixedPoint:
    def test_matches_damped_reference(self, rng, monkeypatch):
        # 40 draws from the data-processing region, one in four on a
        # rank-deficient state (at alpha > 1, where the damped loop converges).
        for k in range(40):
            c = draw_channel(k, rng)
            alpha, z, lam = dpi_draw(rng)
            if k % 4 == 3:
                rho = random_density(c.dim, rng, rank=c.dim // 2)
                alpha = float(rng.choice([1.2, 1.5, 1.8]))
                z = float(rng.uniform(max(alpha / 2, alpha - 1), alpha))
            else:
                rho = random_full_rank_density(c.dim, rng)
            what = f"draw {k}: {alpha}, {z}, {lam}"
            ref = damped_m_lambda(monkeypatch, rho, alpha, z, lam, c)
            res = op.m_lambda(rho, alpha, z, lam, c)
            assert res.method == "fixed_point" and ref.residual <= 1e-9, what
            assert abs(res.value - ref.value) <= 1e-12, what
            assert res.residual <= op.FIXED_POINT_STEP_TOL, what

    def test_alpha_two_converges_and_is_certified(self):
        # On these draws the damped loop takes a median of 343 (d = 8) and
        # 488 (d = 16) iterations, and one of the 60 misses 3000.
        rng = np.random.default_rng(7)
        for d in (8, 16):
            c = ch.tpce([(2, d // 4), (2, d // 4)])
            for _ in range(30):
                res = op.m_lambda(random_full_rank_density(d, rng, 0.05), 2.0, 1.5, 0.0, c)
                assert res.method == "fixed_point" and res.iterations <= 100
                lo, hi = res.interval
                assert hi == res.value and 0.0 <= hi - lo <= 1e-9


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

    def test_rejects_infinite_z(self, rng):
        with pytest.raises(ValidationError, match="data-processing region"):
            op.m_lambda(random_density(2, rng), 0.5, float("inf"), 0.0, DEPH2)

    def test_method_is_the_only_option(self):
        # The start and the cap are module constants, not parameters.
        def params(fn):
            return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

        plain, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        assert params(op.optimize_trace_functional) == [
            ("spec", plain, empty), ("method", inspect.Parameter.KEYWORD_ONLY, "auto"),
        ]
        assert params(op.m_lambda) == [
            (name, plain, empty) for name in ("rho", "alpha", "z", "lam", "channel")
        ]

    def test_no_dense_power_below_lambda_one(self, rng, monkeypatch):
        # The wing comes from the free decomposition of Delta(rho).
        calls = []
        monkeypatch.setattr(op, "mat_pow", lambda *args: calls.append(args) or mat_pow(*args))
        for c in (ch.dephaser(4, basis=random_unitary(4, rng)), ch.tpce([(2, 2), (1, 3)])):
            rho = random_full_rank_density(c.dim, rng)
            for lam in (0.0, 0.5):
                assert op.m_lambda(rho, 1.5, 1.2, lam, c).method == "fixed_point"
        assert calls == []

    def test_free_wing_matches_dense_power_on_singular_delta_rho(self, rng):
        # rho has no weight on the last block-frame coordinate, so Delta(rho)
        # is singular: the free decomposition cuts its kernel as mat_pow does.
        for c in (
            ch.dephaser(4), ch.dephaser(4, basis=random_unitary(4, rng)), ch.tpce([(2, 2), (1, 3)])
        ):
            rho_b = np.zeros((c.dim, c.dim), dtype=complex)
            rho_b[:-1, :-1] = random_full_rank_density(c.dim - 1, rng)
            rho = herm(c.from_block_frame(rho_b))
            delta_rho = herm(c.apply(rho))
            assert np.linalg.eigvalsh(delta_rho)[0] <= 1e-15
            eig = c.free_eig(op._factors(rho, c))
            for p in (-0.3, 0.0, 0.4):
                wing = c.from_block_frame(c.free_power(eig, p))
                assert np.abs(wing - mat_pow(delta_rho, p)).max() <= 1e-12, p


class TestOverflow:
    def test_large_alpha_z_overflow_is_a_named_solver_error(self):
        # F = tr[core^z] with lambda_max(core) near 1.6: 1.6^1000 fits a
        # float, 1.6^10000 does not.
        rho = 0.6 * ch.plus_state(2) + 0.4 * np.eye(2) / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = op.m_lambda(rho, 1000.0, 1000.0, 0.0, DEPH2)
            assert res.value == pytest.approx(0.6777496547674049, abs=1e-12)
            with pytest.raises(SolverError, match="overflows"):
                op.m_lambda(rho, 1e4, 1e4, 0.0, DEPH2)


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

    def test_negative_r_skips_singular_free_states(self, monkeypatch):
        # F is +inf on a singular free state for r < 0; the pseudo-power
        # gave the grid -8.06 bits at the boundary, far below the optimum.
        rho = random_full_rank_density(2, np.random.default_rng(5))
        with monkeypatch.context() as m:
            m.setattr(op, "FIXED_POINT_MAX_ITER", 1)
            res = op.m_lambda(rho, 1.2, 0.75, 0.0, DEPH2)
        exact = op.m_lambda(rho, 1.2, 0.75, 0.0, DEPH2)
        assert res.method == "grid_fallback" and exact.method == "fixed_point"
        assert res.interval[0] <= exact.value <= res.value <= exact.value + 1e-3
        spec = op.TraceFunctionalSpec(mat_pow(rho, 1.2 / 0.75), -0.2 / 0.75, 0.75, DEPH2)
        fp = op.optimize_trace_functional(spec)
        for resolution, tol in ((21, 8.4e-5), (101, 1.1e-6)):
            _, value = op.grid_oracle(spec, resolution=resolution)
            assert fp.value - 1e-9 <= value <= fp.value + tol

    def test_budget_guard(self, rng):
        big = ch.tensor_channels(ch.cond_depolarizer(2, 2), ch.cond_depolarizer(2, 2))
        spec = op.TraceFunctionalSpec(random_density(16, rng), 0.5, 1.0, big)
        with pytest.raises(BudgetError):
            op.grid_oracle(spec)

    def test_non_convergence_beyond_budget_is_solver_error(self, monkeypatch):
        rho = random_density(4, np.random.default_rng(0), rank=2)
        big = ch.tpce([(1, 2), (1, 2)])
        assert ch.free_parameter_count(big) > op.GRID_PARAMETER_BUDGET
        monkeypatch.setattr(op, "FIXED_POINT_MAX_ITER", 3)
        with pytest.raises(SolverError, match="after 3 iterations"):
            op.m_lambda(rho, 0.3, 0.8, 0.0, big)
        # Within the budget the grid still answers.
        monkeypatch.setattr(op, "FIXED_POINT_MAX_ITER", 1)
        small = random_density(2, np.random.default_rng(0))
        res = op.m_lambda(small, 0.5, 0.8, 0.0, DEPH2)
        assert res.method == "grid_fallback"
