"""Property tests of the Frank-Wolfe certificate of the free-state fixed point."""

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability.linalg import herm, mat_pow
from instability.sampling import random_density, random_full_rank_density
from tests.test_optimize import dpi_draw, draw_channel

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def certificate_case(seed):
    """A channel, a state and a DPI point drawn from one seed."""
    rng = np.random.default_rng(seed)
    c = draw_channel(seed, rng)
    rho = random_full_rank_density(c.dim, rng)
    return rng, c, rho, *dpi_draw(rng)


SEEDS = st.integers(0, 2**32 - 1)
# Derandomized, so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


class TestCertificate:
    """The Frank-Wolfe gap and the interval it gives."""

    @staticmethod
    def at_free_state(seed):
        """(spec, sigma, F(sigma), block-frame X, and the decompositions of
        sigma and its core) at a full-rank random free state."""
        rng, c, rho, alpha, z, lam = certificate_case(seed)
        spec = op.TraceFunctionalSpec(mat_pow(rho, alpha / z), (1 - lam) * (1 - alpha) / z, z, c)
        sigma = herm(0.8 * ch.random_free_state(c, rng) + 0.2 * c.fixed_state())
        eig = c.free_eig(op._factors(sigma, c))
        half = c.free_power(eig, spec.r / 2)
        xb = c.to_block_frame(spec.x)
        core = np.linalg.eigh(herm(half @ xb @ half))
        return spec, sigma, op._functional_value(sigma, spec.x, spec.r, z), xb, eig, core

    @PROPERTY
    @given(SEEDS)
    def test_euler_identity(self, seed):
        spec, sigma, value, xb, eig, core = self.at_free_state(seed)
        grad = op._gradient(spec, xb, eig, core)
        rzf = spec.r * spec.z * value
        assert abs(np.trace(grad @ spec.channel.to_block_frame(sigma)).real - rzf) <= 1e-12 * abs(rzf)
        # Off the diagonal of sigma's eigenbasis too: a central difference
        # along a free direction.
        rng = np.random.default_rng(seed)
        h = herm(ch.random_free_state(spec.channel, rng) - sigma)
        t = 1e-5
        fd = (
            op._functional_value(sigma + t * h, spec.x, spec.r, spec.z)
            - op._functional_value(sigma - t * h, spec.x, spec.r, spec.z)
        ) / (2 * t)
        directional = np.trace(grad @ spec.channel.to_block_frame(h)).real
        assert abs(directional - fd) <= 1e-6 * max(1.0, abs(fd))

    @PROPERTY
    @given(SEEDS)
    def test_gap_bounds_the_distance_to_the_optimum(self, seed):
        spec, sigma, value, xb, eig, core = self.at_free_state(seed)
        gap = op._frank_wolfe_gap(spec, xb, value, eig, core)
        best = op.optimize_trace_functional(spec, method="fixed_point").value
        distance = best - value if spec.r >= 0 else value - best
        assert -1e-12 <= distance <= gap + 1e-12 * abs(best)

    @PROPERTY
    @given(SEEDS)
    @example(16780)  # alpha = 2 at z = 1: unscaled mixed steps drift off unit trace
    def test_interval_contains_closed_forms(self, seed):
        rng, c, rho, alpha, z, lam = certificate_case(seed)
        exact = op.m_lambda(rho, alpha, 1.0, lam, c)
        assert exact.method == "closed_form_z1" and exact.interval == (exact.value,) * 2
        gamma = random_full_rank_density(3, rng, 0.2)
        rho3 = random_full_rank_density(3, rng)
        with pytest.MonkeyPatch.context() as m:
            iterate = op.optimize_trace_functional
            m.setattr(
                op, "optimize_trace_functional", lambda spec: iterate(spec, method="fixed_point")
            )
            res = op.m_lambda(rho, alpha, 1.0, lam, c)
            res3 = op.m_lambda(rho3, alpha, z, 0.0, ch.replacer(gamma))
        assert res.method == res3.method == "fixed_point"
        lo, hi = res.interval
        assert lo - 1e-12 <= exact.value <= hi + 1e-12
        lo, hi = res3.interval
        assert lo - 1e-12 <= dv.d_alpha_z(rho3, gamma, alpha=alpha, z=z) <= hi + 1e-12

    @PROPERTY
    @given(SEEDS, st.booleans())
    def test_interval_between_d_min_and_d_max(self, seed, rank_deficient):
        rng, c, rho, alpha, z, lam = certificate_case(seed)
        if rank_deficient:
            rho = random_density(c.dim, rng, rank=c.dim - 1)
        res = op.m_lambda(rho, alpha, z, lam, c)
        lo, hi = res.interval
        assert hi == res.value
        assert op.d_min_free(rho, c) - 1e-9 <= lo <= hi <= dv.d_max(rho, c.apply(rho)) + 1e-9

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(SEEDS)
    def test_boundary_fixed_point_is_not_certified(self, seed):
        # A dephaser weight that starts at 0 stays 0: the iteration meets a
        # fixed point of the face, which the residual passes and the gap does not.
        rng, _, _, alpha, z, lam = certificate_case(seed)
        d = 3
        rho = random_full_rank_density(d, rng)
        weights = rng.uniform(0.2, 1.0, size=d)
        weights[rng.integers(d)] = 0.0
        init = np.diag(weights / weights.sum()).astype(complex)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(op, "_default_init", lambda spec: init)
            res = op.m_lambda(rho, alpha, z, lam, ch.dephaser(d))
        assert res.method == "fixed_point"
        assert res.gap > 1e-3
