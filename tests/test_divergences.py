import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import linalg as la
from instability import programs as pr
from instability.errors import ValidationError
from instability.sampling import random_density, random_full_rank_density

PLUS = ch.plus_state(2)
UNIFORM2 = np.eye(2, dtype=complex) / 2
GAMMA = np.diag([1 / 3, 2 / 3]).astype(complex)


class TestDpiRegion:
    def test_membership(self):
        assert dv.in_dpi_region(0.5, 1.0)
        assert dv.in_dpi_region(0.5, 0.5)
        assert not dv.in_dpi_region(0.5, 0.3)
        assert dv.in_dpi_region(1.0, 0.1)
        assert dv.in_dpi_region(2.0, 1.0)
        assert not dv.in_dpi_region(2.0, 0.9)
        assert not dv.in_dpi_region(2.0, 2.5)
        assert not dv.in_dpi_region(-0.5, 1.0)

    def test_params_validate(self):
        with pytest.raises(ValidationError):
            dv.RenyiParams(0.5, 0.2)

    def test_non_finite_parameters_are_outside(self):
        inf = float("inf")
        for alpha, z in ((0.5, inf), (inf, inf), (inf, 1.0), (0.5, float("nan"))):
            assert not dv.in_dpi_region(alpha, z)
        for alpha, z in ((0.5, inf), (inf, inf)):
            with pytest.raises(ValidationError, match="data-processing region"):
                dv.d_alpha_z(random_density(2, np.random.default_rng(0)), UNIFORM2, alpha=alpha, z=z)


class TestAlphaZ:
    def test_identical_arguments(self, rng):
        rho = random_full_rank_density(3, rng)
        for a, z in ((0.5, 1.0), (1.5, 1.5), (2.0, 2.0)):
            assert dv.d_alpha_z(rho, rho, alpha=a, z=z) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_uniform_sandwiched(self):
        assert dv.d_alpha_z(PLUS, UNIFORM2, alpha=2, z=2) == pytest.approx(1.0)

    def test_second_argument_scaling(self, rng):
        rho = random_full_rank_density(3, rng)
        sig = random_full_rank_density(3, rng)
        for a, z in ((0.5, 1.0), (1.7, 1.2), (0.3, 0.9)):
            base = dv.d_alpha_z(rho, sig, alpha=a, z=z)
            assert dv.d_alpha_z(rho, 2 * sig, alpha=a, z=z) == pytest.approx(base - 1.0)

    def test_alpha_one_delegates_to_umegaki(self, rng):
        rho = random_full_rank_density(2, rng)
        sig = random_full_rank_density(2, rng)
        assert dv.d_alpha_z(rho, sig, alpha=1.0, z=0.7) == pytest.approx(
            dv.umegaki(rho, sig)
        )

    def test_support_violation_above_one(self):
        rho = ch.basis_state(2, 0)
        sig = np.diag([0.0, 1.0]).astype(complex)
        assert dv.d_alpha_z(rho, sig, alpha=1.5, z=1.5) == np.inf

    def test_orthogonal_below_one(self):
        rho = ch.basis_state(2, 0)
        sig = np.diag([0.0, 1.0]).astype(complex)
        assert dv.d_alpha_z(rho, sig, alpha=0.5, z=1.0) == np.inf

    def test_rejects_outside_region(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(ValidationError):
            dv.d_alpha_z(rho, rho, alpha=3.0, z=1.0)


class TestUmegaki:
    def test_pure_vs_uniform(self):
        assert dv.umegaki(PLUS, UNIFORM2) == pytest.approx(1.0)

    def test_identical(self, rng):
        rho = random_density(3, rng)
        assert dv.umegaki(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_classical_value(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        sig = np.diag([0.5, 0.5]).astype(complex)
        expected = 0.7 * np.log2(1.4) + 0.3 * np.log2(0.6)
        assert dv.umegaki(rho, sig) == pytest.approx(expected, abs=1e-12)

    def test_support_violation(self):
        assert dv.umegaki(PLUS, ch.basis_state(2, 0)) == np.inf


class TestMinMax:
    def test_d_min_example(self):
        assert dv.d_min(PLUS, GAMMA) == pytest.approx(1.0)

    def test_d_min_full_rank_is_zero(self, rng):
        rho = random_full_rank_density(3, rng)
        assert dv.d_min(rho, random_density(3, rng)) == pytest.approx(0.0, abs=1e-9)

    def test_d_min_identical(self, rng):
        rho = random_density(3, rng)
        assert dv.d_min(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_d_max_example(self):
        assert dv.d_max(PLUS, GAMMA) == pytest.approx(np.log2(9 / 4))

    def test_d_max_identical(self, rng):
        rho = random_density(3, rng)
        assert dv.d_max(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_d_max_pure_vs_uniform(self):
        assert dv.d_max(PLUS, UNIFORM2) == pytest.approx(1.0)

    def test_d_max_smallest_scaling(self, rng):
        # 2^m sigma - rho is PSD at m = d_max and not at m - 0.01
        rho = random_density(2, rng)
        sig = random_full_rank_density(2, rng)
        m = dv.d_max(rho, sig)
        assert np.linalg.eigvalsh(2.0**m * sig - rho)[0] >= -1e-10
        assert np.linalg.eigvalsh(2.0 ** (m - 0.01) * sig - rho)[0] < 0

    def test_d_max_is_never_nan(self, rng):
        """Over rank-deficient, near-pure and exactly pure states against a
        near-singular, a rank-deficient and a full-rank second argument,
        d_max is finite or +inf (support violation), never NaN or -inf."""
        for d in (2, 3, 5):
            psi = random_density(d, rng, rank=1)
            states = [
                psi,
                random_density(d, rng, rank=2),
                la.herm((1 - 1e-12) * psi + 1e-12 * random_full_rank_density(d, rng)),
                la.herm((1 - 1e-6) * psi + 1e-6 * random_density(d, rng, rank=2)),
                np.diag(np.eye(d)[0]).astype(complex),
            ]
            near_singular = np.diag(np.r_[1.0, np.full(d - 1, 1e-13)]).astype(complex)
            seconds = [
                near_singular / np.trace(near_singular).real,
                la.herm(np.diag(np.r_[np.ones(d - 1), 1e-14])).astype(complex),
                random_density(d, rng, rank=2),
                random_full_rank_density(d, rng),
                ch.dephaser(d).apply(psi),
            ]
            for rho in states:
                for s in seconds + [rho]:
                    value = dv.d_max(rho, s)
                    assert not np.isnan(value) and value != -np.inf


def _pure_state(d, rng):
    """|psi><psi| by np.outer, which can be Hermitian only to rounding."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _decompositions(calls, run) -> int:
    """The eigh, eigvalsh, svd and spectral-norm calls ``run()`` makes."""
    calls.update(dict.fromkeys(calls, 0))
    run()
    return sum(calls.values())


class TestOneDecompositionPerOperand:
    def test_closed_forms(self, rng, linalg_calls):
        for rho in (random_density(4, rng), _pure_state(4, rng)):
            s = random_full_rank_density(4, rng)
            for run, most in (
                (lambda: dv.d_max(rho, s), 3),
                (lambda: dv.umegaki(rho, s), 2),
                (lambda: dv.d_min(rho, s), 2),
                (lambda: dv.d_alpha_z(rho, s, alpha=1.5, z=1.2), 3),
                (lambda: dv.d_alpha_z(rho, s, alpha=0.5, z=0.75), 3),
            ):
                assert _decompositions(linalg_calls, run) <= most

    def test_pure_dmax_on_the_dephaser(self, rng, linalg_calls):
        rho, channel = _pure_state(9, rng), ch.dephaser(9)
        _decompositions(linalg_calls, lambda: pr.dmax_smoothed_free(rho, channel, 0.0))
        assert linalg_calls == {"eigh": 1, "eigvalsh": 0, "svd": 0, "spectral_norm": 0}


class TestHypothesisTesting:
    def test_classical_two_outcome(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        sig = np.diag([0.5, 0.5]).astype(complex)
        assert dv.d_hypothesis(rho, sig, 0.3) == pytest.approx(1.0)

    def test_eps_zero_equals_d_min(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            sig = random_full_rank_density(d, rng)
            assert dv.d_hypothesis(rho, sig, 0.0) == pytest.approx(
                dv.d_min(rho, sig), abs=1e-10
            )

    def test_eps_one_is_infinite(self):
        assert dv.d_hypothesis(PLUS, GAMMA, 1.0) == np.inf

    def test_nondecreasing_in_eps(self, rng):
        # Larger allowed type-I error can only improve the exponent; the
        # weakest test (eps = 0) reduces to d_min.
        rho = random_density(3, rng)
        sig = random_full_rank_density(3, rng)
        values = [dv.d_hypothesis(rho, sig, e) for e in (0.0, 0.1, 0.3, 0.6, 0.9)]
        assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))

    def test_witness_feasibility(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            sig = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.8))
            res = dv.neyman_pearson(rho, sig, eps)
            w = np.linalg.eigvalsh(res.gamma)
            assert w[0] >= -1e-11 and w[-1] <= 1 + 1e-11
            assert np.trace(rho @ res.gamma).real >= 1 - eps - 1e-10
            assert np.trace(sig @ res.gamma).real == pytest.approx(
                res.type_two_error, abs=1e-12
            )

    def test_optimality_against_dual_bound(self, rng):
        # the Lagrange dual lam(1-eps) - tr[(lam rho - sigma)_+] certifies
        # optimality of the scan
        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            sig = random_full_rank_density(d, rng)
            eps = float(rng.uniform(0.05, 0.7))
            res = dv.neyman_pearson(rho, sig, eps)
            lam = res.threshold
            dual = lam * (1 - eps) - np.sum(
                np.clip(np.linalg.eigvalsh(lam * rho - sig), 0, None)
            )
            assert res.type_two_error == pytest.approx(dual, abs=1e-9)

    def test_a_state_against_itself_costs_the_type_one_budget(self, rng):
        # lam rho - rho vanishes at lam = 1, where the optimal test is
        # (1 - eps) I; the kernel window must not shrink with the rounding
        # that is left of its eigenvalues.
        for rank in (1, 2, 3):
            rho = random_density(3, rng, rank=rank)
            for eps in (1e-12, 0.1, 0.5, 1 - 1e-9):
                assert dv.d_hypothesis(rho, rho, eps) == pytest.approx(
                    -np.log2(1 - eps), rel=1e-9, abs=1e-15
                ), (rank, eps)

    def test_near_proportional_pair_meets_the_dual_bound(self):
        # rho = sigma + delta diag(1, -1): the scan's test keeps its type-I
        # budget and its beta is no larger than the Lagrange dual
        # max_lam lam (1 - eps) - tr(lam rho - sigma)_+ on a dense grid.
        sigma = np.array([[0.7, 0.1], [0.1, 0.3]])
        eps = 0.5
        lams = np.linspace(0.0, 4.0, 400001)
        for delta in (1e-12, 1e-9, 1e-6, 1e-3):
            rho = sigma + delta * np.diag([1.0, -1.0])
            w = np.linalg.eigvalsh(lams[:, None, None] * rho - sigma)
            dual = (lams * (1 - eps) - np.clip(w, 0.0, None).sum(axis=1)).max()
            res = dv.neyman_pearson(rho, sigma, eps)
            assert np.trace(rho @ res.gamma).real >= 1 - eps - 1e-12, delta
            assert dual - 1e-12 <= res.type_two_error <= dual + 1e-5, delta

    def test_a_state_against_itself_is_certified_exact(self, rng):
        # D_H^eps(rho || rho) = -log2(1 - eps) for rho of every rank: the
        # scan's test and its dual bound meet to rounding.
        for rank in (1, 2, 3, 4):
            rho = random_density(4, rng, rank=rank)
            for eps in (1e-12, 0.1, 0.5, 1 - 1e-9):
                res = dv.neyman_pearson(rho, rho, eps)
                exact = -np.log2(1 - eps)
                assert res.interval == (res.value, res.value), (rank, eps)
                assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-15), (rank, eps)

    def test_near_proportional_bracket_holds_the_dual_optimum(self):
        # rho = sigma + delta diag(1, -1): the record's interval contains
        # -log2 of the Lagrange dual max_lam lam (1 - eps) - tr(lam rho -
        # sigma)_+, found on a dense lam grid refined twice around its best
        # point; the dual is concave, so the refined maximum is within
        # rounding of the optimum.
        sigma = np.array([[0.7, 0.1], [0.1, 0.3]])
        eps = 0.5

        def dual(lams, rho):
            w = np.linalg.eigvalsh(lams[:, None, None] * rho - sigma)
            return lams * (1 - eps) - np.clip(w, 0.0, None).sum(axis=1)

        for delta in (1e-12, 1e-9, 1e-6, 1e-3):
            rho = sigma + delta * np.diag([1.0, -1.0])
            lams = np.linspace(0.0, 4.0, 40001)
            for _ in range(3):
                g = dual(lams, rho)
                best, step = lams[np.argmax(g)], lams[1] - lams[0]
                lams = np.linspace(max(best - step, 0.0), best + step, 40001)
            optimum = -np.log2(g.max())
            res = dv.neyman_pearson(rho, sigma, eps)
            lo, hi = res.interval
            assert lo == res.value and lo - 1e-12 <= optimum <= hi + 1e-12, delta

    def test_rejects_bad_eps(self, rng):
        with pytest.raises(ValidationError):
            dv.d_hypothesis(random_density(2, rng), UNIFORM2, 1.5)
