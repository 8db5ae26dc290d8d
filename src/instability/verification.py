"""The library's seeded property checks, one copy of each.

Each check draws its instances from the given seed, verifies one of the
documented invariants (Delta o Delta = Delta, the bimodular dual, data
processing under Delta, the free-effect lift, ...) and reports pass/fail with
the worst residual.  `instability verify` runs them, and the tier-1 tests run
the same checks at seed 0 (tests/test_verification.py).  Where a check holds
some residuals to a tighter bound than its tolerance, it scales them onto
that tolerance, so ``worst <= tolerance`` is every assertion at once.
Differences that need not be Hermitian (images of matrix units, products)
are measured by the sum of their singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels as ch
from . import divergences as dv
from . import optimize as op
from . import programs as pr
from . import tasks as tk
from .errors import ValidationError
from .linalg import eigh, herm, mat_pow, schatten_norm, spectral_norm
from .sampling import (
    random_density,
    random_effect,
    random_full_rank_density,
    random_hermitian,
    random_pure,
    rng_from,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float


def random_channel(d: int, rng) -> ch.DestructionChannel:
    """A dephaser, a full-rank replacer, or tpce([(1, d-1), (1, 1)]) (the qubit
    depolarizer at d = 2), drawn with equal odds; d >= 2."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ch.dephaser(d)
    if kind == 1:
        return ch.replacer(random_full_rank_density(d, rng, 0.3))
    if d >= 3:
        return ch.tpce([(1, d - 1), (1, 1)])
    return ch.cond_depolarizer(1, d)


def battery_identity_residual(rho, channel: ch.DestructionChannel, eps: float, value: float) -> float:
    """|value - (yield(rho (x) phi_1) - 1)|, 0 where both are +inf (eps = 1)."""
    phi1 = tk.currency(1.0)
    joint = ch.tensor_channels(channel, phi1.channel)
    expected = pr.restricted_ht(np.kron(rho, phi1.state), joint, eps).value - 1.0
    return 0.0 if value == expected else abs(value - expected)


def check_eigh_reconstruction(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        h = random_hermitian(d, rng)
        w, v = eigh(h)
        scale = max(np.abs(w).max(), 1e-300)
        worst = max(
            worst,
            spectral_norm((v * w) @ v.conj().T - h) / (d * scale),
            spectral_norm(v.conj().T @ v - np.eye(d)) / d,
            # eigenvalues ascend to 1e-14 * scale, scaled onto 1e-10
            -1e4 * np.diff(w).min() / scale,
        )
    return CheckResult("eigh reconstruction/unitarity", worst <= 1e-10, worst, 1e-10)


def check_mat_pow_semigroup(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        p = random_full_rank_density(d, rng, 0.1)
        a, b = rng.uniform(0.1, 2.0, size=2)
        lhs = mat_pow(p, a + b)
        rhs = mat_pow(p, a) @ mat_pow(p, b)
        worst = max(worst, np.abs(lhs - rhs).max())
    return CheckResult("mat_pow semigroup", worst <= 1e-9, worst, 1e-9)


def check_schatten_monotonicity(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = random_hermitian(d, rng)
        n1, n2, ninf = (schatten_norm(x, p) for p in (1.0, 2.0, np.inf))
        worst = max(worst, n2 - n1, ninf - n2)
    return CheckResult("Schatten order monotonicity", worst <= 1e-12, worst, 1e-12)


def check_channel_idempotence(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        c = random_channel(d, rng)
        for e in tk.matrix_units(d):
            worst = max(worst, np.linalg.norm(c.apply(c.apply(e)) - c.apply(e), "nuc"))
    return CheckResult("destruction idempotence", worst <= 1e-10, worst, 1e-10)


def check_bimodularity(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        c = random_channel(d, rng)
        y = random_hermitian(d, rng)
        x1 = c.apply_dual(random_hermitian(d, rng))
        x2 = c.apply_dual(random_hermitian(d, rng))
        worst = max(
            worst, np.linalg.norm(c.apply_dual(x1 @ y @ x2) - x1 @ c.apply_dual(y) @ x2, "nuc")
        )
    return CheckResult("dual bimodularity", worst <= 1e-9, worst, 1e-9)


def check_twist_identities(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        c = random_channel(d, rng)
        for e in tk.matrix_units(d):
            worst = max(
                worst,
                np.linalg.norm(c.twist(c.apply_tp_expectation(e), 1.0) - c.apply(e), "nuc"),
                np.linalg.norm(
                    c.apply_dual(e) - c.apply_tp_expectation(c.twist(e, 1.0)), "nuc"
                ),
            )
    return CheckResult("twist identities", worst <= 1e-9, worst, 1e-9)


def check_dual_choi_psd(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 6))
        c = random_channel(d, rng)
        worst = max(worst, -float(np.linalg.eigvalsh(herm(c.choi(dual=True)))[0]))
    return CheckResult("dual complete positivity (Choi)", worst <= 1e-9, worst, 1e-9)


def check_dpi(seed) -> CheckResult:
    rng = rng_from(seed)
    fns = [
        dv.umegaki,
        dv.d_min,
        dv.d_max,
        lambda a, b: dv.d_alpha_z(a, b, alpha=0.5, z=1.0),
        lambda a, b: dv.d_alpha_z(a, b, alpha=1.5, z=1.5),
        lambda a, b: dv.d_hypothesis(a, b, 0.1),
    ]
    worst = -np.inf
    for i in range(600):
        d = int(rng.integers(2, 5))
        c = random_channel(d, rng)
        rho = random_full_rank_density(d, rng)
        sig = random_full_rank_density(d, rng)
        f = fns[i % len(fns)]
        worst = max(worst, f(c.apply(rho), c.apply(sig)) - f(rho, sig))
    return CheckResult("data processing under destruction", worst <= 1e-8, worst, 1e-8)


def check_divergence_ordering(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = -np.inf
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rho = random_full_rank_density(d, rng)
        sig = random_full_rank_density(d, rng)
        a, b, c = dv.d_min(rho, sig), dv.umegaki(rho, sig), dv.d_max(rho, sig)
        worst = max(worst, a - b, b - c)
    return CheckResult("d_min <= umegaki <= d_max", worst <= 1e-8, worst, 1e-8)


def check_divergence_additivity(seed) -> CheckResult:
    rng = rng_from(seed)
    fns = [
        dv.umegaki,
        dv.d_min,
        dv.d_max,
        lambda a, b: dv.d_alpha_z(a, b, alpha=0.6, z=0.8),
        lambda a, b: dv.d_alpha_z(a, b, alpha=1.4, z=1.1),
    ]
    worst = 0.0
    for _ in range(40):
        r1, r2 = random_full_rank_density(2, rng), random_full_rank_density(2, rng)
        s1, s2 = random_full_rank_density(2, rng), random_full_rank_density(2, rng)
        for f in fns:
            worst = max(
                worst,
                abs(f(np.kron(r1, r2), np.kron(s1, s2)) - f(r1, s1) - f(r2, s2)),
            )
    return CheckResult("divergence additivity", worst <= 1e-8, worst, 1e-8)


def check_fixed_point_vs_closed_form(seed) -> CheckResult:
    rng = rng_from(seed)
    alphas = (0.3, 0.5, 0.9, 1.3, 1.8)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 7))
        c = random_channel(d, rng)
        rho = random_full_rank_density(d, rng)
        alpha = alphas[i % len(alphas)]
        cf = op.petz_free(rho, alpha, c)
        spec = op.TraceFunctionalSpec(mat_pow(rho, alpha), 1 - alpha, 1.0, c)
        fp = op.optimize_trace_functional(spec, method="fixed_point")
        worst = max(worst, abs(np.log2(fp.value) / (alpha - 1) - cf.value), fp.residual)
    return CheckResult("closed form vs fixed point", worst <= 1e-8, worst, 1e-8)


def check_monotone_sandwich(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = -np.inf
    for _ in range(30):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        low = op.d_min_free(rho, c)
        high = dv.d_max(rho, herm(c.apply(rho)))
        for m in (
            op.umegaki_free(rho, c).value,
            op.petz_free(rho, 0.5, c).value,
            op.m_lambda(rho, 1.5, 1.2, 0.5, c).value,
        ):
            worst = max(worst, low - m, m - high)
    return CheckResult("extremal monotone sandwich", worst <= 1e-8, worst, 1e-8)


def _outside_unit_interval(e: np.ndarray) -> float:
    """How far the spectrum of e leaves [0, 1]."""
    w = np.linalg.eigvalsh(e)
    return max(-w[0], w[-1] - 1.0)


def check_effect_constructions(seed) -> CheckResult:
    """500 lifts and, on every fifth draw, a composition with the qubit
    depolarizer; the lift's lower bound and [0, I] bounds hold to 1e-10."""
    rng = rng_from(seed)
    worst = 0.0
    lam0 = ch.basis_state(2, 0)
    dep2 = ch.depolarizer(2)
    for i in range(500):
        d = int(rng.integers(2, 5))
        c = random_channel(d, rng)
        g = random_effect(d, rng)
        gp = tk.lift_effect(g, c)
        p = float(np.linalg.eigvalsh(herm(c.apply_dual(g)))[-1])
        worst = max(
            worst,
            np.abs(c.apply_dual(gp) - p * np.eye(d)).max(),
            10 * -float(np.linalg.eigvalsh(gp - (1 - p) * g)[0]),
            10 * _outside_unit_interval(gp),
        )
        if i % 5:
            continue
        ups = tk.compose_effect(g, lam0, 1.0, c, dep2)
        cc = ch.tensor_channels(c, dep2)
        m = -np.log2(p)
        worst = max(
            worst,
            np.abs(cc.apply_dual(ups) - 2.0 ** -(m + 1) * np.eye(2 * d)).max(),
            -float(np.linalg.eigvalsh(ups - np.kron(g, lam0))[0]),
            _outside_unit_interval(ups),
        )
    return CheckResult("effect lifting/composition", worst <= 1e-9, worst, 1e-9)


def check_task_consistency(seed) -> CheckResult:
    """yield_0 <= D_min-free <= Umegaki-free <= exact cost (the last two to
    1e-8), yield_0 <= battery yield, and the battery identity."""
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        eps = float(rng.uniform(0.0, 0.4))
        y0 = tk.one_shot_yield(rho, c, 0.0).value
        cost0 = tk.one_shot_cost_exact(rho, c).value
        dmin = op.d_min_free(rho, c)
        umeg = op.umegaki_free(rho, c).value
        bat = tk.battery_yield(rho, c, eps)
        worst = max(
            worst,
            y0 - dmin,
            100 * (dmin - umeg),
            100 * (umeg - cost0),
            battery_identity_residual(rho, c, eps, bat.value),
            y0 - bat.value,
        )
    return CheckResult("operational ordering and battery identity", worst <= 1e-6, worst, 1e-6)


def check_covariance_suite(seed) -> CheckResult:
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        u = ch.random_free_unitary(c, rng)
        worst = max(
            worst, tk.covariance_check(lambda e: u @ e @ u.conj().T, c, c)
        )
        worst = max(worst, tk.covariance_check(c.apply, c, c))
        gamma = random_full_rank_density(d, rng, 0.3)
        rep = ch.replacer(gamma)
        worst = max(
            worst,
            tk.covariance_check(lambda e: np.trace(e) * gamma, c, rep),
        )
    return CheckResult("covariant channel generators", worst <= 1e-10, worst, 1e-10)


def check_pure_dmax(seed) -> CheckResult:
    """The eps = 0 closed form for pure states against the interior-point
    body to 1e-7 bits; its witness (omega >= rho, omega free, log2 tr omega
    the value) holds to 1e-12 tr omega, scaled onto 1e-7."""
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 6))
        c = random_channel(d, rng)
        rho = random_pure(d, rng)
        res = pr.dmax_smoothed_free(rho, c, 0.0)
        if res.method != "closed_form":
            return CheckResult("pure-state D_max closed form", False, np.inf, 1e-7)
        size = float(np.trace(res.omega).real)
        worst = max(
            worst,
            abs(res.value - pr._dmax_smoothed_sdp(rho, c, 0.0).value),
            1e5 * -float(np.linalg.eigvalsh(herm(res.omega - rho))[0]) / size,
            1e5 * spectral_norm(c.apply(res.omega) - res.omega) / size,
            1e5 * abs(np.log2(size) - res.value),
        )
    return CheckResult("pure-state D_max closed form", worst <= 1e-7, worst, 1e-7)


ALL_CHECKS: dict[str, Callable] = {
    "linalg": check_eigh_reconstruction,
    "mat_pow": check_mat_pow_semigroup,
    "schatten": check_schatten_monotonicity,
    "idempotence": check_channel_idempotence,
    "bimodularity": check_bimodularity,
    "twist": check_twist_identities,
    "choi": check_dual_choi_psd,
    "dpi": check_dpi,
    "ordering": check_divergence_ordering,
    "additivity": check_divergence_additivity,
    "fixed_point": check_fixed_point_vs_closed_form,
    "sandwich": check_monotone_sandwich,
    "effects": check_effect_constructions,
    "tasks": check_task_consistency,
    "covariance": check_covariance_suite,
    "dmax_pure": check_pure_dmax,
}


def run_checks(seed: int, names=None) -> list[CheckResult]:
    """Run the named checks (all by default); check k of ALL_CHECKS draws from
    seed + 1000 k whichever others run with it."""
    selected = list(ALL_CHECKS) if not names else list(names)
    unknown = [name for name in selected if name not in ALL_CHECKS]
    if unknown:
        raise ValidationError(f"unknown suites: {unknown}; known: {sorted(ALL_CHECKS)}")
    index = {name: k for k, name in enumerate(ALL_CHECKS)}
    return [ALL_CHECKS[name](seed + 1000 * index[name]) for name in selected]
