"""Acceptance gate: one test per criterion, each printing a pass line with
its measured worst-case residual and runtime.  Tolerances are pinned here
and match the contract of the corresponding library routines.
"""

import time

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability import programs as pr
from instability import tasks as tk
from instability.linalg import herm, mat_pow, partial_trace
from instability.sampling import random_density, random_full_rank_density
from tests.conftest import battery_identity_residual, random_channel, random_free_state


def report(name, worst, tol, t0, budget):
    elapsed = time.time() - t0
    print(f"[PASS] {name}: worst {worst:.3e} (tol {tol:g}), {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget


def test_criterion_01_currency_self_consistency():
    t0 = time.time()
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 3.7):
        cur = tk.currency(m)
        y = tk.one_shot_yield(cur.state, cur.channel, 0.0).value
        c = tk.one_shot_cost_exact(cur.state, cur.channel).value
        worst = max(worst, abs(y - m), abs(c - m))
        assert y == pytest.approx(m, abs=1e-6)
        assert c == pytest.approx(m, abs=1e-6)
    report("criterion 1 currency self-consistency", worst, 1e-6, t0, 5)


def test_criterion_02_reference_state_equivalences():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 4):
        s = ch.dephaser(d)
        y = tk.one_shot_yield(ch.plus_state(d), s, 0.0).value
        c = tk.one_shot_cost_exact(ch.plus_state(d), s).value
        worst = max(worst, abs(y - np.log2(d)), abs(c - np.log2(d)))
    for d in (2, 3):
        s = ch.cond_depolarizer(d, d)
        phi = ch.maximally_entangled_state(d)
        y = tk.one_shot_yield(phi, s, 0.0).value
        c = tk.one_shot_cost_exact(phi, s).value
        worst = max(worst, abs(y - 2 * np.log2(d)), abs(c - 2 * np.log2(d)))
    assert worst <= 1e-6
    report("criterion 2 coherence/entanglement currency equivalences", worst, 1e-6, t0, 30)


def test_criterion_03_closed_form_vs_fixed_point():
    t0 = time.time()
    rng = np.random.default_rng(3)
    alphas = (0.3, 0.5, 0.9, 1.3, 1.8)
    worst_val, worst_res = 0.0, 0.0
    for k in range(50):
        d = int(rng.integers(2, 7))
        c = random_channel(d, rng)
        rho = random_full_rank_density(d, rng)
        alpha = alphas[k % len(alphas)]
        closed = op.petz_free(rho, alpha, c)
        spec = op.TraceFunctionalSpec(mat_pow(rho, alpha), 1 - alpha, 1.0, c)
        fp = op.optimize_trace_functional(spec, method="fixed_point")
        bits = float(np.log2(fp.value) / (alpha - 1))
        worst_val = max(worst_val, abs(bits - closed.value))
        worst_res = max(worst_res, fp.residual)
    assert worst_val <= 1e-8
    assert worst_res <= 1e-9
    report("criterion 3 closed form vs fixed point", max(worst_val, worst_res), 1e-8, t0, 60)


def test_criterion_04_chain_rule():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        c = random_channel(d, rng)
        rho = random_full_rank_density(d, rng)
        alpha = float(rng.choice([0.3, 0.5, 0.9, 1.3, 1.8, 2.0]))
        res = op.petz_free(rho, alpha, c)
        sigma = herm(0.9 * random_free_state(c, rng) + 0.1 * c.fixed_state())
        lhs = dv.d_alpha_z(rho, sigma, alpha=alpha, z=1.0)
        rhs = res.value + dv.d_alpha_z(res.sigma_star, sigma, alpha=alpha, z=1.0)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8
    report("criterion 4 chain rule", worst, 1e-8, t0, 30)


def _dpi_grid():
    grid = []
    for alpha in (0.3, 0.6, 0.9, 1.2, 1.7):
        if alpha < 1:
            lo = max(alpha, 1 - alpha)
            zs = np.linspace(lo, 2.0, 5)
        else:
            zs = np.linspace(max(alpha / 2, alpha - 1), alpha, 5)
        grid.extend((alpha, float(z)) for z in zs)
    return grid


def test_criterion_05_additivity():
    t0 = time.time()
    rng = np.random.default_rng(5)
    lams = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for pair in range(2):
        c1 = ch.dephaser(2)
        c2 = ch.replacer(random_full_rank_density(2, rng, 0.3))
        c12 = ch.tensor_channels(c1, c2)
        r1 = random_full_rank_density(2, rng)
        r2 = random_full_rank_density(2, rng)
        for alpha, z in _dpi_grid():
            for lam in lams if pair == 0 else (0.0,):
                m1 = op.m_lambda(r1, alpha, z, lam, c1).value
                m2 = op.m_lambda(r2, alpha, z, lam, c2).value
                m12 = op.m_lambda(np.kron(r1, r2), alpha, z, lam, c12).value
                worst = max(worst, abs(m12 - m1 - m2))
    assert worst <= 1e-6
    report("criterion 5 additivity of the monotone family", worst, 1e-6, t0, 120)


MONOTONES = [
    ("umegaki", lambda rho, c: op.umegaki_free(rho, c).value),
    ("petz03", lambda rho, c: op.petz_free(rho, 0.3, c).value),
    ("petz05", lambda rho, c: op.petz_free(rho, 0.5, c).value),
    ("petz09", lambda rho, c: op.petz_free(rho, 0.9, c).value),
    ("petz13", lambda rho, c: op.petz_free(rho, 1.3, c).value),
    ("petz18", lambda rho, c: op.petz_free(rho, 1.8, c).value),
    ("petz20", lambda rho, c: op.petz_free(rho, 2.0, c).value),
    ("m(0.5,1,0.5)", lambda rho, c: op.m_lambda(rho, 0.5, 1.0, 0.5, c).value),
    ("m(1.5,1.2,0.25)", lambda rho, c: op.m_lambda(rho, 1.5, 1.2, 0.25, c).value),
    ("m(0.3,2,0.75)", lambda rho, c: op.m_lambda(rho, 0.3, 2.0, 0.75, c).value),
    ("m(0.7,0.7,1)", lambda rho, c: op.m_lambda(rho, 0.7, 0.7, 1.0, c).value),
    ("d_min_free", lambda rho, c: op.d_min_free(rho, c)),
    ("d_max_rel", lambda rho, c: dv.d_max(rho, herm(c.apply(rho)))),
]


def test_criterion_06_extremality_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(6)
    phi1 = tk.currency(1.0)
    # every monotone must map the unit currency to 1 before entering
    for name, m in MONOTONES:
        val = m(phi1.state, phi1.channel)
        assert val == pytest.approx(1.0, abs=1e-8), name
    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        low = op.d_min_free(rho, c)
        high = dv.d_max(rho, herm(c.apply(rho)))
        for name, m in MONOTONES:
            val = m(rho, c)
            worst = max(worst, low - val, val - high)
    assert worst <= 1e-8
    report("criterion 6 extremality sandwich", worst, 1e-8, t0, 120)


def test_criterion_07_battery_identity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        eps = float(rng.uniform(0.0, 0.4)) if k % 3 else 0.0
        rep = tk.battery_yield(rho, c, eps)
        worst = max(worst, battery_identity_residual(rho, c, eps, rep.value))
        if eps == 0.0:
            dmin = op.d_min_free(rho, c)
            worst = max(worst, abs(rep.value - dmin))
    assert worst <= 1e-6
    report("criterion 7 battery identity", worst, 1e-6, t0, 120)


def test_criterion_08_effect_constructions():
    t0 = time.time()
    rng = np.random.default_rng(8)
    from instability.sampling import random_effect

    lam0 = ch.basis_state(2, 0)
    dep2 = ch.depolarizer(2)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        c = random_channel(d, rng)
        g = random_effect(d, rng)
        lifted = tk.lift_effect(g, c)
        p = float(np.linalg.eigvalsh(herm(c.apply_dual(g)))[-1])
        worst = max(
            worst,
            np.abs(c.apply_dual(lifted) - p * np.eye(d)).max(),
            -float(np.linalg.eigvalsh(lifted - (1 - p) * g)[0]),
        )
        ups = tk.compose_effect(g, lam0, 1.0, c, dep2)
        joint = ch.tensor_channels(c, dep2)
        m = -np.log2(p)
        worst = max(
            worst,
            np.abs(joint.apply_dual(ups) - 2.0 ** -(m + 1) * np.eye(2 * d)).max(),
            -float(np.linalg.eigvalsh(ups - np.kron(g, lam0))[0]),
        )
    assert worst <= 1e-9
    report("criterion 8 effect constructions", worst, 1e-9, t0, 20)


def test_criterion_09_cost_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(9)
    eps, delta = 0.1, 0.05
    worst = -np.inf
    for _ in range(20):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        lo, hi = tk.one_shot_cost_eps(rho, c, eps, delta).value
        worst = max(worst, lo - hi, hi - (lo + np.log2(1 / delta)))
        # the eps = 0 endpoint of the cost family is the exact formula, and
        # the eps-interval upper endpoint converges onto it from below
        exact = tk.one_shot_cost_exact(rho, c).value
        assert exact == pytest.approx(dv.d_max(rho, herm(c.apply(rho))), abs=1e-12)
        lo_s, hi_s = tk.one_shot_cost_eps(rho, c, 1e-5, 5e-6).value
        worst = max(worst, abs(hi_s - exact) - 1e-4, lo_s - exact)
    assert worst <= 1e-6
    report("criterion 9 cost sandwich", worst, 1e-6, t0, 120)


def test_criterion_10_asymptotic_trend():
    t0 = time.time()
    rho = 0.6 * ch.plus_state(2) + 0.4 * np.eye(2) / 2
    eps = 0.05
    rows = tk.regularize_sweep(rho, ch.dephaser(2), eps, 4)
    target = rows[0]["umegaki"]
    gaps = [abs(r["cost_hi_rate"] - target) for r in rows]
    assert all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(len(gaps) - 1))
    worst = max(r["yield_rate"] - target for r in rows)
    assert worst <= 1e-6
    report("criterion 10 asymptotic reversibility trend", worst, 1e-6, t0, 300)


def test_criterion_11_sdp_vs_oracles():
    t0 = time.time()
    rng = np.random.default_rng(11)
    from tests.test_programs import restricted_qubit_dephaser_oracle

    deph = ch.dephaser(2)
    worst_grid, worst_exact = 0.0, 0.0
    for _ in range(6):
        rho = random_density(2, rng)
        eps = float(rng.uniform(0.0, 0.5))
        sdp_r = pr.restricted_ht(rho, deph, eps).value
        worst_grid = max(
            worst_grid, abs(sdp_r - restricted_qubit_dephaser_oracle(rho, eps))
        )
        sdp_f = pr.ht_free(rho, deph, eps).value
        grid = ch.enumerate_free_grid(deph, 801)
        oracle_f = min(dv.d_hypothesis(rho, sig, eps) for sig in grid)
        worst_grid = max(worst_grid, abs(sdp_f - oracle_f))
    for _ in range(6):
        d = int(rng.integers(2, 4))
        gamma = random_full_rank_density(d, rng, 0.2)
        rho = random_density(d, rng)
        eps = float(rng.uniform(0.0, 0.5))
        rep = ch.replacer(gamma)
        oracle = dv.d_hypothesis(rho, gamma, eps)
        # The public functions answer a replacer by the Neyman-Pearson scan
        # itself; the interior-point bodies are what this compares.
        worst_exact = max(
            worst_exact,
            abs(pr._restricted_ht_sdp(rho, rep, eps).value - oracle),
            abs(pr._ht_free_sdp(rho, rep, eps).value - oracle),
        )
    assert worst_grid <= 1e-3
    assert worst_exact <= 1e-7
    report("criterion 11 SDP vs independent oracles", max(worst_grid, worst_exact), 1e-3, t0, 60)


DPI_MONOTONES = [
    ("umegaki", lambda rho, c: op.umegaki_free(rho, c).value),
    ("petz05", lambda rho, c: op.petz_free(rho, 0.5, c).value),
    ("petz15", lambda rho, c: op.petz_free(rho, 1.5, c).value),
    ("m(0.6,1,0.5)", lambda rho, c: op.m_lambda(rho, 0.6, 1.0, 0.5, c).value),
    ("d_min_free", lambda rho, c: op.d_min_free(rho, c)),
    ("d_max_rel", lambda rho, c: dv.d_max(rho, herm(c.apply(rho)))),
    ("yield0.1", lambda rho, c: pr.restricted_ht(rho, c, 0.1).value),
    ("battery0.1", lambda rho, c: pr.ht_free(rho, c, 0.1).value),
]


def test_criterion_12_dpi_and_covariance():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = -np.inf
    for inst in range(100):
        d = int(rng.integers(2, 4))
        c = random_channel(d, rng)
        rho = random_density(d, rng)
        base = {name: m(rho, c) for name, m in DPI_MONOTONES}

        # generated covariant channels and their output (state, channel)
        outputs = []
        outputs.append(("destruction", herm(c.apply(rho)), c))
        u = ch.random_free_unitary(c, 1000 + inst)
        outputs.append(("free unitary", herm(u @ rho @ u.conj().T), c))
        gamma_b = random_full_rank_density(2, rng, 0.3)
        cb = ch.replacer(gamma_b)
        joint = ch.tensor_channels(c, cb)
        outputs.append(("tensor with free", np.kron(rho, gamma_b), joint))
        if np.isfinite(base["yield0.1"]) and base["yield0.1"] > 1e-9:
            rep = tk.one_shot_yield(rho, c, 0.1)
            m_level = rep.value
            out_state = np.diag(
                [np.trace(rho @ rep.witness["effect"]).real, 0.0]
            ).astype(complex)
            out_state[1, 1] = 1 - out_state[0, 0]
            outputs.append(
                ("yield witness", out_state, tk.currency(m_level).channel)
            )
        outputs.append(("cross-mechanism constant", gamma_b, cb))
        for name, out_state, out_channel in outputs:
            for mon_name, m in DPI_MONOTONES:
                after = m(out_state, out_channel)
                worst = max(worst, after - base[mon_name])

        # partial trace on a correlated composite state
        rho_ab = random_density(2 * d, rng)
        base_ab = {name: m(rho_ab, joint) for name, m in DPI_MONOTONES}
        marg = partial_trace(rho_ab, [d, 2], [0])
        for mon_name, m in DPI_MONOTONES:
            worst = max(worst, m(marg, c) - base_ab[mon_name])
    assert worst <= 1e-7
    report("criterion 12 DPI and covariance suite", worst, 1e-7, t0, 180)
