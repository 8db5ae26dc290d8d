import time
from types import SimpleNamespace

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability import sdp
from instability import tasks as tk
from instability.errors import SolverError, ValidationError
from instability.linalg import herm
from instability.sampling import (
    random_density,
    random_effect,
    random_full_rank_density,
    random_unitary,
)
from tests.conftest import raised_lower_bound, random_channel

PLUS = ch.plus_state(2)
DEPH2 = ch.dephaser(2)


class TestCurrency:
    def test_realization(self):
        cur = tk.currency(2.0)
        assert np.allclose(cur.state, np.diag([1.0, 0.0]))
        gamma = cur.channel.blocks[0].tau
        assert np.allclose(gamma, np.diag([0.25, 0.75]))

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValidationError):
            tk.currency(0.0)

    def test_self_consistency(self):
        for m in (0.5, 1.0, 2.0, 3.7):
            cur = tk.currency(m)
            y = tk.one_shot_yield(cur.state, cur.channel, 0.0)
            c = tk.one_shot_cost_exact(cur.state, cur.channel)
            assert y.value == pytest.approx(m, abs=1e-6)
            assert c.value == pytest.approx(m, abs=1e-6)

    def test_additivity(self):
        for m, t in ((1.0, 1.0), (0.5, 2.0)):
            a, b = tk.currency(m), tk.currency(t)
            joint = ch.tensor_channels(a.channel, b.channel)
            state = np.kron(a.state, b.state)
            y = tk.one_shot_yield(state, joint, 0.0)
            assert y.value == pytest.approx(m + t, abs=1e-6)


class TestChannelArgument:
    def test_every_task_takes_the_channel(self, rng):
        c = ch.tpce([(1, 2), (1, 1)], basis=random_unitary(3, rng))
        assert ch.system(c) is c
        rho = random_density(3, rng)
        assert tk.one_shot_yield(rho, c, 0.1).value == tk.restricted_ht(rho, c, 0.1).value
        assert tk.one_shot_cost_exact(rho, c).value == tk.d_max(rho, herm(c.apply(rho)))
        lo, _ = tk.one_shot_cost_eps(rho, c, 0.1, 0.05).value
        assert lo == tk.dmax_smoothed_free(rho, c, 0.1).value
        assert tk.battery_yield(rho, c, 0.1).value == tk.ht_free(rho, c, 0.1).value
        assert tk.catalytic_yield0(rho, c).value == op.d_min_free(rho, c)
        (row,) = tk.regularize_sweep(rho, c, 0.1, 1)
        assert row["yield_rate"] == tk.restricted_ht(rho, c, 0.1).value


class TestOneShotYield:
    def test_plus_states(self):
        for d in (2, 3, 4):
            y = tk.one_shot_yield(ch.plus_state(d), ch.dephaser(d), 0.0)
            assert y.value == pytest.approx(np.log2(d), abs=1e-6)

    def test_maximally_entangled(self):
        for d in (2, 3):
            c = ch.cond_depolarizer(d, d)
            y = tk.one_shot_yield(ch.maximally_entangled_state(d), c, 0.0)
            assert y.value == pytest.approx(2 * np.log2(d), abs=1e-6)

    def test_witness_verified(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng, rank=1)
            eps = float(rng.uniform(0.0, 0.3))
            rep = tk.one_shot_yield(rho, c, eps)
            if not np.isfinite(rep.value) or rep.value <= 1e-9:
                continue
            assert rep.residuals["covariance"] <= 1e-9
            assert rep.residuals["output_accuracy"] <= eps + 1e-8

    def test_free_state_yields_nothing(self, rng):
        sigma = ch.random_free_state(DEPH2, rng)
        rep = tk.one_shot_yield(sigma, DEPH2, 0.0)
        assert rep.value == pytest.approx(0.0, abs=1e-8)

    def test_witness_names_the_method(self, rng):
        rho = random_density(2, rng)
        rep = ch.replacer(random_full_rank_density(2, rng, 0.3))
        for c, method in ((DEPH2, "sdp"), (rep, "neyman_pearson")):
            assert tk.one_shot_yield(rho, c, 0.1).method == method
            assert tk.battery_yield(rho, c, 0.1).method == method
        free = ch.random_free_state(DEPH2, rng)
        assert tk.one_shot_yield(free, DEPH2, 0.2).method == "sdp"
        assert tk.battery_yield(rho, DEPH2, 0.0).method == "closed_form"


class TestOneShotCost:
    def test_free_state_costs_nothing(self, rng):
        sigma = ch.random_free_state(DEPH2, rng)
        rep = tk.one_shot_cost_exact(sigma, DEPH2)
        assert rep.value == pytest.approx(0.0, abs=1e-9)
        assert rep.residuals["covariance"] <= 1e-9

    def test_plus_single_copy_reversible(self):
        assert tk.one_shot_cost_exact(PLUS, DEPH2).value == pytest.approx(1.0)

    def test_mixed_example(self):
        rho = 0.5 * PLUS + 0.25 * np.eye(2)
        rep = tk.one_shot_cost_exact(rho, DEPH2)
        assert rep.value == pytest.approx(np.log2(1.5))

    def test_preparation_witness(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            rep = tk.one_shot_cost_exact(rho, c)
            assert rep.residuals["covariance"] <= 1e-9
            if rep.value > 1e-9:
                assert rep.residuals["second_output_min_eig"] >= -1e-9

    def test_interval_contains_exact_at_small_eps(self, rng):
        rho = random_density(2, rng)
        exact = tk.one_shot_cost_exact(rho, DEPH2).value
        lo, hi = tk.one_shot_cost_eps(rho, DEPH2, 1e-4, 5e-5).value
        assert lo <= exact + 1e-6
        assert hi <= exact + 1e-9
        assert hi - lo <= 0.1 * exact + 0.2

    def test_interval_ordering_and_envelope(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            rep = tk.one_shot_cost_eps(rho, c, 0.1, 0.05)
            lo, hi = rep.value
            assert lo <= hi + 1e-9
            assert hi <= lo + np.log2(1 / 0.05) + 1e-6

    def test_interval_monotone_in_eps(self, rng):
        rho = random_density(2, rng)
        lo1, _ = tk.one_shot_cost_eps(rho, DEPH2, 0.05, 0.02).value
        lo2, _ = tk.one_shot_cost_eps(rho, DEPH2, 0.2, 0.02).value
        assert lo2 <= lo1 + 1e-7

    def test_interval_validates_delta(self, rng):
        with pytest.raises(ValidationError):
            tk.one_shot_cost_eps(random_density(2, rng), DEPH2, 0.1, 0.2)

    def test_interval_reports_bound_crossing(self, rng):
        for rho in (np.diag([0.3, 0.7]).astype(complex), random_density(2, rng)):
            rep = tk.one_shot_cost_eps(rho, DEPH2, 0.1, 0.05)
            lo, hi = rep.value
            assert 0.0 <= rep.residuals["bound_crossing"] <= tk.COST_CROSSING_TOL
            assert lo <= hi

    def test_interval_fails_when_bounds_cross(self, monkeypatch):
        # A free state has cost 0 and both bounds at 0; a lower bound raised
        # by 1e-3 crosses the upper one by far more than solver noise.
        monkeypatch.setattr(tk, "dmax_smoothed_free", raised_lower_bound(0.1))
        with pytest.raises(SolverError, match="cost bounds cross"):
            tk.one_shot_cost_eps(np.diag([0.3, 0.7]).astype(complex), DEPH2, 0.1, 0.05)


class TestAssistedYields:
    def test_battery_identity(self, rng):
        for _ in range(6):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.4))
            rep = tk.battery_yield(rho, c, eps)
            assert rep.residuals["battery_identity"] <= 1e-6

    def test_eps_zero_is_catalytic(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            bat = tk.battery_yield(rho, c, 0.0)
            cat = tk.catalytic_yield0(rho, c)
            assert bat.value == pytest.approx(cat.value, abs=1e-6)
            assert cat.value == pytest.approx(op.d_min_free(rho, c), abs=1e-12)

    def test_plus_battery_analytic(self):
        for eps in (0.1, 0.3):
            rep = tk.battery_yield(PLUS, DEPH2, eps)
            assert rep.value == pytest.approx(1 - np.log2(1 - eps), abs=1e-6)

    def test_yield_chain(self, rng):
        # yield <= battery <= catalytic bound, and the operational sandwich
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.3))
            y = tk.one_shot_yield(rho, c, eps).value
            b = tk.battery_yield(rho, c, eps).value
            assert y <= b + 1e-6

    def test_operational_sandwich(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            rho = random_density(d, rng)
            y0 = tk.one_shot_yield(rho, c, 0.0).value
            dmin = op.d_min_free(rho, c)
            umeg = op.umegaki_free(rho, c).value
            cost0 = tk.one_shot_cost_exact(rho, c).value
            assert y0 <= dmin + 1e-6
            assert dmin <= umeg + 1e-8
            assert umeg <= cost0 + 1e-8

    def test_phi_maximally_entangled_catalytic(self):
        for d in (2, 3):
            c = ch.cond_depolarizer(d, d)
            val = tk.catalytic_yield0(ch.maximally_entangled_state(d), c).value
            assert val == pytest.approx(2 * np.log2(d), abs=1e-9)


class TestEffectConstructions:
    def test_lift_explicit_example(self):
        lifted = tk.lift_effect(PLUS, DEPH2)
        expected = 0.5 * PLUS + 0.25 * np.eye(2)
        assert np.abs(lifted - expected).max() <= 1e-12
        assert np.abs(DEPH2.apply_dual(lifted) - np.eye(2) / 2).max() <= 1e-12

    def test_lift_identity(self):
        assert np.abs(tk.lift_effect(np.eye(2, dtype=complex), DEPH2) - np.eye(2)).max() <= 1e-12

    def test_lift_properties(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            g = random_effect(d, rng)
            lifted = tk.lift_effect(g, c)
            p = float(np.linalg.eigvalsh(herm(c.apply_dual(g)))[-1])
            assert np.abs(c.apply_dual(lifted) - p * np.eye(d)).max() <= 1e-9
            assert np.linalg.eigvalsh(lifted - (1 - p) * g)[0] >= -1e-10
            w = np.linalg.eigvalsh(lifted)
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10

    def test_compose_depolarizer_case(self, rng):
        lam0 = ch.basis_state(2, 0)
        dep2 = ch.depolarizer(2)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            c = random_channel(d, rng)
            g = random_effect(d, rng)
            ups = tk.compose_effect(g, lam0, 1.0, c, dep2)
            joint = ch.tensor_channels(c, dep2)
            p = float(np.linalg.eigvalsh(herm(c.apply_dual(g)))[-1])
            m = -np.log2(p)
            assert (
                np.abs(joint.apply_dual(ups) - 2.0 ** -(m + 1) * np.eye(2 * d)).max()
                <= 1e-9
            )
            assert np.linalg.eigvalsh(ups - np.kron(g, lam0))[0] >= -1e-9
            w = np.linalg.eigvalsh(ups)
            assert w[0] >= -1e-9 and w[-1] <= 1 + 1e-9

    def test_compose_identity_effect(self):
        lam0 = ch.basis_state(2, 0)
        ups = tk.compose_effect(np.eye(2, dtype=complex), lam0, 1.0, DEPH2, ch.depolarizer(2))
        assert np.abs(ups - np.kron(np.eye(2), lam0)).max() <= 1e-12

    def test_compose_hypothesis_violated(self, rng):
        # small t with large effect level violates 2^-(t+m) <= 1 - 2^-t
        lam = 2.0**-0.05 * np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            tk.compose_effect(np.eye(2, dtype=complex), lam, 0.05, DEPH2, ch.depolarizer(2))


COST_CHANNELS = {
    "dephaser(2)": DEPH2,
    "dephaser(3)": ch.dephaser(3),
    "tpce": ch.tpce([(1, 2), (1, 1)]),
    "cond_depolarizer(2,2)": ch.cond_depolarizer(2, 2),
    "replacer": ch.replacer(random_full_rank_density(2, np.random.default_rng(5), 0.3)),
}


class TestRegularize:
    def test_currency_rows_constant(self):
        cur = tk.currency(1.5)
        rows = tk.regularize_sweep(cur.state, cur.channel, 0.0, 3)
        for row in rows:
            assert row["yield_rate"] == pytest.approx(1.5, abs=1e-6)
            assert row["cost_hi_rate"] == pytest.approx(1.5, abs=1e-9)

    def test_pure_plus_rows_are_one(self):
        rows = tk.regularize_sweep(PLUS, DEPH2, 0.0, 3)
        for row in rows:
            assert row["yield_rate"] == pytest.approx(1.0, abs=1e-6)
            assert row["cost_hi_rate"] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_trend_diagnostics(self):
        rho = 0.6 * PLUS + 0.4 * np.eye(2) / 2
        rows = tk.regularize_sweep(rho, DEPH2, 0.05, 4)
        diag = tk.sweep_diagnostics(rows, 0.05)
        assert diag["yield_below_target"]
        assert diag["lower_bound_consistent"]

    def test_diagnostics_allow_eps_yield_above_umegaki(self):
        # A free state has Umegaki rate 0, yet a valid 0.05-yield of 0.074.
        rows = tk.regularize_sweep(np.diag([0.3, 0.7]).astype(complex), DEPH2, 0.05, 1)
        assert rows[0]["yield_rate"] > rows[0]["umegaki"] + 0.05
        assert tk.sweep_diagnostics(rows, 0.05)["yield_below_target"]

    def test_diagnostics_flag_yield_above_converse_bound(self):
        eps, n, rate = 0.05, 2, 0.5
        h2 = -eps * np.log2(eps) - (1 - eps) * np.log2(1 - eps)
        bound = (n * rate + h2) / (n * (1 - eps))
        row = {"n": n, "yield_rate": bound + 1e-3, "cost_lo_rate": None,
               "cost_hi_rate": None, "umegaki": rate}
        assert not tk.sweep_diagnostics([row], eps)["yield_below_target"]
        row["yield_rate"] = bound - 1e-3
        assert tk.sweep_diagnostics([row], eps)["yield_below_target"]

    def test_budget_skips_rows(self):
        rows = tk.regularize_sweep(
            random_density(5, np.random.default_rng(0)), ch.dephaser(5), 0.05, 4
        )
        # 5^3 = 125 > 64: no SDP rows from n = 3; the exact cost needs no power
        assert rows[2]["yield_rate"] is None and rows[2]["cost_lo_rate"] is None
        assert rows[3]["cost_hi_rate"] == rows[0]["cost_hi_rate"]

    def test_long_sweep_past_the_budget_is_fast(self):
        # The budget is decided once, not by d^n in integers at every n.
        rho = random_density(65, np.random.default_rng(0))
        start = time.perf_counter()
        rows = tk.regularize_sweep(rho, ch.dephaser(65), 0.05, 20_000)
        assert time.perf_counter() - start < 2.0
        assert len(rows) == 20_000 and rows[-1]["n"] == 20_000
        assert all(r["yield_rate"] is None and r["cost_lo_rate"] is None for r in rows)

    def test_csv_shape(self):
        rows = tk.regularize_sweep(PLUS, DEPH2, 0.0, 2)
        csv = tk.sweep_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "n,yield_rate,cost_lo_rate,cost_hi_rate,umegaki"
        assert len(lines) == 3

    def test_powers_stop_at_the_yield_budget(self, monkeypatch):
        dims = []
        real = tk.tensor_channels

        def spy(a, b):
            dims.append(a.dim * b.dim)
            return real(a, b)

        monkeypatch.setattr(tk, "tensor_channels", spy)
        rho = random_density(2, np.random.default_rng(3))
        rows = tk.regularize_sweep(rho, DEPH2, 0.05, 12)
        assert dims == []  # the Schur-Weyl programs need no tensor power
        assert rows[:8] == tk.regularize_sweep(rho, DEPH2, 0.05, 8)
        assert all(r["cost_hi_rate"] == rows[0]["cost_hi_rate"] for r in rows)
        assert all(r["yield_rate"] is None and r["umegaki"] == rows[0]["umegaki"] for r in rows[6:])
        # Any other qubit channel builds its powers up to the SDP budget only.
        solved = SimpleNamespace(value=0.0)
        monkeypatch.setattr(tk, "restricted_ht", lambda *args, **kw: solved)
        monkeypatch.setattr(tk, "dmax_smoothed_free", lambda *args, **kw: solved)
        tk.regularize_sweep(rho, ch.depolarizer(2), 0.05, 9)
        assert dims == [2**n for n in range(2, 7)]

    @pytest.mark.parametrize("which", list(COST_CHANNELS))
    def test_cost_row_matches_the_explicit_power(self, which, monkeypatch):
        channel = COST_CHANNELS[which]
        rho = random_density(channel.dim, np.random.default_rng(7))
        monkeypatch.setattr(tk, "YIELD_DIM_BUDGET", 0)  # cost rows only
        rows = tk.regularize_sweep(rho, channel, 0.05, 4)
        rho_n, channel_n = rho, channel
        for n, row in enumerate(rows, start=1):
            if n > 1:
                rho_n, channel_n = np.kron(rho_n, rho), ch.tensor_channels(channel_n, channel)
            explicit = dv.d_max(rho_n, herm(channel_n.apply(rho_n))) / n
            assert row["cost_hi_rate"] == pytest.approx(explicit, abs=1e-12)


_SWEEP_RNG = np.random.default_rng(909)
REDUCED_CASES = {
    "mixed": (random_density(2, _SWEEP_RNG), DEPH2),
    "plus": (PLUS, DEPH2),
    "nearly-free": (np.array([[0.3, 1e-3], [1e-3, 0.7]], dtype=complex), DEPH2),
    "rotated": (
        random_density(2, _SWEEP_RNG), ch.dephaser(2, basis=random_unitary(2, _SWEEP_RNG))
    ),
}


def _spy(monkeypatch, name, log):
    """Record each call of tasks.`name` in `log` as (name, n)."""
    real = getattr(tk, name)

    def call(first, second, *args, **kw):
        log.append((name, second if isinstance(second, int) else first.shape[0]))
        return real(first, second, *args, **kw)

    monkeypatch.setattr(tk, name, call)


class TestRegularizeReduced:
    """A qubit dephaser's sweep solves the Schur-Weyl-reduced programs."""

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("case", list(REDUCED_CASES))
    def test_matches_the_tensor_programs(self, case, eps):
        rho, channel = REDUCED_CASES[case]
        rows = tk.regularize_sweep(rho, channel, eps, 4)
        rho_n, channel_n = rho, channel
        for n, row in enumerate(rows, start=1):
            if n > 1:
                rho_n, channel_n = np.kron(rho_n, rho), ch.tensor_channels(channel_n, channel)
            y = tk.restricted_ht(rho_n, channel_n, eps).value / n
            lo = tk.dmax_smoothed_free(rho_n, channel_n, eps).value / n
            assert row["yield_rate"] == pytest.approx(y, abs=1e-8)
            assert row["cost_lo_rate"] == pytest.approx(lo, abs=1e-8)

    def test_eps_one_yield_is_infinite(self):
        rows = tk.regularize_sweep(PLUS, DEPH2, 1.0, 2)
        assert all(r["yield_rate"] == np.inf for r in rows)

    def test_blocks_are_at_most_n_plus_one_wide(self, monkeypatch, rng):
        calls, widths = [], {}
        real_build = sdp.HermitianProgram.build

        def build(self):
            problem = real_build(self)
            n = calls[-1][1]
            wide = [d for d, h in zip(problem.block_dims, problem.hermitian) if h]
            widths[n] = max([widths.get(n, 0)] + wide)
            return problem

        for name in ("_symmetric_restricted_ht", "_symmetric_dmax_free",
                     "restricted_ht", "dmax_smoothed_free"):
            _spy(monkeypatch, name, calls)
        monkeypatch.setattr(sdp.HermitianProgram, "build", build)
        channel = ch.dephaser(2, basis=random_unitary(2, rng))
        tk.regularize_sweep(random_density(2, rng), channel, 0.05, 5)
        assert {name for name, _ in calls} == {"_symmetric_restricted_ht", "_symmetric_dmax_free"}
        assert widths == {n: n + 1 for n in range(1, 6)}

    def test_eps_is_validated_without_sdp_rows(self):
        # At d = 65 no row reaches a program, so the sweep checks eps itself.
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            tk.regularize_sweep(random_density(65, np.random.default_rng(0)), ch.dephaser(65), -1.0, 2)

    @pytest.mark.parametrize("which", ["currency", "dephaser(5)"])
    def test_other_channels_reach_the_tensor_programs(self, which, monkeypatch):
        calls = []
        for name in ("_symmetric_restricted_ht", "_symmetric_dmax_free",
                     "restricted_ht", "dmax_smoothed_free"):
            _spy(monkeypatch, name, calls)
        if which == "currency":
            cur = tk.currency(1.5)
            tk.regularize_sweep(cur.state, cur.channel, 0.05, 3)
            dims = [2, 4, 8]
        else:
            tk.regularize_sweep(random_density(5, np.random.default_rng(0)), ch.dephaser(5), 0.05, 2)
            dims = [5, 25]
        assert calls == [(name, d) for d in dims for name in ("restricted_ht", "dmax_smoothed_free")]


class TestCovariance:
    @staticmethod
    def per_unit(action, ch_in, ch_out):
        """covariance_check as one nuclear norm per matrix unit."""
        return max(
            float(np.linalg.norm(action(ch_in.apply(e)) - ch_out.apply(action(e)), "nuc"))
            for e in tk.matrix_units(ch_in.dim)
        )

    def test_batched_norms_match_per_unit_on_task_witnesses(self, rng):
        """The yield and exact-cost witnesses on each channel kind of the
        small-task benchmark (d = 2..4)."""
        checked = 0
        for d in (2, 3, 4):
            channels = [
                ch.dephaser(d),
                ch.dephaser(d, random_unitary(d, rng)),
                ch.replacer(random_full_rank_density(d, rng, 0.1)),
                ch.tpce([(1, d - 1), (1, 1)]),
            ] + ([ch.cond_depolarizer(2, 2)] if d == 4 else [])
            for c in channels:
                rho = random_density(d, rng)
                yld = tk.one_shot_yield(rho, c, 0.2)
                if "currency_level" in yld.witness:
                    action = tk.measurement_action(yld.witness["effect"])
                    ref = self.per_unit(action, c, tk.currency(yld.value).channel)
                    assert abs(yld.residuals["covariance"] - ref) <= 1e-15
                    checked += 1
                cost = tk.one_shot_cost_exact(rho, c)
                if "output_on_one" in cost.witness:
                    action = tk.preparation_action(rho, cost.witness["output_on_one"])
                    ref = self.per_unit(action, tk.currency(cost.value).channel, c)
                    assert abs(cost.residuals["covariance"] - ref) <= 1e-15
                    checked += 1
        assert checked >= 20

    def test_channel_itself(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = random_channel(d, rng)
            assert tk.covariance_check(c.apply, c, c) <= 1e-10

    def test_cross_mechanism_constant(self, rng):
        gamma = random_full_rank_density(2, rng, 0.2)
        action = lambda e: np.trace(e) * gamma
        assert tk.covariance_check(action, DEPH2, ch.replacer(gamma)) <= 1e-12

    def test_swap_is_covariant(self, rng):
        c1, c2 = DEPH2, ch.replacer(random_full_rank_density(2, rng, 0.2))
        joint = ch.tensor_channels(c1, c2)
        swapped = ch.tensor_channels(c2, c1)
        perm = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                perm[j * 2 + i, i * 2 + j] = 1.0
        action = lambda e: perm @ e @ perm.T
        assert tk.covariance_check(action, joint, swapped) <= 1e-12

    def test_non_covariant_residual_is_measured(self):
        # The differences over matrix units are not Hermitian; the residual
        # is their largest singular-value sum, not a validation error.
        u = random_unitary(2, np.random.default_rng(0))
        action = lambda e: u @ e @ u.conj().T
        worst = max(
            np.linalg.svd(action(DEPH2.apply(e)) - DEPH2.apply(action(e)), compute_uv=False).sum()
            for e in tk.matrix_units(2)
        )
        assert tk.covariance_check(action, DEPH2, DEPH2) == pytest.approx(worst, rel=1e-12)
        assert worst == pytest.approx(0.6625, abs=5e-5)

    def test_partial_trace_is_covariant(self, rng):
        from instability.linalg import partial_trace

        c1, c2 = DEPH2, ch.replacer(random_full_rank_density(2, rng, 0.2))
        joint = ch.tensor_channels(c1, c2)
        action = lambda e: partial_trace(e, [2, 2], [0])
        assert tk.covariance_check(action, joint, c1) <= 1e-12
