"""Property tests of the result record: every value carries its interval and
the method that produced it, and only an interior-point solve has a solution.

An exact path (closed form, Neyman-Pearson scan, eps in {0, 1}) has the
interval (value, value); an interior-point value has none (not certified);
the free-state optimizers carry their Frank-Wolfe interval.  The third
outcome is a reported failure: a solve that stops short raises
SolverError and returns no record.
"""

import numpy as np
import pytest

from instability import channels as ch
from instability import divergences as dv
from instability import optimize as op
from instability import programs as pr
from instability import tasks as tk
from instability.errors import SolverError
from instability.linalg import herm
from instability.sampling import random_density, random_full_rank_density, random_unitary
from tests.test_optimize import dpi_draw

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.integers(0, 5)
# Derandomized, so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

PROGRAM_METHODS = {"sdp", "neyman_pearson", "closed_form"}
EXACT_OPTIMIZER_METHODS = {"closed_form_z1", "closed_form_petz", "endpoint"}
OPTIMIZER_METHODS = EXACT_OPTIMIZER_METHODS | {"fixed_point", "grid_fallback"}


def draw(seed, kind):
    """A generator, channel `kind` of the six families and a state of
    random rank, from one seed."""
    rng = np.random.default_rng(seed)
    gamma = random_full_rank_density(2, rng, 0.2)
    c = [
        lambda: ch.dephaser(3),
        lambda: ch.dephaser(3, basis=random_unitary(3, rng)),
        lambda: ch.replacer(gamma),
        lambda: ch.tpce([(1, 2), (1, 1)]),
        lambda: ch.cond_depolarizer(2, 2),
        lambda: ch.tensor_channels(ch.dephaser(2), ch.replacer(gamma)),
    ][kind]()
    return rng, c, random_density(c.dim, rng, rank=int(rng.integers(1, c.dim + 1)))


def eps_values(rng):
    """eps at 0, tiny, inside (0, 1) and at 1."""
    return 0.0, 1e-12, float(rng.uniform(0.05, 0.5)), 1.0


def outcome(run, *args):
    """The record of run(*args), or None where it reports a solver failure."""
    try:
        return run(*args)
    except SolverError:
        return None


def assert_in_interval(value, interval):
    lo, hi = interval
    assert lo <= value <= hi, (value, interval)


def assert_exact(res):
    assert res.interval == (res.value, res.value)
    assert_in_interval(res.value, res.interval)


def assert_program_record(res, methods=PROGRAM_METHODS):
    """A program result: only the interior-point path has a solution, and
    only it lacks an interval."""
    if res is None:
        return
    assert res.method in methods
    solved = res.method == "sdp"
    assert (res.solution is not None) == solved
    if solved:
        assert res.interval is None
    else:
        assert_exact(res)


def assert_task_record(rep):
    if rep is None:
        return
    assert rep.method in PROGRAM_METHODS
    assert "method" not in rep.witness
    solved = rep.method == "sdp"
    assert ("sdp_gap" in rep.residuals) == solved
    if rep.quantity == "cost_interval":
        assert rep.interval == rep.value
        assert_in_interval(rep.value[0], rep.interval)
        assert_in_interval(rep.value[1], rep.interval)
    elif solved:
        assert rep.interval is None
    else:
        assert_exact(rep)


def assert_optimizer_record(res):
    assert res.method in OPTIMIZER_METHODS
    if res.method in EXACT_OPTIMIZER_METHODS:
        assert_exact(res)
    else:
        assert_in_interval(res.value, res.interval)


class TestRecord:
    @PROPERTY
    @given(SEEDS, KINDS)
    def test_hypothesis_tests(self, seed, kind):
        rng, c, rho = draw(seed, kind)
        for eps in eps_values(rng):
            test = dv.neyman_pearson(rho, herm(c.apply(rho)), eps)
            assert test.method in {"neyman_pearson", "closed_form"}
            assert (test.method == "closed_form") == (eps in (0.0, 1.0))
            assert_exact(test)
            for run in (pr.restricted_ht, pr.ht_free):
                assert_program_record(outcome(run, rho, c, eps))

    @PROPERTY
    @given(SEEDS, KINDS)
    def test_smoothed_dmax(self, seed, kind):
        rng, c, rho = draw(seed, kind)
        for eps in eps_values(rng):
            res = outcome(pr.dmax_smoothed_free, rho, c, eps)
            assert_program_record(res, {"sdp", "closed_form"})

    @PROPERTY
    @given(SEEDS, KINDS)
    def test_monotones(self, seed, kind):
        rng, c, rho = draw(seed, kind)
        alpha, z, lam = dpi_draw(rng)
        full = random_full_rank_density(c.dim, rng)
        assert_optimizer_record(op.m_lambda(full, alpha, z, lam, c))
        assert_optimizer_record(op.petz_free(rho, float(rng.uniform(0.0, 2.0)), c))
        assert_optimizer_record(op.umegaki_free(rho, c))

    @PROPERTY
    @given(SEEDS, KINDS)
    def test_tasks(self, seed, kind):
        rng, c, rho = draw(seed, kind)
        reports = [tk.one_shot_cost_exact(rho, c), tk.catalytic_yield0(rho, c)]
        for eps in eps_values(rng):
            reports += [outcome(tk.one_shot_yield, rho, c, eps),
                        outcome(tk.battery_yield, rho, c, eps)]
            if eps > 0.0:
                reports.append(outcome(tk.one_shot_cost_eps, rho, c, eps, eps / 3.0))
        for rep in reports:
            assert_task_record(rep)
