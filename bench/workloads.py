"""The benchmark's three workloads: seeded inputs, operations and output checks.

A workload's round is a fixed number of blocks.  Every block holds the
same operation kinds in the same order; only the random inputs differ
between blocks, and block ``b`` draws them from
``numpy.random.default_rng([seed, b])``.  An operation
is one call into the library (a public function, or ``instability.cli.main``
with an argv whose ``--output`` points into the run's temporary directory).
Its check runs after the timed phase and compares the output with
``oracles`` or with a property the output must have; checks may read the
outputs of earlier operations in the same block by their label.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import instability as ins
import instability.cli
import oracles as orc

# A CLI witness must pass the same limits the CLI applies before printing.
CLI_WITNESS_TOL = 1e-9
CLI_OUTPUT_SLACK = 1e-8
# Interior-point answers are accepted at gap 1e-7; comparisons with an exact
# value or a bound allow ten times that in bits.
SDP_TOL = 1e-6
# Residual limit on the fixed point, equal to the optimizer's own acceptance.
FIXED_POINT_TOL = 1e-9


class CliFailed(Exception):
    """The CLI returned a nonzero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    label: str | None = None


@dataclass
class Workload:
    blocks: int
    make_block: Callable  # (rng, tmp: Path, block: int) -> list[Op]

    def make_round(self, seed: int, tmp: Path) -> list:
        return [
            self.make_block(np.random.default_rng([seed, b]), tmp, b)
            for b in range(self.blocks)
        ]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def ginibre_state(rng, d, rank=None, floor=0.0):
    k = d if rank is None else rank
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    rho = g @ g.conj().T
    rho = orc.herm(rho / np.trace(rho).real)
    return orc.herm((1 - floor) * rho + floor * np.eye(d) / d)


def pure_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def matrix_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def cli(argv, output: str):
    code = ins.cli.main(argv + ["--output", output])
    if code != 0:
        raise CliFailed(f"exit {code}: {' '.join(argv)}")
    return Path(output).read_text()


def near(value, ref, tol, what):
    if not (abs(value - ref) <= tol):
        return [f"{what}: {value!r} differs from {ref!r} by more than {tol:g}"]
    return []


def at_most(value, bound, tol, what):
    if not (value <= bound + tol):
        return [f"{what}: {value!r} exceeds {bound!r} (+{tol:g})"]
    return []


# ---------------------------------------------------------------------------
# tasks-small: tiny SDPs behind the one-shot yield, battery yield and cost
# ---------------------------------------------------------------------------


def _task_channels(rng, d):
    """(name, library channel, oracle spec, channel JSON) at dimension d."""
    u = haar_unitary(rng, d)
    gamma = ginibre_state(rng, d, floor=0.1)
    out = [
        ("dephaser", ins.dephaser(d), orc.dephaser_spec(d), {"kind": "dephaser", "dim": d}),
        ("rotated", ins.dephaser(d, u), orc.dephaser_spec(d, u),
         {"kind": "dephaser", "dim": d, "basis": matrix_json(u)}),
        ("replacer", ins.replacer(gamma), orc.replacer_spec(gamma),
         {"kind": "replacer", "gamma": matrix_json(gamma)}),
        ("tpce", ins.tpce([(1, d - 1), (1, 1)]), orc.tpce_spec([(1, d - 1), (1, 1)]),
         {"kind": "tpce", "shape": [[1, d - 1], [1, 1]]}),
    ]
    if d == 4:
        out.append(("cond_depolarizer", ins.cond_depolarizer(2, 2),
                    orc.cond_depolarizer_spec(2, 2), {"kind": "cond_depolarizer", "d_a": 2, "d_b": 2}))
    return out


# The channel whose three tasks go through the CLI at each dimension: a
# fixed 9 of the 39 operations in every block.
TASK_CLI_CHANNEL = {2: "dephaser", 3: "replacer", 4: "rotated"}


def _report_fields(out):
    """(value, residuals) of a TaskReport or of its CLI JSON."""
    if isinstance(out, str):
        data = json.loads(out)
        value = data["value"]
        value = [float(v) for v in value] if isinstance(value, list) else float(value)
        return value, data["residuals"]
    value = list(out.value) if isinstance(out.value, tuple) else float(out.value)
    return value, out.residuals


def _witness_problems(residuals, eps, what):
    problems = []
    for key in ("covariance", "composite_membership"):
        if residuals.get(key) is not None:
            problems += at_most(residuals[key], CLI_WITNESS_TOL, 0.0, f"{what} {key}")
    if residuals.get("output_accuracy") is not None:
        problems += at_most(residuals["output_accuracy"], eps, CLI_OUTPUT_SLACK,
                            f"{what} output_accuracy")
    return problems


def _task_refs(rho, spec, eps, exact_yield):
    """Oracle values for one (state, channel, eps), computed once when first checked.

    ``exact`` is the exact yield where one is known: D_H^eps(rho||gamma) on a
    replacer, the closed form on the qubit dephaser.
    """

    def compute():
        replacer = len(spec.blocks) == 1 and spec.blocks[0][1] == 1
        exact = None
        if replacer:
            exact = orc.d_hypothesis(rho, spec.blocks[0][2], eps)
        elif exact_yield:
            exact = orc.qubit_dephaser_yield(rho, eps)
        delta_rho = spec.apply(rho)
        return {
            "d_h": orc.d_hypothesis(rho, delta_rho, eps),
            "d_max": orc.d_max(rho, delta_rho),
            "exact": exact,
            "replacer": replacer,
        }

    return functools.cache(compute)


def make_tasks_block(rng, tmp: Path, block: int) -> list:
    tag = f"b{block}"
    ops = []
    for d in (2, 3, 4):
        for name, channel, spec, channel_json in _task_channels(rng, d):
            rho = ginibre_state(rng, d)
            eps = float(rng.uniform(0.05, 0.4))
            delta = eps / 3.0
            sys_ = ins.system(channel)
            key = f"{name}/d{d}"
            refs = _task_refs(rho, spec, eps, exact_yield=(name == "dephaser" and d == 2))

            def check_yield(out, done, eps=eps, refs=refs, key=key):
                value, res = _report_fields(out)
                problems = _witness_problems(res, eps, f"yield {key}")
                problems += at_most(value, refs()["d_h"], SDP_TOL, f"yield {key} vs D_H(rho||Delta rho)")
                if refs()["exact"] is not None:
                    problems += near(value, refs()["exact"], 1e-7, f"yield {key} exact")
                return problems

            def check_battery(out, done, eps=eps, refs=refs, key=key):
                value, res = _report_fields(out)
                problems = _witness_problems(res, eps, f"battery {key}")
                if f"yield {key}" in done:  # absent when the yield call failed
                    yield_value, _ = _report_fields(done[f"yield {key}"])
                    problems += at_most(yield_value, value, SDP_TOL, f"yield <= battery {key}")
                problems += at_most(value, refs()["d_h"], SDP_TOL, f"battery {key} vs D_H(rho||Delta rho)")
                if refs()["replacer"]:
                    problems += near(value, refs()["exact"], 1e-7, f"battery {key} vs D_H(rho||gamma)")
                return problems

            def check_cost(out, done, eps=eps, refs=refs, key=key):
                (lo, hi), res = _report_fields(out)
                d_max = refs()["d_max"]
                problems = at_most(lo, hi, 0.0, f"cost {key} interval order")
                problems += at_most(lo, d_max, SDP_TOL, f"cost {key} lower vs D_max(rho||Delta rho)")
                problems += at_most(hi, d_max, 1e-9, f"cost {key} upper vs D_max(rho||Delta rho)")
                problems += at_most(res["ball_distance"], eps, 1e-12, f"cost {key} ball distance")
                return problems

            if TASK_CLI_CHANNEL[d] == name:
                state = write_json(tmp / f"{tag}-{key.replace('/', '-')}-state.json",
                                   {"dim": d, "matrix": matrix_json(rho)})
                chan = write_json(tmp / f"{tag}-{key.replace('/', '-')}-channel.json", channel_json)
                out = str(tmp / "out.json")
                io_args = ["--state", state, "--channel", chan]
                runs = [
                    lambda a=io_args, e=eps, o=out: cli(["yield", *a, "--eps", repr(e)], o),
                    lambda a=io_args, e=eps, o=out: cli(["battery", *a, "--eps", repr(e)], o),
                    lambda a=io_args, e=eps, dl=delta, o=out: cli(
                        ["cost", *a, "--eps", repr(e), "--delta", repr(dl)], o),
                ]
                via = "cli"
            else:
                runs = [
                    lambda r=rho, s=sys_, e=eps: ins.one_shot_yield(r, s, e),
                    lambda r=rho, s=sys_, e=eps: ins.battery_yield(r, s, e),
                    lambda r=rho, s=sys_, e=eps, dl=delta: ins.one_shot_cost_eps(r, s, e, dl),
                ]
                via = "api"
            for task, run, check in zip(("yield", "battery", "cost"), runs,
                                        (check_yield, check_battery, check_cost)):
                ops.append(Op(f"{task}/{via}/d{d}", run, check, f"{task} {key}"))
    return ops


# ---------------------------------------------------------------------------
# sdp-scaling: a few large SDPs (d = 9 and 16) and one multi-copy sweep
# ---------------------------------------------------------------------------

REGULARIZE_EPS = 0.05
REGULARIZE_NMAX = 4
HT_EPS = 0.1
SMOOTH_EPS = 0.05


def bloch_state(rng, cos_lo, cos_hi):
    """Qubit state with Bloch radius in [0.6, 0.95), |cos(polar angle)| in [cos_lo, cos_hi)
    and a uniform azimuth."""
    r = rng.uniform(0.6, 0.95)
    c = rng.uniform(cos_lo, cos_hi) * rng.choice((-1.0, 1.0))
    s, phi = math.sqrt(1 - c * c), rng.uniform(0, 2 * math.pi)
    x, y, z = r * s * math.cos(phi), r * s * math.sin(phi), r * c
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _regularize_op(rng, tmp, block):
    # Stratified over the blocks of a round: block b draws |cos(polar angle)|
    # from the b-th of SDP_BLOCKS equal parts of [0, 1), so every run holds
    # a state of high and one of low coherence 2|rho_01|, down to nearly
    # free states, where the sweep takes up to twice as long.
    lo = (block % SDP_BLOCKS) / SDP_BLOCKS
    rho = bloch_state(rng, lo, lo + 1.0 / SDP_BLOCKS)
    tag = f"b{block}"
    delta_rho = np.diag(np.diag(rho))
    state = write_json(tmp / f"{tag}-regularize-state.json", {"dim": 2, "matrix": matrix_json(rho)})
    chan = write_json(tmp / f"{tag}-regularize-channel.json", {"kind": "dephaser", "dim": 2})
    out = str(tmp / "out.csv")
    argv = ["regularize", "--state", state, "--channel", chan,
            "--eps", repr(REGULARIZE_EPS), "--nmax", str(REGULARIZE_NMAX)]

    def check(out, done):
        rows = list(csv.DictReader(io.StringIO(out)))
        if [int(r["n"]) for r in rows] != list(range(1, REGULARIZE_NMAX + 1)):
            return [f"regularize rows {[r['n'] for r in rows]}"]
        d_max = orc.d_max(rho, delta_rho)
        umegaki = orc.umegaki(rho, delta_rho)
        bounds = [
            orc.d_hypothesis(orc.kron_all([rho] * n), orc.kron_all([delta_rho] * n), REGULARIZE_EPS) / n
            for n in range(1, REGULARIZE_NMAX + 1)
        ]
        problems = []
        for row, bound in zip(rows, bounds):
            n = row["n"]
            hi, lo, y = (float(row[k]) for k in ("cost_hi_rate", "cost_lo_rate", "yield_rate"))
            problems += near(hi, d_max, 1e-9, f"regularize n={n} cost_hi_rate vs D_max")
            problems += at_most(lo, hi, SDP_TOL, f"regularize n={n} cost_lo <= cost_hi")
            problems += at_most(y, bound, SDP_TOL, f"regularize n={n} yield vs D_H^eps/n")
            problems += near(float(row["umegaki"]), umegaki, 1e-9, f"regularize n={n} umegaki")
        return problems

    return Op("regularize/cli/n4", lambda: cli(argv, out), check)


def _pure_dmax_op(rng, d):
    psi = pure_vector(rng, d)
    rho = np.outer(psi, psi.conj())
    exact = orc.pure_coherence_dmax(psi)
    channel = ins.dephaser(d)

    def check(out, done):
        return near(out.value, exact, SDP_TOL, f"dmax_smoothed eps=0 pure d={d}")

    return Op(f"dmax_smoothed/eps0/d{d}", lambda: ins.dmax_smoothed_free(rho, channel, 0.0), check)


def _plus_op(d):
    rho, channel = ins.plus_state(d), ins.dephaser(d)

    def check(out, done):
        return near(out.value, math.log2(d), SDP_TOL, f"restricted_ht plus d={d}")

    return Op(f"restricted_ht/plus/d{d}", lambda: ins.restricted_ht(rho, channel, 0.0), check)


def _replacer_power_ops(rng):
    g = ginibre_state(rng, 2, floor=0.2)
    gamma = orc.kron_all([g] * 4)
    rho = ginibre_state(rng, 16)
    channel = ins.replacer(gamma)
    exact = functools.cache(lambda: orc.d_hypothesis(rho, gamma, HT_EPS))

    def check(what):
        return lambda out, done: near(out.value, exact(), 1e-7, f"{what} on replacer(g^4) vs D_H")

    return [
        Op("restricted_ht/replacer4/d16",
           lambda: ins.restricted_ht(rho, channel, HT_EPS), check("restricted_ht")),
        Op("ht_free/replacer4/d16", lambda: ins.ht_free(rho, channel, HT_EPS), check("ht_free")),
    ]


def _mixed_dmax_op(rng, d):
    rho = ginibre_state(rng, d)
    spec = orc.dephaser_spec(d)
    channel = ins.dephaser(d)

    def check(out, done):
        tau, omega = out.tau, out.omega
        d_max = orc.d_max(rho, spec.apply(rho))
        problems = at_most(out.value, d_max, SDP_TOL, f"dmax_smoothed d={d} vs D_max(rho||Delta rho)")
        problems += near(out.value, math.log2(np.trace(omega).real), 1e-9,
                         f"dmax_smoothed d={d} value vs log2 tr omega")
        problems += at_most(orc.trace_distance(tau, rho), SMOOTH_EPS, SDP_TOL,
                            f"dmax_smoothed d={d} ball")
        problems += at_most(-np.linalg.eigvalsh(orc.herm(omega - tau))[0], 0.0, SDP_TOL,
                            f"dmax_smoothed d={d} omega >= tau")
        problems += at_most(np.abs(omega - spec.apply(omega)).max(), 0.0, 1e-12,
                            f"dmax_smoothed d={d} omega free")
        return problems

    return Op(f"dmax_smoothed/eps{SMOOTH_EPS}/d{d}",
              lambda: ins.dmax_smoothed_free(rho, channel, SMOOTH_EPS), check)


SDP_BLOCKS = 2
PURE_D9_PER_BLOCK = 10


def make_sdp_block(rng, tmp: Path, block: int) -> list:
    # Cheapest first: the warm-up call is the first operation of block 0.
    # The d = 9 solves are more than half of the operations, so the median
    # latency is taken over them, while time (and ops_per_s) is dominated
    # by the d = 16 solves.
    return [
        *[_pure_dmax_op(rng, 9) for _ in range(PURE_D9_PER_BLOCK)],
        _plus_op(16),
        *_replacer_power_ops(rng),
        _pure_dmax_op(rng, 16),
        _mixed_dmax_op(rng, 16),
        _regularize_op(rng, tmp, block),
    ]


# ---------------------------------------------------------------------------
# monotones: the fixed-point optimizer, no SDP at all
# ---------------------------------------------------------------------------

# (alpha, z) inside the data-processing region; z = 1 takes the closed form.
# At alpha = 2 and z > 1 the fixed point needs thousands of iterations on
# some random states, or fails, so alpha = 2 appears only at z = 1.
FULL_RANK_GRID = [(0.5, 0.5), (0.5, 0.75), (0.8, 0.9), (1.5, 1.2), (0.5, 1.0), (2.0, 1.0)]
# Rank-deficient states take tens to a few hundred iterations at alpha = 1.5;
# at alpha < 1 some need thousands or never meet the residual tolerance.
RANK_DEFICIENT_GRID = [(1.5, 1.2), (1.5, 1.5), (2.0, 1.0)]
LAMBDAS = (0.0, 0.5)
SWEEP_ALPHAS, SWEEP_ZS = (0.5, 0.8, 1.5), (0.75, 1.0, 1.25)


def _monotone_channels(rng, d):
    g2 = ginibre_state(rng, 2, floor=0.2)
    shape = [(2, d // 4), (2, d // 4)]
    return [
        ("dephaser", ins.dephaser(d), orc.dephaser_spec(d), {"kind": "dephaser", "dim": d}),
        ("tpce", ins.tpce(shape), orc.tpce_spec(shape), {"kind": "tpce", "shape": shape}),
        ("cond_replacer", ins.cond_replacer(g2, d // 2), orc.cond_replacer_spec(g2, d // 2),
         {"kind": "cond_replacer", "gamma": matrix_json(g2), "d_b": d // 2}),
    ]


def _state_refs(rho, spec):
    """The oracle values every monotone of rho is checked against, computed once."""
    delta_rho = spec.apply(rho)
    return functools.cache(lambda: {
        "d_min": orc.d_min_free(rho, spec),
        "d_max": orc.d_max(rho, delta_rho),
        "umegaki": orc.umegaki(rho, delta_rho),
    })


def _sandwich(value, lo, hi, what):
    return at_most(lo, value, 1e-9, f"{what} above its lower bound") + at_most(
        value, hi, 1e-9, f"{what} below its upper bound")


def _m_lambda_check(refs, what):
    def check(out, done):
        problems = [] if out.method != "grid_fallback" else [f"{what}: grid_fallback"]
        problems += at_most(out.residual, FIXED_POINT_TOL, 0.0, f"{what} residual")
        return problems + _sandwich(out.value, refs()["d_min"], refs()["d_max"], what)

    return check


def _profile_op(kind, rho, channel, grid, refs, closed_forms):
    """One operation: the monotone family of one state over its (alpha, z, lambda)
    grid, plus d_min_free, umegaki_free and petz_free(0.5) if `closed_forms`."""
    points = [(a, z, lam) for a, z in grid for lam in LAMBDAS]

    def run():
        out = {p: ins.m_lambda(rho, *p, channel) for p in points}
        if closed_forms:
            out["d_min"] = ins.d_min_free(rho, channel)
            out["umegaki"] = ins.umegaki_free(rho, channel).value
            out["petz"] = ins.petz_free(rho, 0.5, channel).value
        return out

    def check(out, done):
        problems = []
        for a, z, lam in points:
            problems += _m_lambda_check(refs, f"m_lambda {kind} a={a} z={z} l={lam}")(out[a, z, lam], done)
        if closed_forms:
            problems += near(out["d_min"], refs()["d_min"], 1e-9, f"d_min_free {kind}")
            problems += near(out["umegaki"], refs()["umegaki"], 1e-9, f"umegaki_free {kind}")
            problems += _sandwich(out["petz"], refs()["d_min"], refs()["umegaki"], f"petz_free {kind}")
        return problems

    return Op(f"profile/{kind}", run, check)


def make_monotone_block(rng, tmp: Path, block: int) -> list:
    tag = f"b{block}"
    ops = []
    for d in (8, 16, 32):
        for name, channel, spec, channel_json in _monotone_channels(rng, d):
            for rank, grid in ((None, FULL_RANK_GRID), (d // 2, RANK_DEFICIENT_GRID)):
                rho = ginibre_state(rng, d, rank=rank, floor=0.0 if rank else 0.05)
                refs = _state_refs(rho, spec)
                kind = f"{name}/d{d}/{'full' if rank is None else 'rank'}"
                ops.append(_profile_op(kind, rho, channel, grid, refs, closed_forms=rank is None))
                if d == 8 and name == "dephaser" and rank is None:
                    ops += _monotone_cli_ops(tmp, f"{tag}-{name}", rho, channel_json, refs, kind)
    ops.append(_unique_free_state_op(rng))
    ops += _additivity_ops(rng)
    return ops


def _monotone_cli_ops(tmp, tag, rho, channel_json, refs, kind):
    d = rho.shape[0]
    state = write_json(tmp / f"{tag}-state.json", {"dim": d, "matrix": matrix_json(rho)})
    chan = write_json(tmp / f"{tag}-channel.json", channel_json)
    out = str(tmp / "out.txt")
    sweep = ["sweep", "--state", state, "--channel", chan, "--workers", "1",
             "--alphas", ",".join(map(str, SWEEP_ALPHAS)), "--zs", ",".join(map(str, SWEEP_ZS)),
             "--lambdas", ",".join(map(str, LAMBDAS))]
    monotone = ["monotone", "--state", state, "--channel", chan, "--alpha", "0.8", "--z", "0.9",
                "--lambda", "0.5"]

    def check_sweep(out, done):
        rows = list(csv.DictReader(io.StringIO(out)))
        problems = []
        if len(rows) != len(SWEEP_ALPHAS) * len(SWEEP_ZS) * len(LAMBDAS):
            problems.append(f"sweep {kind}: {len(rows)} rows")
        for row in rows:
            what = f"sweep {kind} a={row['alpha']} z={row['z']} l={row['lambda']}"
            inside = orc.in_dpi_region(float(row["alpha"]), float(row["z"]))
            if (row["method"] == "outside_dpi") == inside:
                problems.append(f"{what}: method {row['method']}")
            elif inside:
                problems += _m_lambda_check(refs, what)(_Row(row), done)
        return problems

    def check_monotone(out, done):
        data = json.loads(out)
        return _m_lambda_check(refs, f"monotone CLI {kind}")(_Row(data), done)

    return [Op(f"sweep/cli/{kind}", lambda: cli(sweep, out), check_sweep),
            Op(f"monotone/cli/{kind}", lambda: cli(monotone, out), check_monotone)]


class _Row:
    """Attribute view of a CLI result row, shaped like an OptimizerResult."""

    def __init__(self, row):
        self.method = row["method"]
        self.value = float(row["value"])
        self.residual = float(row["residual"])


def _unique_free_state_op(rng):
    """m_lambda on a replacer, whose one free state makes it D_{alpha,z}(rho||gamma)."""
    gamma = ginibre_state(rng, 8, floor=0.1)
    rho = ginibre_state(rng, 8, floor=0.05)
    channel = ins.replacer(gamma)

    def check(out, done):
        return [p for (a, z), res in zip(FULL_RANK_GRID, out) for p in near(
            res.value, orc.d_alpha_z(rho, gamma, a, z), 1e-9, f"m_lambda replacer a={a} z={z} vs D_az")]

    return Op("profile/replacer/d8/full",
              lambda: [ins.m_lambda(rho, a, z, 0.0, channel) for a, z in FULL_RANK_GRID], check)


ADDITIVITY_POINTS = [(0.5, 0.75, 0.0), (1.5, 1.2, 0.5), (0.8, 1.0, 0.0)]


def _additivity_ops(rng):
    """m_lambda of a d = 4 state and of its square under the squared channel, per point."""
    shape = [(2, 1), (1, 2)]
    rho = ginibre_state(rng, 4, floor=0.05)
    channel = ins.tpce(shape)
    pair = ins.tensor_channels(channel, channel)
    rho2 = np.kron(rho, rho)
    refs = _state_refs(rho, orc.tpce_spec(shape))
    ops = []
    for point in ADDITIVITY_POINTS:
        what = "additivity a={} z={} l={}".format(*point)

        def check(out, done, what=what):
            one, two = out
            return _m_lambda_check(refs, what)(one, done) + near(
                two.value, 2 * one.value, 1e-8, f"{what} m(rho (x) rho) vs 2 m(rho)")

        ops.append(Op("additivity/tpce/d4-d16",
                      lambda p=point: (ins.m_lambda(rho, *p, channel), ins.m_lambda(rho2, *p, pair)),
                      check))
    return ops


# Blocks per round: a round takes 25-30 s on the machine in the README, so a
# 30 s run is one round of distinct inputs.
WORKLOADS = {
    "tasks-small": Workload(4, make_tasks_block),
    "sdp-scaling": Workload(SDP_BLOCKS, make_sdp_block),
    "monotones": Workload(3, make_monotone_block),
}
