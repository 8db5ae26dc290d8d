"""One-shot distillation and dilution, assisted yields, and diagnostics.

Currency: the reference state at level m > 0 is |0><0| on a classical
two-level system whose destruction channel replaces every state by
gamma_m = diag(2^-m, 1 - 2^-m).  Distillation to the currency reduces to a
binary measurement determined by a single effect; dilution to a
preparation channel; both witnesses are produced and re-verified here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .channels import DestructionChannel, basis_state, replacer, tensor_channels
from .divergences import Result, d_max
from .errors import SolverError, ValidationError
from .linalg import (
    check_effect,
    check_eps,
    herm,
    spectral_norm,
    trace_distance,
    within_spectral_tolerance,
)
from .optimize import d_min_free, umegaki_free
from .programs import (
    _is_qubit_dephaser,
    _symmetric_dmax_free,
    _symmetric_restricted_ht,
    dmax_smoothed_free,
    ht_free,
    qubit_power_blocks,
    restricted_ht,
)

log = logging.getLogger("instability.tasks")

# Bits by which the SDP lower bound on the eps-cost may exceed the best
# candidate's D_max before the interval counts as a solver failure.
COST_CROSSING_TOL = 1e-6


@dataclass(frozen=True)
class CurrencyState:
    """Reference resource state phi_m with its two-level replacer channel."""

    m: float
    state: np.ndarray = field(init=False)
    channel: DestructionChannel = field(init=False)

    def __post_init__(self):
        if not (self.m > 0):
            raise ValidationError("currency level m must be positive (gamma_0 is singular)")
        gamma = np.diag([2.0**-self.m, 1.0 - 2.0**-self.m]).astype(complex)
        object.__setattr__(self, "state", basis_state(2, 0))
        object.__setattr__(self, "channel", replacer(gamma))


def currency(m: float) -> CurrencyState:
    return CurrencyState(float(m))


@dataclass(frozen=True)
class TaskReport(Result):
    """A task's value with its witness and re-verification residuals.

    Each task runs one program; its residuals check the returned witness,
    not the value recomputed a second way.
    ``method`` is that of the program behind the value: "sdp",
    "neyman_pearson" or "closed_form".  A closed form has
    ``interval == (value, value)``, a Neyman-Pearson value the interval
    of its dual bound, and an interior-point one ``interval is None``.
    For "cost_interval" ``value`` is the pair (lower, upper) and
    ``interval`` the same pair, with the method of the lower bound.
    ``residuals["sdp_gap"]`` is present only when a solve ran.
    """

    quantity: str            # yield | cost | cost_interval | battery_yield | catalytic_yield0
    epsilon: float
    witness: dict
    residuals: dict


# ---------------------------------------------------------------------------
# Channel actions and covariance checking
# ---------------------------------------------------------------------------


def matrix_units(dim: int):
    for j in range(dim):
        for k in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            yield e


def covariance_check(
    action: Callable[[np.ndarray], np.ndarray],
    ch_in: DestructionChannel,
    ch_out: DestructionChannel,
) -> float:
    """Max over matrix units of ||N(Delta_in(E)) - Delta_out(N(E))||_1.

    Because both sides are linear in E, a small residual on the full matrix
    unit basis certifies covariance of the channel everywhere.  The
    differences are not Hermitian, so the trace norm is the sum of singular
    values, taken by one batched SVD per row of matrix units, so at most
    dim_in differences of dim_out x dim_out are held at once.
    """
    units, worst = matrix_units(ch_in.dim), 0.0
    for _ in range(ch_in.dim):
        diffs = np.stack(
            [action(ch_in.apply(e)) - ch_out.apply(action(e)) for e in islice(units, ch_in.dim)]
        )
        worst = max(worst, float(np.linalg.svd(diffs, compute_uv=False).sum(axis=-1).max()))
    return worst


def measurement_action(gamma: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Binary measurement channel t -> tr[t G]|0><0| + tr[t (I-G)]|1><1|."""
    dim = gamma.shape[0]
    eye = np.eye(dim)

    def act(t: np.ndarray) -> np.ndarray:
        p0 = complex(np.trace(t @ gamma))
        p1 = complex(np.trace(t @ (eye - gamma)))
        return np.diag([p0, p1]).astype(complex)

    return act


def preparation_action(out0: np.ndarray, out1: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Classical-input preparation channel |x><x| -> out_x (off-diagonals die)."""

    def act(t: np.ndarray) -> np.ndarray:
        return t[0, 0] * out0 + t[1, 1] * out1

    return act


# ---------------------------------------------------------------------------
# One-shot tasks
# ---------------------------------------------------------------------------


def one_shot_yield(rho, channel: DestructionChannel, eps: float) -> TaskReport:
    """Distillable currency at error eps, with the measurement witness."""
    res = restricted_ht(rho, channel, eps)
    m = res.value
    witness, residuals = {"effect": res.gamma}, _solve_gap(res)
    if np.isfinite(m) and m > 1e-9:
        target = currency(m)
        action = measurement_action(res.gamma)
        witness.update({"currency_level": m, "channel": "binary measurement"})
        residuals["covariance"] = covariance_check(action, channel, target.channel)
        residuals["output_accuracy"] = trace_distance(action(rho), target.state)
    elif np.isfinite(m):
        # Nothing distillable beyond solver noise: report without a witness
        # channel, since the currency system needs a full-rank Gibbs weight
        # and hence a level bounded away from 0.
        m = max(m, 0.0)
    # A value clipped up to 0 stretches its interval to include it.
    interval = res.interval and (min(res.interval[0], m), max(res.interval[1], m))
    return TaskReport(m, interval, res.method, "yield", eps, witness, residuals)


def _solve_gap(res) -> dict:
    """{"sdp_gap": gap} when an interior-point solve produced `res`, else {}."""
    return {} if res.solution is None else {"sdp_gap": res.solution.gap}


def one_shot_cost_exact(rho, channel: DestructionChannel) -> TaskReport:
    """Exact (eps = 0) dilution cost D_max(rho || Delta(rho)) with witness."""
    delta_rho = herm(channel.apply(rho))
    m = d_max(rho, delta_rho)
    if m <= 1e-12:
        # Free state: the constant preparation works from any system.
        action = preparation_action(np.asarray(rho, dtype=complex), np.asarray(rho, dtype=complex))
        cov = covariance_check(action, currency(1.0).channel, channel)
        return TaskReport(
            0.0, (0.0, 0.0), "closed_form", "cost", 0.0,
            {"channel": "constant preparation", "output": np.asarray(rho, dtype=complex)},
            {"covariance": cov},
        )
    other = herm((2.0**m * delta_rho - rho) / (2.0**m - 1.0))
    min_eig = float(np.linalg.eigvalsh(other)[0])
    action = preparation_action(np.asarray(rho, dtype=complex), other)
    cov = covariance_check(action, currency(m).channel, channel)
    return TaskReport(
        m, (m, m), "closed_form", "cost", 0.0,
        {
            "channel": "preparation",
            "currency_level": m,
            "output_on_zero": np.asarray(rho, dtype=complex),
            "output_on_one": other,
        },
        {"covariance": cov, "second_output_min_eig": min_eig},
    )


def one_shot_cost_eps(rho, channel: DestructionChannel, eps: float, delta: float) -> TaskReport:
    """Certified interval for the eps-dilution cost, from one smoothed solve.

    Lower bound: the smoothed max-relative entropy to the free set at eps.
    Upper bound: the least D_max(tau || Delta(tau)) over candidates in the
    eps-ball: rho; the program's own tau, mixed onto the ball as
    (1 - s) tau + s rho, s = (dist - eps) / dist, where solver tolerance
    leaves it outside; and (1 - delta) rho + delta sigma, with sigma the
    program's normalized free operator or the fixed state.  On a
    one-dimensional fixed algebra Delta(tau) is the fixed state for every
    tau, so the program's own tau closes the interval.
    """
    if not (0.0 < delta < eps):
        raise ValidationError("need 0 < delta < eps")
    rho = np.asarray(rho, dtype=complex)
    lower_res = dmax_smoothed_free(rho, channel, eps)
    lower = lower_res.value

    tau = _project_to_state(lower_res.tau)
    dist = trace_distance(tau, rho)
    if dist > eps:
        s = (dist - eps) / dist
        tau = herm((1.0 - s) * tau + s * rho)
    candidates = [rho, tau]
    tr_om = float(np.trace(lower_res.omega).real)
    if tr_om > 0:
        sigma = _project_to_state(lower_res.omega / tr_om)
        candidates.append(herm((1.0 - delta) * rho + delta * sigma))
    candidates.append(herm((1.0 - delta) * rho + delta * channel.fixed_state()))

    upper, best = float("inf"), rho
    for cand in candidates:
        if trace_distance(cand, rho) <= eps + 1e-12:
            val = d_max(cand, herm(channel.apply(cand)))
            if val < upper:
                upper, best = val, cand
    # The bounds may cross by solver noise; a wider crossing is a failure.
    bound_crossing = max(0.0, lower - upper)
    if bound_crossing > COST_CROSSING_TOL:
        raise SolverError(
            f"cost bounds cross: lower {lower:.9g} exceeds upper {upper:.9g} bits"
        )
    upper = max(upper, lower)
    return TaskReport(
        (lower, upper), (lower, upper), lower_res.method, "cost_interval", eps,
        {"tau": best, "smoothed_tau": tau},
        {
            **_solve_gap(lower_res),
            "ball_distance": trace_distance(best, rho),
            "envelope": float(np.log2(1.0 / delta)),
            "bound_crossing": bound_crossing,
        },
    )


def _project_to_state(m: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues and renormalize the trace."""
    w, v = np.linalg.eigh(herm(m))
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0:
        raise ValidationError("cannot normalize a zero operator to a state")
    return herm((v * (w / total)) @ v.conj().T)


def battery_yield(rho, channel: DestructionChannel, eps: float) -> TaskReport:
    """Battery-assisted yield: equals the free hypothesis-testing divergence.

    One free test, witnessed by the composite effect built from it and one
    currency bit.  The identity with the one-extra-bit protocol,
    yield(rho (x) phi_1) - 1, is a theorem that the tests and
    ``instability verify`` check; it is not re-solved here.
    """
    res = ht_free(rho, channel, eps)
    witness, residuals = {"effect": res.gamma}, _solve_gap(res)
    if np.isfinite(res.value):
        phi1 = currency(1.0)
        joint = tensor_channels(channel, phi1.channel)
        joint_state = np.kron(np.asarray(rho, dtype=complex), phi1.state)
        upsilon = compose_effect(res.gamma, phi1.state, 1.0, channel, phi1.channel)
        dual = joint.apply_dual(upsilon)
        level = -float(
            np.log2(max(float(np.trace(dual).real) / joint.dim, 1e-300))
        )
        residuals["composite_membership"] = spectral_norm(
            dual - 2.0**-level * np.eye(joint.dim)
        )
        residuals["composite_pass"] = float(
            np.real(np.trace(joint_state @ upsilon))
        )
        witness["composite_effect"] = upsilon
        witness["composite_level"] = level
    return TaskReport(res.value, res.interval, res.method, "battery_yield", eps, witness, residuals)


def catalytic_yield0(rho, channel: DestructionChannel) -> TaskReport:
    """Zero-error catalytic yield; coincides with the battery-assisted one."""
    value = d_min_free(rho, channel)
    return TaskReport(value, (value, value), "closed_form", "catalytic_yield0", 0.0, {}, {})


# ---------------------------------------------------------------------------
# Effect constructions
# ---------------------------------------------------------------------------


def lift_effect(gamma, channel: DestructionChannel) -> np.ndarray:
    """Lift an effect so its dual image becomes a scalar matrix.

    With p = ||Delta^*(Gamma)||_inf, the lifted effect
    (1-p) Gamma + p I - (1-p) Delta^*(Gamma) has Delta^* image p I and
    dominates (1-p) Gamma.
    """
    gamma = check_effect(gamma, channel.dim)
    dual = herm(channel.apply_dual(gamma))
    p = float(np.linalg.eigvalsh(dual)[-1])
    eye = np.eye(channel.dim)
    return herm((1.0 - p) * gamma + p * eye - (1.0 - p) * dual)


def compose_effect(
    gamma,
    lam,
    t: float,
    ch_a: DestructionChannel,
    ch_b: DestructionChannel,
) -> np.ndarray:
    """Combine an effect on A with a scalar-dual effect on B.

    Requires Delta_B^*(Lambda) = 2^-t I and 2^-(t+m) <= 1 - 2^-t where
    2^-m = ||Delta_A^*(Gamma)||_inf; the result lies in the scalar-dual
    class at level m + t and dominates Gamma (x) Lambda.
    """
    gamma = check_effect(gamma, ch_a.dim)
    lam = check_effect(lam, ch_b.dim)
    dual_b = herm(ch_b.apply_dual(lam))
    if not within_spectral_tolerance(dual_b - 2.0**-t * np.eye(ch_b.dim), 1e-8):
        raise ValidationError("Lambda is not a scalar-dual effect at level t")
    dual_a = herm(ch_a.apply_dual(gamma))
    p = float(np.linalg.eigvalsh(dual_a)[-1])
    if p <= 0:
        raise ValidationError("Gamma has vanishing dual image")
    m = -float(np.log2(p))
    if 2.0 ** -(t + m) > 1.0 - 2.0**-t + 1e-12:
        raise ValidationError(f"hypothesis 2^-(t+m) <= 1 - 2^-t fails for t={t}, m={m}")
    eye_a = np.eye(ch_a.dim)
    eye_b = np.eye(ch_b.dim)
    bump = (2.0**-t / (1.0 - 2.0**-t)) * np.kron(p * eye_a - dual_a, eye_b - lam)
    return herm(np.kron(gamma, lam) + bump)


# ---------------------------------------------------------------------------
# Regularization sweep
# ---------------------------------------------------------------------------

YIELD_DIM_BUDGET = 64


def regularize_sweep(rho, channel: DestructionChannel, eps: float, n_max: int) -> list[dict]:
    """Per-copy rates over n = 1..n_max tensor powers.

    cost_hi_rate is the exact-cost rate D_max(rho^{(x)n} || Delta^{(x)n}
    rho^{(x)n}) / n.  Since Delta^{(x)n}(rho^{(x)n}) = (Delta rho)^{(x)n} and
    D_max is additive, it equals D_max(rho || Delta rho) for every n and is
    computed once.  yield_rate (the restricted hypothesis-testing SDP) and
    cost_lo_rate (the smoothed lower bound) are solved while d^n is within
    the SDP budget 64; past it they hold None.  The Umegaki rate is the
    common asymptotic target.

    For a qubit dephaser in any basis (two one-dimensional blocks) the two
    SDP rows solve permutation-invariant programs over the n//2 + 1
    Schur-Weyl blocks of rho^{(x)n}, each at most n + 1 wide, with rho in
    the dephaser's basis; every other channel builds rho^{(x)n} and
    Delta^{(x)n}, only within the SDP budget, and solves the programs on
    them.
    """
    if n_max < 1:
        raise ValidationError(f"n_max {n_max} must be at least 1")
    eps = check_eps(eps)
    rho = np.asarray(rho, dtype=complex)
    target = umegaki_free(rho, channel).value  # validates rho
    cost_hi = d_max(rho, herm(channel.apply(rho)))
    qubit = channel.to_block_frame(rho) if _is_qubit_dephaser(channel) else None
    n_sdp = 0  # the largest n with d^n within the SDP budget, at most n_max
    while n_sdp < n_max and channel.dim ** (n_sdp + 1) <= YIELD_DIM_BUDGET:
        n_sdp += 1
    if n_sdp < n_max:
        log.info("n>%d: dimension %d^n exceeds the SDP budget %d, yield rows skipped",
                 n_sdp, channel.dim, YIELD_DIM_BUDGET)
    rows = []
    rho_n, channel_n = rho, channel
    for n in range(1, n_max + 1):
        row = {
            "n": n,
            "yield_rate": None,
            "cost_lo_rate": None,
            "cost_hi_rate": cost_hi,
            "umegaki": target,
        }
        if n <= n_sdp and qubit is not None:
            blocks = qubit_power_blocks(qubit, n)
            row["yield_rate"] = _symmetric_restricted_ht(blocks, n, eps) / n
            row["cost_lo_rate"] = _symmetric_dmax_free(blocks, n, eps) / n
        elif n <= n_sdp:
            if n > 1:
                rho_n, channel_n = np.kron(rho_n, rho), tensor_channels(channel_n, channel)
            row["yield_rate"] = restricted_ht(rho_n, channel_n, eps).value / n
            row["cost_lo_rate"] = dmax_smoothed_free(rho_n, channel_n, eps).value / n
        rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = ["n,yield_rate,cost_lo_rate,cost_hi_rate,umegaki"]
    for row in rows:
        cells = [str(row["n"])]
        for key in ("yield_rate", "cost_lo_rate", "cost_hi_rate", "umegaki"):
            v = row[key]
            cells.append("" if v is None else f"{v:.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sweep_diagnostics(rows: list[dict], eps: float) -> dict:
    """Monotone-trend checks on a regularization sweep at error eps.

    The smoothed lower-bound rate cannot exceed the exact-cost rate.  An
    eps-yield may exceed the Umegaki rate D, but never the converse bound
    D_H^eps <= (n D + h2(eps)) / (1 - eps) of Wang and Renner (PRL 108,
    200501, 2012): yield_below_target checks each yield rate against
    (n D + h2(eps)) / (n (1 - eps)).  Both checks allow 1e-6 for solver noise.
    """
    tol = 1e-6
    target = rows[0]["umegaki"] if rows else 0.0
    lo_ok = all(
        r["cost_lo_rate"] <= r["cost_hi_rate"] + tol
        for r in rows
        if r["cost_lo_rate"] is not None and r["cost_hi_rate"] is not None
    )
    return {
        "yield_below_target": all(
            r["yield_rate"] <= _yield_rate_bound(target, r["n"], eps) + tol
            for r in rows
            if r["yield_rate"] is not None
        ),
        "lower_bound_consistent": lo_ok,
        "target": target,
    }


def _yield_rate_bound(rate: float, n: int, eps: float) -> float:
    """(n D + h2(eps)) / (n (1 - eps)), the converse bound on an eps-yield rate."""
    if eps >= 1.0:
        return float("inf")
    h2 = 0.0 if eps <= 0.0 else float(-eps * np.log2(eps) - (1 - eps) * np.log2(1 - eps))
    return (n * rate + h2) / (n * (1.0 - eps))
