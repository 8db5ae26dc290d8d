"""Optimization of trace functionals over the free-state family.

The central object is F(sigma) = tr[(sigma^{r/2} X sigma^{r/2})^z] for a PSD
payload X, optimized over the fixed states of a destruction channel.  The
optimizer satisfies the implicit equation

    sigma_* proportional to Delta((sigma_*^{r/2} X sigma_*^{r/2})^z)

which is solved by an Anderson-accelerated fixed-point iteration, with
closed forms at z = 1 (and hence for the whole Petz family) and a grid
fallback for families within the grid budget.  F is concave for r in
[0, 1] (maximized) and convex for r in [-1, 0] (minimized).

Every free state is (+) tau_i (x) beta_i in the channel's block frame, so
the iteration runs there on the small factors beta_i alone, with one
eigendecomposition of the d x d core per evaluated step, and every result
holds its optimizer by those factors (``OptimizerResult.betas``).  Each
step mixes the last ANDERSON_DEPTH + 1 factor stacks and their targets
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011); a mixed step that leaves
the full-rank free states or makes F worse is replaced by the damped step
toward the target.  The loop stops once the fixed-point residual is below
FIXED_POINT_STEP_TOL, or after FIXED_POINT_MAX_ITER evaluated steps, and
accepts a point within FIXED_POINT_RESIDUAL_TOL.  It always starts from
the normalized Delta(X) mixed with the fixed state (``_default_init``);
the start, the cap and the tolerances are constants, and a caller sets
only the method.  At the returned point the Frank-Wolfe gap
max_s tr[grad F (s - sigma)] over free states s (Jaggi, ICML 2013) bounds
the distance of F to its optimum, so every result carries an interval
that contains the exact optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    DestructionChannel,
    enumerate_free_grid,
    free_parameter_count,
)
from .divergences import RenyiParams, Result, _umegaki
from .errors import BudgetError, SolverError, ValidationError
from .linalg import (
    check_psd,
    check_psd_spectrum,
    density_eigh,
    herm,
    mat_pow,
    pow_from_eigh,
    rank_tol,
    trace_norm,
)

FIXED_POINT_STEP_TOL = 1e-11  # the residual at which the iteration stops
ANDERSON_DEPTH = 4
FIXED_POINT_MAX_ITER = 10_000
FIXED_POINT_RESIDUAL_TOL = 1e-9
ETA_FLOOR = 1.0 / 64.0
INIT_MIX = 1e-3
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def check_functional_region(r: float, z: float) -> None:
    """(r, z) region where F is convex or concave with a free-state optimizer."""
    if not (-1.0 <= r <= 1.0) or z <= 0:
        raise ValidationError(f"(r={r}, z={z}) outside [-1,1] x (0,inf)")
    if 0.0 < r < 1.0 and z > 1.0 / r + 1e-12:
        raise ValidationError(f"(r={r}, z={z}) violates z <= 1/r")
    if r == 1.0 and z >= 1.0:
        raise ValidationError("r = 1 requires z < 1")


@dataclass(frozen=True)
class TraceFunctionalSpec:
    x: np.ndarray
    r: float
    z: float
    channel: DestructionChannel

    def __post_init__(self):
        check_functional_region(self.r, self.z)
        object.__setattr__(
            self, "x", check_psd(self.x, self.channel.dim, what="payload X")
        )
        if float(np.trace(self.x).real) <= 0:
            raise ValidationError("payload X must be nonzero")


@dataclass(frozen=True, slots=True)
class OptimizerResult(Result):
    """Outcome of a free-state optimization.

    The optimizer sigma_star = (+) tau_i (x) beta_i is held by its factors:
    ``betas`` has one (n, d_b, d_b) stack per block group of ``channel``
    (see ``DestructionChannel.block_marginals``), and ``sigma_star``
    assembles the matrix when it is read.  ``value`` is F(sigma_star) for
    the raw trace-functional entry points and the divergence in bits for
    the monotone wrappers; ``residual`` is the trace-norm defect of the
    implicit fixed-point equation at sigma_star.  ``gap`` is the
    Frank-Wolfe gap of F at sigma_star (0.0 for the exact closed forms,
    +inf where it is unbounded), and ``interval`` contains the exact
    optimum in the units of ``value``, of which ``value`` is one end: the
    upper end in bits for the monotones, which are infima over free states.
    ``method`` is "closed_form_z1", "closed_form_petz" or "endpoint" (exact,
    with ``interval == (value, value)``), "fixed_point" or "grid_fallback".
    """

    betas: tuple[np.ndarray, ...]
    channel: DestructionChannel
    residual: float
    iterations: int
    gap: float = 0.0

    @property
    def sigma_star(self) -> np.ndarray:
        return self.channel.assemble_free(self.betas)


def _factors(sigma: np.ndarray, channel: DestructionChannel) -> tuple[np.ndarray, ...]:
    """The factors beta_i of a free state given as a matrix."""
    return tuple(channel.block_marginals(channel.to_block_frame(sigma)))


def _factor_distance(a, b) -> float:
    """||(+) tau_i (x) (a_i - b_i)||_1 = sum_i ||a_i - b_i||_1, as tr tau_i = 1."""
    return float(
        sum(np.abs(np.linalg.eigvalsh(ai - bi)).sum() for ai, bi in zip(a, b))
    )


def _factor_trace(betas) -> float:
    """The total trace of factor stacks, which is tr[(+) tau_i (x) beta_i]."""
    return float(sum(np.trace(b, axis1=1, axis2=2).real.sum() for b in betas))


def _target(channel: DestructionChannel, g: np.ndarray) -> list[np.ndarray]:
    """The factors of the normalized Delta(G), for G in the block frame: the
    fixed-point map's image."""
    m = channel.block_marginals(g)
    tr = _factor_trace(m)
    if tr <= 0:
        raise SolverError("iteration map produced a zero-trace operator")
    return [b / tr for b in m]


def _flat(betas) -> np.ndarray:
    """Factor stacks as one real vector, the concatenated float views."""
    return np.concatenate([b.view(np.float64).ravel() for b in betas])


def _unflat(vec: np.ndarray, like) -> tuple[np.ndarray, ...]:
    """The factor stacks shaped like ``like`` from a ``_flat`` vector."""
    out, k = [], 0
    for b in like:
        out.append(vec[k : k + 2 * b.size].view(complex).reshape(b.shape))
        k += 2 * b.size
    return tuple(out)


def _anderson(history, like) -> tuple[np.ndarray, ...] | None:
    """Type-II Anderson mixing of the (beta, T(beta)) pairs in ``history``,
    oldest first, as ``_flat`` vectors: the affine combination of the
    targets whose coefficients make the same combination of the residuals
    T(beta) - beta least-squares smallest, as factor stacks shaped like
    ``like`` and scaled to unit trace (None if the trace is not positive).
    Real coefficients on exactly Hermitian stacks give exactly Hermitian
    stacks; the scaling undoes the trace drift of large coefficients, which
    F, homogeneous of degree r z, would read as a change of value."""
    xs, gs = (np.array(a) for a in zip(*history))
    fs = gs - xs
    gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
    step = _unflat(gs[-1] - np.diff(gs, axis=0).T @ gamma, like)
    tr = _factor_trace(step)
    return tuple(b / tr for b in step) if tr > 0 else None


def _interior(eig, dim: int) -> bool:
    """Whether every eigenvalue of a ``free_eig`` decomposition is above the rank cut."""
    return min(p.min() for p, _ in eig) > rank_tol(dim, max(p.max() for p, _ in eig))


def _gradient(spec, xb: np.ndarray, eig, core) -> np.ndarray | None:
    """grad F at sigma in the block frame, from the ``free_eig``
    decomposition of sigma and the eigendecomposition of its core.

    With sigma = V diag(l) V^dag and G = core^z,

        grad F = z V [f_r^[1](l_a, l_b) (l_a l_b)^{-r/2} (V^dag G V)_ab] V^dag

    where f_r^[1] is the divided difference of t -> t^r.  Eigenvalues of
    sigma below the rank cut are zeros.  Where X has weight on that kernel
    F is +inf there (r < 0) or grows from it at an infinite rate, and the
    answer is None; otherwise F does not see the kernel to first order.
    """
    channel, r, z = spec.channel, spec.r, spec.z
    lam, v = channel.free_eig_dense(eig)
    live = lam > rank_tol(channel.dim, lam.max())
    if not live.all():
        vk = v[:, ~live]
        if np.trace(vk.conj().T @ xb @ vk).real > rank_tol(channel.dim, np.trace(xb).real):
            return None
    lp = np.where(live, lam, 1.0)
    log_ratio = np.log(lp[:, None] / lp[None, :])
    with np.errstate(invalid="ignore"):
        ratio = np.expm1(r * log_ratio) / np.expm1(log_ratio)
    f1 = np.where(log_ratio == 0.0, r, ratio) * lp[None, :] ** (r - 1.0)
    weights = z * f1 * np.outer(lp, lp) ** (-r / 2.0) * np.outer(live, live)
    g = v.conj().T @ pow_from_eigh(*core, z) @ v
    return herm(v @ (weights * g) @ v.conj().T)


def _frank_wolfe_gap(spec, xb: np.ndarray, value: float, eig, core) -> float:
    """max over free states s of tr[grad F (s - sigma)] for r >= 0, and of
    tr[grad F (sigma - s)] for r < 0: the top (bottom) eigenvalue of a
    B-component of Delta^*(grad F) against tr[grad F sigma] = r z F, Euler's
    identity for F homogeneous of degree r z.  +inf where ``_gradient`` is
    None; roundoff below 0 reads 0."""
    grad = _gradient(spec, xb, eig, core)
    if grad is None:
        return float("inf")
    r, z = spec.r, spec.z
    spectra = [np.linalg.eigvalsh(m) for m in spec.channel.dual_marginals(grad)]
    if r >= 0.0:
        gap = max(e[:, -1].max() for e in spectra) - r * z * value
    else:
        gap = r * z * value - min(e[:, 0].min() for e in spectra)
    return max(float(gap), 0.0)


def _functional_value(sigma: np.ndarray, x: np.ndarray, r: float, z: float) -> float:
    half = mat_pow(sigma, r / 2.0)
    w = np.clip(np.linalg.eigvalsh(herm(half @ x @ half)), 0.0, None)
    return float(np.sum(w**z))


def fixed_point_residual(sigma, spec: TraceFunctionalSpec) -> float:
    """Trace-norm defect of sigma against the implicit optimizer equation
    sigma = normalize(Delta(G(sigma))), G(s) = (s^{r/2} X s^{r/2})^z."""
    half = mat_pow(sigma, spec.r / 2.0)
    t = herm(spec.channel.apply(mat_pow(herm(half @ spec.x @ half), spec.z)))
    tr = float(np.trace(t).real)
    if tr <= 0:
        raise SolverError("iteration map produced a zero-trace operator")
    return trace_norm(sigma - t / tr)


def _default_init(spec: TraceFunctionalSpec) -> np.ndarray:
    """The start of the iteration: Delta(X) normalized (the fixed state if
    it has no trace) and mixed with the fixed state, a full-rank free state."""
    seed = herm(spec.channel.apply(spec.x))
    tr = float(np.trace(seed).real)
    base = seed / tr if tr > 0 else spec.channel.fixed_state()
    return herm((1.0 - INIT_MIX) * base + INIT_MIX * spec.channel.fixed_state())


def optimize_trace_functional(
    spec: TraceFunctionalSpec, *, method: str = "auto"
) -> OptimizerResult:
    """Optimize F over the free states of the channel.

    ``method``, the only option, is "auto" (closed form when z = 1 or when
    the fixed state is the only free state, otherwise the accelerated
    fixed-point iteration) or "fixed_point".  The iteration starts from
    ``_default_init(spec)`` and stops once the fixed-point residual is
    below FIXED_POINT_STEP_TOL or after FIXED_POINT_MAX_ITER evaluated
    steps.  When the fixed point misses FIXED_POINT_RESIDUAL_TOL the grid
    oracle answers at its default resolution instead, or, for a family
    beyond GRID_PARAMETER_BUDGET, SolverError is raised.  Both answers
    carry their Frank-Wolfe gap and interval.
    """
    if method not in ("auto", "fixed_point"):
        raise ValidationError(f"unknown method {method!r}")
    channel = spec.channel
    maximize = spec.r >= 0.0
    xb = channel.to_block_frame(spec.x)

    def evaluate(eig):
        """(F, eigendecomposition of the core) at the free state of this
        ``free_eig`` decomposition.  SolverError, before the power, where
        F = tr[core^z] passes the float range."""
        half = channel.free_power(eig, spec.r / 2.0)
        w, v = np.linalg.eigh(herm(half @ xb @ half))
        check_psd_spectrum(w[0], w[-1], what="core")
        if w[-1] > 1.0 and spec.z * np.log(w[-1]) > LOG_FLOAT_MAX:
            raise SolverError(
                f"F = tr[core^z] overflows: z log lambda_max(core) = "
                f"{spec.z * np.log(w[-1]):.4g} exceeds the float range ({LOG_FLOAT_MAX:.4g})"
            )
        return float(np.sum(np.clip(w, 0.0, None) ** spec.z)), (w, v)

    def target(core):
        return _target(channel, pow_from_eigh(*core, spec.z))

    if method == "auto":
        if channel.algebra_dim() == 1:  # the fixed state is the only free state
            betas = _factors(channel.fixed_state(), channel)
            value, core = evaluate(channel.free_eig(betas))
            return OptimizerResult(
                value, (value, value), "closed_form_z1", betas, channel,
                _factor_distance(betas, target(core)), 0,
            )
        if spec.z == 1.0 and spec.r < 1.0:
            return _z1(spec.x, spec.r, channel)

    # The iteration runs in the block frame on the factors beta_i of
    # sigma = (+) tau_i (x) beta_i.  Each evaluated step takes one eigh of
    # the core sigma^{r/2} X sigma^{r/2}: its eigenvalues give F, and, for
    # an accepted step, its eigenvectors give G = core^z and so the target
    # T(beta), the normalized B-marginals of G.  Once two (beta, T(beta))
    # pairs are known the step is their Anderson mixing; a mixed step with
    # an eigenvalue of sigma at the rank cut is dropped unevaluated, and one
    # that makes F worse counts as an iteration.  Either clears the history
    # and the damped step follows: a rejected damped step (eta halved)
    # keeps the target.
    def certified(betas, eig, value, core, residual, iterations, method):
        gap = _frank_wolfe_gap(spec, xb, value, eig, core)
        interval = (value, value + gap) if maximize else (value - gap, value)
        return OptimizerResult(
            value, interval, method, betas, channel, residual, iterations, gap
        )

    betas = _factors(_default_init(spec), channel)
    eig = channel.free_eig(betas)
    f_cur, core = evaluate(eig)
    tgt = target(core)
    residual = _factor_distance(betas, tgt)
    history = [(_flat(betas), _flat(tgt))]
    eta = 1.0
    iterations = 0
    while residual >= FIXED_POINT_STEP_TOL and iterations < FIXED_POINT_MAX_ITER:
        mixed = len(history) > 1
        if mixed:
            step = _anderson(history, betas)
        else:
            step = tuple((1.0 - eta) * b + eta * t for b, t in zip(betas, tgt))
        step_eig = None if step is None else channel.free_eig(step)
        if mixed and (step_eig is None or not _interior(step_eig, channel.dim)):
            history = history[-1:]
            continue
        iterations += 1
        f_new, step_core = evaluate(step_eig)
        worse = f_new < f_cur - 1e-15 * (1 + abs(f_cur)) if maximize else (
            f_new > f_cur + 1e-15 * (1 + abs(f_cur))
        )
        if worse and mixed:
            history = history[-1:]
            continue
        if worse and eta > ETA_FLOOR:
            eta = max(eta / 2.0, ETA_FLOOR)
            continue
        betas, eig, f_cur, core = step, step_eig, f_new, step_core
        tgt = target(core)
        residual = _factor_distance(betas, tgt)
        history = [*history, (_flat(betas), _flat(tgt))][-ANDERSON_DEPTH - 1 :]
    if residual <= FIXED_POINT_RESIDUAL_TOL:
        return certified(betas, eig, f_cur, core, residual, iterations, "fixed_point")
    # Non-convergence: fall back to the exhaustive grid when it is small;
    # beyond the grid budget this is a solver failure, not a budget refusal.
    if free_parameter_count(channel) > GRID_PARAMETER_BUDGET:
        raise SolverError(
            f"fixed point did not converge: residual {residual:.3e} > "
            f"{FIXED_POINT_RESIDUAL_TOL:.0e} after {iterations} iterations"
        )
    sigma_g, value_g = grid_oracle(spec)
    betas_g = _factors(sigma_g, channel)
    eig_g = channel.free_eig(betas_g)
    return certified(
        betas_g,
        eig_g,
        value_g,
        evaluate(eig_g)[1],
        fixed_point_residual(sigma_g, spec),
        iterations,
        "grid_fallback",
    )


def z1_closed_form(x, r: float, channel: DestructionChannel) -> OptimizerResult:
    """Exact optimizer for z = 1.

    sigma_* is proportional to T(Delta^*(T^{r-1}(X))^{1/(1-r)}) with T the
    twist by Delta(I)^{1/2}, and F(sigma_*) equals the Schatten 1/(1-r)
    norm of Delta^*(T^{r-1}(X)).  In the block frame that algebra element
    is (+) I_A (x) B_i with B_i = d_A^{r-1} tr_A[(tau_i^r (x) I) X_i], so
    sigma_* = (+) tau_i (x) beta_i with beta_i proportional to
    d_A B_i^{1/(1-r)}: one batched eigh of the B_i per block group gives
    the value and the power, and the PSD check of X is the only d x d
    decomposition.
    """
    if r == 1.0:
        raise ValidationError("the z = 1 closed form requires r < 1")
    if not (-1.0 <= r < 1.0):
        raise ValidationError(f"r={r} outside [-1, 1)")
    return _z1(check_psd(x, channel.dim, what="payload X"), r, channel)


def _z1(x: np.ndarray, r: float, channel: DestructionChannel) -> OptimizerResult:
    """:func:`z1_closed_form` for a validated PSD X and r in [-1, 1).  The
    residual is the fixed-point defect at sigma_*, from its ``free_power``
    and the B-marginals of sigma_*^{r/2} X sigma_*^{r/2}."""
    xb = channel.to_block_frame(x)
    p = 1.0 / (1.0 - r)
    taus = channel.tau_power(r)
    mult = [t.shape[-1] for t in taus]  # d_A: each eigenvalue of B_i is d_A-fold
    eigs = [
        np.linalg.eigh(herm(d_a ** (r - 1.0) * b))
        for d_a, b in zip(mult, channel.dual_marginals(xb, taus))
    ]
    hi = max(w[:, -1].max() for w, _ in eigs)
    check_psd_spectrum(min(w[:, 0].min() for w, _ in eigs), hi, what="twisted payload")
    cut = rank_tol(channel.dim, hi)  # mat_pow's cut on the whole algebra element
    # The value sums over the eigenvalues the power keeps: below the cut,
    # roundoff w ~ 1e-17 would add w^p to it, far more than that for p < 1.
    total = sum(d_a * np.sum(w[w > cut] ** p) for d_a, (w, _) in zip(mult, eigs))
    value = float(total ** (1.0 / p))
    powers = [d_a * pow_from_eigh(w, v, p, cut) for d_a, (w, v) in zip(mult, eigs)]
    tr = _factor_trace(powers)
    if tr <= 0:
        raise SolverError("z=1 closed form produced a zero-trace optimizer")
    betas = tuple(b / tr for b in powers)
    half = channel.free_power(channel.free_eig(betas), r / 2.0)
    residual = _factor_distance(betas, _target(channel, herm(half @ xb @ half)))
    return OptimizerResult(value, (value, value), "closed_form_z1", betas, channel, residual, 0)


def pythagorean_factor(sigma, sigma_star, r: float) -> float:
    """tr[sigma^r sigma_star^{1-r}], the factor splitting F at z = 1."""
    return float(
        np.trace(mat_pow(sigma, r) @ mat_pow(sigma_star, 1.0 - r)).real
    )


# ---------------------------------------------------------------------------
# Monotones (values in bits)
# ---------------------------------------------------------------------------


def umegaki_free(rho, channel: DestructionChannel) -> OptimizerResult:
    """Umegaki divergence to the free set; the optimizer is Delta(rho).
    rho is decomposed once, by the eigh that validates it."""
    rho, w, v = density_eigh(rho, channel.dim)
    betas = _factors(rho, channel)
    value = _umegaki(rho, w, v, *np.linalg.eigh(herm(channel.assemble_free(betas))))
    return OptimizerResult(value, (value, value), "closed_form_z1", betas, channel, 0.0, 0)


def d_min_free(rho, channel: DestructionChannel) -> float:
    """D_min to the free set: -log2 ||Delta^*(rho^0)||_inf, Petz alpha = 0,
    from the largest eigenvalue of the B-components of Delta^*(rho^0) (see
    :func:`_d_min`)."""
    return petz_free(rho, 0.0, channel).value


def _d_min(rho, channel: DestructionChannel):
    """(lambda_max(Delta^*(rho^0)), the factors of a free state attaining
    sup tr[sigma rho^0] = lambda_max, rho^0) for a state rho, validated
    here: rho^0 comes from the eigh that validates rho, and the top
    eigenpair of Delta^*(rho^0) from one batched eigh of the B-components
    per block group; the state is tau_i (x) v v^dag on the block of that
    eigenvector.  D_min to the free set, and ``programs.ht_free`` at
    eps = 0 with the test rho^0, are -log2 lambda_max."""
    rho, w, v = density_eigh(rho, channel.dim)
    proj = pow_from_eigh(w, v, 0.0)
    eigs = [np.linalg.eigh(herm(b)) for b in channel.dual_marginals(channel.to_block_frame(proj))]
    g = max(range(len(eigs)), key=lambda j: eigs[j][0][:, -1].max())
    k = int(np.argmax(eigs[g][0][:, -1]))
    betas = [np.zeros_like(vecs) for _, vecs in eigs]
    top = eigs[g][1][k, :, -1]
    betas[g][k] = np.outer(top, top.conj())
    return float(eigs[g][0][k, -1]), tuple(betas), proj


def petz_free(rho, alpha: float, channel: DestructionChannel) -> OptimizerResult:
    """Petz divergence to the free set, alpha in [0, 2], via the closed form;
    rho^alpha comes from the eigh that validates rho."""
    if not (0.0 <= alpha <= 2.0):
        raise ValidationError(f"alpha={alpha} outside [0, 2]")
    if alpha == 1.0:
        return umegaki_free(rho, channel)
    if alpha == 0.0:
        overlap, betas, _ = _d_min(rho, channel)
        value = -float(np.log2(overlap)) if overlap > 0 else float("inf")
        return OptimizerResult(value, (value, value), "closed_form_petz", betas, channel, 0.0, 0)
    rho, w, v = density_eigh(rho, channel.dim)
    base = _z1(pow_from_eigh(w, v, alpha), 1.0 - alpha, channel)
    bits = float(np.log2(base.value) / (alpha - 1.0))
    return replace(base, value=bits, method="closed_form_petz", interval=(bits, bits))


def d_alpha_z_free(rho, alpha: float, z: float, channel: DestructionChannel) -> OptimizerResult:
    """alpha-z divergence to the free set (bits)."""
    return m_lambda(rho, alpha, z, 0.0, channel)


def m_lambda(
    rho,
    alpha: float,
    z: float,
    lam: float,
    channel: DestructionChannel,
) -> OptimizerResult:
    """The additive three-parameter monotone family (bits).

    With X_rho = rho^{a/2z} Delta(rho)^{lam(1-a)/2z}, the value is

        inf over free sigma of log2 tr[(X_rho sigma^{(1-lam)(1-a)/z} X_rho^*)^z] / (a-1)

    which interpolates between the optimized divergence (lam = 0) and the
    divergence to Delta(rho) (lam = 1, where no optimization is needed).
    The wing Delta(rho)^{lam(1-a)/2z} comes from the free decomposition of
    Delta(rho), one batched eigh of its factors, and for lam < 1 the
    optimum from :func:`optimize_trace_functional` with its one start rule
    and ``method="auto"``.
    """
    RenyiParams(alpha, z)  # validates (alpha, z)
    if not (0.0 <= lam <= 1.0):
        raise ValidationError(f"lambda={lam} outside [0, 1]")
    if alpha == 1.0:
        # The whole family collapses onto the Umegaki monotone at alpha = 1.
        return umegaki_free(rho, channel)
    rho, w, v = density_eigh(rho, channel.dim)
    delta_eig = channel.free_eig(_factors(rho, channel))  # of Delta(rho)
    wing = channel.from_block_frame(channel.free_power(delta_eig, lam * (1.0 - alpha) / (2.0 * z)))
    x = herm(wing @ pow_from_eigh(w, v, alpha / z) @ wing)
    r = (1.0 - lam) * (1.0 - alpha) / z
    if lam == 1.0:
        # F no longer depends on sigma; Delta(X^z) solves the implicit
        # equation exactly and tr[X^z] is the common value.
        xz = mat_pow(x, z)
        q = float(np.trace(xz).real)
        betas = tuple(m / q for m in _factors(xz, channel))
        bits = float(np.log2(q) / (alpha - 1.0)) if q > 0 else float("inf")
        return OptimizerResult(bits, (bits, bits), "endpoint", betas, channel, 0.0, 0)
    base = optimize_trace_functional(TraceFunctionalSpec(x, r, z, channel))

    def bits(f):
        return float(np.log2(f) / (alpha - 1.0)) if f > 0 else float("inf")

    # bits(F) is monotone in F, so it maps the interval of F onto one in bits.
    f_lo, f_hi = base.interval
    lo = -float("inf") if f_lo <= 0 else min(bits(f_lo), bits(f_hi))
    value = bits(base.value)
    return replace(base, value=value, interval=(lo, value))


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------

GRID_PARAMETER_BUDGET = 4


def grid_oracle(
    spec: TraceFunctionalSpec, resolution: int = 21
) -> tuple[np.ndarray, float]:
    """Exhaustive evaluation of F over the free-state grid.

    Refuses when the family has more than GRID_PARAMETER_BUDGET scalar
    parameters; independent of the fixed-point and closed-form paths.  For
    r < 0, F is +inf on a singular free state, so grid points with an
    eigenvalue at or below the rank cut are skipped.
    """
    n_par = free_parameter_count(spec.channel)
    if n_par > GRID_PARAMETER_BUDGET:
        raise BudgetError(
            f"free family has {n_par} parameters, grid budget is {GRID_PARAMETER_BUDGET}"
        )
    maximize = spec.r >= 0.0
    best_sigma, best_val = None, -np.inf if maximize else np.inf
    for sigma in enumerate_free_grid(spec.channel, resolution):
        if not maximize:
            w = np.linalg.eigvalsh(sigma)
            if w[0] <= rank_tol(spec.channel.dim, w[-1]):
                continue
        val = _functional_value(sigma, spec.x, spec.r, spec.z)
        if (val > best_val) if maximize else (val < best_val):
            best_sigma, best_val = sigma, val
    if best_sigma is None:
        raise SolverError(f"no full-rank free state on the grid at resolution {resolution}")
    return best_sigma, float(best_val)
