"""Two-argument quantum divergences, all in bits (log base 2).

The alpha-z family is evaluated as

    Q_{a,z}(rho || S) = tr[ (rho^{a/2z} S^{(1-a)/z} rho^{a/2z})^z ]
    D_{a,z}(rho || S) = log2(Q) / (a - 1)

which satisfies the second-argument scaling rule
``D(rho || t S) = D(rho || S) - log2 t`` and reduces to the Petz family at
z = 1, the sandwiched family at z = alpha, and the Umegaki/min/max special
cases handled separately below.  Support conventions: negative operator
powers act on the support, and D = +inf when alpha > 1 and supp(rho) is not
contained in supp(S) (or, for alpha < 1, when the arguments are orthogonal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .linalg import (
    check_density,
    check_eps,
    check_psd,
    density_eigh,
    herm,
    pow_from_eigh,
    psd_eigh,
    rank_tol,
    support_projector,
)
from .sdp import SdpSolution

LOG2 = np.log(2.0)


def in_dpi_region(alpha: float, z: float) -> bool:
    """Membership in the alpha-z region where data processing holds; alpha
    and z must be finite."""
    if not (np.isfinite(alpha) and np.isfinite(z)) or alpha <= 0 or z <= 0:
        return False
    if alpha < 1:
        return z >= max(alpha, 1.0 - alpha)
    if alpha == 1:
        return True
    return max(alpha / 2.0, alpha - 1.0) <= z <= alpha


@dataclass(frozen=True)
class RenyiParams:
    alpha: float
    z: float

    def __post_init__(self):
        if not in_dpi_region(self.alpha, self.z):
            raise ValidationError(
                f"(alpha={self.alpha}, z={self.z}) outside the data-processing region"
            )


def _support_dominates(rho: np.ndarray, w_r: np.ndarray, w_s: np.ndarray, v_s: np.ndarray) -> bool:
    """supp(rho) contained in supp(s), both PSD, from the eigenvalues w_r of
    rho and the eigendecomposition (w_s, v_s) of s."""
    proj = pow_from_eigh(w_s, v_s, 0.0)
    leak = float(np.trace(rho - proj @ rho @ proj).real)
    return leak <= 10 * rank_tol(rho.shape[0], max(w_r[-1], 1e-300))


def quasi_entropy(rho: np.ndarray, s: np.ndarray, alpha: float, z: float) -> float:
    """Q_{a,z}(rho || S) = tr[(rho^{a/2z} S^{(1-a)/z} rho^{a/2z})^z]."""
    _, w_r, v_r = psd_eigh(rho, what="mat_pow argument")
    _, w_s, v_s = psd_eigh(s, what="mat_pow argument")
    return _quasi_entropy(w_r, v_r, w_s, v_s, alpha, z)


def _quasi_entropy(w_r, v_r, w_s, v_s, alpha: float, z: float) -> float:
    """:func:`quasi_entropy` from the eigendecompositions of rho and S."""
    half = pow_from_eigh(w_r, v_r, alpha / (2.0 * z))
    mid = pow_from_eigh(w_s, v_s, (1.0 - alpha) / z)
    core = herm(half @ mid @ half)
    w = np.linalg.eigvalsh(core)
    w = np.clip(w, 0.0, None)
    return float(np.sum(w**z))


def d_alpha_z(rho, s, *, alpha: float, z: float) -> float:
    """alpha-z Renyi divergence in bits; +inf on support violations."""
    params = RenyiParams(float(alpha), float(z))
    rho, w_r, v_r = density_eigh(rho)
    s, w_s, v_s = psd_eigh(s, rho.shape[0], what="second argument")
    if float(np.trace(s).real) <= 0:
        raise ValidationError("second argument must be nonzero")
    a, zz = params.alpha, params.z
    if a == 1.0:
        return _umegaki(rho, w_r, v_r, w_s, v_s)
    if a > 1.0 and not _support_dominates(rho, w_r, w_s, v_s):
        return float("inf")
    q = _quasi_entropy(w_r, v_r, w_s, v_s, a, zz)
    if q <= 0.0:
        # Orthogonal arguments at alpha < 1; documented as +inf.
        return float("inf")
    return float(np.log2(q) / (a - 1.0))


def umegaki(rho, s) -> float:
    """Umegaki relative entropy tr[rho log rho] - tr[rho log S], in bits."""
    rho, w_r, v_r = density_eigh(rho)
    _, w_s, v_s = psd_eigh(s, rho.shape[0], what="second argument")
    return _umegaki(rho, w_r, v_r, w_s, v_s)


def _umegaki(rho, w_r, v_r, w_s, v_s) -> float:
    """:func:`umegaki` from the eigendecompositions of rho and S."""
    if not _support_dominates(rho, w_r, w_s, v_s):
        return float("inf")
    cut_r = rank_tol(rho.shape[0], max(abs(w_r[-1]), 1e-300))
    cut_s = rank_tol(len(w_s), max(abs(w_s[-1]), 1e-300))
    ent = float(np.sum(w_r[w_r > cut_r] * np.log(w_r[w_r > cut_r])))
    log_s = (v_s * np.where(w_s > cut_s, np.log(np.clip(w_s, 1e-300, None)), 0.0)) @ v_s.conj().T
    cross = float(np.trace(rho @ log_s).real)
    return (ent - cross) / LOG2


def d_min(rho, s) -> float:
    """-log2 tr[S rho^0] with rho^0 the support projector of rho."""
    rho, w, v = density_eigh(rho)
    s = check_psd(s, rho.shape[0], what="second argument")
    overlap = float(np.trace(s @ pow_from_eigh(w, v, 0.0)).real)
    if overlap <= 0.0:
        return float("inf")
    return -float(np.log2(overlap))


def d_max(rho, s) -> float:
    """log2 of the smallest t with t*S >= rho; +inf on support violation.

    Past the support test the value is finite: the core
    S^{-1/2} rho S^{-1/2} is PSD with trace at least tr[S^0 rho] /
    lambda_max(S), and a validated state that passes the test keeps all but
    10 rank_tol of its unit trace on supp(S), so lambda_max of the core is
    positive and neither -inf nor NaN can come out."""
    rho, w_r, _ = density_eigh(rho)
    _, w_s, v_s = psd_eigh(s, rho.shape[0], what="second argument")
    if not _support_dominates(rho, w_r, w_s, v_s):
        return float("inf")
    inv_half = pow_from_eigh(w_s, v_s, -0.5)
    lam = np.linalg.eigvalsh(herm(inv_half @ rho @ inv_half))[-1]
    return float(np.log2(lam))


# ---------------------------------------------------------------------------
# Hypothesis testing (Neyman-Pearson)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Result:
    """A returned value, the interval known to contain the exact quantity,
    and the method that produced it; every result record extends this one.

    An exact path (a closed form, an eps in {0, 1} face) has
    ``interval == (value, value)``.  The Neyman-Pearson scan has the
    interval between its test and its Lagrange dual bound, (value, value)
    when the two meet to rounding.  An interior-point value has
    ``interval is None``: not certified.  The free-state optimizers carry
    the interval of their Frank-Wolfe gap.
    """

    value: float
    interval: tuple[float, float] | None
    method: str


@dataclass(frozen=True)
class HypothesisTest(Result):
    """Optimal test for min tr[sigma Gamma] s.t. tr[rho Gamma] >= 1 - eps,
    or for the programs' tests against the free states.

    ``value`` is -log2 of the optimal type-II error ``type_two_error`` (the
    programs' optimal c), in bits; ``method`` is "neyman_pearson" (the
    scan), "closed_form" (the eps in {0, 1} faces) or "sdp" (an interior
    point).  ``threshold`` is set on the records of :func:`neyman_pearson`
    only, ``solution`` on those of an interior-point solve only.
    """

    type_two_error: float
    gamma: np.ndarray
    threshold: float | None = None  # Lagrange multiplier lambda at the optimum
    solution: SdpSolution | None = None


def _scan_point(rho, sigma, lam: float, target: float):
    """(lam, pass - target, w, v) with (w, v) the eigendecomposition of
    lam rho - sigma and pass = tr[rho P], P the projector onto its strictly
    positive eigenspace."""
    w, v = np.linalg.eigh(herm(lam * rho - sigma))
    vp = v[:, w > 0.0]
    return lam, float(np.real(np.trace(vp.conj().T @ rho @ vp))) - target, w, v


def _secant_values(lo, hi) -> tuple[float, float]:
    """The values at the two ends of a scan bracket that the secant step
    interpolates: the eigenvalue of lam rho - sigma that turns positive in
    the bracket when there is one (the largest such crossing), otherwise
    pass - target."""
    n_hi = np.count_nonzero(hi[2] > 0.0)
    if lo[2] is not None and n_hi > np.count_nonzero(lo[2] > 0.0):
        k = len(hi[2]) - n_hi
        return lo[2][k], hi[2][k]
    return lo[1], hi[1]


def neyman_pearson(rho, sigma, eps: float) -> HypothesisTest:
    """Exact optimal hypothesis test between rho and a PSD sigma.

    The optimal effect has the form "projector onto the strictly positive
    eigenspace of lambda*rho - sigma, plus a fraction of its kernel".  The
    passing probability tr[rho Gamma(lambda)] is nondecreasing in lambda
    (it is the derivative of the concave Lagrange dual), so the right
    lambda is found by a bracketing search; jumps at eigenvalue crossings
    are handled through the kernel fraction.
    """
    rho = check_density(rho)
    sigma = check_psd(sigma, rho.shape[0], what="second argument")
    return _neyman_pearson_scan(rho, sigma, check_eps(eps))


def _neyman_pearson_scan(rho: np.ndarray, sigma: np.ndarray, eps: float) -> HypothesisTest:
    """:func:`neyman_pearson` for a validated state, PSD sigma and eps in
    [0, 1], without validation.

    After lambda is bracketed (lambda = 1, 4, 16, ...), the bracket
    [lo, hi] with pass(lo) < 1 - eps <= pass(hi) shrinks by the Illinois
    variant of regula falsi, with a bisection step after any step that did
    not halve it, until its width is at most 1e-15 max(hi, 1).  pass is a
    step function at the eigenvalue crossings of lam rho - sigma, where a
    secant on it gains nothing over bisection; so while the bracket holds a
    crossing the secant runs on the crossing eigenvalue (smooth and
    nondecreasing in lam), and otherwise on pass - (1 - eps).  Each step
    moves at least 0.4e-15 max(hi, 1), so a converged end closes the
    bracket.  The strict threshold on the positive part makes the search
    converge onto the true eigenvalue crossing, and the kernel window of
    the final step, 1e-10 (lam tr rho + tr sigma), contains it.  That is the
    rounding scale of lam rho - sigma (it bounds its spectral norm for PSD
    arguments), so the window does not shrink with the eigenvalues when rho
    is (nearly) proportional to sigma.
    """
    d = rho.shape[0]
    if eps >= 1.0:
        inf = float("inf")
        zero = np.zeros((d, d), dtype=complex)
        return HypothesisTest(inf, (inf, inf), "closed_form", 0.0, zero, 0.0)
    target = 1.0 - eps
    if eps <= 0.0:
        # tr[rho Gamma] = 1 forces Gamma to act as identity on supp rho.
        gamma = support_projector(rho)
        beta = float(np.trace(sigma @ gamma).real)
        value = -float(np.log2(beta)) if beta > 0 else float("inf")
        return HypothesisTest(value, (value, value), "closed_form", beta, gamma, float("inf"))

    lo = (0.0, -target, None, None)  # -sigma has no strictly positive part
    lam = 1.0
    for _ in range(200):
        hi = _scan_point(rho, sigma, lam, target)
        if hi[1] >= 0.0:
            break
        lo, lam = hi, 4.0 * lam
    else:
        raise ValidationError("failed to bracket the Neyman-Pearson threshold")
    weight = [1.0, 1.0]  # Illinois weights of the lo and hi values
    secant, moved = True, None
    for _ in range(240):
        width = hi[0] - lo[0]
        if width <= 1e-15 * max(hi[0], 1.0):
            break
        mid = lo[0] + 0.5 * width
        if secant:
            a, b = _secant_values(lo, hi)
            a, b = weight[0] * a, weight[1] * b
            tol = 0.4e-15 * max(hi[0], 1.0)  # a step of at least this closes the bracket
            mid = min(max(hi[0] - b * width / (b - a), lo[0] + tol), hi[0] - tol)
        point = _scan_point(rho, sigma, mid, target)
        side = int(point[1] >= 0.0)
        lo, hi = (lo, point) if side else (point, hi)
        weight[side] = 1.0
        if moved == side:
            weight[1 - side] *= 0.5
        moved = side
        secant = hi[0] - lo[0] <= 0.5 * width

    lam, _, w, v = hi
    window = 1e-10 * (lam * np.trace(rho).real + np.trace(sigma).real)
    vp, vk = v[:, w > window], v[:, np.abs(w) <= window]
    proj_pos = vp @ vp.conj().T
    proj_ker = vk @ vk.conj().T
    a_pos = float(np.trace(rho @ proj_pos).real)
    a_ker = float(np.trace(rho @ proj_ker).real)
    if a_pos >= target or a_ker <= 1e-15:
        frac = 0.0
    else:
        frac = min(1.0, max(0.0, (target - a_pos) / a_ker))
    gamma = herm(proj_pos + frac * proj_ker)
    beta = max(float(np.trace(sigma @ gamma).real), 0.0)
    # Weak duality: beta >= lam (1 - eps) - tr(lam rho - sigma)_+ for every
    # lam >= 0, and w are the eigenvalues of lam rho - sigma at the final lam.
    dual = lam * target - float(np.clip(w, 0.0, None).sum())
    bits = [-float(np.log2(b)) if b > 0 else float("inf") for b in (beta, dual)]
    passed = float(np.trace(rho @ gamma).real)
    if passed < target - 1e-12:
        raise SolverError(
            f"Neyman-Pearson test passes {passed} < 1 - eps = {target}; the value lies in {bits}"
        )
    # The ends meet when they differ by the rounding of the eigenvalues of
    # lam rho - sigma and of tr[sigma Gamma].
    rounding = 16 * d * np.finfo(float).eps * (lam * np.trace(rho).real + np.trace(sigma).real)
    interval = (bits[0], bits[0]) if beta - dual <= rounding else tuple(bits)
    return HypothesisTest(bits[0], interval, "neyman_pearson", beta, gamma, lam)


def d_hypothesis(rho, sigma, eps: float) -> float:
    """Hypothesis-testing divergence D_H^eps(rho || sigma) in bits."""
    return neyman_pearson(rho, sigma, eps).value
