"""The three semidefinite programs behind the operational tasks.

* restricted hypothesis testing: the discriminating effect must satisfy
  Delta^*(Gamma) = c I, so the test cannot separate fixed states;
* hypothesis testing against the whole free set: minimize the largest
  eigenvalue of Delta^*(Gamma);
* smoothed max-relative entropy to the free cone over a trace-distance ball.

Two interior-point bodies build them: :func:`_restricted_test` for both
tests and :func:`_smoothed_dmax` for the smoothed max-relative entropy.
Each takes the state as weighted blocks (m_l, R_l), meaning
(+) R_l (x) I_{m_l}; a state given as a matrix is one block of weight 1.
The test body takes the rows of Delta^*(Gamma) = c I, with PSD slacks for
the free test's Delta^*(Gamma) + Z = c I; the D_max body takes the free
cone's variables and their coefficients in each block.

Each program is assembled in the channel's block frame, on U^dagger rho U,
and its Gamma, tau and omega are rotated back once at the end.  The rows
of Delta^*(Gamma) = c I are Delta(I_A (x) h) = d_A tau_i (x) h on block i
for h in an orthonormal Hermitian basis of L(B_i): a full-rank,
block-sparse row space.  Membership of an algebra element in the PSD cone
is imposed blockwise on its B-factor components.  Every program is solved by
:func:`~instability.sdp.solve`, which takes no options, at the acceptance
thresholds of its module constants.

When the fixed algebra is one-dimensional (one block with d_B = 1: a
replacer by gamma, the depolarizer and any tensor product of them, such as
a replacer joined with a currency system), Delta^*(Gamma) = tr[gamma Gamma] I
for every effect.  Both hypothesis tests then equal D_H^eps(rho || gamma),
and they are answered by the exact Neyman-Pearson scan of
:func:`~instability.divergences.neyman_pearson` instead of an interior-point
solve.  `HypothesisTestingResult.method` says which path ran.  At eps = 0
the smoothed max-relative entropy of such an algebra is D_max(rho || gamma),
a closed form like that of a pure state on any channel.

On n copies of a qubit under the dephaser (in any basis),
`_symmetric_restricted_ht` and `_symmetric_dmax_free` run the same two
bodies on one more block list: the n//2 + 1 Schur-Weyl blocks of
rho^{(x)n} from :func:`qubit_power_blocks`, each at most n + 1 wide,
instead of 2^n x 2^n variables.  `tasks.regularize_sweep` uses them, and
the programs on the explicit tensor power are their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .channels import DestructionChannel, _kron, hermitian_basis
from .divergences import Result, _neyman_pearson_scan
from .errors import SolverError, ValidationError
from .linalg import check_density, density_eigh, herm, rank_tol
from .optimize import _d_min
from .sdp import HermitianProgram, SdpSolution


@dataclass(frozen=True)
class HypothesisTestingResult(Result):
    """The value in bits, its optimal c and witnessing effect, and the path
    taken.

    `method` is "sdp" (interior point), "neyman_pearson" (the exact scan for
    a one-dimensional fixed algebra) or "closed_form" (eps = 1, ht_free at
    eps = 0, and restricted_ht at eps = 0 on a full-rank state).  Only the
    interior-point path has a `solution` and no interval; the closed forms
    have `interval == (value, value)`, and the scan the interval that its
    Lagrange dual bound certifies.
    """

    type_two_error: float         # the optimal c (2^{-value})
    gamma: np.ndarray             # witnessing effect
    solution: SdpSolution | None


def _check_eps(eps: float) -> float:
    if not (0.0 <= eps <= 1.0):
        raise ValidationError(f"epsilon {eps} outside [0, 1]")
    return float(eps)


def _require_solved(sol: SdpSolution, what: str) -> None:
    if sol.status != "optimal":
        raise SolverError(f"{what}: solver returned status {sol.status!r}")


def _clip_effect(gamma: np.ndarray) -> np.ndarray:
    """Clip eigenvalues into [0, 1]; the solver can overshoot by its
    feasibility residual, which downstream consumers validate strictly."""
    w, v = np.linalg.eigh(herm(gamma))
    w = np.clip(w, 0.0, 1.0)
    return herm((v * w) @ v.conj().T)


def _polish_to_scaled_identity(
    gamma: np.ndarray, channel: DestructionChannel
) -> tuple[np.ndarray, float]:
    """Shift Gamma inside the algebra so Delta^*(Gamma) = c I holds exactly.

    Delta^* acts as the identity on its image, so adding the (tiny) algebra
    element c I - Delta^*(Gamma) cancels the solver's equality residual
    without moving Gamma more than that residual.
    """
    dual = herm(channel.apply_dual(gamma))
    c = float(np.trace(dual).real) / channel.dim
    polished = herm(gamma + (c * np.eye(channel.dim) - dual))
    return polished, c


def restricted_ht(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """min c over effects with Delta^*(Gamma) = c I and tr[rho Gamma] >= 1 - eps.

    Returns the exponent -log2 c together with the witnessing effect, which
    is polished so its dual image is a scalar matrix to machine precision.
    """
    eps = _check_eps(eps)
    rho = check_density(rho, channel.dim)
    if eps >= 1.0:
        return _eps_one_result(channel.dim)
    if channel.algebra_dim() == 1:
        return _neyman_pearson_result(rho, channel, eps)
    return _restricted_ht_sdp(rho, channel, eps)


def _eps_one_result(d: int) -> HypothesisTestingResult:
    """eps = 1: the zero effect passes, and the value is infinite."""
    return _scaled_result(np.zeros((d, d), dtype=complex), 0.0, None, "closed_form")


def _neyman_pearson_result(
    rho, channel: DestructionChannel, eps: float
) -> HypothesisTestingResult:
    """Both tests for a one-dimensional fixed algebra: the optimal test of
    rho against the fixed state, clipped and polished like a solver's, with
    the scan's interval stretched to the polished value."""
    test = _neyman_pearson_scan(rho, channel.fixed_state(), eps)
    res = _ht_result(test.gamma, channel, None, "neyman_pearson")
    lo, hi = test.interval
    if lo == hi:
        return res
    return replace(res, interval=(min(lo, res.value), max(hi, res.value)))


def _restricted_ht_sdp(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """restricted_ht by interior point, for a validated state and eps < 1:
    :func:`_restricted_test` on one block in the block frame, with the rows
    of :func:`_algebra_rows`."""
    rows, unit, _ = _algebra_rows(channel)
    (gamma,), sol = _restricted_test([(1.0, herm(channel.to_block_frame(rho)))], [rows], unit, eps)
    gamma = channel.from_block_frame(gamma)
    if sol is None:  # full rank at eps = 0: Gamma = I, and Delta^*(I) = I
        return _ht_result(gamma, channel, None, "closed_form")
    return _ht_result(gamma, channel, sol)


def _algebra_rows(channel: DestructionChannel):
    """Delta(I_A (x) h) = d_A tau_i (x) h on block i of the block frame, for
    each block i and h in hermitian_basis(d_B) in block order: the rows
    <Delta(I_A (x) h), Gamma> = c d_A tr[h] of Delta^*(Gamma) = c I.  Returns
    the row stack, the d_A tr[h], and per block i the coefficients of the
    free test's slack Z_i: d_A h in block i's rows, zero elsewhere."""
    first = np.cumsum([0] + [b.d_b**2 for b in channel.blocks])
    rows = np.zeros((first[-1], channel.dim, channel.dim), dtype=complex)
    unit = np.zeros(first[-1])
    slack = [np.zeros((first[-1], b.d_b, b.d_b), dtype=complex) for b in channel.blocks]
    for g in channel._groups:
        coeff = g.d_a * hermitian_basis(g.d_b)
        at = first[list(g.members)][:, None] + np.arange(len(coeff))  # (n, d_B^2)
        n, s = g.index.shape
        rows[at[:, :, None, None], g.index[:, None, :, None], g.index[:, None, None, :]] = (
            _kron(g.taus[:, None], coeff).reshape(n, len(coeff), s, s)
        )
        unit[at] = np.trace(coeff, axis1=1, axis2=2).real
        for k, ks in zip(g.members, at):
            slack[k][ks] = coeff
    return rows, unit, slack


def _restricted_test(blocks, rows, unit, eps: float, slack=()):
    """min c over tests (+) X_l (x) I_{m_l}, 0 <= X_l <= I, of the state
    (+) R_l (x) I_{m_l} given as the weighted `blocks` (m_l, R_l), eps < 1.

    Row j of the Delta^* family reads sum_l <rows[l][j], X_l> +
    sum_i <slack[i][j], Z_i> = c unit[j], with a PSD Z_i per (J, d_i, d_i)
    stack in `slack`; the pass row is sum_l m_l tr[R_l X_l] >= 1 - eps.  At
    eps = 0 each X_l = P_l + Q_l G_l Q_l^dagger lies on the face of perfect
    tests (P_l the support projector of R_l, Q_l an isometry onto its
    kernel, at one rank tolerance for the whole state), so no variable is
    pinned at the cone boundary.  Returns the X_l and the solution, None
    when every block is full rank at eps = 0 (every X_l = I).
    """
    if eps <= 0.0:
        top = max(np.linalg.eigvalsh(r)[-1] for _, r in blocks)
        tol = rank_tol(sum(m * len(r) for m, r in blocks), top)
        faces = [_perfect_face(r, tol) for _, r in blocks]
    else:
        faces = [(np.zeros_like(r), np.eye(len(r), dtype=complex)) for _, r in blocks]
    if not any(q.shape[1] for _, q in faces):
        return [p for p, _ in faces], None
    prog = HermitianProgram()
    boxes = [
        (prog.add_hermitian(q.shape[1]), prog.add_hermitian(q.shape[1])) if q.shape[1] else None
        for _, q in faces
    ]
    c = prog.add_scalar()
    zs = [prog.add_hermitian(co.shape[-1]) for co in slack]
    prog.add_objective(c, 1.0)
    family = {c: -np.asarray(unit, dtype=float), **dict(zip(zs, slack))}
    rhs, passing = 0.0, {}
    for (m, r), (p, q), box, row in zip(blocks, faces, boxes, rows):
        rhs = rhs - np.trace(row @ p, axis1=1, axis2=2).real
        if box is not None:
            g, s = box
            basis = hermitian_basis(q.shape[1])  # G + S = I: 0 <= G <= I
            prog.add_constraint({g: basis, s: basis}, np.trace(basis, axis1=1, axis2=2).real)
            del basis  # a stack too large for the basis cache is freed before the solve
            family[g] = q.conj().T @ row @ q
            passing[g] = m * (q.conj().T @ r @ q)
    prog.add_constraint(family, rhs)
    if eps > 0.0:
        prog.add_constraint(passing, 1.0 - eps, sense=">=")
    sol, vals = prog.solve()
    _require_solved(sol, "free hypothesis test" if slack else "restricted hypothesis test")
    tests = [
        p if box is None else p + q @ vals[box[0].index] @ q.conj().T
        for (p, q), box in zip(faces, boxes)
    ]
    return tests, sol


def _ht_result(
    gamma, channel: DestructionChannel, sol: SdpSolution | None, method: str = "sdp"
) -> HypothesisTestingResult:
    """The clipped and polished effect, with -log2 c of its scalar dual image."""
    gamma, c_star = _polish_to_scaled_identity(_clip_effect(gamma), channel)
    return _scaled_result(gamma, c_star, sol, method)


def _scaled_result(
    gamma, c_star: float, sol: SdpSolution | None, method: str
) -> HypothesisTestingResult:
    """The test Gamma with its optimal c = c_star and the value -log2 c_star,
    exact unless an interior-point solution `sol` produced it."""
    if c_star <= 0:
        c_star, value = 0.0, float("inf")
    else:
        value = -float(np.log2(c_star))
    interval = None if sol is not None else (value, value)
    return HypothesisTestingResult(value, interval, method, c_star, gamma, sol)


def ht_free(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """Hypothesis testing against the free set:
    min c s.t. 0 <= Gamma <= I, tr[rho Gamma] >= 1 - eps, Delta^*(Gamma) <= c I.

    At eps = 0 the program is solved exactly: a perfect test must contain
    the support projector of rho, and any surplus only raises the dual
    image, so Gamma = rho^0 is optimal and the value is D_min to the free
    set, -log2 ||Delta^*(rho^0)||_inf, from the kernel of
    ``optimize.d_min_free`` (one d x d eigh, which validates rho).  (The
    eps = 0 feasible set has no strict interior, which would otherwise
    degrade interior-point accuracy.)
    """
    eps = _check_eps(eps)
    if eps <= 0.0:
        c_star, _, proj = _d_min(rho, channel)
        return _scaled_result(proj, c_star, None, "closed_form")
    rho = check_density(rho, channel.dim)
    if eps >= 1.0:
        return _eps_one_result(channel.dim)
    if channel.algebra_dim() == 1:
        return _neyman_pearson_result(rho, channel, eps)
    return _ht_free_sdp(rho, channel, eps)


def _ht_free_sdp(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """ht_free by interior point, for a validated state and 0 < eps < 1:
    :func:`_restricted_test` in the block frame with c I - Delta^*(Gamma) = Z,
    Z >= 0 blockwise, on the rows of :func:`_algebra_rows`; c* is the largest
    eigenvalue of the clipped effect's B-components."""
    rows, unit, slack = _algebra_rows(channel)
    (gamma,), sol = _restricted_test(
        [(1.0, herm(channel.to_block_frame(rho)))], [rows], unit, eps, slack
    )
    gamma = _clip_effect(gamma)
    c_star = max(
        float(np.linalg.eigvalsh(herm(b))[:, -1].max()) for b in channel.dual_marginals(gamma)
    )
    return _scaled_result(channel.from_block_frame(gamma), c_star, sol, "sdp")


@dataclass(frozen=True)
class SmoothedDmaxResult(Result):
    """The value in bits, its smoothed state and free witness, and the path
    taken.

    `method` is "sdp" (interior point) or "closed_form" (at eps = 0, a pure
    state or a one-dimensional fixed algebra), which has `solution is None`
    and `interval == (value, value)`.
    """

    tau: np.ndarray               # the smoothed state inside the eps-ball
    omega: np.ndarray             # free-cone operator with omega >= tau
    solution: SdpSolution | None


def dmax_smoothed_free(rho, channel: DestructionChannel, eps: float) -> SmoothedDmaxResult:
    """Smoothed max-relative entropy to the free set.

    Minimizes log2 tr[omega] over free-cone omega >= tau where tau ranges
    over the trace-distance eps-ball around rho (P >= tau - rho, P >= 0,
    tr P <= eps witnesses the ball membership).  At eps = 0 a pure state
    (one eigenvalue above `rank_tol`, the test `_perfect_face` uses) and a
    one-dimensional fixed algebra are answered in closed form, from the one
    eigh that validates rho.
    """
    eps = _check_eps(eps)
    if eps > 0.0:
        return _dmax_smoothed_sdp(check_density(rho, channel.dim), channel, eps)
    rho, w, v = density_eigh(rho, channel.dim)
    if np.count_nonzero(w > rank_tol(channel.dim, w[-1])) == 1:
        return _pure_dmax(rho, np.sqrt(w[-1]) * v[:, -1], channel)
    if channel.algebra_dim() == 1:
        return _fixed_state_dmax(rho, channel)
    return _dmax_smoothed_sdp(rho, channel, eps)


def _pure_dmax(rho, psi: np.ndarray, channel: DestructionChannel) -> SmoothedDmaxResult:
    """D_max(psi psi^dagger || free) = 2 log2 S, S = sum_i tr sqrt(C_i), with
    C_i = Psi_i^dagger tau_i^{-1} Psi_i for the d_A x d_B block components
    Psi_i of psi, and the optimizer omega = S (+) tau_i (x) (C_i^T)^{1/2}.

    With tau^{-1/2} Psi = U s V^dagger, tr sqrt(C) = sum s and
    (C^T)^{1/2} = conj(V s V^dagger): per block group, one product with the
    stored tau_i^{-1/2} and one batched SVD of the (n, d_A, d_B) stack.  A
    group with d_B = 1 (every dephaser block) needs no SVD: its one
    singular value, and its (C^T)^{1/2}, is the norm of tau_i^{-1/2} psi_i."""
    total, roots = 0.0, []
    inv_roots = channel.tau_power(-0.5)
    for g, inv_root, part in zip(channel._groups, inv_roots, channel.block_components(psi)):
        x = inv_root @ part
        if g.d_b == 1:
            s = np.linalg.norm(x, axis=(1, 2))
            roots.append(s[:, None, None])
        else:
            _, s, vh = np.linalg.svd(x, full_matrices=False)
            roots.append((vh.swapaxes(-1, -2) * s[:, None, :]) @ vh.conj())
        total += float(s.sum())
    value = 2.0 * float(np.log2(total))
    omega = channel.assemble_free([total * r for r in roots])
    return SmoothedDmaxResult(value, (value, value), "closed_form", rho, omega, None)


def _fixed_state_dmax(rho, channel: DestructionChannel) -> SmoothedDmaxResult:
    """D_max(rho || gamma) = log2 lambda_max(gamma^{-1/2} rho gamma^{-1/2})
    for a one-dimensional fixed algebra, whose free cone is the ray of its
    fixed state gamma; the optimizer is omega = 2^value gamma."""
    (root,) = channel.tau_power(-0.5)  # one block, d_B = 1: gamma in the block frame
    lam = float(np.linalg.eigvalsh(herm(root[0] @ channel.to_block_frame(rho) @ root[0]))[-1])
    value, omega = float(np.log2(lam)), lam * channel.fixed_state()
    return SmoothedDmaxResult(value, (value, value), "closed_form", rho, omega, None)


def _dmax_smoothed_sdp(rho, channel: DestructionChannel, eps: float) -> SmoothedDmaxResult:
    """dmax_smoothed_free by interior point, for a validated state:
    :func:`_smoothed_dmax` on one block in the block frame with the free
    cone omega = (+) tau_i (x) beta_i, whose beta_i coefficient of
    <h, omega> is the B_i component of Delta^*(h)."""
    parts = channel.dual_marginals(hermitian_basis(channel.dim))
    omega = {
        k: part[:, j] for g, part in zip(channel._groups, parts) for j, k in enumerate(g.members)
    }
    free = [(b.d_b, np.eye(b.d_b)) for b in channel.blocks]
    value, sol, betas, (tau,) = _smoothed_dmax(
        [(1.0, herm(channel.to_block_frame(rho)))], free, [omega], eps
    )
    omega = channel.assemble_free(
        [np.stack([herm(betas[k]) for k in g.members]) for g in channel._groups]
    )
    return SmoothedDmaxResult(value, None, "sdp", channel.from_block_frame(tau), omega, sol)


def _smoothed_dmax(blocks, free, omega, eps: float):
    """min log2 tr[omega] over free-cone omega >= tau_l in each block, tau in
    the eps-ball of the state (+) R_l (x) I_{m_l} given as the weighted
    `blocks` (m_l, R_l).

    `free` holds (dimension, objective coefficient) per free variable, 0
    meaning a nonnegative scalar; `omega[l]` maps a free variable's index to
    its coefficients in <h, omega_l> over hermitian_basis(len(R_l)).  At
    eps > 0 block l has tau_l, the ball witness P_l and Q_l = P_l - tau_l +
    R_l, and the rows sum m_l tr P_l <= eps and sum m_l tr tau_l = 1.  At
    eps = 0 the ball collapses to {R_l}; dropping its blocks avoids
    variables pinned at the cone boundary.  Returns the value in bits, the
    solution, the free variables' values and each tau_l.
    """
    prog = HermitianProgram()
    rrs = [prog.add_hermitian(len(r)) for _, r in blocks]  # omega_l - tau_l >= 0
    fvars = [prog.add_scalar() if dim == 0 else prog.add_hermitian(dim) for dim, _ in free]
    for v, (_, coeff) in zip(fvars, free):
        prog.add_objective(v, coeff)
    if eps > 0.0:
        balls = [tuple(prog.add_hermitian(len(r)) for _ in range(3)) for _, r in blocks]
        prog.add_constraint(
            {p: m * np.eye(len(r)) for (m, r), (_, p, _) in zip(blocks, balls)}, eps, sense="<="
        )
    for ell, ((_, r), rr) in enumerate(zip(blocks, rrs)):
        dim = len(r)
        basis = hermitian_basis(dim)
        overlaps = (basis.reshape(dim * dim, -1).conj() @ r.reshape(-1)).real  # Re tr[h^dagger r]
        terms = {fvars[i]: co for i, co in omega[ell].items()}
        if eps <= 0.0:
            prog.add_constraint({rr: -basis, **terms}, overlaps)
        else:
            t, p, q = balls[ell]
            prog.add_constraint({q: basis, p: -basis, t: basis}, overlaps)
            prog.add_constraint({t: -basis, rr: -basis, **terms}, np.zeros(dim * dim))
        del basis  # a stack too large for the basis cache is freed before the solve
    if eps > 0.0:
        prog.add_constraint({t: m * np.eye(len(r)) for (m, r), (t, _, _) in zip(blocks, balls)}, 1.0)
    sol, vals = prog.solve()
    _require_solved(sol, "smoothed max-relative entropy")
    taus = [r for _, r in blocks] if eps <= 0.0 else [herm(vals[t.index]) for t, _, _ in balls]
    value = float(np.log2(max(sol.primal_objective, 1e-300)))
    return value, sol, [vals[v.index] for v in fvars], taus


# ---------------------------------------------------------------------------
# n copies of a qubit under the dephaser, reduced by permutation symmetry
# ---------------------------------------------------------------------------
#
# Both programs on rho^{(x)n} under Delta^{(x)n} are convex and invariant
# under permuting the copies, so an optimum may be taken permutation-
# invariant (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).  By
# Schur-Weyl duality such an operator is (+)_l X_l (x) I_{m_l} over the
# Young diagrams (n - l, l), l = 0..n//2, with X_l of size N + 1, N = n - 2l,
# and m_l = C(n, l) - C(n, l - 1); rho^{(x)n} has the blocks
# R_l = det(rho)^l Sym^N(rho).  In the Dicke basis of block l, index a has
# Hamming weight k = l + a, and Delta^{(x)n} sends an invariant operator to
# sum_k f_k Pi_k over the Hamming-weight projectors, where C(n, k) f_k is
# the sum over l of m_l (X_l)_{k-l, k-l}.


def _is_qubit_dephaser(channel: DestructionChannel) -> bool:
    """Whether the channel is the dephaser of a qubit in some basis (two
    one-dimensional blocks)."""
    return channel.dim == 2 and len(channel.blocks) == 2


def _sym_power(m: np.ndarray, big_n: int) -> np.ndarray:
    """Sym^N(m) in the Dicke basis |a> = S_a / sqrt(C(N, a)), where S_a is
    the sum of the N-qubit basis states with a ones.

    <S_a| m^{(x)N} |S_b> = sum_t N! / (t! (a-t)! (b-t)! (N-a-b+t)!)
    m_11^t m_10^(a-t) m_01^(b-t) m_00^(N-a-b+t) = C(N, b) c_ab, with c_ab
    the coefficient of y^a in (m_00 + m_10 y)^(N-b) (m_01 + m_11 y)^b.
    """

    def powers(c):  # coefficients of (c_0 + c_1 y)^k for k = 0..N
        out = [np.ones(1, dtype=complex)]
        for _ in range(big_n):
            out.append(np.convolve(out[-1], c))
        return out

    p0, p1 = powers(m[:, 0]), powers(m[:, 1])
    out = np.stack([np.convolve(p0[big_n - b], p1[b]) for b in range(big_n + 1)], axis=1)
    # Float binomials: from N = 68 on, C(N, N/2) does not fit in int64.
    norm = np.sqrt([float(comb(big_n, a)) for a in range(big_n + 1)])
    return herm(out * norm[None, :] / norm[:, None])


def qubit_power_blocks(rho: np.ndarray, n: int) -> list[tuple[int, float, np.ndarray]]:
    """(l, m_l, R_l) for l = 0..n//2: rho^{(x)n} = (+)_l R_l (x) I_{m_l},
    with the multiplicities m_l as floats."""
    det = float(np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]))
    return [
        (ell, float(comb(n, ell) - (comb(n, ell - 1) if ell else 0)),
         det**ell * _sym_power(rho, n - 2 * ell))
        for ell in range(n // 2 + 1)
    ]


def _weight_rows(n: int, ell: int, scale) -> np.ndarray:
    """The (n + 1, N + 1, N + 1) stack whose member k is scale[k] times the
    Dicke unit of Hamming weight k in block l (zero if l > k or k > n - l)."""
    dim = n - 2 * ell + 1
    out = np.zeros((n + 1, dim, dim))
    a = np.arange(dim)
    out[ell + a, a, a] = np.asarray(scale, dtype=float)[ell + a]
    return out


def _perfect_face(r: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q): the support projector of r (exactly I when r is full rank)
    and an isometry onto its kernel."""
    w, v = np.linalg.eigh(r)
    live = w > tol
    if live.all():
        return np.eye(len(r), dtype=complex), v[:, :0]
    return v[:, live] @ v[:, live].conj().T, v[:, ~live]


def _symmetric_restricted_ht(blocks, n: int, eps: float) -> float:
    """restricted_ht(rho^{(x)n}, Delta^{(x)n}, eps) in bits over the blocks
    of :func:`qubit_power_blocks`: :func:`_restricted_test` with one row per
    Hamming weight (the mean of Gamma's diagonal there is c).  The value is
    -log2 of tr[clip(Gamma)] / 2^n, as in `_ht_result`; at eps = 1 it is
    infinite.
    """
    eps = _check_eps(eps)
    if eps >= 1.0:
        return float("inf")
    mean = [1.0 / comb(n, k) for k in range(n + 1)]
    rows = [_weight_rows(n, ell, np.multiply(mult, mean)) for ell, mult, _ in blocks]
    tests, _ = _restricted_test([(m, r) for _, m, r in blocks], rows, np.ones(n + 1), eps)
    total = sum(
        mult * float(np.clip(np.linalg.eigvalsh(herm(x)), 0.0, 1.0).sum())
        for (_, mult, _), x in zip(blocks, tests)
    )
    c_star = total / 2**n
    return -float(np.log2(c_star)) if c_star > 0 else float("inf")


def _symmetric_dmax_free(blocks, n: int, eps: float) -> float:
    """dmax_smoothed_free(rho^{(x)n}, Delta^{(x)n}, eps) in bits over the
    blocks of :func:`qubit_power_blocks`: :func:`_smoothed_dmax` with the
    free omega = sum_k f_k Pi_k, f_k >= 0, which is diag(f_l..f_{n-l}) in
    block l and has tr[omega] = sum_k C(n, k) f_k.
    """
    eps = _check_eps(eps)
    free = [(0, comb(n, k)) for k in range(n + 1)]
    omega = [
        {ell + a: hermitian_basis(len(r))[:, a, a].real for a in range(len(r))}
        for ell, _, r in blocks
    ]
    value, _, _, _ = _smoothed_dmax([(m, r) for _, m, r in blocks], free, omega, eps)
    return value
