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

All equality constraints involving Delta^* are expressed in an orthonormal
Hermitian basis of the fixed-point algebra, which keeps the row space
full rank; membership of an algebra element in the PSD cone is imposed
blockwise on its B-factor components.  Every program is solved at
:func:`~instability.sdp.solve`'s default acceptance thresholds, which no
caller here overrides.

When the fixed algebra is one-dimensional (one block with d_B = 1: a
replacer by gamma, the depolarizer and any tensor product of them, such as
a replacer joined with a currency system), Delta^*(Gamma) = tr[gamma Gamma] I
for every effect.  Both hypothesis tests then equal D_H^eps(rho || gamma),
and they are answered by the exact Neyman-Pearson scan of
:func:`~instability.divergences.neyman_pearson` instead of an interior-point
solve.  `HypothesisTestingResult.method` says which path ran.

On n copies of a qubit under the dephaser (in any basis),
`_symmetric_restricted_ht` and `_symmetric_dmax_free` run the same two
bodies on one more block list: the n//2 + 1 Schur-Weyl blocks of
rho^{(x)n} from :func:`qubit_power_blocks`, each at most n + 1 wide,
instead of 2^n x 2^n variables.  `tasks.regularize_sweep` uses them, and
the programs on the explicit tensor power are their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .channels import DestructionChannel, hermitian_basis
from .divergences import neyman_pearson
from .errors import SolverError, ValidationError
from .linalg import check_density, herm, pow_from_eigh, rank_tol, support_projector
from .sdp import HermitianProgram, SdpSolution


@dataclass(frozen=True)
class HypothesisTestingResult:
    """The value, its optimal c and witnessing effect, and the path taken.

    `method` is "sdp" (interior point), "neyman_pearson" (the exact scan for
    a one-dimensional fixed algebra) or "closed_form" (eps = 1, ht_free at
    eps = 0, and restricted_ht at eps = 0 on a full-rank state).  The two
    exact paths carry `_degenerate_solution()`, whose gap is 0.
    """

    value: float          # bits
    scale: float          # the optimal c (2^{-value})
    gamma: np.ndarray     # witnessing effect
    solution: SdpSolution
    method: str = "sdp"


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
    return HypothesisTestingResult(
        float("inf"), 0.0, np.zeros((d, d), dtype=complex), _degenerate_solution(),
        "closed_form",
    )


def _neyman_pearson_result(
    rho, channel: DestructionChannel, eps: float
) -> HypothesisTestingResult:
    """Both tests for a one-dimensional fixed algebra: the optimal test of
    rho against the fixed state, clipped and polished like a solver's."""
    test = neyman_pearson(rho, channel.fixed_state(), eps)
    return _ht_result(test.gamma, channel, _degenerate_solution(), "neyman_pearson")


def _restricted_ht_sdp(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """restricted_ht by interior point, for a validated state and eps < 1:
    :func:`_restricted_test` on one block, with one row per algebra basis
    element e (<Delta(e), Gamma> = c tr[e])."""
    basis = channel.algebra_basis()
    rows = np.stack([channel.apply(e) for e in basis])
    unit = [float(np.real(np.trace(e))) for e in basis]
    (gamma,), sol = _restricted_test([(1.0, rho)], [rows], unit, eps)
    if sol is None:  # full rank at eps = 0: Gamma = I, and Delta^*(I) = I
        return _ht_result(gamma, channel, _degenerate_solution(), "closed_form")
    return _ht_result(gamma, channel, sol)


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
    gamma, channel: DestructionChannel, sol: SdpSolution, method: str = "sdp"
) -> HypothesisTestingResult:
    """The clipped and polished effect, with -log2 c of its scalar dual image."""
    gamma, c_star = _polish_to_scaled_identity(_clip_effect(gamma), channel)
    if c_star <= 0:
        return HypothesisTestingResult(float("inf"), 0.0, gamma, sol, method)
    return HypothesisTestingResult(-float(np.log2(c_star)), c_star, gamma, sol, method)


def ht_free(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """Hypothesis testing against the free set:
    min c s.t. 0 <= Gamma <= I, tr[rho Gamma] >= 1 - eps, Delta^*(Gamma) <= c I.

    At eps = 0 the program is solved exactly: a perfect test must contain
    the support projector of rho, and any surplus only raises the dual
    image, so Gamma = rho^0 is optimal and the value is the closed-form
    -log2 ||Delta^*(rho^0)||_inf.  (The eps = 0 feasible set has no strict
    interior, which would otherwise degrade interior-point accuracy.)
    """
    eps = _check_eps(eps)
    rho = check_density(rho, channel.dim)
    if eps >= 1.0:
        return _eps_one_result(channel.dim)
    if eps <= 0.0:
        return _free_test_result(
            support_projector(rho), channel, _degenerate_solution(), "closed_form"
        )
    if channel.algebra_dim() == 1:
        return _neyman_pearson_result(rho, channel, eps)
    return _ht_free_sdp(rho, channel, eps)


def _ht_free_sdp(rho, channel: DestructionChannel, eps: float) -> HypothesisTestingResult:
    """ht_free by interior point, for a validated state and 0 < eps < 1:
    :func:`_restricted_test` on one block with c I - Delta^*(Gamma) = Z in
    algebra coordinates, Z >= 0 blockwise.  The row of h in block i is
    <Delta(e), Gamma> + <d_a h, Z_i> = c d_a tr[h], e = I_{d_a} (x) h."""
    total = sum(b.d_b**2 for b in channel.blocks)
    rows, unit, slack = [], [], []
    for i, b in enumerate(channel.blocks):
        basis = hermitian_basis(b.d_b)
        slack.append(np.zeros((total, b.d_b, b.d_b), dtype=complex))
        slack[-1][len(rows) : len(rows) + len(basis)] = b.d_a * basis
        for h in basis:
            parts = [None] * len(channel.blocks)
            parts[i] = np.kron(np.eye(b.d_a), h)
            rows.append(channel.apply(channel.block_diagonal(parts)))
            unit.append(float(b.d_a * np.real(np.trace(h))))
    (gamma,), sol = _restricted_test([(1.0, rho)], [np.stack(rows)], unit, eps, slack)
    return _free_test_result(_clip_effect(gamma), channel, sol)


def _free_test_result(
    gamma, channel: DestructionChannel, sol: SdpSolution, method: str = "sdp"
) -> HypothesisTestingResult:
    """The effect with c* = lambda_max(Delta^*(Gamma)) and the value -log2 c*."""
    c_star = float(np.linalg.eigvalsh(herm(channel.apply_dual(gamma)))[-1])
    if c_star <= 0:
        return HypothesisTestingResult(float("inf"), 0.0, gamma, sol, method)
    return HypothesisTestingResult(-float(np.log2(c_star)), c_star, gamma, sol, method)


@dataclass(frozen=True)
class SmoothedDmaxResult:
    """The value, its smoothed state and free witness, and the path taken.

    `method` is "sdp" (interior point) or "closed_form" (a pure state at
    eps = 0), which carries `_degenerate_solution()`.
    """

    value: float            # bits
    tau: np.ndarray         # the smoothed state inside the eps-ball
    omega: np.ndarray       # free-cone operator with omega >= tau
    solution: SdpSolution
    method: str = "sdp"


def dmax_smoothed_free(rho, channel: DestructionChannel, eps: float) -> SmoothedDmaxResult:
    """Smoothed max-relative entropy to the free set.

    Minimizes log2 tr[omega] over free-cone omega >= tau where tau ranges
    over the trace-distance eps-ball around rho (P >= tau - rho, P >= 0,
    tr P <= eps witnesses the ball membership).  A pure state at eps = 0 is
    answered by the closed form of the module docstring.
    """
    eps = _check_eps(eps)
    rho = check_density(rho, channel.dim)
    if eps <= 0.0:
        w, v = np.linalg.eigh(rho)
        if np.count_nonzero(w > rank_tol(channel.dim, w[-1])) == 1:
            return _pure_dmax(rho, np.sqrt(w[-1]) * v[:, -1], channel)
    return _dmax_smoothed_sdp(rho, channel, eps)


def _pure_dmax(rho, psi: np.ndarray, channel: DestructionChannel) -> SmoothedDmaxResult:
    """D_max(psi psi^dagger || free) = 2 log2 S, S = sum_i tr sqrt(C_i), with
    the optimizer omega = S (+) tau_i (x) (C_i^T)^{1/2}."""
    phi = channel.basis.conj().T @ psi
    cuts = np.cumsum([b.dim for b in channel.blocks])[:-1]
    total, roots = 0.0, []
    for b, part in zip(channel.blocks, np.split(phi, cuts)):
        # tau^{-1/2} Psi = U s V^dagger: tr sqrt(C) = sum s, (C^T)^{1/2} = conj(V s V^dagger)
        root = pow_from_eigh(*np.linalg.eigh(b.tau), -0.5)
        _, s, vh = np.linalg.svd(root @ part.reshape(b.d_a, b.d_b), full_matrices=False)
        total += float(s.sum())
        roots.append((vh.T * s) @ vh.conj())
    omega = channel.block_diagonal(
        [np.kron(b.tau, total * r) for b, r in zip(channel.blocks, roots)]
    )
    return SmoothedDmaxResult(
        2.0 * float(np.log2(total)), rho, omega, _degenerate_solution(), "closed_form"
    )


def _dmax_smoothed_sdp(rho, channel: DestructionChannel, eps: float) -> SmoothedDmaxResult:
    """dmax_smoothed_free by interior point, for a validated state:
    :func:`_smoothed_dmax` on one block with the free cone
    omega = (+) tau_i (x) beta_i, whose beta_i coefficient of <h, omega> is
    the dual block reduction of h."""
    basis = hermitian_basis(channel.dim)
    omega = {i: channel.dual_block_reduction(basis, i) for i in range(len(channel.blocks))}
    free = [(b.d_b, np.eye(b.d_b)) for b in channel.blocks]
    value, sol, betas, (tau,) = _smoothed_dmax([(1.0, rho)], free, [omega], eps)
    omega = channel.block_diagonal(
        [np.kron(b.tau, herm(beta)) for b, beta in zip(channel.blocks, betas)]
    )
    return SmoothedDmaxResult(value, tau, omega, sol)


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
            continue
        t, p, q = balls[ell]
        prog.add_constraint({q: basis, p: -basis, t: basis}, overlaps)
        prog.add_constraint({t: -basis, rr: -basis, **terms}, np.zeros(dim * dim))
    if eps > 0.0:
        prog.add_constraint({t: m * np.eye(len(r)) for (m, r), (t, _, _) in zip(blocks, balls)}, 1.0)
    sol, vals = prog.solve()
    _require_solved(sol, "smoothed max-relative entropy")
    taus = [r for _, r in blocks] if eps <= 0.0 else [herm(vals[t.index]) for t, _, _ in balls]
    value = float(np.log2(max(sol.primal_objective, 1e-300)))
    return value, sol, [vals[v.index] for v in fvars], taus


def _degenerate_solution() -> SdpSolution:
    return SdpSolution(
        status="optimal",
        x=np.zeros(0),
        y=np.zeros(0),
        s=np.zeros(0),
        primal_objective=0.0,
        dual_objective=0.0,
        gap=0.0,
        primal_residual=0.0,
        dual_residual=0.0,
        iterations=0,
        stop_reason="target",
        block_dims=[],
    )


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
