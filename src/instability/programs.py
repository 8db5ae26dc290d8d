"""The three semidefinite programs behind the operational tasks.

* restricted hypothesis testing: the discriminating effect must satisfy
  Delta^*(Gamma) = c I, so the test cannot separate fixed states;
* hypothesis testing against the whole free set: minimize the largest
  eigenvalue of Delta^*(Gamma);
* smoothed max-relative entropy to the free cone over a trace-distance ball.

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
`_symmetric_restricted_ht` and `_symmetric_dmax_free` solve the restricted
test and the smoothed max-relative entropy over the n//2 + 1 Schur-Weyl
blocks of rho^{(x)n} from :func:`qubit_power_blocks`, each at most n + 1
wide, instead of over 2^n x 2^n variables; `tasks.regularize_sweep` uses
them, and the programs on the explicit tensor power are their oracle.
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


def _add_box_rows(prog: HermitianProgram, g, s, dim: int) -> None:
    """G + S = I in the Hermitian basis, one family of rows: with G, S >= 0
    this is 0 <= G <= I."""
    basis = hermitian_basis(dim)
    prog.add_constraint({g: basis, s: basis}, np.trace(basis, axis1=1, axis2=2).real)


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
    """restricted_ht by interior point, for a validated state and eps < 1.

    The test is Gamma = P + Q G Q^dagger with 0 <= G <= I.  At eps = 0 it
    lies on the face of perfect tests: P is the support projector of rho and
    Q an isometry onto its kernel, so the program in G alone has no variable
    pinned at the cone boundary (a full-rank rho leaves only Gamma = I).  At
    eps > 0, P = 0, Q = I and tr[rho G] >= 1 - eps is a row.
    """
    d = channel.dim
    if eps <= 0.0:
        p, q = _perfect_face(rho, rank_tol(d, np.linalg.eigvalsh(rho)[-1]))
    else:
        p, q = np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)
    k = q.shape[1]
    if k == 0:  # full rank: Gamma = I, and Delta^*(I) = I
        return _ht_result(p, channel, _degenerate_solution(), "closed_form")
    prog = HermitianProgram()
    g = prog.add_hermitian(k)
    s = prog.add_hermitian(k)
    c = prog.add_scalar()
    prog.add_objective(c, 1.0)
    _add_box_rows(prog, g, s, k)
    for e in channel.algebra_basis():
        de = channel.apply(e)
        prog.add_constraint(
            {g: q.conj().T @ de @ q, c: -float(np.real(np.trace(e)))},
            -float(np.real(np.trace(de @ p))),
        )
    if eps > 0.0:
        prog.add_constraint({g: rho}, 1.0 - eps, sense=">=")
    sol, vals = prog.solve()
    _require_solved(sol, "restricted hypothesis test")
    return _ht_result(p + q @ vals[g.index] @ q.conj().T, channel, sol)


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
    """ht_free by interior point, for a validated state and 0 < eps < 1."""
    d = channel.dim
    prog = HermitianProgram()
    g = prog.add_hermitian(d)
    s = prog.add_hermitian(d)
    c = prog.add_scalar()
    z_blocks = [prog.add_hermitian(b.d_b) for b in channel.blocks]
    prog.add_objective(c, 1.0)
    _add_box_rows(prog, g, s, d)
    # c I - Delta^*(Gamma) = Z in algebra coordinates, Z >= 0 blockwise.
    for i, b in enumerate(channel.blocks):
        for h in hermitian_basis(b.d_b):
            parts = [None] * len(channel.blocks)
            parts[i] = np.kron(np.eye(b.d_a), h)
            e = channel.block_diagonal(parts)
            # <e, Delta^*(Gamma)> = <Delta(e), Gamma>; <e, I> = d_a tr[h]
            prog.add_constraint(
                {
                    g: channel.apply(e),
                    c: -float(b.d_a * np.real(np.trace(h))),
                    z_blocks[i]: b.d_a * h,
                },
                0.0,
            )
    prog.add_constraint({g: rho}, 1.0 - eps, sense=">=")
    sol, vals = prog.solve()
    _require_solved(sol, "free hypothesis test")
    return _free_test_result(_clip_effect(vals[g.index]), channel, sol)


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
    """dmax_smoothed_free by interior point, for a validated state."""
    d = channel.dim
    prog = HermitianProgram()
    rr = prog.add_hermitian(d)         # rr = omega - tau >= 0
    betas = [prog.add_hermitian(b.d_b) for b in channel.blocks]
    for i, b in enumerate(channel.blocks):
        prog.add_objective(betas[i], np.eye(b.d_b))  # tr[omega] = sum tr[beta_i]
    basis = hermitian_basis(d)
    overlaps = (basis.reshape(d * d, -1).conj() @ rho.reshape(-1)).real  # Re tr[h^dagger rho]
    # The beta_i coefficient of <h, omega> for omega = (+) tau_i (x) beta_i
    # is the dual block reduction of h.
    reductions = {
        beta: channel.dual_block_reduction(basis, i) for i, beta in enumerate(betas)
    }
    if eps <= 0.0:
        # The ball collapses to {rho}; dropping the ball blocks avoids
        # variables pinned at the cone boundary (degenerate for the solver).
        t = None
        prog.add_constraint({rr: -basis, **reductions}, overlaps)
    else:
        t = prog.add_hermitian(d)      # tau
        p = prog.add_hermitian(d)      # ball witness
        q = prog.add_hermitian(d)      # q = p - tau + rho >= 0
        # Rows in this order give each block one contiguous range of rows.
        prog.add_constraint({p: np.eye(d)}, eps, sense="<=")
        prog.add_constraint({q: basis, p: -basis, t: basis}, overlaps)
        # omega(beta) - tau - rr = 0
        prog.add_constraint({t: -basis, rr: -basis, **reductions}, np.zeros(d * d))
        prog.add_constraint({t: np.eye(d)}, 1.0)
    sol, vals = prog.solve()
    _require_solved(sol, "smoothed max-relative entropy")
    tau = rho if t is None else herm(vals[t.index])
    omega = channel.block_diagonal(
        [np.kron(b.tau, herm(vals[beta.index])) for b, beta in zip(channel.blocks, betas)]
    )
    total = max(sol.primal_objective, 1e-300)
    return SmoothedDmaxResult(float(np.log2(total)), tau, omega, sol)


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
    of :func:`qubit_power_blocks`.

    The test is (+) X_l (x) I with 0 <= X_l <= I, Delta^*(Gamma) = c I is
    one row per Hamming weight (the mean of Gamma's diagonal there is c),
    and the value is -log2 of tr[clip(Gamma)] / 2^n, as in `_ht_result`.
    At eps = 0 each X_l is P_l + Q_l G_l Q_l^dagger on the face of perfect
    tests, as in `_restricted_ht_sdp`; at eps = 1 the value is infinite.
    """
    eps = _check_eps(eps)
    if eps >= 1.0:
        return float("inf")
    if eps <= 0.0:
        top = max(np.linalg.eigvalsh(r)[-1] for _, _, r in blocks)
        faces = [_perfect_face(r, rank_tol(2**n, top)) for _, _, r in blocks]
    else:
        faces = [(np.zeros_like(r), np.eye(len(r))) for _, _, r in blocks]
    gammas = [p for p, _ in faces]
    if any(q.shape[1] for _, q in faces):
        mean = [1.0 / comb(n, k) for k in range(n + 1)]
        prog = HermitianProgram()
        c = prog.add_scalar()
        prog.add_objective(c, 1.0)
        weight_terms, rhs, pass_terms, free = {c: -np.ones(n + 1)}, np.zeros(n + 1), {}, []
        for (ell, mult, r), (p, q) in zip(blocks, faces):
            rows = _weight_rows(n, ell, np.multiply(mult, mean))
            rhs -= rows.diagonal(axis1=1, axis2=2) @ np.diagonal(p).real
            k = q.shape[1]
            g = prog.add_hermitian(k) if k else None
            free.append(g)
            if g is not None:
                _add_box_rows(prog, g, prog.add_hermitian(k), k)
                weight_terms[g] = q.conj().T @ rows @ q
                pass_terms[g] = mult * (q.conj().T @ r @ q)
        prog.add_constraint(weight_terms, rhs)
        if eps > 0.0:
            prog.add_constraint(pass_terms, 1.0 - eps, sense=">=")
        sol, vals = prog.solve()
        _require_solved(sol, "restricted hypothesis test")
        gammas = [
            p if g is None else p + q @ vals[g.index] @ q.conj().T
            for (p, q), g in zip(faces, free)
        ]
    total = sum(
        mult * float(np.clip(np.linalg.eigvalsh(herm(gm)), 0.0, 1.0).sum())
        for (_, mult, _), gm in zip(blocks, gammas)
    )
    c_star = total / 2**n
    return -float(np.log2(c_star)) if c_star > 0 else float("inf")


def _symmetric_dmax_free(blocks, n: int, eps: float) -> float:
    """dmax_smoothed_free(rho^{(x)n}, Delta^{(x)n}, eps) in bits over the
    blocks of :func:`qubit_power_blocks`.

    The free omega is sum_k f_k Pi_k with f_k >= 0, diag(f_l..f_{n-l}) in
    block l, and tr[omega] = sum_k C(n, k) f_k.  Each block has its own
    tau, ball witness P, Q = P - tau + R and omega - tau; the two trace rows
    weigh block l by m_l.  At eps = 0 the ball collapses to rho, as in
    `dmax_smoothed_free`.
    """
    eps = _check_eps(eps)
    prog = HermitianProgram()
    f = [prog.add_scalar() for _ in range(n + 1)]
    for k, fk in enumerate(f):
        prog.add_objective(fk, comb(n, k))
    p_terms, t_terms = {}, {}
    for ell, mult, r in blocks:
        dim = len(r)
        basis = hermitian_basis(dim)
        overlaps = (basis.reshape(dim * dim, -1).conj() @ r.reshape(-1)).real
        omega = {f[ell + a]: basis[:, a, a].real for a in range(dim)}
        rr = prog.add_hermitian(dim)  # omega - tau >= 0
        if eps <= 0.0:
            prog.add_constraint({rr: -basis, **omega}, overlaps)
            continue
        t, p, q = (prog.add_hermitian(dim) for _ in range(3))
        prog.add_constraint({q: basis, p: -basis, t: basis}, overlaps)
        prog.add_constraint({t: -basis, rr: -basis, **omega}, np.zeros(dim * dim))
        p_terms[p] = t_terms[t] = mult * np.eye(dim)
    if eps > 0.0:
        prog.add_constraint(p_terms, eps, sense="<=")
        prog.add_constraint(t_terms, 1.0)
    sol, _ = prog.solve()
    _require_solved(sol, "smoothed max-relative entropy")
    return float(np.log2(max(sol.primal_objective, 1e-300)))
