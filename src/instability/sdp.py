"""Small semidefinite-program solver.

Canonical form: minimize <c, x> subject to A x = b over a product of real
symmetric PSD blocks, in scaled (svec) coordinates.  The algorithm is a
primal-dual interior-point method on the homogeneous self-dual embedding
with Nesterov-Todd scaling and a Mehrotra predictor-corrector step.

The constraint rows the task programs emit are sparse (a few nonzeros per
row of a 32x32 realified block at d = 16), so after presolve A is held as
one sparse matrix over the concatenated blocks and A x, A^T y are one
product each.  The Schur complement M = sum_k A_k (W_k (x) W_k) A_k^T is
built only over the rows that touch each block, in the manner of SDPA's
sparse Schur formulas (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997);
it is dense and is Cholesky-factored once per iteration.  On one core of
a 2-core Xeon, restricted_ht at eps = 0.1 on dephaser(32) (1057 rows, two
64x64 blocks) solves in 5.9 s at 257 MB peak RSS.

Complex Hermitian blocks enter through :class:`HermitianProgram`, which
realifies each block as ``[[Re X, -Im X], [Im X, Re X]]`` (PSD iff the
Hermitian block is PSD) and halves constraint coefficients so that real
inner products reproduce the complex ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .linalg import herm

MAX_BLOCK_DIM = 64 * 2  # realified Hermitian blocks of dimension <= 64

# ---------------------------------------------------------------------------
# svec coordinates
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)
_svec_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _svec_data(n: int):
    if n not in _svec_cache:
        rows, cols = np.tril_indices(n)
        scale = np.where(rows == cols, 1.0, _SQRT2)
        _svec_cache[n] = (rows, cols, scale)
    return _svec_cache[n]


def svec(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    rows, cols, scale = _svec_data(n)
    return np.real(m[rows, cols]) * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    rows, cols, scale = _svec_data(n)
    out = np.zeros((n, n))
    out[rows, cols] = v / scale
    out[cols, rows] = out[rows, cols]
    return out


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class SdpProblem:
    """min <c, x> s.t. A x = b, x in a product of PSD cones (svec coords)."""

    block_dims: list[int]
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.block_dims = [int(n) for n in self.block_dims]
        if any(n < 1 for n in self.block_dims):
            raise ValidationError("block dimensions must be positive")
        if any(n > MAX_BLOCK_DIM for n in self.block_dims):
            raise ValidationError(
                f"block dimension exceeds the supported maximum {MAX_BLOCK_DIM}"
            )
        d = sum(svec_dim(n) for n in self.block_dims)
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.c.shape != (d,):
            raise ValidationError(f"objective length {self.c.shape} != {d}")
        if self.A.shape[1] != d or self.A.shape[0] != self.b.shape[0]:
            raise ValidationError("constraint matrix shape mismatch")
        if not (
            np.all(np.isfinite(self.A))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.c))
        ):
            raise ValidationError("problem data must be finite")

    @property
    def segments(self) -> list[slice]:
        out, off = [], 0
        for n in self.block_dims:
            out.append(slice(off, off + svec_dim(n)))
            off += svec_dim(n)
        return out


@dataclass
class SdpSolution:
    status: str  # optimal | infeasible | unbounded | max_iter
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    block_dims: list[int] = field(default_factory=list)
    # Largest jitter added to the Schur matrix before it factored, as a
    # multiple of its mean diagonal (0 when every Cholesky succeeded as is),
    # and whether some iteration fell back to least squares.
    max_jitter: float = 0.0
    used_lstsq: bool = False

    def block(self, k: int) -> np.ndarray:
        off = sum(svec_dim(n) for n in self.block_dims[:k])
        n = self.block_dims[k]
        return smat(self.x[off : off + svec_dim(n)], n)


# ---------------------------------------------------------------------------
# Block helpers
# ---------------------------------------------------------------------------


def _sym(m):
    return (m + m.T) / 2


def _psd_sqrt_pair(m: np.ndarray, floor: float = 1e-300):
    w, v = np.linalg.eigh(_sym(m))
    w = np.clip(w, floor, None)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling W with W s W = x, plus W^{1/2}, W^{-1/2} and the scaled point."""
    xh, _ = _psd_sqrt_pair(x)
    g = _sym(xh @ s @ xh)
    wg, vg = np.linalg.eigh(g)
    wg = np.clip(wg, 1e-300, None)
    g_mhalf = (vg * wg**-0.5) @ vg.T
    w_mat = _sym(xh @ g_mhalf @ xh)
    ww, wv = np.linalg.eigh(w_mat)
    ww = np.clip(ww, 1e-300, None)
    w_half = (wv * np.sqrt(ww)) @ wv.T
    w_mhalf = (wv / np.sqrt(ww)) @ wv.T
    lam = _sym(w_mhalf @ x @ w_mhalf)
    return w_mat, w_half, w_mhalf, lam


def _jordan(a, b):
    return (a @ b + b @ a) / 2.0


def _lam_inverse_op(lam: np.ndarray):
    """Return R -> L_lam^{-1}(R) using lam's eigenbasis."""
    w, v = np.linalg.eigh(_sym(lam))
    denom = (w[:, None] + w[None, :]) / 2.0
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)

    def solve(r):
        rt = v.T @ r @ v
        return _sym(v @ (rt / denom) @ v.T)

    return solve


def _max_step(m: np.ndarray, dm: np.ndarray) -> float:
    """sup {alpha : m + alpha dm >= 0} for m > 0."""
    _, m_mhalf = _psd_sqrt_pair(m)
    lam_min = np.linalg.eigvalsh(_sym(m_mhalf @ dm @ m_mhalf))[0]
    if lam_min >= -1e-300:
        return np.inf
    return -1.0 / lam_min


# ---------------------------------------------------------------------------
# Constraint operator and Schur complement
# ---------------------------------------------------------------------------


def _csr(parts, shape):
    """CSR matrix from (row, column, value) triples concatenated over `parts`."""
    import scipy.sparse  # scipy loads on first SDP use, not with the package

    r, c, v = (np.concatenate(x) for x in zip(*parts))
    return scipy.sparse.csr_matrix((v, (r, c)), shape=shape)


def _both_triangles(j, q, v, n: int):
    """Rows' svec nonzeros (row j, svec index q, value v) of an n x n block
    as full-matrix nonzeros (row, matrix row, matrix column, value)."""
    rows, cols, scale = _svec_data(n)
    v = v / scale[q]
    r, c = rows[q], cols[q]
    off = r != c
    return (
        np.concatenate([j, j[off]]),
        np.concatenate([r, c[off]]),
        np.concatenate([c, r[off]]),
        np.concatenate([v, v[off]]),
    )


class _SchurGroup:
    """Blocks of one size whose Schur terms are formed in one update.

    The pairs (j, k) with row j touching block k hold A_jk in `a_stack`, in
    full-matrix coordinates with row r of pair p at row r * pairs + p, so
    that a_stack @ [W_k] gives every A_jk W_k with the pairs in the middle
    axis; `a_svec` holds the same rows in svec coordinates, rescaled so that
    a_svec @ T, with T the lower triangles of the W_k A_lk W_k as its
    columns, gives tr(A_j W A_l W) over the touched rows.
    """

    def __init__(self, n: int, entries: list, m: int):
        g, nq = len(entries), svec_dim(n)
        key = np.sort(np.concatenate(
            [np.unique(j) * g + k for k, (j, _, _) in enumerate(entries)]
        ))
        pair_row, self.pair_block = np.divmod(key, g)
        self.rows = np.unique(pair_row)
        self.n, self.g = n, g
        self.tri_r, self.tri_c, scale = _svec_data(n)
        stack, svec_rows = [], []
        for k, (j, q, v) in enumerate(entries):
            fj, r, c, fv = _both_triangles(j, q, v, n)
            stack.append((r * key.size + np.searchsorted(key, fj * g + k), k * n + c, fv))
            # tr(A T) = svec(A) . svec(T), and svec(T) is T's lower triangle
            # times the svec scale.
            svec_rows.append((np.searchsorted(self.rows, j), k * nq + q, v * scale[q]))
        self.a_stack = _csr(stack, (key.size * n, g * n))
        self.a_svec = _csr(svec_rows, (self.rows.size, g * nq))
        # With one block the pairs are the touched rows in order; with more,
        # pair (j, k) fills column j of block k's rows of T.
        if g > 1:
            col = np.searchsorted(self.rows, pair_row) + self.pair_block * nq * self.rows.size
            self.scatter = (col[:, None] + np.arange(nq) * self.rows.size).ravel()
        self.index = np.s_[:, :] if self.rows.size == m else np.ix_(self.rows, self.rows)

    def add_to(self, schur: np.ndarray, ws: list) -> None:
        """schur[rows, rows] += tr(A_j W A_l W) summed over the group's blocks."""
        n, g = self.n, self.g
        w_stack = ws[0] if g == 1 else np.concatenate(ws)
        aw = self.a_stack @ w_stack  # rows (c, p): (A_p W)[c, :]
        if g == 1:
            # One product W [A_p W]_p, laid out (a, p, b), and a gather of
            # its lower triangles as columns: no transpose of the result.
            waw = (w_stack @ aw.reshape(n, -1)).reshape(n, -1, n)
            t = waw[self.tri_r, :, self.tri_c]
        else:
            aw = aw.reshape(n, -1, n).transpose(1, 0, 2)
            waw = np.matmul(w_stack.reshape(g, n, n)[self.pair_block], aw)
            t = np.zeros(g * svec_dim(n) * self.rows.size)
            t[self.scatter] = waw[:, self.tri_r, self.tri_c].ravel()
            t = t.reshape(-1, self.rows.size)
        schur[self.index] += self.a_svec @ t


class _Constraints:
    """The presolved rows as one sparse matrix over the concatenated blocks.

    The coefficient matrices are stored in full-matrix coordinates, so
    A x is one product with the raveled blocks and A^T y comes back as
    raveled symmetric blocks.  Same-size blocks share a Schur update, except
    that each block as wide as the widest keeps its own, which bounds every
    temporary of the build by one block's touched rows times n^2.
    """

    def __init__(self, a_svec: np.ndarray, dims: list[int]):
        m = a_svec.shape[0]
        self.m, self.dims = m, dims
        self.offsets = np.cumsum([0] + [n * n for n in dims])
        entries, full, off = [], [], 0
        for n, o in zip(dims, self.offsets):
            j, q = np.nonzero(a_svec[:, off : off + svec_dim(n)])
            entries.append((j, q, a_svec[j, off + q]))
            fj, r, c, fv = _both_triangles(*entries[-1], n)
            full.append((fj, o + r * n + c, fv))
            off += svec_dim(n)
        self.a = _csr(full, (m, int(self.offsets[-1])))
        self.at = self.a.T.tocsr()
        widest = max(dims, default=0)
        self.groups = []
        for n in sorted(set(dims)):
            members = [k for k, nk in enumerate(dims) if nk == n]
            for ks in [[k] for k in members] if n == widest else [members]:
                group = _SchurGroup(n, [entries[k] for k in ks], m)
                if group.rows.size:
                    self.groups.append((ks, group))

    def apply(self, xs) -> np.ndarray:
        return self.a @ np.concatenate([x.ravel() for x in xs])

    def adjoint(self, y) -> list:
        v = self.at @ y
        return [
            v[o : o + n * n].reshape(n, n) for o, n in zip(self.offsets, self.dims)
        ]

    def schur(self, ws) -> np.ndarray:
        out = np.zeros((self.m, self.m))
        for ks, group in self.groups:
            group.add_to(out, [ws[k] for k in ks])
        return out


_JITTER_LADDER = (0.0, 1e-14, 1e-11, 1e-8)


def _factor_schur(m: np.ndarray):
    """Factor the Schur matrix once: (solve, jitter, used_lstsq).

    Cholesky after adding the smallest jitter on the ladder (a multiple of
    the mean diagonal) that lets it succeed; least squares if none does.
    """
    import scipy.linalg

    if not m.shape[0]:
        return (lambda rhs: np.zeros(0)), 0.0, False
    scale = max(np.trace(m) / m.shape[0], 1e-300)
    for jitter in _JITTER_LADDER:
        shifted = m + jitter * scale * np.eye(m.shape[0]) if jitter else m
        try:
            cf = scipy.linalg.cho_factor(shifted, lower=True)
        except np.linalg.LinAlgError:
            continue
        return (lambda rhs: scipy.linalg.cho_solve(cf, rhs)), jitter, False
    return (lambda rhs: np.linalg.lstsq(m, rhs, rcond=None)[0]), 0.0, True


# ---------------------------------------------------------------------------
# Core solver
# ---------------------------------------------------------------------------


def _presolve_rows(a: np.ndarray, b: np.ndarray):
    """Drop linearly dependent constraint rows, checking consistency."""
    import scipy.linalg

    m = a.shape[0]
    if m == 0:
        return a, b, np.arange(0)
    q, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(a.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > max(tol, 1e-300)))
    keep = np.sort(piv[:rank])
    if rank == m:
        return a, b, keep
    a_keep, b_keep = a[keep], b[keep]
    drop = np.setdiff1d(np.arange(m), keep)
    coeff = np.linalg.lstsq(a_keep.T, a[drop].T, rcond=None)[0]
    mismatch = np.abs(b[drop] - coeff.T @ b_keep)
    if np.any(mismatch > 1e-8 * (1 + np.abs(b).max(initial=0.0))):
        raise SolverError("constraint rows are inconsistent (infeasible equalities)")
    return a_keep, b_keep, keep


def solve(
    problem: SdpProblem,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
    target_tol: float = 1e-11,
) -> SdpSolution:
    """Solve the SDP; `feas_tol`/`gap_tol` are the acceptance thresholds and
    the solver keeps polishing toward `target_tol` while it makes progress."""
    dims = problem.block_dims
    segs = problem.segments
    a_svec, b, keep_rows = _presolve_rows(problem.A, problem.b)
    c = problem.c
    m = a_svec.shape[0]
    nu = sum(dims)
    cons = _Constraints(a_svec, dims)
    op_a, op_at = cons.apply, cons.adjoint
    c_blocks = [smat(c[seg], n) for n, seg in zip(dims, segs)]

    def inner(xs, ys):
        return float(sum(np.sum(xk * yk) for xk, yk in zip(xs, ys)))

    xs = [np.eye(n) for n in dims]
    ss = [np.eye(n) for n in dims]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    b_norm = 1.0 + np.linalg.norm(b)
    c_norm = 1.0 + np.linalg.norm(c)

    best = None
    best_score = np.inf
    best_iter = 0
    status = "max_iter"
    iterations = 0
    factor_log = [0.0, False]  # largest jitter, lstsq used
    mu0 = (inner(xs, ss) + tau * kappa) / (nu + 1)

    for iterations in range(1, max_iter + 1):
        mu = (inner(xs, ss) + tau * kappa) / (nu + 1)

        # Residuals of the homogeneous model.
        rp = op_a(xs) - b * tau
        at_y = op_at(y)
        rd = [-at_y[k] + c_blocks[k] * tau - ss[k] for k in range(len(dims))]
        rg = -inner(c_blocks, xs) + float(b @ y) - kappa

        # Normalized optimality metrics for the de-homogenized point.
        xhat = [xk / tau for xk in xs]
        shat = [sk / tau for sk in ss]
        yhat = y / tau
        pres = np.linalg.norm(op_a(xhat) - b) / b_norm
        at_yhat = op_at(yhat)
        dres = (
            np.sqrt(
                sum(
                    np.sum((c_blocks[k] - at_yhat[k] - shat[k]) ** 2)
                    for k in range(len(dims))
                )
            )
            / c_norm
        )
        pobj = inner(c_blocks, xhat)
        dobj = float(b @ yhat)
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best_iter = iterations
            best = (
                [xk.copy() for xk in xhat],
                yhat.copy(),
                [sk.copy() for sk in shat],
                pobj,
                dobj,
                relgap,
                pres,
                dres,
            )
        if pres <= target_tol and dres <= target_tol and relgap <= target_tol:
            break
        if mu <= 1e-16 * max(mu0, 1.0):
            break  # nothing left to gain in double precision
        if score > 0.5 * best_score and iterations - best_iter > 10:
            break  # stalled

        # Infeasibility certificates appear as tau -> 0 with kappa bounded away.
        if tau <= 1e-10 * max(1.0, kappa) and mu <= 1e-10 * mu0:
            if float(b @ y) > 1e-8:
                status = "infeasible"
            elif -inner(c_blocks, xs) > 1e-8:
                status = "unbounded"
            else:  # pragma: no cover - degenerate ray
                status = "infeasible"
            return _finalize(
                status, best, dims, keep_rows, problem, iterations, factor_log
            )

        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scal = [_nt_scaling(xs[k], ss[k]) for k in range(len(dims))]
                lam_solvers = [_lam_inverse_op(sc[3]) for sc in scal]

                def q_apply(mats, factor_idx):
                    # factor_idx: 0 full W, 1 W^{1/2}, 2 W^{-1/2}
                    return [
                        _sym(scal[k][factor_idx] @ mats[k] @ scal[k][factor_idx])
                        for k in range(len(dims))
                    ]

                def q_w(mats):
                    return q_apply(mats, 0)

                def q_w_half(mats):
                    return q_apply(mats, 1)

                # Schur complement M = A Q_W A^T, factored once for u2 and
                # both direction solves.
                solve_m, jitter, used_lstsq = _factor_schur(
                    cons.schur([sc[0] for sc in scal])
                )
                factor_log[0] = max(factor_log[0], jitter)
                factor_log[1] = factor_log[1] or used_lstsq

                qw_c = q_w(c_blocks)
                u2 = solve_m(op_a(qw_c) + b)
                x2_base = q_w(op_at(u2))
                x2 = [x2_base[k] - qw_c[k] for k in range(len(dims))]

                def direction(eta, comp_rhs, rhs_tk):
                    d_c = [lam_solvers[k](comp_rhs[k]) for k in range(len(dims))]
                    qw_rd = q_w(rd)
                    qwh_dc = q_w_half(d_c)
                    rhs1 = eta * op_a(qw_rd) - op_a(qwh_dc) - eta * rp
                    u1 = solve_m(rhs1)
                    # dx = Q_W(A^T u1 - eta Rd) + Q_{W^{1/2}} d_c + d_tau * x2
                    qw_at_u1 = q_w(op_at(u1))
                    x1 = [
                        qw_at_u1[k] - eta * qw_rd[k] + qwh_dc[k]
                        for k in range(len(dims))
                    ]
                    coef = -inner(c_blocks, x2) + float(b @ u2) + kappa / tau
                    rhs_tau = (
                        -eta * rg
                        + inner(c_blocks, x1)
                        - float(b @ u1)
                        + rhs_tk / tau
                    )
                    d_tau = rhs_tau / coef if abs(coef) > 1e-300 else 0.0
                    dy = u1 + d_tau * u2
                    dx = [x1[k] + d_tau * x2[k] for k in range(len(dims))]
                    d_kappa = (rhs_tk - kappa * d_tau) / tau
                    # Recover ds from the dual row rather than the complementarity
                    # row: the latter needs Q_{W^{-1}}, whose conditioning degrades
                    # as mu -> 0 and would poison the dual residual.
                    at_dy = op_at(dy)
                    ds = [
                        _sym(-at_dy[k] + c_blocks[k] * d_tau + eta * rd[k])
                        for k in range(len(dims))
                    ]
                    return dx, dy, ds, d_tau, d_kappa, d_c

                def max_alpha(dx, ds, d_tau, d_kappa):
                    alpha = np.inf
                    for k in range(len(dims)):
                        alpha = min(alpha, _max_step(xs[k], dx[k]))
                        alpha = min(alpha, _max_step(ss[k], ds[k]))
                    if d_tau < 0:
                        alpha = min(alpha, -tau / d_tau)
                    if d_kappa < 0:
                        alpha = min(alpha, -kappa / d_kappa)
                    return alpha

                # Predictor (affine) direction.
                comp_aff = [-_sym(sc[3] @ sc[3]) for sc in scal]
                dx_a, dy_a, ds_a, dtau_a, dkap_a, _ = direction(
                    1.0, comp_aff, -tau * kappa
                )
                alpha_aff = min(1.0, 0.99 * max_alpha(dx_a, ds_a, dtau_a, dkap_a))

                xs_t = [xs[k] + alpha_aff * dx_a[k] for k in range(len(dims))]
                ss_t = [ss[k] + alpha_aff * ds_a[k] for k in range(len(dims))]
                mu_aff = (
                    inner(xs_t, ss_t)
                    + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)
                ) / (nu + 1)
                gamma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

                # Corrector: second-order term in the scaled space.
                comp = []
                for k in range(len(dims)):
                    xt = _sym(scal[k][2] @ dx_a[k] @ scal[k][2])
                    st = _sym(scal[k][1] @ ds_a[k] @ scal[k][1])
                    lam = scal[k][3]
                    comp.append(
                        gamma * mu * np.eye(dims[k])
                        - _sym(lam @ lam)
                        - _jordan(xt, st)
                    )
                rhs_tk = gamma * mu - tau * kappa - dtau_a * dkap_a
                dx, dy, ds, d_tau, d_kappa, _ = direction(1.0 - gamma, comp, rhs_tk)
                alpha = min(1.0, 0.99 * max_alpha(dx, ds, d_tau, d_kappa))
                if not np.isfinite(alpha) or alpha <= 1e-14:
                    break

                xs = [_sym(xs[k] + alpha * dx[k]) for k in range(len(dims))]
                ss = [_sym(ss[k] + alpha * ds[k]) for k in range(len(dims))]
                y = y + alpha * dy
                tau += alpha * d_tau
                kappa += alpha * d_kappa
        except (FloatingPointError, np.linalg.LinAlgError):
            break  # numerical breakdown past attainable precision

    if best is None:
        raise SolverError("interior-point method produced no iterates")
    _, _, _, _, _, relgap, pres, dres = best
    if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
        status = "optimal"
    return _finalize(status, best, dims, keep_rows, problem, iterations, factor_log)


def _finalize(status, best, dims, keep_rows, problem, iterations, factor_log) -> SdpSolution:
    xhat, yhat, shat, pobj, dobj, relgap, pres, dres = best
    x = np.concatenate([svec(xk) for xk in xhat])
    s = np.concatenate([svec(sk) for sk in shat])
    y_full = np.zeros(problem.A.shape[0])
    y_full[keep_rows] = yhat
    return SdpSolution(
        status=status,
        x=x,
        y=y_full,
        s=s,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=relgap,
        primal_residual=pres,
        dual_residual=dres,
        iterations=iterations,
        block_dims=list(dims),
        max_jitter=factor_log[0],
        used_lstsq=factor_log[1],
    )


# ---------------------------------------------------------------------------
# Hermitian front end
# ---------------------------------------------------------------------------


def realify(x: np.ndarray) -> np.ndarray:
    """[[Re X, -Im X], [Im X, Re X]]; PSD iff the Hermitian X is PSD."""
    re, im = np.real(x), np.imag(x)
    return np.block([[re, -im], [im, re]])


_realify_svec_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _realify_svec_map(n: int):
    """(index, weight) with K.view(float)[index] * weight = svec(realify(K) / 2).

    The float view of a complex n x n matrix interleaves Re and Im of each
    entry; the lower triangle of realify(K) holds Re K in its diagonal
    blocks and +Im K in its lower-left block.
    """
    if n not in _realify_svec_cache:
        rows, cols, scale = _svec_data(2 * n)
        imag = (rows >= n) & (cols < n)
        index = 2 * ((rows % n) * n + cols % n) + imag
        _realify_svec_cache[n] = (index, scale / 2.0)
    return _realify_svec_cache[n]


def derealify(s: np.ndarray, n: int) -> np.ndarray:
    """Project a 2n x 2n symmetric matrix back to a Hermitian n x n one."""
    a = (s[:n, :n] + s[n:, n:]) / 2.0
    bmat = (s[n:, :n] - s[:n, n:]) / 2.0
    return herm(a + 1j * bmat)


@dataclass(frozen=True)
class _Var:
    index: int
    dim: int        # Hermitian dimension (0 for scalar)
    scalar: bool


class HermitianProgram:
    """Assembles an SDP over complex Hermitian PSD blocks and scalar slacks.

    Scalar variables are nonnegative; constraints are real-linear in the
    variables with Hermitian coefficient matrices: each term contributes
    Re tr[K^dagger X].
    """

    def __init__(self):
        self._vars: list[_Var] = []
        self._obj: dict[int, np.ndarray | float] = {}
        self._rows: list[tuple[dict[int, np.ndarray | float], float]] = []

    def add_hermitian(self, dim: int) -> _Var:
        v = _Var(len(self._vars), dim, False)
        self._vars.append(v)
        return v

    def add_scalar(self) -> _Var:
        v = _Var(len(self._vars), 0, True)
        self._vars.append(v)
        return v

    def add_objective(self, var: _Var, coeff) -> None:
        cur = self._obj.get(var.index)
        if var.scalar:
            self._obj[var.index] = (cur or 0.0) + float(coeff)
        else:
            k = herm(np.asarray(coeff, dtype=complex))
            self._obj[var.index] = k if cur is None else cur + k

    def add_constraint(self, terms: dict, rhs: float, sense: str = "==") -> None:
        """sum of Re<K_v, X_v> (or k*x for scalars) `sense` rhs."""
        clean: dict[int, np.ndarray | float] = {}
        for var, coeff in terms.items():
            if var.scalar:
                clean[var.index] = float(coeff)
            else:
                clean[var.index] = herm(np.asarray(coeff, dtype=complex))
        if sense == "==":
            self._rows.append((clean, float(rhs)))
        elif sense in ("<=", ">="):
            slack = self.add_scalar()
            sign = 1.0 if sense == "<=" else -1.0
            clean[slack.index] = sign
            self._rows.append((clean, float(rhs)))
        else:
            raise ValidationError(f"unknown constraint sense {sense!r}")

    def _layout(self):
        dims, offsets, off = [], [], 0
        for v in self._vars:
            n = 1 if v.scalar else 2 * v.dim
            dims.append(n)
            offsets.append(off)
            off += svec_dim(n)
        return dims, offsets, off

    def _coeff_svec(self, v: _Var, coeff) -> np.ndarray:
        if v.scalar:
            return np.array([float(coeff)])
        # Re tr[K X] = (1/2) tr[realify(K) realify(X)]
        index, weight = _realify_svec_map(v.dim)
        entries = np.ascontiguousarray(coeff, dtype=complex).reshape(-1).view(float)
        return entries[index] * weight

    def build(self) -> SdpProblem:
        dims, offsets, total = self._layout()
        c = np.zeros(total)
        for idx, coeff in self._obj.items():
            v = self._vars[idx]
            seg = slice(offsets[idx], offsets[idx] + svec_dim(dims[idx]))
            c[seg] += self._coeff_svec(v, coeff)
        a = np.zeros((len(self._rows), total))
        b = np.zeros(len(self._rows))
        for j, (terms, rhs) in enumerate(self._rows):
            b[j] = rhs
            for idx, coeff in terms.items():
                v = self._vars[idx]
                seg = slice(offsets[idx], offsets[idx] + svec_dim(dims[idx]))
                a[j, seg] += self._coeff_svec(v, coeff)
        return SdpProblem(dims, c, a, b)

    def solve(self, **kw):
        problem = self.build()
        sol = solve(problem, **kw)
        values = {}
        for v, seg_dim, off in zip(
            self._vars, problem.block_dims, [s.start for s in problem.segments]
        ):
            vec = sol.x[off : off + svec_dim(seg_dim)]
            matrix = smat(vec, seg_dim)
            if v.scalar:
                values[v.index] = float(matrix[0, 0])
            else:
                values[v.index] = derealify(matrix, v.dim)
        return sol, values

    @staticmethod
    def value(values: dict, var: _Var):
        return values[var.index]
