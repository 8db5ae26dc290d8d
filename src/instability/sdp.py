"""Small semidefinite-program solver.

Canonical form: minimize <c, x> subject to A x = b over a product of real
symmetric PSD blocks, in scaled (svec) coordinates.  The algorithm is a
primal-dual interior-point method on the homogeneous self-dual embedding
with Nesterov-Todd scaling and a Mehrotra predictor-corrector step.

The iterates are stacks: the blocks of one size n form one (g, n, n)
stack, and NT scaling, the inverse of L_lam, the scaled products, the
Jordan corrector and the step length each run once per block size, with
the 1x1 scalar slacks as the n = 1 stack.  The step length reuses the
inverse square roots of x and s that the scaling computes.

The constraint rows the task programs emit are sparse (a few nonzeros per
row of a 32x32 realified block at d = 16), so after presolve A is held as
one sparse matrix over the raveled stacks and A x, A^T y are one product
each.  The Schur complement M = sum_k A_k (W_k (x) W_k) A_k^T is built
only over the rows that touch each block, in the manner of SDPA's sparse
Schur formulas (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997); it is
dense and is Cholesky-factored once per iteration; a block whose rows
form one contiguous range adds its term through a slice.

Presolve drops dependent rows by a pivoted QR of the border rows only: a
row with a private column (no other row is nonzero there) cannot be
dependent.  The task programs' Hermitian-basis rows all have one, so at
most their algebra and trace rows reach the QR.  On one core of a 2-core
Xeon, restricted_ht at eps = 0.1 on dephaser(16) solves in 0.5 s, and on
dephaser(32) (1057 rows, two 64x64 blocks) in 2.5 s at 263 MB peak RSS.

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
# Stack kernels: each acts on one n x n block or on a (g, n, n) stack of
# same-size blocks, member by member.
# ---------------------------------------------------------------------------


def _sym(m):
    return (m + m.swapaxes(-1, -2)) / 2


def _psd_sqrt_pair(m: np.ndarray, floor: float = 1e-300):
    """(m^{1/2}, m^{-1/2}) of symmetric m, from its lower triangle."""
    w, v = np.linalg.eigh(m)
    r = np.sqrt(np.clip(w, floor, None))[..., None, :]
    vt = v.swapaxes(-1, -2)
    return (v * r) @ vt, (v / r) @ vt


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling W with W s W = x for symmetric x, s > 0: the tuple
    (W, W^{1/2}, W^{-1/2}, lam, [x^{-1/2}, s^{-1/2}]).

    lam = W^{-1/2} x W^{-1/2} is the scaled point.  x and s are decomposed
    in one call, and their inverse square roots, stacked on a new first
    axis, are for the step length to reuse.
    """
    (xh, _), m_mhalf = _psd_sqrt_pair(np.stack([x, s]))
    g_mhalf = _psd_sqrt_pair(_sym(xh @ s @ xh))[1]
    w_mat = _sym(xh @ g_mhalf @ xh)
    w_half, w_mhalf = _psd_sqrt_pair(w_mat)
    lam = _sym(w_mhalf @ x @ w_mhalf)
    return w_mat, w_half, w_mhalf, lam, m_mhalf


def _jordan(a, b):
    return (a @ b + b @ a) / 2.0


def _lam_inverse_op(lam: np.ndarray):
    """Return R -> L_lam^{-1}(R), the X with (lam X + X lam)/2 = R, using
    the eigenbasis of symmetric lam."""
    w, v = np.linalg.eigh(lam)
    denom = (w[..., :, None] + w[..., None, :]) / 2.0
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    vt = v.swapaxes(-1, -2)

    def solve(r):
        return _sym(v @ ((vt @ r @ v) / denom) @ vt)

    return solve


def _max_step(m_mhalf: np.ndarray, dm: np.ndarray) -> float:
    """sup {alpha : m + alpha dm >= 0} over every member, given m^{-1/2} of m > 0."""
    lam_min = np.linalg.eigvalsh(_sym(m_mhalf @ dm @ m_mhalf))[..., 0].min()
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

    def __init__(self, n: int, entries: list):
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
        # Contiguous rows (the task programs emit each block's rows as one
        # range) add through a basic slice, a view; others through np.ix_.
        rows = self.rows
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            self.index = (slice(rows[0], rows[-1] + 1),) * 2
        else:
            self.index = np.ix_(rows, rows)

    def add_to(self, schur: np.ndarray, w: np.ndarray) -> None:
        """schur[rows, rows] += tr(A_j W A_l W) summed over the group's
        blocks, whose scalings are the (g, n, n) stack `w`."""
        n = self.n
        aw = self.a_stack @ w.reshape(-1, n)  # rows (c, p): (A_p W)[c, :]
        if self.g == 1:
            # One product W [A_p W]_p, laid out (a, p, b), and a gather of
            # its lower triangles as columns: no transpose of the result.
            waw = (w[0] @ aw.reshape(n, -1)).reshape(n, -1, n)
            t = waw[self.tri_r, :, self.tri_c]
        else:
            aw = aw.reshape(n, -1, n).transpose(1, 0, 2)
            waw = np.matmul(w[self.pair_block], aw)
            t = np.zeros(self.g * svec_dim(n) * self.rows.size)
            t[self.scatter] = waw[:, self.tri_r, self.tri_c].ravel()
            t = t.reshape(-1, self.rows.size)
        schur[self.index] += self.a_svec @ t


class _Constraints:
    """The presolved rows as one sparse matrix over the block stacks.

    The blocks of each size n form one (g, n, n) stack, in the problem's
    order within the stack and with the sizes ascending.  A point of the
    cone is every stack raveled into one vector (`split` gives the stack
    views), and the coefficient matrices are stored in full-matrix
    coordinates of that vector, so A x is one product and A^T y comes back
    as symmetric stacks.  Same-size blocks share a Schur update, except that
    each block as wide as the widest keeps its own, which bounds every
    temporary of the build by one block's touched rows times n^2.
    """

    def __init__(self, a_svec: np.ndarray, dims: list[int]):
        m = a_svec.shape[0]
        self.m = m
        sizes = sorted(set(dims))
        self.members = [[k for k, nk in enumerate(dims) if nk == n] for n in sizes]
        # Each block's offset in the raveled stacks, where its svec segment
        # lands as it is read: the presolved matrix is never reordered.
        offset, self.stacks, base = np.zeros(len(dims), dtype=int), [], 0
        for n, ks in zip(sizes, self.members):
            offset[ks] = base + n * n * np.arange(len(ks))
            self.stacks.append((n, len(ks), slice(base, base + len(ks) * n * n)))
            base += len(ks) * n * n
        entries, full, lower, upper, scales, off = [], [], [], [], [], 0
        for k, n in enumerate(dims):
            j, q = np.nonzero(a_svec[:, off : off + svec_dim(n)])
            entries.append((j, q, a_svec[j, off + q]))
            fj, r, c, fv = _both_triangles(*entries[-1], n)
            full.append((fj, offset[k] + r * n + c, fv))
            rows, cols, scale = _svec_data(n)
            lower.append(offset[k] + rows * n + cols)
            upper.append(offset[k] + cols * n + rows)
            scales.append(scale)
            off += svec_dim(n)
        self.a = _csr(full, (m, base))
        self.at = self.a.T.tocsr()
        # svec coordinates in the problem's order <-> the raveled stacks.
        self.lower, self.upper, self.scale = (
            np.concatenate(x) for x in (lower, upper, scales)
        )
        widest = max(dims, default=0)
        self.groups = []
        for i, (n, ks) in enumerate(zip(sizes, self.members)):
            parts = (
                [(slice(p, p + 1), [k]) for p, k in enumerate(ks)]
                if n == widest
                else [(slice(None), ks)]
            )
            for part, ks_part in parts:
                group = _SchurGroup(n, [entries[k] for k in ks_part])
                if group.rows.size:
                    self.groups.append((i, part, group))

    def split(self, v: np.ndarray) -> list:
        """The (g, n, n) stack views of a raveled point."""
        return [v[part].reshape(g, n, n) for n, g, part in self.stacks]

    @staticmethod
    def join(stacks) -> np.ndarray:
        return np.concatenate([s.reshape(-1) for s in stacks])

    def identity(self) -> np.ndarray:
        return self.join(np.broadcast_to(np.eye(n), (g, n, n)) for n, g, _ in self.stacks)

    def from_svec(self, v: np.ndarray) -> np.ndarray:
        """Raveled stacks from svec coordinates in the problem's block order."""
        out = np.empty(self.a.shape[1])
        out[self.lower] = v / self.scale
        out[self.upper] = out[self.lower]
        return out

    def to_svec(self, v: np.ndarray) -> np.ndarray:
        """svec coordinates in the problem's block order from raveled stacks."""
        return v[self.lower] * self.scale

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.a @ v

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.at @ y

    def schur(self, ws) -> np.ndarray:
        """Schur matrix for per-block scalings W_k in the problem's block order."""
        return self.stacked_schur(
            [np.stack([ws[k] for k in ks]) for ks in self.members]
        )

    def stacked_schur(self, w_stacks) -> np.ndarray:
        """Schur matrix for the scalings given as one stack per size."""
        out = np.zeros((self.m, self.m))
        for i, part, group in self.groups:
            group.add_to(out, w_stacks[i][part])
        return out


_JITTER_LADDER = (0.0, 1e-14, 1e-11, 1e-8)


def _factor_schur(m: np.ndarray):
    """Factor the Schur matrix once: (solve, jitter, used_lstsq).

    Cholesky after adding the smallest jitter on the ladder (a multiple of
    the mean diagonal) that lets it succeed; least squares if none does.
    A non-finite matrix raises LinAlgError, a breakdown like any other.
    """
    import scipy.linalg

    if not m.shape[0]:
        return (lambda rhs: np.zeros(0)), 0.0, False
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Schur matrix is not finite")
    scale = max(np.trace(m) / m.shape[0], 1e-300)
    for jitter in _JITTER_LADDER:
        shifted = m + jitter * scale * np.eye(m.shape[0]) if jitter else m
        try:
            cf = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        return (lambda rhs: scipy.linalg.cho_solve(cf, rhs)), jitter, False
    return (lambda rhs: np.linalg.lstsq(m, rhs, rcond=None)[0]), 0.0, True


# ---------------------------------------------------------------------------
# Core solver
# ---------------------------------------------------------------------------


def _presolve_rows(a: np.ndarray, b: np.ndarray):
    """Drop linearly dependent constraint rows, checking consistency.

    A row with a private column, one in which no other row is nonzero, is
    independent of every other row (the column singleton rule of LP
    presolve; Andersen & Andersen, Math. Prog. 71, 1995).  Any dependency
    therefore lies among the remaining border rows, and only those go
    through the pivoted QR, at the rank tolerance a QR of all rows would
    use.  Each Hermitian-basis row of the task programs owns a coordinate
    of a variable no other row touches, so only their few algebra and
    trace rows reach the QR.
    """
    import scipy.linalg

    m = a.shape[0]
    nonzero = a != 0
    private = nonzero[:, nonzero.sum(axis=0) == 1].any(axis=1)
    border = np.flatnonzero(~private)
    if border.size == 0:
        return a, b, np.arange(m)
    a_border = a[border]
    r, piv = scipy.linalg.qr(a_border.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    # The leading pivot of a QR of all rows is the largest row norm.
    tol = max(a.shape) * np.finfo(float).eps * np.linalg.norm(a, axis=1).max()
    rank = int(np.sum(diag > max(tol, 1e-300)))
    if rank == border.size:
        return a, b, np.arange(m)
    kept = np.sort(piv[:rank])
    drop = np.setdiff1d(np.arange(border.size), kept)
    coeff = np.linalg.lstsq(a_border[kept].T, a_border[drop].T, rcond=None)[0]
    mismatch = np.abs(b[border[drop]] - coeff.T @ b[border[kept]])
    if np.any(mismatch > 1e-8 * (1 + np.abs(b).max(initial=0.0))):
        raise SolverError("constraint rows are inconsistent (infeasible equalities)")
    keep = np.sort(np.concatenate([np.flatnonzero(private), border[kept]]))
    return a[keep], b[keep], keep


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
    a_svec, b, keep_rows = _presolve_rows(problem.A, problem.b)
    m = a_svec.shape[0]
    nu = sum(problem.block_dims)
    cons = _Constraints(a_svec, problem.block_dims)
    op_a, op_at, split, join = cons.apply, cons.adjoint, cons.split, cons.join
    # Every point below is the raveled stacks, so inner products are dots.
    c = cons.from_svec(problem.c)

    def sym(v):
        return join(_sym(vk) for vk in split(v))

    def q_apply(factors, v):
        """Q_F(V) = F V F stack by stack, with one factor stack per size."""
        return join(_sym(f @ vk @ f) for f, vk in zip(factors, split(v)))

    x = cons.identity()
    s = x.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    b_norm = 1.0 + np.linalg.norm(b)
    c_norm = 1.0 + np.linalg.norm(problem.c)

    best = None
    best_score = np.inf
    best_iter = 0
    status = "max_iter"
    iterations = 0
    factor_log = [0.0, False]  # largest jitter, lstsq used
    mu0 = (x @ s + tau * kappa) / (nu + 1)

    for iterations in range(1, max_iter + 1):
        mu = (x @ s + tau * kappa) / (nu + 1)

        # Residuals of the homogeneous model.
        a_x, at_y = op_a(x), op_at(y)
        rp = a_x - b * tau
        rd = c * tau - at_y - s
        rg = float(b @ y) - float(c @ x) - kappa

        # Normalized optimality metrics for the de-homogenized point.
        xhat, shat, yhat = x / tau, s / tau, y / tau
        pres = np.linalg.norm(a_x / tau - b) / b_norm
        dres = np.linalg.norm(c - at_y / tau - shat) / c_norm
        pobj = float(c @ xhat)
        dobj = float(b @ yhat)
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best_iter = iterations
            best = (xhat, yhat, shat, pobj, dobj, relgap, pres, dres)
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
            elif -float(c @ x) > 1e-8:
                status = "unbounded"
            else:  # pragma: no cover - degenerate ray
                status = "infeasible"
            return _finalize(
                status, best, cons, keep_rows, problem, iterations, factor_log
            )

        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scal = [_nt_scaling(xk, sk) for xk, sk in zip(split(x), split(s))]
                w, w_half, w_mhalf, lam, xs_mhalf = zip(*scal)
                lam_solvers = [_lam_inverse_op(lk) for lk in lam]
                lam_sq = [_sym(lk @ lk) for lk in lam]

                # Schur complement M = A Q_W A^T, factored once for u2 and
                # both direction solves.
                solve_m, jitter, used_lstsq = _factor_schur(cons.stacked_schur(w))
                factor_log[0] = max(factor_log[0], jitter)
                factor_log[1] = factor_log[1] or used_lstsq

                qw_c = q_apply(w, c)
                u2 = solve_m(op_a(qw_c) + b)
                at_u2 = op_at(u2)
                x2 = q_apply(w, at_u2) - qw_c
                coef = float(b @ u2) - float(c @ x2) + kappa / tau
                qw_rd = q_apply(w, rd)
                a_qw_rd = op_a(qw_rd)

                def direction(eta, comp_rhs, rhs_tk):
                    d_c = join(f(r) for f, r in zip(lam_solvers, comp_rhs))
                    qwh_dc = q_apply(w_half, d_c)
                    u1 = solve_m(eta * a_qw_rd - op_a(qwh_dc) - eta * rp)
                    # dx = Q_W(A^T u1 - eta Rd) + Q_{W^{1/2}} d_c + d_tau * x2
                    at_u1 = op_at(u1)
                    x1 = q_apply(w, at_u1) - eta * qw_rd + qwh_dc
                    rhs_tau = (
                        -eta * rg + float(c @ x1) - float(b @ u1) + rhs_tk / tau
                    )
                    d_tau = rhs_tau / coef if abs(coef) > 1e-300 else 0.0
                    dy = u1 + d_tau * u2
                    dx = x1 + d_tau * x2
                    d_kappa = (rhs_tk - kappa * d_tau) / tau
                    # Recover ds from the dual row rather than the complementarity
                    # row: the latter needs Q_{W^{-1}}, whose conditioning degrades
                    # as mu -> 0 and would poison the dual residual.
                    ds = c * d_tau + eta * rd - (at_u1 + d_tau * at_u2)
                    return dx, dy, ds, d_tau, d_kappa

                def max_alpha(dx, ds, d_tau, d_kappa):
                    steps = [
                        _max_step(h, np.stack([dxk, dsk]))
                        for h, dxk, dsk in zip(xs_mhalf, split(dx), split(ds))
                    ]
                    if d_tau < 0:
                        steps.append(-tau / d_tau)
                    if d_kappa < 0:
                        steps.append(-kappa / d_kappa)
                    return min(steps)

                # Predictor (affine) direction.
                dx_a, dy_a, ds_a, dtau_a, dkap_a = direction(
                    1.0, [-l2 for l2 in lam_sq], -tau * kappa
                )
                alpha_aff = min(1.0, 0.99 * max_alpha(dx_a, ds_a, dtau_a, dkap_a))

                mu_aff = (
                    float((x + alpha_aff * dx_a) @ (s + alpha_aff * ds_a))
                    + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)
                ) / (nu + 1)
                gamma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

                # Corrector: second-order term in the scaled space.
                comp = [
                    gamma * mu * np.eye(l2.shape[-1])
                    - l2
                    - _jordan(_sym(wm @ dxk @ wm), _sym(wh @ dsk @ wh))
                    for l2, wm, wh, dxk, dsk in zip(
                        lam_sq, w_mhalf, w_half, split(dx_a), split(ds_a)
                    )
                ]
                rhs_tk = gamma * mu - tau * kappa - dtau_a * dkap_a
                dx, dy, ds, d_tau, d_kappa = direction(1.0 - gamma, comp, rhs_tk)
                alpha = min(1.0, 0.99 * max_alpha(dx, ds, d_tau, d_kappa))
                if not np.isfinite(alpha) or alpha <= 1e-14:
                    break

                x = sym(x + alpha * dx)
                s = sym(s + alpha * ds)
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
    return _finalize(status, best, cons, keep_rows, problem, iterations, factor_log)


def _finalize(status, best, cons, keep_rows, problem, iterations, factor_log) -> SdpSolution:
    xhat, yhat, shat, pobj, dobj, relgap, pres, dres = best
    y_full = np.zeros(problem.A.shape[0])
    y_full[keep_rows] = yhat
    return SdpSolution(
        status=status,
        x=cons.to_svec(xhat),
        y=y_full,
        s=cons.to_svec(shat),
        primal_objective=pobj,
        dual_objective=dobj,
        gap=relgap,
        primal_residual=pres,
        dual_residual=dres,
        iterations=iterations,
        block_dims=list(problem.block_dims),
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
    Re tr[K^dagger X].  Rows are added in families (one row is a family of
    one), each held as its stacked coefficients until `build`.
    """

    def __init__(self):
        self._vars: list[_Var] = []
        self._obj: dict[int, np.ndarray | float] = {}
        # (coefficients per variable index, rhs, (first slack index, sign) or None)
        self._rows: list[tuple[dict[int, np.ndarray], np.ndarray, tuple | None]] = []

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

    def add_constraint(self, terms: dict, rhs, sense: str = "==") -> None:
        """sum of Re<K_v, X_v> (or k*x for scalars) `sense` rhs.

        A scalar `rhs` adds one row.  A length-k `rhs` adds a family of k
        rows: each Hermitian coefficient is then a (k, d, d) stack and each
        scalar coefficient a length-k vector, row j taking member j of
        each, and a `<=`/`>=` family gets k slacks.
        """
        if sense not in ("==", "<=", ">="):
            raise ValidationError(f"unknown constraint sense {sense!r}")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        k = rhs.shape[0]
        clean: dict[int, np.ndarray] = {}
        for var, coeff in terms.items():
            if var.scalar:
                clean[var.index] = np.asarray(coeff, dtype=float).reshape(k)
            else:
                coeff = np.asarray(coeff, dtype=complex).reshape(k, var.dim, var.dim)
                clean[var.index] = herm(coeff)
        slack = None
        if sense != "==":
            slack = (len(self._vars), 1.0 if sense == "<=" else -1.0)
            for _ in range(k):
                self.add_scalar()
        self._rows.append((clean, rhs, slack))

    def _layout(self):
        dims, offsets, off = [], [], 0
        for v in self._vars:
            n = 1 if v.scalar else 2 * v.dim
            dims.append(n)
            offsets.append(off)
            off += svec_dim(n)
        return dims, offsets, off

    def _coeff_svec(self, v: _Var, coeff) -> np.ndarray:
        """svec rows, shape (k, svec_dim), of one coefficient of `v` or a stack."""
        if v.scalar:
            return np.asarray(coeff, dtype=float).reshape(-1, 1)
        # Re tr[K X] = (1/2) tr[realify(K) realify(X)]
        index, weight = _realify_svec_map(v.dim)
        entries = np.ascontiguousarray(coeff, dtype=complex).reshape(-1, v.dim**2).view(float)
        return entries[:, index] * weight

    def build(self) -> SdpProblem:
        dims, offsets, total = self._layout()
        c = np.zeros(total)
        for idx, coeff in self._obj.items():
            seg = slice(offsets[idx], offsets[idx] + svec_dim(dims[idx]))
            c[seg] += self._coeff_svec(self._vars[idx], coeff)[0]
        m = sum(rhs.size for _, rhs, _ in self._rows)
        a = np.zeros((m, total))
        b = np.zeros(m)
        start = 0
        for terms, rhs, slack in self._rows:
            k = rhs.size
            rows = slice(start, start + k)
            b[rows] = rhs
            for idx, coeff in terms.items():
                seg = slice(offsets[idx], offsets[idx] + svec_dim(dims[idx]))
                a[rows, seg] += self._coeff_svec(self._vars[idx], coeff)
            if slack is not None:
                # Row j's slack is the scalar variable first + j.
                first, sign = slack
                j = np.arange(k)
                a[start + j, offsets[first] + j] = sign
            start += k
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
