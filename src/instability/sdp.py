"""Small semidefinite-program solver.

Canonical form: minimize <c, x> subject to A x = b over a product of PSD
blocks, each real symmetric or complex Hermitian, in scaled coordinates:
svec for a real n x n block (the lower triangle, off-diagonal entries times
sqrt 2) and hvec for a Hermitian one (its n^2 coordinates are the diagonal,
then sqrt 2 Re and sqrt 2 Im of the strict lower triangle), so that the dot
product of two coordinate vectors is Re tr(XY).  The algorithm is a
primal-dual interior-point method on the homogeneous self-dual embedding
with Nesterov-Todd scaling and a Mehrotra predictor-corrector step.

The iterates are stacks: the blocks of one kind and size n form one
(g, n, n) stack, complex for Hermitian blocks, and NT scaling, the inverse
of L_lam, the scaled products, the Jordan corrector and the step length
each run once per stack, with the 1x1 blocks (scalar slacks and 1x1
Hermitian variables) as the n = 1 stack.  Every float vector the loop
carries is a row of one buffer made per solve, with its stack views made
once, and the kernels write through them, so that an iteration on a tiny
program costs little more than its LAPACK and BLAS calls.  The NT scaling takes no
eigendecomposition: a Cholesky of x and s and an SVD of L_s^H L_x give a
factor G with W = G G^H and G^{-1} x G^{-H} = G^H s G = diag(sigma), so
the scaled point lam is diagonal, L_lam^{-1} is an elementwise division
and Q_{W^{1/2}} is V -> G V G^H.  A step length is the smallest
eigenvalue of a scaled direction divided elementwise by
sqrt(sigma_i sigma_j), and the predictor's scaled directions are the
corrector's second-order term.  Per stack of blocks wider than 1, an
iteration makes one batched Cholesky, one batched SVD and two batched
eigvalsh calls, and no eigh; the real 1x1 stack (the scalar slacks) takes
the same formulas in closed form and makes no LAPACK call.  A Cholesky that
fails, or a nonpositive scalar, is a numerical breakdown, and the solver
returns its best iterate.  A Hermitian block has barrier weight 2, the
weight of the real 2n x 2n block [[Re X, -Im X], [Im X, Re X]] it is
equivalent to: it counts 2n in the barrier parameter, its centering target
is 2 gamma mu I and it starts at x = I, s = 2I, on the central path.

The constraint rows the task programs emit are sparse (a few nonzeros per
row of a 16x16 Hermitian block at d = 16), and they stay (row, column,
value) triples from assembly to the Schur build: :class:`HermitianProgram`
keeps the nonzero hvec coordinates of each row family, `build` returns A
as CSR (dense when it is small enough that a dense product beats the
sparse dispatch), and presolve and the solver read its nonzeros.  After
presolve A is one sparse matrix over the float view of the raveled stacks
and A x, A^T y are one product each.  The Schur complement M_jl = sum_k
Re tr(A_jk W_k A_lk W_k) is a sum of terms over the rows each touches, in
the manner of SDPA's sparse Schur formulas (Fujisawa, Kojima & Nakata,
Math. Prog. 79, 1997): one per matrix block, and one diagonal term
sum_k a_jk a_lk w_k^2 for the real 1x1 stack, as SDPT3 treats its linear
block (Tutuncu, Toh & Todd, Math. Prog. 95, 2003); the terms of large
blocks write their products into work buffers made once per solve.  M is
dense, one buffer per solve that LAPACK Cholesky-factors in place once per
iteration, and the corrector's Schur solve takes one step of iterative
refinement against A Q_W A^T.  A Cholesky of M that fails is retried once,
on M rebuilt with 1e-14 of its mean diagonal added; a second failure is a
breakdown.  Over the test suite, the benchmark workloads and a sweep of
degenerate inputs, under 2% of the factorizations took that retry and none
failed it.

Presolve drops dependent rows by a pivoted QR of the border rows only: a
row with a private column (no other row is nonzero there) cannot be
dependent.  The task programs' Hermitian-basis rows all have one, so at
most their algebra and trace rows reach the QR.  On one core of a 2-core
Xeon with one OpenBLAS thread, restricted_ht at eps = 0.1 on dephaser(16)
takes 0.08 s and on dephaser(32) (1057 rows, two 32x32 Hermitian blocks)
1.2 s at 134 MB peak RSS.  At dephaser(64) (4161 rows) most of the time and
memory is the dense M (rows^2 floats) and the two Schur work buffers (rows
times d^2 complex entries each).

:class:`HermitianProgram` assembles programs over complex Hermitian
variables and nonnegative scalars; each d x d variable is one Hermitian
block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SolverError, ValidationError
from .linalg import herm

# Real blocks up to 128; a Hermitian block counts at twice its dimension,
# the size of its real equivalent, so Hermitian blocks go up to 64.
MAX_BLOCK_DIM = 128

# ---------------------------------------------------------------------------
# svec and hvec coordinates
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


class _Coords(NamedTuple):
    """Coordinate q of an n x n block is part `part[q]` (0 real, 1
    imaginary) of entry (rows[q], cols[q]), rows >= cols, times scale[q].

    `flat` and `mirror` locate that part of the entry and of its mirror
    (cols, rows) in the block's raveled float view; the mirror's imaginary
    part is negated.
    """

    rows: np.ndarray
    cols: np.ndarray
    part: np.ndarray
    scale: np.ndarray
    flat: np.ndarray
    mirror: np.ndarray


_coords_cache: dict[tuple[int, bool], _Coords] = {}


def _coords(n: int, hermitian: bool = False) -> _Coords:
    key = (n, hermitian)
    if key not in _coords_cache:
        if hermitian:
            lr, lc = np.tril_indices(n, -1)
            diag = np.arange(n)
            rows = np.concatenate([diag, lr, lr])
            cols = np.concatenate([diag, lc, lc])
            part = np.repeat([0, 0, 1], [n, lr.size, lr.size])
        else:
            rows, cols = np.tril_indices(n)
            part = np.zeros(rows.size, dtype=int)
        width = 2 if hermitian else 1
        _coords_cache[key] = _Coords(
            rows, cols, part, np.where(rows == cols, 1.0, _SQRT2),
            width * (rows * n + cols) + part, width * (cols * n + rows) + part,
        )
    return _coords_cache[key]


def svec(m: np.ndarray) -> np.ndarray:
    co = _coords(m.shape[0])
    return np.real(m[co.rows, co.cols]) * co.scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    co = _coords(n)
    out = np.zeros((n, n))
    out[co.rows, co.cols] = v / co.scale
    out[co.cols, co.rows] = out[co.rows, co.cols]
    return out


def hvec(m: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix: the diagonal, then sqrt 2 Re and
    sqrt 2 Im of the strict lower triangle; hvec(A) . hvec(B) = Re tr(AB)."""
    co = _coords(m.shape[0], True)
    entries = m[co.rows, co.cols]
    return np.where(co.part == 1, np.imag(entries), np.real(entries)) * co.scale


def hmat(v: np.ndarray, n: int) -> np.ndarray:
    co = _coords(n, True)
    lower = np.zeros((n, n), dtype=complex)
    np.add.at(lower, (co.rows, co.cols), np.where(co.part == 1, 1j, 1.0) * (v / co.scale))
    return lower + np.tril(lower, -1).conj().T


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def _coord_dim(n: int, hermitian: bool) -> int:
    return n * n if hermitian else svec_dim(n)


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class SdpProblem:
    """min <c, x> s.t. A x = b, x in a product of PSD cones, in svec
    coordinates for real blocks and hvec coordinates for the blocks that
    `hermitian` flags (all real by default).

    `A` is a dense array or a scipy.sparse matrix, held as CSR: the one
    :meth:`HermitianProgram.build` returns is dense below `_DENSE_ENTRIES`
    entries and CSR above, and the solver reads either by its nonzeros.
    """

    block_dims: list[int]
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    hermitian: list[bool] | None = None

    def __post_init__(self):
        self.block_dims = [int(n) for n in self.block_dims]
        if self.hermitian is None:
            self.hermitian = [False] * len(self.block_dims)
        self.hermitian = [bool(h) for h in self.hermitian]
        if len(self.hermitian) != len(self.block_dims):
            raise ValidationError("one hermitian flag per block is required")
        if any(n < 1 for n in self.block_dims):
            raise ValidationError("block dimensions must be positive")
        if any(
            n * (2 if h else 1) > MAX_BLOCK_DIM
            for n, h in zip(self.block_dims, self.hermitian)
        ):
            raise ValidationError(
                f"block dimension exceeds the supported maximum {MAX_BLOCK_DIM}"
                f" ({MAX_BLOCK_DIM // 2} for a Hermitian block)"
            )
        d = sum(_coord_dim(n, h) for n, h in zip(self.block_dims, self.hermitian))
        self.c = np.asarray(self.c, dtype=float).ravel()
        if hasattr(self.A, "tocsr"):
            self.A = self.A.tocsr().astype(float, copy=False)
            self.A.sum_duplicates()
            entries = self.A.data
        else:
            self.A = entries = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.c.shape != (d,):
            raise ValidationError(f"objective length {self.c.shape} != {d}")
        if self.A.shape[1] != d or self.A.shape[0] != self.b.shape[0]:
            raise ValidationError("constraint matrix shape mismatch")
        if not (
            np.all(np.isfinite(entries))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.c))
        ):
            raise ValidationError("problem data must be finite")

    @property
    def segments(self) -> list[slice]:
        return _segments(self.block_dims, self.hermitian)


def _hvec_rows(stack: np.ndarray) -> np.ndarray:
    """hvec coordinates, shape (k, d^2), of a (k, d, d) Hermitian stack."""
    k, d = stack.shape[0], stack.shape[-1]
    co = _coords(d, True)
    entries = np.ascontiguousarray(stack, dtype=complex).reshape(k, d * d).view(float)
    return entries[:, co.flat] * co.scale


def _segments(dims, hermitian) -> list[slice]:
    out, off = [], 0
    for n, h in zip(dims, hermitian):
        out.append(slice(off, off + _coord_dim(n, h)))
        off += _coord_dim(n, h)
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
    # Why the iteration ended: target (every residual and the gap below
    # TARGET_TOL), mu_floor (mu at the double-precision floor), stalled (no
    # better iterate in over 10 iterations), step_collapse (a step below
    # 1e-14), breakdown (a factorization or floating-point failure),
    # certificate (an infeasibility or unboundedness ray) or max_iter.
    stop_reason: str
    block_dims: list[int] = field(default_factory=list)
    # Largest jitter added to the Schur matrix before it factored, as a
    # multiple of its mean diagonal: 0 when every Cholesky succeeded as is,
    # else _JITTER.
    max_jitter: float = 0.0
    hermitian: list[bool] = field(default_factory=list)

    def block(self, k: int) -> np.ndarray:
        flags = self.hermitian or [False] * len(self.block_dims)
        seg = _segments(self.block_dims, flags)[k]
        return (hmat if flags[k] else smat)(self.x[seg], self.block_dims[k])


# ---------------------------------------------------------------------------
# Stack kernels: each acts on one n x n block or on a (g, n, n) stack of
# same-size blocks, member by member, real symmetric or complex Hermitian.
# ---------------------------------------------------------------------------


def _ct(m):
    """Conjugate transpose of each member (a view for real input)."""
    return m.conj().swapaxes(-1, -2)


def _scalars(a: np.ndarray) -> bool:
    """Whether `a` is a real stack of 1x1 blocks, where the stack kernels'
    products and Hermitian parts reduce to products of scalars with the
    same roundings."""
    return a.shape[-1] == 1 and a.dtype.kind == "f"


def _herm(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (a + a^H) / 2, in the operation order of linalg.herm; `out`
    must not overlap `a`."""
    if _scalars(a):
        np.copyto(out, a)
        return out
    np.add(a, np.conjugate(a.swapaxes(-1, -2), out=out), out=out)
    return np.divide(out, 2, out=out)


def _congruence(a, v, b, out, p1, p2) -> np.ndarray:
    """out = herm(a v b) member by member, with p1 and p2 of v's shape as
    work; on a real 1x1 stack two multiplications."""
    if _scalars(v):
        return np.multiply(np.multiply(a, v, out=p1), b, out=out)
    return _herm(np.matmul(np.matmul(a, v, out=p1), b, out=p2), out)


def _nt_scaling(pair: np.ndarray, w: np.ndarray, g: np.ndarray, scalers: np.ndarray):
    """NT scaling of Hermitian x, s > 0, given as the stacked `pair`, without
    an eigendecomposition: writes W, G and the scalers (G^{-1}, G^H) into
    the buffers and returns sigma, where W = G G^H, W s W = x and
    G^{-1} x G^{-H} = G^H s G = diag(sigma).

    One Cholesky of the pair gives x = L_x L_x^H and s = L_s L_s^H, and one
    SVD L_s^H L_x = U diag(sigma) V^H gives G = L_x V sigma^{-1/2} and
    G^{-1} = sigma^{-1/2} U^H L_s^H (Todd, Toh & Tutuncu, SIAM J. Optim. 8,
    1998).  A real stack of 1x1 blocks (the scalar slacks) takes the same
    formulas in closed form, with no LAPACK call: sigma = sqrt(x) sqrt(s),
    G = sqrt(x) / sqrt(sigma), G^{-1} = sqrt(s) / sqrt(sigma) and W = G^2.
    A factor that is not positive definite raises LinAlgError.
    """
    if _scalars(pair):
        if not (pair > 0).all():
            raise np.linalg.LinAlgError("scalar slack is not positive")
        lx, ls = np.sqrt(pair, out=scalers)
        sig = lx * ls
        root = np.sqrt(sig)
        np.divide(lx, root, out=g)
        np.divide(ls, root, out=scalers[0])
        np.copyto(scalers[1], g)
        np.multiply(g, g, out=w)
        return sig[..., 0]
    lx, ls = np.linalg.cholesky(pair)
    ls_h = _ct(ls)
    u, sig, vh = np.linalg.svd(np.matmul(ls_h, lx, out=w))
    root = np.sqrt(sig)
    np.divide(np.matmul(lx, _ct(vh), out=w), root[..., None, :], out=g)
    np.divide(np.matmul(_ct(u), ls_h, out=w), root[..., :, None], out=scalers[0])
    g_h = _ct(g)
    _herm(np.matmul(g, g_h, out=scalers[1]), w)
    np.copyto(scalers[1], g_h)
    return sig


def _jordan(a: np.ndarray, b: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out = (a b + b a) / 2 member by member; on a real 1x1 stack a b."""
    if _scalars(a):
        return np.multiply(a, b, out=out)
    np.add(np.matmul(a, b, out=out), np.matmul(b, a, out=work), out=out)
    return np.divide(out, 2.0, out=out)


def _lam_inverse(sig: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = the X with (diag(sig) X + X diag(sig))/2 = R, member by member;
    on 1x1 blocks (sig + sig)/2 is sig itself."""
    if sig.shape[-1] == 1:
        return np.divide(r, sig[..., None], out=out)
    return np.divide(r, (sig[..., :, None] + sig[..., None, :]) / 2.0, out=out)


def _max_step(sig: np.ndarray, dm: np.ndarray, work: np.ndarray) -> float:
    """sup {alpha : diag(sig) + alpha dm >= 0} over every member, for sig > 0,
    with the scaled direction written into `work` (dm's shape); on a real
    1x1 stack the scaled direction is its own eigenvalue."""
    root = np.sqrt(sig)
    scaled = np.divide(dm, root[..., :, None] * root[..., None, :], out=work)
    if _scalars(dm):
        lam_min = scaled.min()
    else:
        lam_min = np.linalg.eigvalsh(scaled)[..., 0].min()
    if lam_min >= -1e-300:
        return np.inf
    return -1.0 / lam_min


# ---------------------------------------------------------------------------
# Constraint operator and Schur complement
# ---------------------------------------------------------------------------


# A matrix of at most this many entries is held dense: a dense product then
# costs less than the per-call dispatch of a scipy.sparse one.
_DENSE_ENTRIES = 1 << 15


def _matrix(rows, cols, vals, shape):
    """The matrix with the (row, column, value) triples as its nonzeros,
    duplicates adding: dense if small, else CSR, grouped by one stable sort
    on the rows (no COO stage)."""
    if shape[0] * shape[1] <= _DENSE_ENTRIES:
        out = np.zeros(shape, dtype=vals.dtype)
        np.add.at(out, (rows, cols), vals)
        return out
    import scipy.sparse  # scipy loads on first SDP use, not with the package

    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return scipy.sparse.csr_matrix(
        (vals[order], cols[order].astype(np.int32), indptr), shape=shape
    )


def _triples(a):
    """(row, column, value) of the nonzeros of a dense or CSR matrix, in
    column-major order."""
    if isinstance(a, np.ndarray):
        col, row = np.nonzero(a.T)
        return row, col, a[row, col]
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    live = a.data != 0
    row, col, val = row[live], a.indices[live], a.data[live]
    order = np.lexsort((row, col))
    return row[order], col[order], val[order]


def _matmul_into(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ x for a dense or CSR `a`, and x and out C-ordered vectors
    or matrices, with no result allocated: a CSR `a` goes through the
    kernel behind scipy's own product."""
    if isinstance(a, np.ndarray):
        return np.matmul(a, x, out=out)
    from scipy.sparse import _sparsetools

    out.fill(0)
    if x.ndim == 1:
        _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, out)
    else:
        _sparsetools.csr_matvecs(
            a.shape[0], a.shape[1], x.shape[1], a.indptr, a.indices, a.data,
            x.reshape(-1), out.reshape(-1),
        )
    return out


def _entries(j, q, v, co: _Coords):
    """Rows' coordinate nonzeros (row j, coordinate q, value v) of one block
    as the nonzeros of its coefficient matrices: (row j, matrix row, matrix
    column, part, value of that part).  A strictly lower coordinate also
    fills its mirror entry, with an imaginary part negated."""
    v = v / co.scale[q]
    r, c, part = co.rows[q], co.cols[q], co.part[q]
    off = r != c
    return (
        np.concatenate([j, j[off]]),
        np.concatenate([r, c[off]]),
        np.concatenate([c, r[off]]),
        np.concatenate([part, part[off]]),
        np.concatenate([v, v[off] * (1 - 2 * part[off])]),
    )


def _row_index(rows: np.ndarray):
    """Index of schur[rows, rows]: a basic slice, a view, when the rows form
    one contiguous range (the task programs emit each block's rows as one),
    else np.ix_."""
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        return (slice(rows[0], rows[-1] + 1),) * 2
    return np.ix_(rows, rows)


class _SchurGroup:
    """The Schur term of one matrix block over the rows that touch it.

    With k touched rows, row r of the j-th one's coefficient matrix A_j sits
    at row r * k + j of `a_stack`, so that a_stack @ W gives every A_j W;
    `a_vec` holds the same rows in svec or hvec coordinates, rescaled so
    that a_vec @ T, with T the coordinate parts of the W A_l W as its
    columns, gives Re tr(A_j W A_l W).

    A small block keeps both dense and allocates its products, which costs
    less than the buffered path's copies on programs of d = 2-4.  A large
    one keeps them as CSR and writes its products into the two work buffers
    the Schur build shares across blocks, of `work` floats each, gathering
    T there one matrix row at a time: fresh temporaries of that size are
    handed back to the OS and faulted in again every iteration.
    """

    def __init__(self, n: int, hermitian: bool, j, q, v, expanded):
        """Rows' coordinate nonzeros (j, q, v) of the block and the same as
        :func:`_entries` expands them."""
        co = _coords(n, hermitian)
        self.rows = np.unique(j)
        self.n, k = n, self.rows.size
        self.width = 2 if hermitian else 1
        # T's rows are read from the float view of the W A W stack.
        self.tri_r, self.tri_c = co.rows, self.width * co.cols + co.part
        fj, r, c, part, fv = expanded
        stack_v = np.where(part == 1, 1j * fv, fv) if hermitian else fv
        self.a_stack = _matrix(r * k + np.searchsorted(self.rows, fj), c, stack_v, (k * n, n))
        # Re tr(A T) = vec(A) . vec(T), and vec(T) is the coordinate parts of
        # T times the scale.
        self.a_vec = _matrix(
            np.searchsorted(self.rows, j), q, v * co.scale[q], (k, co.rows.size)
        )
        sparse = not isinstance(self.a_stack, np.ndarray)
        self.work = max(self.width * k * n * n, k * k) if sparse else 0
        self.index = _row_index(self.rows)
        # The small path's gather as one take from the raveled float view of
        # W A W, laid out (a, j, b): T[q, j] sits at tri_r[q] (k n w) + j n w
        # + tri_c[q], with w the width.
        span = self.width * n
        self.take = (self.tri_r * k * span)[:, None] + span * np.arange(k) + self.tri_c[:, None]

    def add_to(self, schur: np.ndarray, w: np.ndarray, work) -> None:
        """schur[rows, rows] += Re tr(A_j W A_l W) for the block's scaling W."""
        n, k = self.n, self.rows.size
        if not self.work:
            aw = self.a_stack @ w  # rows (c, j): (A_j W)[c, :]
            # One product W [A_j W]_j, laid out (a, j, b), and a gather of its
            # coordinate parts as columns: no transpose of the result.
            waw = (w @ aw.reshape(n, -1)).view(float)
            schur[self.index] += self.a_vec @ waw.take(self.take)
            return
        one, two = work
        size = self.width * k * n * n
        aw = _matmul_into(self.a_stack, w, one[:size].view(w.dtype).reshape(k * n, n))
        waw = np.matmul(w, aw.reshape(n, k * n), out=two[:size].view(w.dtype).reshape(n, k * n))
        t = one[: self.tri_r.size * k].reshape(-1, k)
        self._gather(waw.view(float).reshape(n, k, -1), t)
        schur[self.index] += _matmul_into(self.a_vec, t, two[: k * k].reshape(k, k))

    def _gather(self, waw: np.ndarray, t: np.ndarray) -> None:
        """t = waw[tri_r, :, tri_c], one copy per matrix row and part: each
        row's coordinates are a run of svec or hvec coordinates."""
        n = self.n
        if self.width == 1:
            for a in range(n):
                start = a * (a + 1) // 2
                np.copyto(t[start : start + a + 1], waw[a, :, : a + 1].T)
            return
        np.copyto(t[:n], np.diagonal(waw[:, :, ::2], axis1=0, axis2=2).T)
        half = n * (n - 1) // 2
        for a in range(1, n):
            start = n + a * (a - 1) // 2
            np.copyto(t[start : start + a], waw[a, :, : 2 * a : 2].T)
            np.copyto(t[start + half : start + half + a], waw[a, :, 1 : 2 * a : 2].T)


class _ScalarSchur:
    """The Schur term of the real 1x1 stack (the scalar slacks and the 1x1
    Hermitian variables), one product over the rows that touch it; the
    coefficients a_jk are one (rows, g) matrix, sparse when it is large."""

    work = 0  # it needs none of the shared work buffers

    def __init__(self, entries: list):
        j = np.concatenate([j for j, _, _ in entries])
        k = np.repeat(np.arange(len(entries)), [j.size for j, _, _ in entries])
        self.rows = np.unique(j)
        self.a = _matrix(
            np.searchsorted(self.rows, j), k,
            np.concatenate([v for _, _, v in entries]), (self.rows.size, len(entries)),
        )
        self.index = _row_index(self.rows)

    def add_to(self, schur: np.ndarray, w: np.ndarray, work=None) -> None:
        """schur[rows, rows] += sum_k a_jk a_lk w_k^2 for the (g, 1, 1) stack `w`."""
        if isinstance(self.a, np.ndarray):
            aw = self.a * w.reshape(-1)
            schur[self.index] += aw @ aw.T
        else:
            aw = self.a.multiply(w.reshape(-1))
            schur[self.index] += (aw @ aw.T).toarray()


class _Constraints:
    """The presolved rows as one sparse matrix over the block stacks.

    The Hermitian blocks of each size n > 1 form one complex (g, n, n)
    stack and the real blocks of each size one real stack; a 1x1 Hermitian
    block is real and joins the n = 1 stack.  Complex stacks come first,
    then real ones, each by ascending size, and within a stack the blocks
    keep the problem's order.  A point of the cone is the float views of
    the raveled stacks in one vector, and the coefficient matrices are
    stored in the coordinates of that vector,
    where Re tr(K X) is the dot product of the float views of K and X, so
    A x is one product and A^T y comes back as Hermitian stacks.  Each
    matrix block has its own Schur term, and the real 1x1 stack has one
    diagonal term.  The rows are read from the nonzeros of a dense or CSR
    matrix.  The Schur matrix is one buffer per solve, and the terms of
    large blocks write their products into two work buffers they share, so
    that a Schur build allocates no large temporary.

    `vectors(k)` makes the solver's float vectors: k rows of one (k, size)
    buffer, and per stack one (k, g, n, n) view of it (complex for a
    Hermitian stack), made once per solve, so that row q and member q of
    each view are the same memory and no point is ever split or joined.
    """

    def __init__(self, a_vec, dims: list[int], hermitian=None):
        m = a_vec.shape[0]
        self.m = m
        flags = [False] * len(dims) if hermitian is None else list(hermitian)
        kinds = [(bool(h) and n > 1, n) for n, h in zip(dims, flags)]
        keys = sorted(set(kinds), key=lambda kind: (not kind[0], kind[1]))
        self.members = [[k for k, kind in enumerate(kinds) if kind == key] for key in keys]
        # Each block's offset in the float vector; a Hermitian block has
        # barrier weight 2.
        offset, base, self.nu = np.zeros(len(dims), dtype=int), 0, 0.0
        self.stacks, self.weights, inv_weight = [], [], []
        for (cplx, n), ks in zip(keys, self.members):
            size = (2 if cplx else 1) * n * n
            weight = np.array([2.0 if flags[k] else 1.0 for k in ks])
            offset[ks] = base + size * np.arange(len(ks))
            self.stacks.append((n, len(ks), slice(base, base + len(ks) * size), cplx))
            self.weights.append(weight[:, None, None])
            inv_weight.append(np.repeat(1.0 / weight, size))
            self.nu += float(weight.sum()) * n
            base += len(ks) * size
        # Dual quantities are measured as in the equivalent real problem,
        # where a block of weight w counts its squared entries over w.
        self.inv_weight = np.concatenate(inv_weight)
        # The presolved matrix's nonzeros are read once, column by column,
        # and split into the blocks' coordinate ranges.
        row, col, val = _triples(a_vec)
        segs = _segments(dims, flags)
        bounds = np.searchsorted(col, [seg.start for seg in segs] + [a_vec.shape[1]])
        entries, expanded, full_c = [], [], []
        flat, mirror, signs, scales = [], [], [], []
        for k, ((cplx, n), seg) in enumerate(zip(kinds, segs)):
            co = _coords(n, cplx)
            span = slice(bounds[k], bounds[k + 1])
            entries.append((row[span], col[span] - seg.start, val[span]))
            expanded.append(_entries(*entries[-1], co))
            _, r, c, part, _ = expanded[-1]
            full_c.append(offset[k] + (2 if cplx else 1) * (r * n + c) + part)
            flat.append(offset[k] + co.flat)
            mirror.append(offset[k] + co.mirror)
            signs.append(1 - 2 * co.part)
            scales.append(co.scale)
        cat = np.concatenate
        self.size = base
        self.a = _matrix(
            cat([e[0] for e in expanded]), cat(full_c), cat([e[4] for e in expanded]), (m, base)
        )
        self.at = self.a.T if isinstance(self.a, np.ndarray) else self.a.T.tocsr()
        # svec/hvec coordinates in the problem's order <-> the float vector.
        self.flat, self.mirror, self.sign, self.scale = (
            cat(x) for x in (flat, mirror, signs, scales)
        )
        # (stack, member or slice of the stack, term): each term adds the
        # Schur contribution of the scalings w_stacks[stack][part].
        self.groups = []
        for i, ((cplx, n), ks) in enumerate(zip(keys, self.members)):
            if cplx or n > 1:
                terms = [
                    (p, _SchurGroup(n, cplx, *entries[k], expanded[k])) for p, k in enumerate(ks)
                ]
            else:
                terms = [(slice(None), _ScalarSchur([entries[k] for k in ks]))]
            self.groups += [(i, part, term) for part, term in terms if term.rows.size]
        # One Schur matrix per solve, which LAPACK factors in place, and the
        # work buffers of the large blocks' terms.
        self._schur = np.zeros((m, m))
        size = max([term.work for _, _, term in self.groups], default=0)
        self._work = (np.empty(size), np.empty(size))

    def vectors(self, k: int):
        """k float vectors as the rows of one zeroed (k, size) buffer, and
        the buffer's (k, g, n, n) view per stack: row q and member q of
        every stack view are the same memory."""
        buf = np.zeros((k, self.size))
        return buf, [
            (buf[:, part].view(complex) if cplx else buf[:, part]).reshape(k, g, n, n)
            for n, g, part, cplx in self.stacks
        ]

    def identity(self, weighted: bool = False) -> list:
        """The identity of each stack, times the barrier weights if asked."""
        return [
            np.eye(n, dtype=complex if cplx else float) * (w if weighted else np.ones_like(w))
            for (n, _, _, cplx), w in zip(self.stacks, self.weights)
        ]

    def from_svec(self, v: np.ndarray) -> np.ndarray:
        """Float vector from svec/hvec coordinates in the problem's block order."""
        out = np.zeros(self.size)
        out[self.flat] = v / self.scale
        out[self.mirror] = self.sign * out[self.flat]
        return out

    def to_svec(self, v: np.ndarray) -> np.ndarray:
        """svec/hvec coordinates in the problem's block order from a float vector."""
        return v[self.flat] * self.scale

    def dual_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt((v * v) @ self.inv_weight))

    def apply(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _matmul_into(self.a, v, out)

    def adjoint(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _matmul_into(self.at, y, out)

    def stacked_schur(self, w_stacks) -> np.ndarray:
        """Schur matrix for the scalings given as one stack per kind and size,
        written into the one Schur buffer, which it returns."""
        out = self._schur
        out.fill(0.0)
        for i, part, group in self.groups:
            group.add_to(out, w_stacks[i][part], self._work)
        return out


# The retry's jitter, a multiple of the Schur matrix's mean diagonal.
_JITTER = 1e-14
_CHOLESKY = None  # LAPACK (dpotrf, dpotrs), looked up on first use


def _cholesky_routines():
    global _CHOLESKY
    if _CHOLESKY is None:
        from scipy.linalg import lapack

        _CHOLESKY = (lapack.dpotrf, lapack.dpotrs)
    return _CHOLESKY


_TILE = 128


def _lower_in_fortran_order(m: np.ndarray) -> np.ndarray:
    """m.T after copying the lower triangle of the C-ordered square m onto
    its upper one: a Fortran-ordered view whose lower triangle is m's, made
    tile by tile with no m x m temporary.  The Schur terms add into a
    C-ordered buffer at half the cost of a Fortran one, and this copy of
    half the matrix is all that LAPACK's lower Cholesky then needs."""
    n = m.shape[0]
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(0, i, _TILE):
            cols = slice(j, j + _TILE)
            np.copyto(m[cols, rows], m[rows, cols].T)
        tile = m[rows, rows]
        np.copyto(tile, tile.T, where=_strict_upper(len(tile)))
    return m.T


@functools.cache
def _strict_upper(n: int) -> np.ndarray:
    return ~np.tri(n, dtype=bool)


def _factor_schur(m: np.ndarray, rebuild):
    """Cholesky-factor the Schur matrix: (solve, jitter added).

    LAPACK factors the C-ordered m in place, as the Fortran-ordered m.T
    whose lower triangle is m's.  If that fails, `rebuild()` writes the
    Schur matrix into m again and the Cholesky is retried once with _JITTER
    times the mean diagonal added.  A second failure, or a non-finite
    matrix, raises LinAlgError, a breakdown like any other.
    """
    n = m.shape[0]
    if not n:
        return (lambda rhs: np.zeros(0)), 0.0
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Schur matrix is not finite")
    potrf, potrs = _cholesky_routines()
    for jitter in (0.0, _JITTER):
        if jitter:
            rebuild()
            m[np.diag_indices(n)] += jitter * max(np.trace(m) / n, 1e-300)
        factor, info = potrf(_lower_in_fortran_order(m), lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return (lambda rhs: potrs(factor, rhs, lower=1)[0]), jitter
    raise np.linalg.LinAlgError("Schur matrix is not positive definite")


# ---------------------------------------------------------------------------
# Core solver
# ---------------------------------------------------------------------------


def _presolve_rows(a, b: np.ndarray):
    """Drop linearly dependent constraint rows, checking consistency.

    A row with a private column, one in which no other row is nonzero, is
    independent of every other row (the column singleton rule of LP
    presolve; Andersen & Andersen, Math. Prog. 71, 1995).  Any dependency
    therefore lies among the remaining border rows, and only those go
    through the pivoted QR, at the rank tolerance a QR of all rows would
    use.  Each Hermitian-basis row of the task programs owns a coordinate
    of a variable no other row touches, so only their few algebra and
    trace rows reach the QR.  `a` is dense or CSR; the private columns come
    from per-column counts of its nonzeros, only the border rows are made
    dense, and the kept rows are returned in `a`'s own form.
    """
    import scipy.linalg

    m, n = a.shape
    row, col, val = _triples(a)
    private = np.zeros(m, dtype=bool)
    private[row[np.bincount(col, minlength=n)[col] == 1]] = True
    border = np.flatnonzero(~private)
    if border.size == 0:
        return a, b, np.arange(m)
    a_border = a[border] if isinstance(a, np.ndarray) else a[border].toarray()
    r, piv = scipy.linalg.qr(a_border.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    # The leading pivot of a QR of all rows is the largest row norm.
    norm = np.sqrt(np.bincount(row, val * val, minlength=m).max(initial=0.0))
    tol = max(a.shape) * np.finfo(float).eps * norm
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


# The acceptance thresholds: the best iterate is optimal when its residuals
# are at most FEAS_TOL and its relative gap at most GAP_TOL.  The solver
# keeps polishing toward TARGET_TOL while it makes progress, for at most
# MAX_ITER iterations.
FEAS_TOL = 1e-8
GAP_TOL = 1e-7
TARGET_TOL = 1e-11
MAX_ITER = 200


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP at the module's thresholds, returning the best iterate."""
    a_vec, b, keep_rows = _presolve_rows(problem.A, problem.b)
    m = a_vec.shape[0]
    cons = _Constraints(a_vec, problem.block_dims, problem.hermitian)
    nu = cons.nu
    op_a, op_at = cons.apply, cons.adjoint
    # Every float vector the loop carries is a row of one buffer, with its
    # stack views made here once; a pair that a stack kernel takes whole,
    # (x, s), (dx, ds), (c, rd) and (Q_W c, Q_W rd), is two adjacent rows.
    # The de-homogenized point is written into `hat` and swapped with
    # `best_hat` when it scores better, so the best iterate is never copied.
    vec, views = cons.vectors(20)
    pairs = [vec[k : k + 2] for k in range(0, 14, 2)]
    point, d_point, tmp_pair, hat, best_hat = pairs[:5]
    (x, s), (dx, ds), (tmp, _), (c, rd), (qw_c, qw_rd) = point, d_point, tmp_pair, *pairs[5:]
    x2, at_y, at_u1, at_u2, qwh_dc, x1 = vec[14:]
    POINT, D_POINT, TMP_PAIR, C_RD, QW_RD = (
        [v[k : k + 2] for v in views] for k in (0, 2, 4, 10, 12)
    )
    X2, _, AT_U1, AT_U2, QWH_DC, X1 = zip(*(v[14:] for v in views))
    y, dy, a_x, rp, rhs1, a_qw_rd, m_tmp, hat_y, best_y = np.zeros((9, m))

    def buffers(pair=False):
        """One uninitialized buffer per stack, of a member's or a pair's shape."""
        return [np.empty((2,) * pair + v.shape[1:], v.dtype) for v in views]

    # Per stack: W, G, the corrector's right-hand side, L_lam^{-1} of a
    # right-hand side and two products of members; the scalers (G^{-1}, G^H),
    # the scaled direction pair and two products of pairs.
    W, G, COMP, DC, P1, P2 = (buffers() for _ in range(6))
    SCALERS, SCALED, PAIR1, PAIR2 = (buffers(pair=True) for _ in range(4))
    # The centering target of each stack is its barrier weights times I.
    w_eye = cons.identity(weighted=True)

    def q_apply(src, dst, p1=P1, p2=P2):
        """dst = Q_W(src) = W src W stack by stack, of members or of pairs."""
        for f, v, out, w1, w2 in zip(W, src, dst, p1, p2):
            _congruence(f, v, f, out, w1, w2)

    c[:] = cons.from_svec(problem.c)
    # x = I and s = weights * I lie on the central path.
    for pt, eye, we in zip(POINT, cons.identity(), w_eye):
        pt[0], pt[1] = eye, we
    tau, kappa = 1.0, 1.0

    b_norm = 1.0 + np.linalg.norm(b)
    c_norm = 1.0 + cons.dual_norm(c)

    best = None
    best_score = np.inf
    best_iter = 0
    status = "max_iter"
    stop_reason = "max_iter"
    iterations = 0
    max_jitter = 0.0
    mu0 = (x @ s + tau * kappa) / (nu + 1)

    for iterations in range(1, MAX_ITER + 1):
        mu = (x @ s + tau * kappa) / (nu + 1)

        # Residuals of the homogeneous model: rp = A x - b tau,
        # rd = c tau - A^T y - s.
        op_a(x, a_x)
        op_at(y, at_y)
        np.subtract(a_x, np.multiply(b, tau, out=rp), out=rp)
        np.subtract(np.subtract(np.multiply(c, tau, out=rd), at_y, out=rd), s, out=rd)
        rg = float(b @ y) - float(c @ x) - kappa

        # Normalized optimality metrics for the de-homogenized point.
        np.divide(point, tau, out=hat)
        np.divide(y, tau, out=hat_y)
        np.subtract(np.divide(a_x, tau, out=m_tmp), b, out=m_tmp)
        pres = np.sqrt(m_tmp.dot(m_tmp)) / b_norm
        np.subtract(np.subtract(c, np.divide(at_y, tau, out=tmp), out=tmp), hat[1], out=tmp)
        dres = cons.dual_norm(tmp) / c_norm
        pobj = float(c @ hat[0])
        dobj = float(b @ hat_y)
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best_iter = iterations
            hat, best_hat, hat_y, best_y = best_hat, hat, best_y, hat_y
            best = (pobj, dobj, relgap, pres, dres)
        if pres <= TARGET_TOL and dres <= TARGET_TOL and relgap <= TARGET_TOL:
            stop_reason = "target"
            break
        if mu <= 1e-16 * max(mu0, 1.0):
            stop_reason = "mu_floor"  # nothing left to gain in double precision
            break
        if score > 0.5 * best_score and iterations - best_iter > 10:
            stop_reason = "stalled"
            break

        # Infeasibility certificates appear as tau -> 0 with kappa bounded away.
        if tau <= 1e-10 * max(1.0, kappa) and mu <= 1e-10 * mu0:
            if float(b @ y) > 1e-8:
                status = "infeasible"
            elif -float(c @ x) > 1e-8:
                status = "unbounded"
            else:  # pragma: no cover - degenerate ray
                status = "infeasible"
            stop_reason = "certificate"
            break

        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sig = [_nt_scaling(*args) for args in zip(POINT, W, G, SCALERS)]
                # (G^{-1}, G^H) scale a direction pair (dx, ds) to
                # (G^{-1} dx G^{-H}, G^H ds G) in one product.
                sc_ct, g_ct = ([_ct(f) for f in fs] for fs in (SCALERS, G))
                # lam = diag(sig) is the scaled point.
                lam_sq = [np.eye(sk.shape[-1]) * (sk * sk)[..., None, :] for sk in sig]

                # Schur complement M = A Q_W A^T, factored once for u2 and
                # both direction solves.
                solve_m, jitter = _factor_schur(
                    cons.stacked_schur(W), lambda: cons.stacked_schur(W)
                )
                max_jitter = max(max_jitter, jitter)

                q_apply(C_RD, QW_RD, PAIR1, PAIR2)
                u2 = solve_m(np.add(op_a(qw_c, m_tmp), b, out=m_tmp))
                op_at(u2, at_u2)
                q_apply(AT_U2, X2)
                np.subtract(x2, qw_c, out=x2)
                coef = float(b @ u2) - float(c @ x2) + kappa / tau
                op_a(qw_rd, a_qw_rd)

                def direction(eta, comp_rhs, rhs_tk, refine=False):
                    """Writes (dx, dy, ds) and returns (d_tau, d_kappa)."""
                    # Q_{W^{1/2}}(L_lam^{-1}(comp_rhs)) taken as G d_c G^H.
                    for gk, gh, sk, r, dc, p1, p2, out in zip(
                        G, g_ct, sig, comp_rhs, DC, P1, P2, QWH_DC
                    ):
                        _congruence(gk, _lam_inverse(sk, r, dc), gh, out, p1, p2)
                    # rhs1 = eta A Q_W rd - A qwh_dc - eta rp
                    np.multiply(a_qw_rd, eta, out=rhs1)
                    np.subtract(rhs1, op_a(qwh_dc, m_tmp), out=rhs1)
                    np.subtract(rhs1, np.multiply(rp, eta, out=m_tmp), out=rhs1)
                    u1 = solve_m(rhs1)
                    if refine:
                        # One step of iterative refinement against A Q_W A^T
                        # itself: late in a solve M is ill-conditioned, and
                        # the step would miss its primal rows by as much as
                        # they are off.
                        op_at(u1, at_u1)
                        q_apply(AT_U1, X1)
                        np.subtract(rhs1, op_a(x1, m_tmp), out=m_tmp)
                        u1 = u1 + solve_m(m_tmp)
                    # dx = Q_W(A^T u1 - eta Rd) + Q_{W^{1/2}} d_c + d_tau * x2
                    op_at(u1, at_u1)
                    q_apply(AT_U1, X1)
                    np.subtract(x1, np.multiply(qw_rd, eta, out=tmp), out=x1)
                    np.add(x1, qwh_dc, out=x1)
                    rhs_tau = (
                        -eta * rg + float(c @ x1) - float(b @ u1) + rhs_tk / tau
                    )
                    d_tau = rhs_tau / coef if abs(coef) > 1e-300 else 0.0
                    np.add(u1, np.multiply(u2, d_tau, out=dy), out=dy)
                    np.add(x1, np.multiply(x2, d_tau, out=dx), out=dx)
                    d_kappa = (rhs_tk - kappa * d_tau) / tau
                    # Recover ds from the dual row rather than the complementarity
                    # row: the latter needs Q_{W^{-1}}, whose conditioning degrades
                    # as mu -> 0 and would poison the dual residual.
                    # ds = c d_tau + eta rd - (A^T u1 + d_tau A^T u2)
                    np.add(np.multiply(c, d_tau, out=ds), np.multiply(rd, eta, out=tmp), out=ds)
                    np.add(at_u1, np.multiply(at_u2, d_tau, out=tmp), out=tmp)
                    np.subtract(ds, tmp, out=ds)
                    return d_tau, d_kappa

                def max_alpha(d_tau, d_kappa):
                    """The step to the boundary; writes the scaled (dx, ds) pairs."""
                    steps = []
                    for f, f_ct, pair, p1, p2, scaled, sk in zip(
                        SCALERS, sc_ct, D_POINT, PAIR1, PAIR2, SCALED, sig
                    ):
                        _congruence(f, pair, f_ct, scaled, p1, p2)
                        steps.append(_max_step(sk, scaled, p1))
                    if d_tau < 0:
                        steps.append(-tau / d_tau)
                    if d_kappa < 0:
                        steps.append(-kappa / d_kappa)
                    return min(steps)

                # Predictor (affine) direction.
                dtau_a, dkap_a = direction(1.0, [-l2 for l2 in lam_sq], -tau * kappa)
                alpha_aff = min(1.0, 0.99 * max_alpha(dtau_a, dkap_a))

                np.add(point, np.multiply(d_point, alpha_aff, out=tmp_pair), out=tmp_pair)
                mu_aff = (
                    float(tmp_pair[0] @ tmp_pair[1])
                    + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)
                ) / (nu + 1)
                gamma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

                # Corrector: second-order term in the scaled space,
                # gamma mu I - lam^2 - (dx ds + ds dx) / 2 of the scaled pair.
                for we, l2, (a, bk), comp, p1, p2 in zip(w_eye, lam_sq, SCALED, COMP, P1, P2):
                    np.subtract(np.multiply(we, gamma * mu, out=comp), l2, out=comp)
                    np.subtract(comp, _jordan(a, bk, p1, p2), out=comp)
                rhs_tk = gamma * mu - tau * kappa - dtau_a * dkap_a
                d_tau, d_kappa = direction(1.0 - gamma, COMP, rhs_tk, True)
                alpha = min(1.0, 0.99 * max_alpha(d_tau, d_kappa))
                if not np.isfinite(alpha) or alpha <= 1e-14:
                    stop_reason = "step_collapse"
                    break

                np.add(point, np.multiply(d_point, alpha, out=tmp_pair), out=tmp_pair)
                for new, pt in zip(TMP_PAIR, POINT):
                    _herm(new, pt)
                np.add(y, np.multiply(dy, alpha, out=dy), out=y)
                tau += alpha * d_tau
                kappa += alpha * d_kappa
        except (FloatingPointError, np.linalg.LinAlgError):
            stop_reason = "breakdown"  # past attainable precision
            break

    if best is None:
        raise SolverError("interior-point method produced no iterates")
    pobj, dobj, relgap, pres, dres = best
    if stop_reason != "certificate" and pres <= FEAS_TOL and dres <= FEAS_TOL and relgap <= GAP_TOL:
        status = "optimal"
    y_full = np.zeros(problem.A.shape[0])
    y_full[keep_rows] = best_y
    return SdpSolution(
        status=status,
        x=cons.to_svec(best_hat[0]),
        y=y_full,
        s=cons.to_svec(best_hat[1]),
        primal_objective=pobj,
        dual_objective=dobj,
        gap=relgap,
        primal_residual=pres,
        dual_residual=dres,
        iterations=iterations,
        stop_reason=stop_reason,
        block_dims=list(problem.block_dims),
        max_jitter=max_jitter,
        hermitian=list(problem.hermitian),
    )


# ---------------------------------------------------------------------------
# Hermitian front end
# ---------------------------------------------------------------------------


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
    one), and each family is turned at once into the (row, column, value)
    triples of its nonzero hvec coordinates, so no coefficient stack is
    kept.  Each d x d variable is one Hermitian block in hvec coordinates.
    """

    # A coefficient stack is converted this many entries at a time, which
    # bounds the temporaries of the conversion.
    _CHUNK_ENTRIES = 1 << 20

    def __init__(self):
        self._vars: list[_Var] = []
        self._starts: list[int] = []  # each variable's first column
        self._width = 0
        self._obj: dict[int, np.ndarray | float] = {}
        self._rhs: list[np.ndarray] = []
        self._triples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _add(self, dim: int, scalar: bool) -> _Var:
        v = _Var(len(self._vars), dim, scalar)
        self._vars.append(v)
        self._starts.append(self._width)
        self._width += 1 if scalar else dim * dim
        return v

    def add_hermitian(self, dim: int) -> _Var:
        return self._add(dim, False)

    def add_scalar(self) -> _Var:
        return self._add(0, True)

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
        first = sum(r.size for r in self._rhs)
        for var, coeff in terms.items():
            if var.scalar:
                vals = np.asarray(coeff, dtype=float).reshape(k)
                j = np.flatnonzero(vals)
                self._triples.append((first + j, np.full(j.size, self._starts[var.index]), vals[j]))
                continue
            coeff = np.asarray(coeff, dtype=complex).reshape(k, var.dim, var.dim)
            step = max(1, self._CHUNK_ENTRIES // var.dim**2)
            for lo in range(0, k, step):
                vec = _hvec_rows(herm(coeff[lo : lo + step]))
                j, q = np.nonzero(vec)
                self._triples.append((first + lo + j, self._starts[var.index] + q, vec[j, q]))
        if sense != "==":
            # Row j's slack is the j-th of k new scalars, in column start + j.
            start, j = self._width, np.arange(k)
            for _ in range(k):
                self.add_scalar()
            self._triples.append((first + j, start + j, np.full(k, 1.0 if sense == "<=" else -1.0)))
        self._rhs.append(rhs)

    def build(self) -> SdpProblem:
        """The problem, with A dense or CSR by :func:`_matrix`'s rule."""
        dims = [1 if v.scalar else v.dim for v in self._vars]
        flags = [not v.scalar for v in self._vars]
        c = np.zeros(self._width)
        for idx, coeff in self._obj.items():
            start, v = self._starts[idx], self._vars[idx]
            if v.scalar:
                c[start] += coeff
            else:
                c[start : start + v.dim**2] += _hvec_rows(coeff[None])[0]
        b = np.concatenate([np.zeros(0), *self._rhs])
        empty = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        rows, cols, vals = (np.concatenate(part) for part in zip(empty, *self._triples))
        return SdpProblem(dims, c, _matrix(rows, cols, vals, (b.size, self._width)), b, flags)

    def solve(self):
        """Build and solve at the module's acceptance thresholds; returns the
        solution and each variable's value by its index."""
        problem = self.build()
        sol = solve(problem)
        values = {}
        for v, seg in zip(self._vars, problem.segments):
            if v.scalar:
                values[v.index] = float(sol.x[seg][0])
            else:
                values[v.index] = hmat(sol.x[seg], v.dim)
        return sol, values
