import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from instability import programs, sdp
from instability.channels import dephaser, hermitian_basis
from instability.divergences import neyman_pearson
from instability.errors import SolverError, ValidationError
from instability.sampling import random_density


def random_unitary_or_orthogonal(n, rng, hermitian):
    g = rng.normal(size=(n, n))
    if hermitian:
        g = g + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    return q


def coords(m, hermitian):
    return sdp.hvec(m) if hermitian else sdp.svec(m)


def coord_dim(n, hermitian):
    return n * n if hermitian else n * (n + 1) // 2


def planted_problem(dims, m, rng, hermitian=None):
    """Random feasible SDP with a known optimum from a strictly
    complementary primal-dual pair; blocks flagged in `hermitian` are
    complex Hermitian."""
    flags = hermitian or [False] * len(dims)
    total = sum(coord_dim(n, h) for n, h in zip(dims, flags))
    a = rng.normal(size=(m, total))
    xs, ss = [], []
    for n, h in zip(dims, flags):
        q = random_unitary_or_orthogonal(n, rng, h)
        k = int(rng.integers(1, n)) if n > 1 else 1
        wx = np.concatenate([rng.uniform(0.5, 2.0, size=k), np.zeros(n - k)])
        ws = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, size=n - k)])
        xs.append(coords((q * wx) @ q.conj().T, h))
        ss.append(coords((q * ws) @ q.conj().T, h))
    x, s = np.concatenate(xs), np.concatenate(ss)
    y = rng.normal(size=m)
    c = a.T @ y + s
    return sdp.SdpProblem(list(dims), c, a, a @ x, hermitian), float(c @ x)


class TestSvec:
    def test_roundtrip(self, rng):
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        assert np.allclose(sdp.smat(sdp.svec(m), 4), m)

    def test_inner_product(self, rng):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2
        b = rng.normal(size=(3, 3))
        b = (b + b.T) / 2
        assert np.dot(sdp.svec(a), sdp.svec(b)) == pytest.approx(np.trace(a @ b))


def dense_schur(a, dims, ws, hermitian=None):
    """Reference Schur matrix sum_k Re tr(A_jk W_k A_lk W_k) from dense
    blocks, reading each flagged segment in hvec coordinates."""
    flags = hermitian or [False] * len(dims)
    out = np.zeros((a.shape[0], a.shape[0]))
    off = 0
    for n, h, w in zip(dims, flags, ws):
        width = coord_dim(n, h)
        read = sdp.hmat if h else sdp.smat
        mats = np.stack([read(row[off : off + width], n) for row in a])
        out += np.einsum("jab,lba->jl", mats, w @ mats @ w).real
        off += width
    return out


def schur(cons, ws):
    """The Schur matrix for per-block scalings W_k in the problem's block
    order, stacked per kind and size as the solver passes them."""
    return cons.stacked_schur([np.stack([ws[k] for k in ks]) for ks in cons.members])


def random_spd(n, rng):
    g = rng.normal(size=(n, n))
    return g @ g.T / n + 0.1 * np.eye(n)


def random_hpd(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n + 0.1 * np.eye(n)


class TestSchur:
    def check(self, a, dims, rng, hermitian=None):
        flags = hermitian or [False] * len(dims)
        ws = [random_hpd(n, rng) if h and n > 1 else random_spd(n, rng) for n, h in zip(dims, flags)]
        ref = dense_schur(a, dims, ws, hermitian)
        got = schur(sdp._Constraints(a, dims, hermitian), ws)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_planted_dense_rows(self, rng):
        for _ in range(10):
            dims = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5)))]
            prob, _ = planted_problem(dims, int(rng.integers(1, 12)), rng)
            self.check(prob.A, dims, rng)

    def test_mixed_sizes_and_untouched_block(self, rng):
        # Two scalars (the diagonal term), two 2x2 blocks, a 3x3 block and
        # two blocks as wide as the widest, each with its own term; block 4
        # is touched by no row, and every row is sparse.
        dims = [1, 1, 2, 2, 3, 5, 5]
        total = sum(sdp.svec_dim(n) for n in dims)
        a = np.zeros((9, total))
        for j in range(9):
            cols = rng.choice(total, size=3, replace=False)
            a[j, cols] = rng.normal(size=3)
        a[:, 8:14] = 0.0  # the svec segment of block 4
        self.check(a, dims, rng)

    def test_hermitian_program_rows(self, rng):
        prog = sdp.HermitianProgram()
        x = prog.add_hermitian(3)
        betas = [prog.add_hermitian(1) for _ in range(3)]
        for i, h in enumerate(hermitian_basis(3)):
            prog.add_constraint({x: h, betas[i % 3]: np.eye(1)}, 0.0, sense="<=")
        problem = prog.build()
        assert problem.hermitian == [True] * 4 + [False] * 9
        self.check(problem.A, problem.block_dims, rng, problem.hermitian)

    def test_hermitian_blocks(self, rng):
        # Two 3x3 Hermitian blocks form one stack, a real 3x3 block has its
        # own stack, a 1x1 Hermitian block joins the real scalars, and the
        # two 5x5 Hermitian blocks are as wide as the widest; rows are dense.
        dims = [3, 1, 3, 5, 1, 3, 5, 2]
        flags = [True, True, True, True, False, False, True, True]
        prob, _ = planted_problem(dims, 11, rng, flags)
        self.check(prob.A, dims, rng, flags)
        cons = sdp._Constraints(prob.A, dims, flags)
        assert [(n, g, cplx) for n, g, _, cplx in cons.stacks] == [
            (2, 1, True), (3, 2, True), (5, 2, True), (1, 2, False), (3, 1, False),
        ]
        assert [w.ravel().tolist() for w in cons.weights][3] == [2.0, 1.0]

    def test_many_scalars_and_repeated_narrow_blocks(self, rng):
        # 180 scalars and three 1x1 Hermitian blocks share the diagonal
        # term, whose coefficients are wide enough to be held sparse; three
        # 2x2 Hermitian and two 3x3 real blocks, narrower than the 5x5
        # Hermitian one, each have a term of their own.
        dims = [1] * 180 + [1, 1, 1, 2, 2, 2, 3, 3, 5]
        flags = [False] * 180 + [True] * 6 + [False, False, True]
        total = sum(coord_dim(n, h) for n, h in zip(dims, flags))
        a = np.zeros((200, total))
        for j in range(200):
            cols = rng.choice(total, size=4, replace=False)
            a[j, cols] = rng.normal(size=4)
        a[np.arange(200), np.arange(200) % 180] = 1.0  # every scalar is touched
        self.check(a, dims, rng, flags)
        cons = sdp._Constraints(a, dims, flags)
        own = [cons.members[i][part] for i, part, _ in cons.groups]
        scalars = [k for k, n in enumerate(dims) if n == 1]
        assert own.count(scalars) == 1
        assert sorted(k for k in own if k != scalars) == [k for k, n in enumerate(dims) if n > 1]
        (term,) = [t for _, _, t in cons.groups if isinstance(t, sdp._ScalarSchur)]
        assert not isinstance(term.a, np.ndarray)

    def test_large_blocks_on_the_shared_work_buffers(self, rng):
        # A real 20x20 and a Hermitian 16x16 block touched by 150 sparse rows
        # are held as CSR and gather T one matrix row at a time into the
        # buffers they share; the 3x3 block stays dense.
        dims, flags = [20, 16, 3], [False, True, False]
        total = sum(coord_dim(n, h) for n, h in zip(dims, flags))
        a = np.zeros((150, total))
        for j in range(150):
            cols = rng.choice(total, size=3, replace=False)
            a[j, cols] = rng.normal(size=3)
        a[:5, 210:466] = rng.normal(size=(5, 256))  # dense rows on the Hermitian block
        cons = sdp._Constraints(a, dims, flags)
        work = {getattr(t, "n", 1): t.work for _, _, t in cons.groups}
        assert work[20] and work[16] and not work[3]
        self.check(a, dims, rng, flags)

    def test_sparse_group_holds_no_gather_index(self, rng):
        # The large path gathers T row by row, so only a dense group keeps
        # the small path's index, whose size grows as k n^2.
        dims, flags = [20, 3], [False, False]
        total = sum(coord_dim(n, h) for n, h in zip(dims, flags))
        a = np.zeros((150, total))
        for j in range(150):
            a[j, rng.choice(total, size=3, replace=False)] = rng.normal(size=3)
        groups = {getattr(t, "n", 1): t for _, _, t in sdp._Constraints(a, dims, flags).groups}
        assert groups[20].work and groups[20].take is None
        assert not groups[3].work and groups[3].take.shape == (6, groups[3].rows.size)
        self.check(a, dims, rng, flags)

    def test_contiguous_and_scattered_row_subsets(self, rng):
        # Block 0 is touched by rows 2-5 only, a contiguous strict subset
        # that adds through a slice; block 1 by rows 0, 3 and 6, which add
        # through np.ix_.
        dims = [3, 2]
        a = np.zeros((7, 9))
        a[2:6, :6] = rng.normal(size=(4, 6))
        a[[0, 3, 6], 6:] = rng.normal(size=(3, 3))
        groups = {g.n: g for _, _, g in sdp._Constraints(a, dims).groups}
        assert groups[3].index == (slice(2, 6), slice(2, 6))
        assert groups[2].index[0].ravel().tolist() == [0, 3, 6]
        self.check(a, dims, rng)


def eig_fn(m, f):
    """f(m) of one Hermitian matrix through its eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return (v * f(w)) @ v.conj().T


def pd_stack(g, n, rng, kind):
    make = random_hpd if kind is complex else random_spd
    return np.stack([make(n, rng) for _ in range(g)])


def nt_scaling(x, s):
    """sdp._nt_scaling of the pair (x, s) into fresh buffers: (W, G, G^{-1}, sigma)."""
    pair = np.stack([x, s])
    w, g, scalers = np.empty_like(x), np.empty_like(x), np.empty_like(pair)
    sig = sdp._nt_scaling(pair, w, g, scalers)
    return w, g, scalers[0], sig


def max_step(sig, dm):
    return sdp._max_step(sig, dm, np.empty_like(dm))


def sym_stack(g, n, rng, kind):
    m = rng.normal(size=(g, n, n))
    if kind is complex:
        m = m + 1j * rng.normal(size=(g, n, n))
    return (m + m.conj().swapaxes(-1, -2)) / 2


# Real stacks keep the ids "1", "2", "5"; complex Hermitian ones are "herm-n".
STACK_CASES = pytest.mark.parametrize(
    "n, kind",
    [(1, float), (2, float), (5, float), (1, complex), (2, complex), (5, complex)],
    ids=["1", "2", "5", "herm-1", "herm-2", "herm-5"],
)


class TestStackKernels:
    """The kernels on a (g, n, n) stack against per-matrix references."""

    @STACK_CASES
    def test_nt_scaling(self, n, kind, rng):
        x, s = pd_stack(4, n, rng, kind), pd_stack(4, n, rng, kind)
        w_mat, g, g_inv, sig = nt_scaling(x, s)
        assert w_mat.dtype == g.dtype == g_inv.dtype == np.dtype(kind)
        assert sig.shape == (4, n) and sig.dtype == np.dtype(float)
        for i in range(4):
            err = np.linalg.norm(w_mat[i] @ s[i] @ w_mat[i] - x[i])
            assert err <= 1e-10 * np.linalg.norm(x[i])
            assert np.abs(g[i] @ g[i].conj().T - w_mat[i]).max() <= 1e-12 * np.abs(w_mat[i]).max()
            assert np.abs(g_inv[i] @ g[i] - np.eye(n)).max() <= 1e-10
            # Both scaled points are diag(sigma).
            lam = np.diag(sig[i])
            for scaled in (g_inv[i] @ x[i] @ g_inv[i].conj().T, g[i].conj().T @ s[i] @ g[i]):
                assert np.abs(scaled - lam).max() <= 1e-10 * sig[i].max()
            # W = x^{1/2} (x^{1/2} s x^{1/2})^{-1/2} x^{1/2}, and sigma is the
            # spectrum of (x^{1/2} s x^{1/2})^{1/2}.
            xh = eig_fn(x[i], np.sqrt)
            ref_w = xh @ eig_fn(xh @ s[i] @ xh, lambda v: v**-0.5) @ xh
            assert np.abs(w_mat[i] - ref_w).max() <= 1e-8 * np.abs(ref_w).max()
            ref_sig = np.sqrt(np.linalg.eigvalsh(xh @ s[i] @ xh))
            assert np.abs(np.sort(sig[i]) - ref_sig).max() <= 1e-10 * ref_sig.max()
            alone = nt_scaling(x[i], s[i])
            for got, want in zip((w_mat[i], g[i], g_inv[i], sig[i]), alone):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_nt_scaling_rejects_an_indefinite_point(self, rng):
        x = random_spd(3, rng)
        with pytest.raises(np.linalg.LinAlgError):
            nt_scaling(x, -x)

    @STACK_CASES
    def test_lam_inverse_op(self, n, kind, rng):
        sig, r = rng.uniform(0.1, 2.0, size=(4, n)), sym_stack(4, n, rng, kind)
        x = sdp._lam_inverse(sig, r, np.empty_like(r))
        for i in range(4):
            lam = np.diag(sig[i])
            resid = (lam @ x[i] + x[i] @ lam) / 2 - r[i]
            assert np.abs(resid).max() <= 1e-10 * np.abs(r[i]).max()
            assert np.array_equal(x[i], x[i].conj().T)

    @STACK_CASES
    def test_max_step(self, n, kind, rng):
        x, s = pd_stack(4, n, rng, kind), pd_stack(4, n, rng, kind)
        dx, ds = sym_stack(4, n, rng, kind), sym_stack(4, n, rng, kind)
        _, g, g_inv, sig = nt_scaling(x, s)
        ct = lambda m: m.conj().swapaxes(-1, -2)  # noqa: E731
        scaled_x, scaled_s = g_inv @ dx @ ct(g_inv), ct(g) @ ds @ g

        def step(mk, dk):
            # sup {alpha : mk + alpha dk >= 0} from the generalized eigenvalues.
            low = scipy.linalg.eigh(dk, mk, eigvals_only=True)[0]
            return np.inf if low >= 0 else -1.0 / low

        for scaled, m, dm in ((scaled_x, x, dx), (scaled_s, s, ds)):
            got = max_step(sig, scaled)
            assert got == pytest.approx(min(step(m[i], dm[i]) for i in range(4)), rel=1e-10)
            for i in range(4):
                assert max_step(sig[i], scaled[i]) == pytest.approx(
                    step(m[i], dm[i]), rel=1e-10
                )
        # The solver's stacked pair gives the smaller of the two steps.
        both = max_step(sig, np.stack([scaled_x, scaled_s]))
        assert both == min(max_step(sig, scaled_x), max_step(sig, scaled_s))
        psd = pd_stack(4, n, rng, kind)
        assert max_step(sig, g_inv @ psd @ ct(g_inv)) == np.inf


    def test_scalar_stack_closed_forms_match_lapack(self, rng):
        # A real 1x1 stack takes the closed forms; the same stack as complex
        # goes through the Cholesky, SVD and eigvalsh path.
        x, s = rng.uniform(1e-3, 10.0, size=(2, 9, 1, 1))
        fast = nt_scaling(x, s)
        slow = nt_scaling(x.astype(complex), s.astype(complex))
        assert all(f.dtype == np.dtype(float) for f in fast)
        for got, want in zip(fast, slow):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        sig, g, g_inv = fast[3], fast[1], fast[2]
        for pair in (rng.normal(size=(2, 9, 1, 1)), rng.uniform(0.1, 1.0, size=(2, 9, 1, 1))):
            scaled = np.stack([g_inv * pair[0] * g_inv, g * pair[1] * g])
            got, want = max_step(sig, scaled), max_step(sig, scaled.astype(complex))
            if np.isinf(want):
                assert got == np.inf
            else:
                assert abs(got - want) <= 1e-14 * want

    def test_scalar_stack_rejects_a_nonpositive_point(self):
        one = np.ones((2, 1, 1))
        for bad in (0.0, -1.0):
            for x, s in ((np.full_like(one, bad), one), (one, np.full_like(one, bad))):
                with pytest.raises(np.linalg.LinAlgError):
                    nt_scaling(x, s)


class TestFactorization:
    def test_one_cholesky_per_iteration(self, rng, monkeypatch):
        calls = []
        potrf, potrs = sdp._cholesky_routines()

        def counting(*args, **kwargs):
            calls.append(1)
            return potrf(*args, **kwargs)

        monkeypatch.setattr(sdp, "_CHOLESKY", (counting, potrs))
        prob, _ = planted_problem([3, 2, 1], 5, rng)
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        # An iteration that stops on its residuals does so before factoring.
        assert sol.iterations - 1 <= len(calls) <= sol.iterations

    def test_non_finite_schur_matrix_stops_on_best_iterate(self, rng, monkeypatch):
        # A NaN in the Schur matrix at iteration 3 is a numerical breakdown:
        # the solver returns its best iterate instead of raising.
        real = sdp._Constraints.stacked_schur
        calls = []

        def poisoned(self, w_stacks):
            out = real(self, w_stacks)
            calls.append(1)
            if len(calls) == 3:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(sdp._Constraints, "stacked_schur", poisoned)
        prob, _ = planted_problem([3, 2, 1], 5, rng)
        sol = sdp.solve(prob)
        assert len(calls) == 3
        assert sol.iterations == 3
        assert sol.status == "max_iter"
        assert sol.stop_reason == "breakdown"
        assert np.all(np.isfinite(sol.x)) and np.all(np.isfinite(sol.y))

    def test_failed_in_place_factor_is_rebuilt_and_jittered(self, rng, monkeypatch):
        # The first Cholesky factors the Schur buffer in place and then
        # reports failure, so the buffer holds neither M nor its factor: the
        # retry must rebuild M into it and add the first jitter, and solve
        # exactly as the same failure and retry on a copy of M do.
        prob, _ = planted_problem([4, 3, 1], 7, rng)
        cons = sdp._Constraints(prob.A, prob.block_dims)
        ws = [random_spd(n, rng) for n in prob.block_dims]
        m = schur(cons, ws).copy()
        potrf, potrs = sdp._cholesky_routines()
        calls = []

        def first_fails(a, **kwargs):
            calls.append(1)
            factor, info = potrf(a, **kwargs)
            return factor, (1 if len(calls) == 1 else info)

        monkeypatch.setattr(sdp, "_CHOLESKY", (first_fails, potrs))
        buffer = schur(cons, ws)
        solve_m, jitter = sdp._factor_schur(buffer, lambda: schur(cons, ws))
        assert (len(calls), jitter) == (2, 1e-14)
        calls.clear()
        copy = m.copy()
        ref_solve, ref_jitter = sdp._factor_schur(copy, lambda: np.copyto(copy, m))
        assert len(calls) == 2 and ref_jitter == 1e-14
        rhs = rng.normal(size=m.shape[0])
        got = solve_m(rhs)
        assert np.array_equal(got, ref_solve(rhs))
        shifted = m + 1e-14 * np.trace(m) / m.shape[0] * np.eye(m.shape[0])
        assert np.abs(shifted @ got - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_planted_instance_needs_no_perturbation(self, rng):
        prob, _ = planted_problem([4, 3], 6, rng)
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.max_jitter == 0.0

    def test_failed_retry_is_a_breakdown(self, rng, monkeypatch):
        # From the third iteration on every Cholesky fails: the failing
        # factorization is retried once, on the rebuilt and jittered matrix,
        # and then raises, which the solver ends as a breakdown on its best
        # iterate.
        potrf, potrs = sdp._cholesky_routines()
        calls = []

        def fails_from_third(a, **kwargs):
            calls.append(1)
            factor, info = potrf(a, **kwargs)
            return factor, (1 if len(calls) >= 3 else info)

        real = sdp._factor_schur
        raised = []  # (potrf calls, rebuilds) of each factorization that raised

        def logged(m, rebuild):
            first, rebuilds = len(calls), []

            def counted():
                rebuilds.append(1)
                rebuild()

            try:
                return real(m, counted)
            except np.linalg.LinAlgError:
                raised.append((len(calls) - first, len(rebuilds)))
                raise

        monkeypatch.setattr(sdp, "_CHOLESKY", (fails_from_third, potrs))
        monkeypatch.setattr(sdp, "_factor_schur", logged)
        prob, _ = planted_problem([3, 2, 1], 5, rng)
        sol = sdp.solve(prob)
        assert raised == [(2, 1)]
        assert (sol.stop_reason, sol.iterations, sol.max_jitter) == ("breakdown", 3, 0.0)
        assert np.all(np.isfinite(sol.x)) and np.all(np.isfinite(sol.y))


def assert_same_solution(got, want):
    for name in ("status", "stop_reason", "iterations", "primal_objective", "dual_objective",
                 "gap", "primal_residual", "dual_residual", "max_jitter"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("x", "y", "s"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestBuffers:
    """The loop's float vectors are rows of one buffer per solve, with stack
    views made once, and nothing outlives the solve."""

    def test_no_buffer_outlives_its_solve(self, rng):
        # A, then B with other block sizes and kinds, then A again.
        first, _ = planted_problem([4, 3, 1], 7, rng, [True, False, False])
        other, _ = planted_problem([2, 5, 1, 1], 9, rng, [False, True, False, True])
        want = sdp.solve(first)
        assert sdp.solve(other).status == "optimal"
        assert_same_solution(sdp.solve(first), want)

    def test_stack_views_and_rows_are_the_same_memory(self, rng):
        dims, flags = [3, 2, 1, 3, 2], [True, True, False, False, True]
        prob, _ = planted_problem(dims, 6, rng, flags)
        cons = sdp._Constraints(prob.A, dims, flags)
        vec, views = cons.vectors(3)
        assert vec.shape == (3, cons.size) and not vec.any()
        for (n, g, part, cplx), view in zip(cons.stacks, views):
            assert view.shape == (3, g, n, n) and view.dtype == (complex if cplx else float)
            # A write through the view lands in row 1 of the vector...
            view[1] = rng.normal(size=(g, n, n)) + (1j * rng.normal(size=(g, n, n)) if cplx else 0)
            floats = view[1].reshape(-1).view(float) if cplx else view[1].reshape(-1)
            assert np.array_equal(vec[1, part], floats)
            # ...and a write to row 2 shows through the view.
            vec[2, part] = rng.normal(size=part.stop - part.start)
            read = vec[2, part].view(complex) if cplx else vec[2, part]
            assert np.array_equal(view[2], read.reshape(g, n, n))
        assert not vec[0].any()

    @pytest.mark.parametrize(
        "dims, flags", [([1, 1, 1, 1], None), ([3, 2, 2], [True, True, True])], ids=["lp", "complex"]
    )
    def test_a_single_kind_of_stack_solves(self, dims, flags, rng):
        # Only the real 1x1 stack (an LP), or only complex stacks.
        prob, opt = planted_problem(dims, 3, rng, flags)
        kinds = {cplx for _, _, _, cplx in sdp._Constraints(prob.A, dims, flags).stacks}
        assert kinds == {flags is not None}
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - opt) <= 1e-6 * (1 + abs(opt))


class TestSparseRows:
    """A is read by its nonzeros: a dense array and its CSR give the same solve."""

    @pytest.mark.parametrize(
        "dims, m, flags",
        [([4, 3, 1], 8, None), ([16, 6, 1], 130, [True, False, False])],
        ids=["below", "above"],
    )
    def test_dense_and_csr_rows_solve_alike(self, dims, m, flags, rng):
        dense, _ = planted_problem(dims, m, rng, flags)
        assert (dense.A.size > sdp._DENSE_ENTRIES) == (m == 130)
        csr = sdp.SdpProblem(dims, dense.c, scipy.sparse.csr_matrix(dense.A), dense.b, flags)
        assert isinstance(dense.A, np.ndarray) and not isinstance(csr.A, np.ndarray)
        want = sdp.solve(dense)
        assert want.status == "optimal"
        assert_same_solution(sdp.solve(csr), want)
        if m == 130:
            # The 16x16 Hermitian block's term runs on the shared work buffers.
            terms = [t for _, _, t in sdp._Constraints(csr.A, dims, flags).groups]
            assert any(t.work for t in terms)

    def test_build_returns_csr_above_the_dense_limit(self):
        prog = sdp.HermitianProgram()
        x, y = prog.add_hermitian(12), prog.add_hermitian(12)
        basis = hermitian_basis(12)
        prog.add_constraint({x: basis, y: basis}, np.trace(basis, axis1=1, axis2=2).real)
        problem = prog.build()
        assert problem.A.shape == (144, 288) and not isinstance(problem.A, np.ndarray)
        # Each row holds one coordinate of each variable.
        assert problem.A.nnz == 288

    def test_csr_presolve_matches_dense(self, rng):
        a, b = TestPresolve.structured_rows(rng)
        want_a, want_b, want_keep = sdp._presolve_rows(a, b)
        got_a, got_b, keep = sdp._presolve_rows(scipy.sparse.csr_matrix(a), b)
        assert np.array_equal(keep, want_keep) and np.array_equal(got_b, want_b)
        assert np.array_equal(got_a.toarray(), want_a)


def held_arrays(obj):
    """Every numpy array an object holds, through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    return held_arrays(vars(obj)) if hasattr(obj, "__dict__") else []


class TestMemory:
    def test_smoothed_dmax_traced_peak(self):
        # The d = 16 smoothed D_max sets sdp-scaling's peak.  The bound lies
        # between its traced peak with the rows kept as triples and the Schur
        # matrix in one buffer (about 10 MB) and with dense rows and a fresh
        # Schur matrix and factor each iteration (24 MB).
        import tracemalloc

        rho = random_density(16, np.random.default_rng(3))
        programs.dmax_smoothed_free(random_density(4, np.random.default_rng(1)), dephaser(4), 0.05)
        tracemalloc.start()
        try:
            result = programs.dmax_smoothed_free(rho, dephaser(16), 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solution.status == "optimal"
        assert peak <= 12e6, peak

    def test_no_coefficient_stack_outlives_add_constraint(self):
        d = 16
        prog = sdp.HermitianProgram()
        x, y, c = prog.add_hermitian(d), prog.add_hermitian(d), prog.add_scalar()
        prog.add_objective(x, np.eye(d))
        basis = hermitian_basis(d)
        prog.add_constraint({x: basis, y: basis}, np.trace(basis, axis1=1, axis2=2).real)
        prog.add_constraint({x: basis[:5], c: np.ones(5)}, np.zeros(5), sense="<=")
        held = held_arrays(prog)
        assert held and max(a.ndim for a in held) <= 2
        # Only the d x d objective is a matrix, and the program holds far
        # less than the stack it was given.
        assert [a.shape for a in held if a.ndim == 2] == [(d, d)]
        assert sum(a.nbytes for a in held) < basis.nbytes / 10


class TestHvec:
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_roundtrip(self, n, rng):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (g + g.conj().T) / 2
        v = sdp.hvec(m)
        assert v.shape == (n * n,) and v.dtype == float
        assert np.allclose(sdp.hmat(v, n), m, rtol=0, atol=1e-15)
        assert np.array_equal(sdp.hvec(sdp.hmat(v, n)), v)

    def test_inner_product(self, rng):
        for n in (1, 2, 5):
            a, b = (sym_stack(1, n, rng, complex)[0] for _ in range(2))
            assert np.dot(sdp.hvec(a), sdp.hvec(b)) == pytest.approx(np.trace(a @ b).real)

    def test_psd_read_from_eigenvalues(self, rng):
        # hmat(v) is PSD exactly when its eigenvalues are nonnegative: a
        # density matrix is, and it stops being as its smallest eigenvalue
        # is pushed below zero.
        x = random_density(4, rng)
        w, v = np.linalg.eigh(x)
        back = sdp.hmat(sdp.hvec(x), 4)
        assert np.linalg.eigvalsh(back).min() >= -1e-15
        shifted = x - (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0].conj())
        assert np.linalg.eigvalsh(sdp.hmat(sdp.hvec(shifted), 4)).min() == pytest.approx(-1e-3)


class TestSolver:
    def test_lowner_floor(self):
        prog = sdp.HermitianProgram()
        x = prog.add_hermitian(2)
        slack = prog.add_hermitian(2)
        prog.add_objective(x, np.eye(2))
        target = np.diag([1.0, 2.0]).astype(complex)
        for h in hermitian_basis(2):
            prog.add_constraint({x: h, slack: -h}, float(np.real(np.trace(h.conj().T @ target))))
        sol, vals = prog.solve()
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)
        assert np.abs(vals[x.index] - target).max() <= 1e-6

    def test_diagonal_lp_matches_enumeration(self, rng):
        # min c.x over x >= 0, a.x = b with two variables: the optimum sits
        # at a vertex, found exactly by enumeration.
        for _ in range(20):
            a = rng.uniform(0.5, 2.0, size=2)
            b = float(rng.uniform(1.0, 3.0))
            c = rng.uniform(-1.0, 2.0, size=2)
            vertices = [(b / a[0], 0.0), (0.0, b / a[1])]
            best = min(c[0] * v[0] + c[1] * v[1] for v in vertices)
            prob = sdp.SdpProblem([1, 1], c, a.reshape(1, 2), np.array([b]))
            sol = sdp.solve(prob)
            assert sol.status == "optimal"
            assert sol.primal_objective == pytest.approx(best, abs=1e-7)

    def test_planted_instances(self, rng):
        for _ in range(25):
            dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4)))]
            m = int(rng.integers(2, sum(n * (n + 1) // 2 for n in dims) // 2 + 3))
            prob, opt = planted_problem(dims, m, rng)
            sol = sdp.solve(prob)
            assert sol.status == "optimal"
            assert sol.gap <= 1e-7 * (1 + abs(sol.primal_objective))
            assert sol.primal_residual <= 1e-8
            assert abs(sol.primal_objective - opt) <= 1e-6 * (1 + abs(opt))

    def test_neyman_pearson_cross_check(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            sig = random_density(d, rng)
            eps = float(rng.uniform(0.02, 0.7))
            prog = sdp.HermitianProgram()
            g = prog.add_hermitian(d)
            s = prog.add_hermitian(d)
            prog.add_objective(g, sig)
            for h in hermitian_basis(d):
                prog.add_constraint({g: h, s: h}, float(np.real(np.trace(h))))
            prog.add_constraint({g: rho}, 1 - eps, sense=">=")
            sol, _ = prog.solve()
            res = neyman_pearson(rho, sig, eps)
            assert sol.status == "optimal"
            assert sol.primal_objective == pytest.approx(res.type_two_error, abs=1e-7)

    def test_stop_reason(self, rng, monkeypatch):
        prob, _ = planted_problem([3, 2, 1], 5, rng)
        sol = sdp.solve(prob)
        assert (sol.status, sol.stop_reason) == ("optimal", "target")
        monkeypatch.setattr(sdp, "MAX_ITER", 2)
        capped = sdp.solve(prob)
        assert (capped.status, capped.stop_reason, capped.iterations) == ("max_iter", "max_iter", 2)

    def test_infeasible_detection(self):
        # X >= I together with tr X <= 1/2 is infeasible.
        prog = sdp.HermitianProgram()
        x = prog.add_hermitian(2)
        slack = prog.add_hermitian(2)
        prog.add_objective(x, np.zeros((2, 2)))
        for h in hermitian_basis(2):
            prog.add_constraint({x: h, slack: -h}, float(np.real(np.trace(h))))
        prog.add_constraint({x: np.eye(2)}, 0.5, sense="<=")
        sol, _ = prog.solve()
        assert sol.status == "infeasible"
        assert sol.stop_reason == "certificate"

    def test_unbounded_detection(self):
        # min -tr X with only tr-free constraints is unbounded below.
        prog = sdp.HermitianProgram()
        x = prog.add_hermitian(2)
        prog.add_objective(x, -np.eye(2))
        prog.add_constraint({x: np.diag([1.0, -1.0]).astype(complex)}, 0.0)
        sol, _ = prog.solve()
        assert sol.status == "unbounded"

    def test_redundant_rows_are_dropped(self, rng):
        prob, opt = planted_problem([3], 3, rng)
        a = np.vstack([prob.A, prob.A[0] + prob.A[1]])
        b = np.concatenate([prob.b, [prob.b[0] + prob.b[1]]])
        prob2 = sdp.SdpProblem([3], prob.c, a, b)
        sol = sdp.solve(prob2)
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(opt, abs=1e-6)

    def test_planted_hermitian_instances(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 6)) for _ in range(k)] + [1]
            flags = [bool(rng.integers(0, 2)) for _ in range(k)] + [True]
            total = sum(coord_dim(n, h) for n, h in zip(dims, flags))
            prob, opt = planted_problem(dims, int(rng.integers(2, total // 2 + 3)), rng, flags)
            sol = sdp.solve(prob)
            assert sol.status == "optimal"
            assert sol.primal_residual <= 1e-8
            assert abs(sol.primal_objective - opt) <= 1e-6 * (1 + abs(opt))
            for k, (n, h) in enumerate(zip(dims, flags)):
                block = sol.block(k)
                assert block.dtype == (complex if h else float)
                assert np.linalg.eigvalsh(block).min() >= -1e-7

    def test_rejects_oversized_blocks(self):
        with pytest.raises(ValidationError):
            sdp.SdpProblem([200], np.zeros(200 * 201 // 2), np.zeros((0, 200 * 201 // 2)), np.zeros(0))
        # A Hermitian block counts at twice its dimension.
        with pytest.raises(ValidationError):
            sdp.SdpProblem([65], np.zeros(65 * 65), np.zeros((0, 65 * 65)), np.zeros(0), [True])
        sdp.SdpProblem([64], np.zeros(64 * 64), np.zeros((0, 64 * 64)), np.zeros(0), [True])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            sdp.SdpProblem([2], np.zeros(4), np.zeros((1, 3)), np.zeros(1))


def qr_presolve_reference(a, b):
    """Rows kept by a pivoted QR of all rows at the solver's rank tolerance."""
    _, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    keep = np.sort(piv[: int(np.sum(diag > max(a.shape) * np.finfo(float).eps * diag[0]))])
    return a[keep], b[keep], keep


def qr_row_counts(monkeypatch):
    """Rows of every matrix the presolve sends to scipy.linalg.qr (it
    factors the transpose)."""
    counts = []
    real = scipy.linalg.qr

    def spy(a, *args, **kwargs):
        counts.append(a.shape[1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", spy)
    return counts


class TestPresolve:
    @staticmethod
    def structured_rows(rng):
        # Rows 0-4 each own a private column (0-4) and share columns 5-6
        # among themselves.  Rows 5-7 are border rows on columns 7-11 and
        # row 8 is the sum of rows 5 and 6; row 9 duplicates row 0, so
        # neither copy keeps column 0 to itself.
        a = np.zeros((10, 12))
        a[np.arange(5), np.arange(5)] = rng.uniform(1.0, 2.0, size=5)
        a[:5, 5:7] = rng.normal(size=(5, 2))
        a[5:8, 7:] = rng.normal(size=(3, 5))
        a[8] = a[5] + a[6]
        a[9] = a[0]
        return a, a @ rng.normal(size=12)

    def test_border_rows_only_match_full_qr(self, rng, monkeypatch):
        a, b = self.structured_rows(rng)
        ref_a, ref_b, ref_keep = qr_presolve_reference(a, b)
        counts = qr_row_counts(monkeypatch)
        got_a, got_b, keep = sdp._presolve_rows(a, b)
        assert counts == [6]  # rows 0 and 5-9
        assert keep.size == 8
        assert np.array_equal(keep, ref_keep)
        assert np.array_equal(got_a, ref_a) and np.array_equal(got_b, ref_b)

    def test_independent_rows_skip_the_qr(self, rng, monkeypatch):
        a, b = self.structured_rows(rng)
        counts = qr_row_counts(monkeypatch)
        got_a, got_b, keep = sdp._presolve_rows(a[:5], b[:5])
        assert counts == []
        assert np.array_equal(keep, np.arange(5))
        assert np.array_equal(got_a, a[:5]) and np.array_equal(got_b, b[:5])

    def test_inconsistent_dependent_rows_raise(self, rng):
        a, b = self.structured_rows(rng)
        for row in (8, 9):
            bad = b.copy()
            bad[row] += 1e-3
            with pytest.raises(SolverError, match="inconsistent"):
                sdp._presolve_rows(a, bad)

    def test_programs_send_at_most_their_algebra_rows(self, monkeypatch):
        rho = random_density(16, np.random.default_rng(5))
        counts = qr_row_counts(monkeypatch)
        programs.restricted_ht(rho, dephaser(16), 0.1)
        assert counts and max(counts) <= 16
        counts.clear()
        programs.ht_free(rho, dephaser(16), 0.1)
        assert counts == []


def permuted_blocks(prob, perm):
    """The problem with its blocks in the order `perm`, columns of A and
    entries of c moved to match."""
    segs = prob.segments
    cols = np.concatenate([np.arange(segs[k].start, segs[k].stop) for k in perm])
    dims = [prob.block_dims[k] for k in perm]
    return sdp.SdpProblem(dims, prob.c[cols], prob.A[:, cols], prob.b)


class TestBlockOrder:
    def test_shuffled_blocks_give_the_same_solution(self, rng):
        # With 34 generic rows of 38 svec coordinates the planted optimum is
        # the unique one, so the two solves must meet at the same blocks.
        # Reversing the blocks also reorders those of one size, and so the
        # members of each stack.
        dims = [5, 1, 2, 1, 5, 2]
        prob, opt = planted_problem(dims, 34, rng)
        perm = np.arange(len(dims))[::-1]
        prob_perm = permuted_blocks(prob, perm)
        sol = sdp.solve(prob)
        shuffled = sdp.solve(prob_perm)
        assert sol.status == shuffled.status == "optimal"
        assert abs(sol.primal_objective - shuffled.primal_objective) <= 1e-9 * (1 + abs(opt))
        for pos, k in enumerate(perm):
            assert np.abs(sol.block(k) - shuffled.block(pos)).max() <= 1e-7
        # x and s are in the problem's own svec order.
        for got, prob_k in ((sol, prob), (shuffled, prob_perm)):
            scale = 1 + np.abs(prob_k.b).max()
            assert np.abs(prob_k.A @ got.x - prob_k.b).max() <= 1e-7 * scale
            assert np.abs(prob_k.c - prob_k.A.T @ got.y - got.s).max() <= 1e-7 * scale
            assert prob_k.c @ got.x == pytest.approx(got.primal_objective, abs=1e-9)
            off = 0
            for k, n in enumerate(prob_k.block_dims):
                seg = slice(off, off + sdp.svec_dim(n))
                assert np.array_equal(got.block(k), sdp.smat(got.x[seg], n))
                assert np.linalg.eigvalsh(sdp.smat(got.s[seg], n)).min() >= -1e-7
                off += sdp.svec_dim(n)


class TestBatching:
    def test_eigh_calls_per_iteration_do_not_grow_with_slacks(self, rng, monkeypatch):
        # Every <= row adds a 1x1 slack block; the slacks are one stack, so
        # they add no decomposition to an iteration, and the NT scaling and
        # step lengths make no eigh call at all.
        names = ("eigh", "cholesky", "svd", "eigvalsh")
        calls = {name: 0 for name in names}
        real = {name: getattr(np.linalg, name) for name in names}

        def counting(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)

            return call

        effects = [random_spd(3, rng) for _ in range(12)]
        target = random_density(3, rng)
        per_iteration = []
        for rows in (2, 12):
            prog = sdp.HermitianProgram()
            x = prog.add_hermitian(3)
            prog.add_objective(x, target)
            prog.add_constraint({x: np.eye(3)}, 1.0)
            for e in effects[:rows]:
                prog.add_constraint({x: e}, float(np.trace(e)), sense="<=")
            calls.update(dict.fromkeys(names, 0))
            for name in names:
                monkeypatch.setattr(np.linalg, name, counting(name))
            sol, _ = prog.solve()
            for name in names:
                monkeypatch.setattr(np.linalg, name, real[name])
            assert sol.status == "optimal"
            assert calls["eigh"] == 0
            assert calls["cholesky"] > 0
            # The last iteration stops on its residuals before any scaling.
            per_iteration.append({k: v / (sol.iterations - 1) for k, v in calls.items()})
        assert per_iteration[0] == per_iteration[1]

    def test_all_scalar_lp_makes_no_batched_decomposition(self, rng, monkeypatch):
        # Every block of an LP is a scalar, so the NT scaling and the step
        # lengths are closed forms; the Schur matrix's Cholesky is the only
        # factorization left in an iteration.
        names = ("eigh", "cholesky", "svd", "eigvalsh")
        calls = []
        for name in names:
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
            )
        prog = sdp.HermitianProgram()
        xs = [prog.add_scalar() for _ in range(4)]
        cost, weight = rng.uniform(0.5, 2.0, size=4), rng.uniform(0.0, 1.0, size=4)
        for x, c in zip(xs, cost):
            prog.add_objective(x, c)
        prog.add_constraint(dict.fromkeys(xs, 1.0), 1.0)
        prog.add_constraint(dict(zip(xs, weight)), 0.2, sense=">=")
        sol, _ = prog.solve()
        assert sol.status == "optimal" and sol.iterations > 2
        assert calls == []
        ref = scipy.optimize.linprog(
            cost, A_ub=-weight[None], b_ub=[-0.2], A_eq=np.ones((1, 4)), b_eq=[1.0]
        )
        assert sol.primal_objective == pytest.approx(ref.fun, abs=1e-8)


def test_import_leaves_scipy_linalg_and_sparse_unloaded():
    import instability

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(instability.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = (
        "import sys, instability; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
