"""Destruction channels as block-structured faithful conditional expectations.

A destruction channel is an idempotent quantum channel with a full-rank
fixed state.  Every such channel is determined by a unitary change of basis
together with a list of blocks ``(d_A, d_B, tau)``: in the block basis the
Hilbert space splits as a direct sum of factors ``A_i (x) B_i`` and the
channel acts as

    Delta(rho) = (+)_i  tau_i (x) tr_{A_i}[ Pi_i rho Pi_i ]

with each ``tau_i`` a full-rank state on ``A_i``.  Representing channels by
this data (instead of Kraus or Choi matrices) makes idempotence and
faithfulness true by construction; Kraus/Choi exports are provided for
interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ValidationError
from .linalg import (
    as_matrix,
    check_density,
    check_psd_spectrum,
    herm,
    pow_from_eigh,
    rank_tol,
    within_spectral_tolerance,
)
from .sampling import random_unitary, rng_from

UNITARY_TOL = 1e-10
# hermitian_basis keeps the stacks up to this dimension (4 MB at d = 16);
# a larger one is rebuilt on each call and freed by its caller.
BASIS_CACHE_MAX_DIM = 16


@dataclass(frozen=True)
class Block:
    """One direct summand A (x) B with a full-rank state tau on the A factor."""

    d_a: int
    d_b: int
    tau: np.ndarray

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValidationError("block dimensions must be positive")
        tau = check_density(self.tau, self.d_a)
        w = np.linalg.eigvalsh(tau)
        if w[0] <= rank_tol(self.d_a, w[-1]):
            raise ValidationError("block state tau must be full rank (faithfulness)")
        object.__setattr__(self, "tau", tau)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


def _check_basis(basis, dim: int) -> np.ndarray:
    u = as_matrix(basis, dim)
    if not within_spectral_tolerance(u @ u.conj().T - np.eye(dim), UNITARY_TOL):
        raise ValidationError("basis matrix is not unitary within tolerance")
    return u


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked Kronecker products a_i (x) b_i as shape (n, d_a, d_b, d_a, d_b).

    The broadcast product is the ufunc ``numpy.kron`` applies, so each
    entry is bitwise the one ``numpy.kron(a_i, b_i)`` gives.
    """
    return a[..., :, None, :, None] * b[..., None, :, None, :]


@dataclass(frozen=True)
class _BlockGroup:
    """The blocks of one shape (d_a, d_b), acted on together.

    ``members`` holds the blocks' positions in the channel's block list,
    ``index`` each block's block-frame indices, one row per block, and
    ``diag`` the (row, column) index pair of their diagonal blocks;
    ``taus`` the stacked tau_i and ``fixed_eig`` the stacked
    eigendecomposition of d_a tau_i.
    """

    d_a: int
    d_b: int
    members: tuple[int, ...]
    index: np.ndarray
    diag: tuple[np.ndarray, np.ndarray]
    taus: np.ndarray
    fixed_eig: tuple[np.ndarray, np.ndarray]

    def gather(self, xb: np.ndarray) -> np.ndarray:
        """The diagonal blocks of ``xb``, shape (..., n, d_a, d_b, d_a, d_b)
        for ``xb`` of shape (..., dim, dim)."""
        return xb[(..., *self.diag)].reshape(
            *xb.shape[:-2], -1, self.d_a, self.d_b, self.d_a, self.d_b
        )


def _group_blocks(blocks: tuple[Block, ...]) -> tuple[_BlockGroup, ...]:
    members: dict[tuple[int, int], list[int]] = {}
    for k, b in enumerate(blocks):
        members.setdefault((b.d_a, b.d_b), []).append(k)
    offsets = np.cumsum([0] + [b.dim for b in blocks])
    groups = []
    for (d_a, d_b), ks in members.items():
        taus = np.stack([blocks[k].tau for k in ks])
        index = offsets[ks][:, None] + np.arange(d_a * d_b)
        groups.append(
            _BlockGroup(
                d_a, d_b, tuple(ks), index, (index[:, :, None], index[:, None, :]), taus,
                np.linalg.eigh(d_a * taus),
            )
        )
    return tuple(groups)


@dataclass(frozen=True)
class DestructionChannel:
    """Faithful idempotent channel in block form.

    ``basis`` maps the computational basis to the block basis: its columns
    are the block-basis vectors, so an operator X is processed as
    ``U @ block_action(U^dag X U) @ U^dag``.
    """

    dim: int
    basis: np.ndarray
    blocks: tuple[Block, ...]
    _groups: tuple[_BlockGroup, ...] = field(init=False, repr=False, compare=False)
    _identity_basis: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValidationError("a channel needs at least one block")
        total = sum(b.dim for b in blocks)
        if total != self.dim:
            raise ValidationError(
                f"blocks cover dimension {total}, channel dimension is {self.dim}"
            )
        object.__setattr__(self, "basis", _check_basis(self.basis, self.dim))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_groups", _group_blocks(blocks))
        object.__setattr__(
            self, "_identity_basis", bool(np.array_equal(self.basis, np.eye(self.dim)))
        )

    # -- frame changes -------------------------------------------------

    # Under the identity basis both frame changes return their argument.

    def to_block_frame(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, self.dim)
        if self._identity_basis:
            return x
        return self.basis.conj().T @ x @ self.basis

    def from_block_frame(self, x: np.ndarray) -> np.ndarray:
        if self._identity_basis:
            return x
        return self.basis @ x @ self.basis.conj().T

    # -- channel action ------------------------------------------------
    #
    # Each action gathers the diagonal blocks of one shape at once, acts on
    # the stack and scatters the results back; off-block entries are zero.

    def _scatter(self, parts) -> np.ndarray:
        """The block-frame operator with one (n, s, s) stack per group (or
        any shape that reshapes to it) on its diagonal blocks, zero off them."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for g, part in zip(self._groups, parts):
            n, s = g.index.shape
            out[g.diag] = part.reshape(n, s, s)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Schroedinger action Delta(X) = (+) tau_i (x) tr_A[X_i]."""
        return self.assemble_free(self.block_marginals(self.to_block_frame(x)))

    def apply_dual(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg dual Delta^*(Y) = (+) I_A (x) tr_A[(tau_i (x) I) Y_i];
        a unital conditional expectation."""
        parts = self.dual_marginals(self.to_block_frame(y))
        return self.from_block_frame(
            self._scatter([_kron(np.eye(g.d_a), b) for g, b in zip(self._groups, parts)])
        )

    def apply_tp_expectation(self, x: np.ndarray) -> np.ndarray:
        """The trace-preserving conditional expectation onto the same
        algebra, (+) I_A / d_A (x) tr_A[X_i]."""
        parts = self.block_marginals(self.to_block_frame(x))
        return self.from_block_frame(
            self._scatter([_kron(np.eye(g.d_a) / g.d_a, b) for g, b in zip(self._groups, parts)])
        )

    # -- free states by their factors ------------------------------------
    #
    # A free state is (+) tau_i (x) beta_i; its factors are the beta_i, held
    # as one (n, d_b, d_b) stack per group of same-shape blocks.

    def block_marginals(self, xb: np.ndarray) -> list[np.ndarray]:
        """The B-marginals tr_A[X_i] of the diagonal blocks of ``xb``, an
        operator in the block frame, as factor stacks."""
        return [np.einsum("nabad->nbd", g.gather(xb)) for g in self._groups]

    def assemble_free(self, betas) -> np.ndarray:
        """(+) tau_i (x) beta_i in the original frame, from factor stacks."""
        return self.from_block_frame(
            self._scatter([_kron(g.taus, beta) for g, beta in zip(self._groups, betas)])
        )

    def free_eig(self, betas) -> list[tuple[np.ndarray, np.ndarray]]:
        """The eigendecomposition of sigma = (+) tau_i (x) beta_i in the block
        frame, one (eigenvalues (n, s), eigenvectors (n, s, s)) pair per
        group: the products t_a b_k and u_a (x) w_k of those of tau_i and
        beta_i, from one batched eigh of the factors."""
        out = []
        for g, beta in zip(self._groups, betas):
            b, w = np.linalg.eigh(beta)
            n, s = g.index.shape
            p = ((g.fixed_eig[0] / g.d_a)[:, :, None] * b[:, None, :]).reshape(n, s)
            out.append((p, _kron(g.fixed_eig[1], w).reshape(n, s, s)))
        return out

    def free_eig_dense(self, eig) -> tuple[np.ndarray, np.ndarray]:
        """A ``free_eig`` decomposition as one eigenvalue vector and one
        block-diagonal unitary, both in the block frame."""
        w = np.zeros(self.dim)
        for g, (p, _) in zip(self._groups, eig):
            w[g.index] = p
        return w, self._scatter([k for _, k in eig])

    def free_power(self, eig, r: float) -> np.ndarray:
        """sigma^r in the block frame from its ``free_eig`` decomposition,
        with the conventions of ``mat_pow``: the eigenvalues t_a b_k are
        tested for positivity and cut at rank_tol(dim, lambda_max(sigma))
        before the power."""
        hi = max(p.max() for p, _ in eig)
        check_psd_spectrum(min(p.min() for p, _ in eig), hi, what="free state")
        cut = rank_tol(self.dim, hi)
        return self._scatter([pow_from_eigh(p, k, r, cut) for p, k in eig])

    def dual_marginals(self, xb: np.ndarray, ops=None) -> list[np.ndarray]:
        """The B-components tr_A[(tau_i (x) I) X_i] of Delta^*(X), for ``xb``
        in the block frame, as factor stacks of shape (..., n, d_b, d_b) for
        ``xb`` of shape (..., dim, dim).  ``ops``, one (n, d_a, d_a) stack
        per group (such as ``tau_power(r)``), takes the place of the tau_i."""
        ops = [g.taus for g in self._groups] if ops is None else ops
        return [
            np.einsum("nae,...nebad->...nbd", a, g.gather(xb)) for g, a in zip(self._groups, ops)
        ]

    def tau_power(self, r: float) -> list[np.ndarray]:
        """tau_i^r, one (n, d_a, d_a) stack per group, from the stored
        eigendecomposition of d_a tau_i."""
        return [pow_from_eigh(g.fixed_eig[0] / g.d_a, g.fixed_eig[1], r) for g in self._groups]

    def block_components(self, psi: np.ndarray) -> list[np.ndarray]:
        """The block-i components of a vector in the block frame, each
        reshaped to d_a x d_b, one (n, d_a, d_b) stack per group."""
        phi = psi if self._identity_basis else self.basis.conj().T @ psi
        return [phi[g.index].reshape(-1, g.d_a, g.d_b) for g in self._groups]

    # -- fixed data ------------------------------------------------------

    def fixed_input_power(self, r: float) -> np.ndarray:
        """Delta(I)^r, computed blockwise: Delta(I) = (+) d_A tau_i (x) I."""
        parts = [_kron(pow_from_eigh(*g.fixed_eig, r), np.eye(g.d_b)) for g in self._groups]
        return self.from_block_frame(self._scatter(parts))

    def fixed_state(self) -> np.ndarray:
        """The canonical full-rank fixed state Delta(I)/dim."""
        return self.fixed_input_power(1.0) / self.dim

    def twist(self, x: np.ndarray, r: float) -> np.ndarray:
        """Delta(I)^{r/2} X Delta(I)^{r/2}."""
        t = self.fixed_input_power(r / 2.0)
        return t @ as_matrix(x, self.dim) @ t

    # -- fixed-point algebra ----------------------------------------------

    def algebra_dim(self) -> int:
        """Real dimension of the fixed-point algebra im Delta^*."""
        return sum(b.d_b**2 for b in self.blocks)

    # -- exports -----------------------------------------------------------

    def choi(self, dual: bool = False) -> np.ndarray:
        """Choi matrix sum_{jk} |j><k| (x) C(|j><k|) of Delta (or Delta^*)."""
        act = self.apply_dual if dual else self.apply
        d = self.dim
        c = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[j, k] = 1.0
                c[j * d : (j + 1) * d, k * d : (k + 1) * d] = act(e)
        return c

    def kraus(self) -> list[np.ndarray]:
        """Kraus operators recovered from the Choi matrix, dropping
        eigenvalues at or below 1e-12 of the largest."""
        c = herm(self.choi())
        w, v = np.linalg.eigh(c)
        d = self.dim
        ops = []
        for lam, vec in zip(w, v.T):
            if lam > 1e-12 * max(w[-1], 1e-300):
                # Choi block (j, k) is C(|j><k|): the eigenvector component
                # at index j*d + a is the (a, j) entry of the Kraus operator.
                ops.append(np.sqrt(lam) * vec.reshape(d, d).T)
        return ops


def system(channel: DestructionChannel) -> DestructionChannel:
    """The channel itself: every task takes the channel, and this alias
    remains only because the benchmark workloads still call it."""
    return channel


# ---------------------------------------------------------------------------
# Hermitian bases
# ---------------------------------------------------------------------------


_basis_cache: dict[int, np.ndarray] = {}


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis of L(C^dim) (generalized Gell-Mann layout)
    as a read-only (dim^2, dim, dim) stack: the diagonal units, then for
    each j < k the symmetric and the antisymmetric element on (j, k).
    Cached per dimension up to BASIS_CACHE_MAX_DIM; a larger stack (268 MB
    at dim = 64) lives only as long as its caller holds it."""
    if dim not in _basis_cache:
        out = np.zeros((dim * dim, dim, dim), dtype=complex)
        diag = np.arange(dim)
        out[diag, diag, diag] = 1.0
        inv = 1.0 / np.sqrt(2.0)
        j, k = np.triu_indices(dim, 1)
        sym = dim + 2 * np.arange(j.size)
        out[sym, j, k] = out[sym, k, j] = inv
        out[sym + 1, j, k] = -1j * inv
        out[sym + 1, k, j] = 1j * inv
        out.flags.writeable = False
        if dim > BASIS_CACHE_MAX_DIM:
            return out
        _basis_cache[dim] = out
    return _basis_cache[dim]


# ---------------------------------------------------------------------------
# Standard channels
# ---------------------------------------------------------------------------


def dephaser(dim: int, basis=None) -> DestructionChannel:
    """Pinching onto a distinguished orthonormal basis (coherence)."""
    u = np.eye(dim, dtype=complex) if basis is None else _check_basis(basis, dim)
    one = np.array([[1.0]], dtype=complex)
    return DestructionChannel(dim, u, tuple(Block(1, 1, one) for _ in range(dim)))


def replacer(gamma) -> DestructionChannel:
    """rho -> tr[rho] gamma for a full-rank target state (athermality)."""
    g = check_density(gamma)
    d = g.shape[0]
    return DestructionChannel(d, np.eye(d, dtype=complex), (Block(d, 1, g),))


def depolarizer(dim: int) -> DestructionChannel:
    """rho -> tr[rho] I/dim (nonuniformity)."""
    return replacer(np.eye(dim) / dim)


def cond_depolarizer(d_a: int, d_b: int) -> DestructionChannel:
    """rho -> u^A (x) rho^B (conditional nonuniformity)."""
    d = d_a * d_b
    return DestructionChannel(
        d, np.eye(d, dtype=complex), (Block(d_a, d_b, np.eye(d_a) / d_a),)
    )


def cond_replacer(gamma_a, d_b: int) -> DestructionChannel:
    """rho -> gamma^A (x) rho^B (conditional athermality)."""
    g = check_density(gamma_a)
    d = g.shape[0] * d_b
    return DestructionChannel(d, np.eye(d, dtype=complex), (Block(g.shape[0], d_b, g),))


def tpce(shape, basis=None) -> DestructionChannel:
    """Trace-preserving conditional expectation with block shape [(d_A, d_B), ...]."""
    blocks = tuple(Block(da, db, np.eye(da) / da) for da, db in shape)
    dim = sum(b.dim for b in blocks)
    u = np.eye(dim, dtype=complex) if basis is None else basis
    return DestructionChannel(dim, u, blocks)


def standard_channel(kind: str, **params) -> DestructionChannel:
    """Dispatch the named constructions above (used by the JSON loaders)."""
    kinds = {
        "dephaser": lambda: dephaser(int(params["dim"]), params.get("basis")),
        "replacer": lambda: replacer(params["gamma"]),
        "depolarizer": lambda: depolarizer(int(params["dim"])),
        "cond_depolarizer": lambda: cond_depolarizer(
            int(params["d_a"]), int(params["d_b"])
        ),
        "cond_replacer": lambda: cond_replacer(params["gamma"], int(params["d_b"])),
        "tpce": lambda: tpce(params["shape"], params.get("basis")),
    }
    if kind not in kinds:
        raise ValidationError(f"unknown channel kind {kind!r}")
    try:
        return kinds[kind]()
    except KeyError as exc:
        raise ValidationError(f"channel kind {kind!r} missing parameter {exc}") from exc


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def tensor_channels(a: DestructionChannel, b: DestructionChannel) -> DestructionChannel:
    """Delta^{AB} = Delta^A (x) Delta^B with the pairwise tensor block structure.

    The raw tensor of the two block bases interleaves factors as
    ``A_i (x) B_i (x) A_j (x) B_j``; a permutation regroups each pair into
    ``(A_i A_j) (x) (B_i B_j)`` and makes the composite blocks contiguous.
    """
    starts = [np.cumsum([0] + [blk.dim for blk in c.blocks]) for c in (a, b)]
    blocks, perm = [], []
    for (sa, ba), (sb, bb) in product(zip(starts[0], a.blocks), zip(starts[1], b.blocks)):
        blocks.append(Block(ba.d_a * bb.d_a, ba.d_b * bb.d_b, np.kron(ba.tau, bb.tau)))
        # The composite block runs over (x_A, x_B, y_A, y_B) in C order, which
        # is (A_i A_j) (x) (B_i B_j); its entry is the raw tensor's column of
        # a's (x_A, y_A) in block i and b's (x_B, y_B) in block j.
        xa, xb, ya, yb = np.indices((ba.d_a, bb.d_a, ba.d_b, bb.d_b)).reshape(4, -1)
        perm.append((sa + xa * ba.d_b + ya) * b.dim + sb + xb * bb.d_b + yb)
    # Column `new` of the composite basis is column perm[new] of the raw tensor.
    u = np.kron(a.basis, b.basis)[:, np.concatenate(perm)]
    return DestructionChannel(a.dim * b.dim, u, tuple(blocks))


# ---------------------------------------------------------------------------
# Free states
# ---------------------------------------------------------------------------


def free_state(channel: DestructionChannel, weights, betas) -> np.ndarray:
    """Assemble (+) p_i tau_i (x) beta_i in the original frame."""
    p = np.asarray(weights, dtype=float)
    if p.shape != (len(channel.blocks),):
        raise ValidationError("one weight per block required")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must lie on the probability simplex")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    parts = [
        p[list(g.members), None, None, None, None]
        * _kron(g.taus, np.stack([check_density(betas[k], g.d_b) for k in g.members]))
        for g in channel._groups
    ]
    return channel.from_block_frame(channel._scatter(parts))


def free_parameter_count(channel: DestructionChannel) -> int:
    """Scalar parameters of the free-state family."""
    return (len(channel.blocks) - 1) + sum(b.d_b**2 - 1 for b in channel.blocks)


def _simplex_grid(k: int, resolution: int) -> list[np.ndarray]:
    if k == 1:
        return [np.array([1.0])]
    steps = max(resolution - 1, 1)

    def rec(parts_left, remaining):
        if parts_left == 1:
            yield [remaining]
            return
        for s in range(remaining + 1):
            for rest in rec(parts_left - 1, remaining - s):
                yield [s] + rest

    return [np.array(c, dtype=float) / steps for c in rec(k, steps)]


def _qubit_state_grid(resolution: int) -> list[np.ndarray]:
    """Bloch-ball grid including the center and the pure-state boundary."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = [eye / 2]
    n_r = max(2, resolution // 4)
    n_th = max(3, resolution // 2)
    n_ph = max(4, resolution // 2)
    for r in np.linspace(0.0, 1.0, n_r)[1:]:
        for th in np.linspace(0.0, np.pi, n_th):
            for ph in np.linspace(0.0, 2 * np.pi, n_ph, endpoint=False):
                v = r * np.array(
                    [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
                )
                out.append(herm((eye + v[0] * sx + v[1] * sy + v[2] * sz) / 2))
    return out


def _state_grid(dim: int, resolution: int, rng) -> list[np.ndarray]:
    if dim == 1:
        return [np.array([[1.0 + 0j]])]
    if dim == 2:
        return _qubit_state_grid(resolution)
    # Higher-dimensional B factors: eigenbasis grid plus seeded random states.
    # The family is too big for an exhaustive grid; this hybrid is a
    # documented pragmatic choice.
    from .sampling import random_density

    r = rng_from(rng)
    out = [np.eye(dim, dtype=complex) / dim]
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        out.append(e)
    for _ in range(max(resolution**2, 16)):
        out.append(random_density(dim, r))
    return out


def enumerate_free_grid(
    channel: DestructionChannel, resolution: int = 21, seed=0
) -> list[np.ndarray]:
    """Grid covering the free-state family.

    Weights run over a simplex grid; each B factor runs over a Bloch-type
    grid for qubits (exact coverage up to resolution) and a grid/random
    hybrid for larger factors.
    """
    r = rng_from(seed)
    per_block = [_state_grid(b.d_b, resolution, r) for b in channel.blocks]
    out = []
    for p in _simplex_grid(len(channel.blocks), resolution):
        for combo in product(*per_block):
            out.append(free_state(channel, p, list(combo)))
    return out


def random_free_state(channel: DestructionChannel, rng) -> np.ndarray:
    from .sampling import random_density

    r = rng_from(rng)
    k = len(channel.blocks)
    p = r.dirichlet(np.ones(k)) if k > 1 else np.array([1.0])
    betas = [random_density(b.d_b, r) for b in channel.blocks]
    return free_state(channel, p, betas)


def random_free_unitary(channel: DestructionChannel, seed) -> np.ndarray:
    """Unitary commuting with the channel: U = (+) u_i (x) v_i, [u_i, tau_i] = 0."""
    r = rng_from(seed)
    parts = []
    for b in channel.blocks:
        w, v = np.linalg.eigh(b.tau)
        u = np.zeros((b.d_a, b.d_a), dtype=complex)
        # Haar unitary on each (nearly) degenerate eigenspace of tau keeps
        # u tau u^dag = tau exactly within tolerance.
        start = 0
        for k in range(1, b.d_a + 1):
            if k == b.d_a or w[k] - w[start] > 1e-9 * max(w[-1], 1e-300):
                blockdim = k - start
                u_sub = random_unitary(blockdim, r)
                vs = v[:, start:k]
                u += vs @ u_sub @ vs.conj().T
                start = k
        parts.append(np.kron(u, random_unitary(b.d_b, r)))
    stacks = [np.stack([parts[k] for k in g.members]) for g in channel._groups]
    return channel.from_block_frame(channel._scatter(stacks))


# ---------------------------------------------------------------------------
# Common reference states
# ---------------------------------------------------------------------------


def basis_state(dim: int, k: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[k, k] = 1.0
    return e


def plus_state(dim: int) -> np.ndarray:
    """The fully coherent state |+><+| with |+> = sum_x |x>/sqrt(dim)."""
    v = np.ones(dim, dtype=complex) / np.sqrt(dim)
    return np.outer(v, v.conj())


def maximally_entangled_state(d: int) -> np.ndarray:
    """|Phi><Phi| with |Phi> = sum_x |xx>/sqrt(d) on a d*d composite."""
    v = np.zeros(d * d, dtype=complex)
    for x in range(d):
        v[x * d + x] = 1.0
    v /= np.sqrt(d)
    return np.outer(v, v.conj())
