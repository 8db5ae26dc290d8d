"""Reference computations for the benchmark's output checks.

Everything here is plain numpy and imports nothing from ``instability``:
channels are described by the benchmark's own ``ChannelSpec`` (basis plus
blocks), and every divergence is evaluated from its definition, so a fault
in the library cannot cancel against the same fault in its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-13


def herm(a):
    return (a + a.conj().T) / 2


def psd_pow(p, r):
    """Power of a PSD matrix on its support (eigenvalues below the rank cut map to 0)."""
    w, v = np.linalg.eigh(herm(p))
    live = w > p.shape[0] * RANK_RTOL * max(abs(w[-1]), 1e-300)
    pw = np.zeros_like(w)
    pw[live] = w[live] ** r
    return herm((v * pw) @ v.conj().T)


def kron_all(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class ChannelSpec:
    """Delta(X) = U [ (+)_i tau_i (x) tr_A(X_i) ] U^dag with X_i the i-th block of U^dag X U."""

    blocks: tuple  # ((d_a, d_b, tau), ...)
    basis: np.ndarray | None = None

    @property
    def dim(self):
        return sum(da * db for da, db, _ in self.blocks)

    def _frames(self, x):
        u = np.eye(self.dim) if self.basis is None else self.basis
        return u, u.conj().T @ x @ u

    def apply(self, x):
        u, xb = self._frames(x)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        off = 0
        for da, db, tau in self.blocks:
            n = da * db
            blk = xb[off:off + n, off:off + n].reshape(da, db, da, db)
            out[off:off + n, off:off + n] = np.kron(tau, np.trace(blk, axis1=0, axis2=2))
            off += n
        return herm(u @ out @ u.conj().T)

    def apply_dual(self, y):
        u, yb = self._frames(y)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        off = 0
        for da, db, tau in self.blocks:
            n = da * db
            blk = yb[off:off + n, off:off + n].reshape(da, db, da, db)
            red = np.einsum("ea,abed->bd", tau, blk)
            out[off:off + n, off:off + n] = np.kron(np.eye(da), red)
            off += n
        return herm(u @ out @ u.conj().T)


def dephaser_spec(d, basis=None):
    return ChannelSpec(tuple((1, 1, np.eye(1)) for _ in range(d)), basis)


def replacer_spec(gamma):
    return ChannelSpec(((gamma.shape[0], 1, gamma),))


def tpce_spec(shape):
    return ChannelSpec(tuple((da, db, np.eye(da) / da) for da, db in shape))


def cond_replacer_spec(gamma, d_b):
    return ChannelSpec(((gamma.shape[0], d_b, gamma),))


def cond_depolarizer_spec(d_a, d_b):
    return ChannelSpec(((d_a, d_b, np.eye(d_a) / d_a),))


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(herm(a - b))).sum())


def in_dpi_region(alpha, z):
    """The (alpha, z) region where the alpha-z divergence obeys data processing."""
    if alpha < 1:
        return z >= max(alpha, 1 - alpha)
    return max(alpha / 2, alpha - 1) <= z <= alpha


# ---------------------------------------------------------------------------
# Divergences (bits), from their definitions
# ---------------------------------------------------------------------------


def d_max(rho, s):
    """log2 of the largest eigenvalue of S^{-1/2} rho S^{-1/2} (S full rank here)."""
    inv_half = psd_pow(s, -0.5)
    return float(np.log2(np.linalg.eigvalsh(herm(inv_half @ rho @ inv_half))[-1]))


def d_alpha_z(rho, s, alpha, z):
    half = psd_pow(rho, alpha / (2 * z))
    core = herm(half @ psd_pow(s, (1 - alpha) / z) @ half)
    q = float(np.sum(np.clip(np.linalg.eigvalsh(core), 0, None) ** z))
    return float(np.log2(q) / (alpha - 1))


def umegaki(rho, s):
    """tr rho (log rho - log S) / ln 2, for S with full support."""
    w_r = np.linalg.eigvalsh(rho)
    w_r = w_r[w_r > rho.shape[0] * RANK_RTOL * w_r[-1]]
    w_s, v_s = np.linalg.eigh(s)
    log_s = (v_s * np.log(w_s)) @ v_s.conj().T
    return float((np.sum(w_r * np.log(w_r)) - np.trace(rho @ log_s).real) / np.log(2))


def d_min_free(rho, spec):
    """-log2 ||Delta^*(rho^0)||_inf."""
    return -float(np.log2(np.linalg.eigvalsh(spec.apply_dual(psd_pow(rho, 0.0)))[-1]))


def d_hypothesis(rho, sigma, eps):
    """D_H^eps(rho || sigma) = -log2 beta from the Lagrange dual of the optimal test.

    beta = max over t >= 0 of t (1 - eps) - tr (t rho - sigma)_+; the dual
    function is concave with slope (1 - eps) - tr[rho P_+(t)], so t is
    bracketed by doubling and bisected on the sign of the slope.  The dual
    value at the bisected t is then a lower bound on beta that is exact to
    second order in the residual bracket width.
    """
    target = 1.0 - eps

    def dual(t):
        w, v = np.linalg.eigh(herm(t * rho - sigma))
        vp = v[:, w > 0]
        passed = float(np.trace(vp.conj().T @ rho @ vp).real)
        return t * target - float(np.sum(w[w > 0])), passed

    lo, hi = 0.0, 1.0
    while dual(hi)[1] < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dual(mid)[1] >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    beta = max(dual(lo)[0], dual(hi)[0])
    return -float(np.log2(beta))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def qubit_dephaser_yield(rho, eps):
    """-log2 c for the restricted test on a qubit under the computational dephaser."""
    coh = 2.0 * abs(rho[0, 1])
    c = (1.0 - eps) / (1.0 + coh)
    if c > 0.5:
        c = (1.0 - eps - coh) / (1.0 - coh)
    return -float(np.log2(c))


def pure_coherence_dmax(psi):
    """Max-relative entropy of coherence of |psi>: 2 log2 sum_i |psi_i|."""
    return 2.0 * float(np.log2(np.sum(np.abs(psi))))
