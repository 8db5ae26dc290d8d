"""Dense complex Hermitian linear algebra used everywhere else.

Conventions fixed here and inherited by every other module:

* matrices are ``numpy.ndarray`` of complex128, row-major;
* tensor products put the *left* factor in the most significant index
  position (``numpy.kron`` order);
* eigenvalues of a PSD operator below ``rank_tol = dim * 1e-13 * lambda_max``
  are treated as exact zeros for support decisions, and negative powers are
  taken on the support (pseudo-inverse convention);
* all logarithms elsewhere in the package are base 2.

Every tolerance on a matrix norm is a spectral-norm test
``||D||_2 <= t max(1, ||M||_2)`` (or ``||D||_2 <= t`` with no scale), as
in ``check_hermitian`` (D = M - M^dagger), the unitarity test of a channel
basis and the scalar-dual test of ``tasks.compose_effect``.  It is decided
by ``within_spectral_tolerance`` from the Frobenius norms first, by
``||X||_2 <= ||X||_F <= sqrt(d) ||X||_2``: it accepts when
``||D||_F <= t max(1, ||M||_F / sqrt(d))``, rejects when
``||D||_F / sqrt(d) > t max(1, ||M||_F)``, and takes the two spectral norms
(SVDs) only in the band between, or when a Frobenius norm overflows (entries
past about 1e154), so every decision is the spectral rule's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-12
DENSITY_TOL = 1e-10
EFFECT_TOL = 1e-10
RANK_RTOL = 1e-13
# Relative margin on the two Frobenius bounds, far above the rounding of
# either norm, so a test within rounding of a bound takes the spectral norms.
FROBENIUS_MARGIN = 1e-8


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger) / 2, of one matrix or of each member of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def as_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, optionally checking the dimension."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValidationError(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    return m


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def within_spectral_tolerance(diff: np.ndarray, tol: float, scale=None) -> bool:
    """Whether ``||diff||_2 <= tol max(1, ||scale||_2)`` (``<= tol`` when
    `scale` is None) for a square `diff`, from Frobenius norms where they
    settle it and from spectral norms only in the band between the bounds
    or when a Frobenius norm overflows (see the module docstring)."""
    root = np.sqrt(max(diff.shape[-1], 1))
    with np.errstate(over="ignore"):  # an unscaled Frobenius norm overflows past ~1e154
        f = float(np.linalg.norm(diff))
        s = 0.0 if scale is None else float(np.linalg.norm(scale))
    if math.isfinite(f + s):
        if f <= tol * max(1.0, s / root) * (1.0 - FROBENIUS_MARGIN):
            return True
        if f / root > tol * max(1.0, s) * (1.0 + FROBENIUS_MARGIN):
            return False
    bound = tol if scale is None else tol * max(1.0, spectral_norm(scale))
    return spectral_norm(diff) <= bound


def check_hermitian(h, dim: int | None = None, *, what: str = "operator") -> np.ndarray:
    """Validate `h` is Hermitian within tolerance; return the Hermitian part.

    An exactly Hermitian input (every ``herm`` output is one) passes the
    tolerance test and equals its Hermitian part, so it is returned as a
    copy without a norm.
    """
    m = as_matrix(h, dim)
    if np.array_equal(m, m.conj().T):
        return m.copy() if m is h else m
    if not within_spectral_tolerance(m - m.conj().T, HERMITICITY_RTOL, m):
        raise ValidationError(f"{what} is not Hermitian within tolerance")
    return herm(m)


def check_density(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD and unit trace within 1e-10."""
    m = check_hermitian(rho, dim, what="state")
    w = np.linalg.eigvalsh(m)
    check_psd_spectrum(w[0], w[-1], what="state")
    _check_state_trace(m)
    return m


def density_eigh(rho, dim: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``check_density`` by one eigh: the validated state with the ascending
    eigenvalues and eigenvectors its test read."""
    m, w, v = psd_eigh(rho, dim, what="state")
    _check_state_trace(m)
    return m, w, v


def _check_state_trace(m: np.ndarray) -> None:
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValidationError(f"state trace {tr} differs from 1 beyond tolerance")


def check_psd(p, dim: int | None = None, *, what: str = "operator") -> np.ndarray:
    m = check_hermitian(p, dim, what=what)
    w = np.linalg.eigvalsh(m)
    check_psd_spectrum(w[0], w[-1], what=what)
    return m


def psd_eigh(p, dim: int | None = None, *, what: str = "operator"):
    """``check_psd`` by one eigh: the validated operator with the ascending
    eigenvalues and eigenvectors its test read."""
    m = check_hermitian(p, dim, what=what)
    w, v = np.linalg.eigh(m)
    if m.shape[0]:
        check_psd_spectrum(w[0], w[-1], what=what)
    return m, w, v


def check_psd_spectrum(lo: float, hi: float, *, what: str = "operator") -> None:
    """The PSD test of ``check_psd`` on the smallest and largest eigenvalue
    of a decomposition already at hand."""
    if lo < -DENSITY_TOL * max(abs(lo), abs(hi), 1e-300):
        raise ValidationError(f"{what} has negative eigenvalue {lo:.3e}")


def check_effect(gamma, dim: int | None = None) -> np.ndarray:
    """Validate an effect: Hermitian with eigenvalues in [-1e-10, 1+1e-10]."""
    m = check_hermitian(gamma, dim, what="effect")
    w = np.linalg.eigvalsh(m)
    if w[0] < -EFFECT_TOL or w[-1] > 1.0 + EFFECT_TOL:
        raise ValidationError(
            f"effect eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] escape [0, 1]"
        )
    return m


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns ascending eigenvalues and a unitary whose columns are the
    eigenvectors, so that ``H = V @ diag(w) @ V.conj().T``.
    """
    m = check_hermitian(h)
    w, v = np.linalg.eigh(m)
    return w, v


def rank_tol(dim: int, lambda_max: float) -> float:
    """Threshold below which PSD eigenvalues count as zero."""
    return dim * RANK_RTOL * abs(lambda_max)


def mat_pow(p: np.ndarray, r: float) -> np.ndarray:
    """Fractional power of a PSD operator with the support convention.

    Eigenvalues below ``rank_tol`` map to zero for every exponent, so
    negative powers act as pseudo-inverses on the support and ``r = 0``
    yields the support projector.
    """
    _, w, v = psd_eigh(p, what="mat_pow argument")
    return pow_from_eigh(w, v, r)


def pow_from_eigh(w: np.ndarray, v: np.ndarray, r: float, cut=None) -> np.ndarray:
    """``mat_pow`` from a trusted eigendecomposition ``(w, v)`` of a PSD operator.

    Works on stacks (``w`` of shape (..., n), ``v`` of shape (..., n, n)),
    with the rank cut taken per matrix unless ``cut`` gives one for all of
    them (for the blocks of one block-diagonal operator); no validation.
    """
    if cut is None:
        cut = w.shape[-1] * RANK_RTOL * np.abs(w[..., -1:])  # rank_tol, per matrix
    pw = np.zeros_like(w)
    live = w > cut
    pw[live] = w[live] ** float(r)
    return herm((v * pw[..., None, :]) @ v.conj().swapaxes(-1, -2))


def support_projector(p: np.ndarray) -> np.ndarray:
    """Projector onto the support of a PSD operator."""
    return mat_pow(p, 0.0)


def schatten_norm(x: np.ndarray, p: float) -> float:
    """Schatten p-(quasi) norm for p in [1/2, inf]."""
    if not (p >= 0.5):
        raise ValidationError(f"Schatten order p={p} outside [1/2, inf]")
    m = check_hermitian(x, what="schatten_norm argument")
    s = np.abs(np.linalg.eigvalsh(m))
    if np.isinf(p):
        return float(s.max(initial=0.0))
    return float(np.sum(s**p) ** (1.0 / p))


def trace_norm(x: np.ndarray) -> float:
    return schatten_norm(x, 1.0)


def tensor_product(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor is the most significant index."""
    if not ops:
        raise ValidationError("tensor_product needs at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(x: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    `dims` lists the local dimensions in tensor order (left = most
    significant); `keep` is an iterable of factor indices to retain, in
    their original relative order.
    """
    m = as_matrix(x)
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise ValidationError(
            f"factor dimensions {dims} inconsistent with matrix size {m.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    # Trace the discarded factors pairwise, starting from the highest axis so
    # earlier axis numbers stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + (t.ndim // 2))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def trace_distance(rho: np.ndarray, tau: np.ndarray) -> float:
    """(1/2) ||rho - tau||_1 for equal-dimension states."""
    a = as_matrix(rho)
    b = as_matrix(tau, a.shape[0])
    return 0.5 * trace_norm(a - b)
