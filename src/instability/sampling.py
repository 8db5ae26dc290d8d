"""Seeded random generators for states, effects and unitaries.

Used by the verification suites and the test oracles; all draws go through
``numpy.random.Generator`` so results are reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import herm


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(dim: int, rng) -> np.ndarray:
    r = rng_from(rng)
    g = r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
    return herm(g)


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    r = rng_from(rng)
    g = r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def random_density(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt-ish random state from a Ginibre factor."""
    r = rng_from(rng)
    k = dim if rank is None else max(1, min(rank, dim))
    g = r.normal(size=(dim, k)) + 1j * r.normal(size=(dim, k))
    m = g @ g.conj().T
    return herm(m / np.trace(m).real)


def random_pure(dim: int, rng) -> np.ndarray:
    r = rng_from(rng)
    v = r.normal(size=dim) + 1j * r.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_effect(dim: int, rng) -> np.ndarray:
    """Random effect with eigenvalues uniform in [0, 1]."""
    r = rng_from(rng)
    u = random_unitary(dim, r)
    w = r.uniform(0.0, 1.0, size=dim)
    return herm((u * w) @ u.conj().T)


def random_full_rank_density(dim: int, rng, floor: float = 0.05) -> np.ndarray:
    """Random state mixed with the uniform state to keep it well conditioned."""
    rho = random_density(dim, rng)
    return herm((1.0 - floor) * rho + floor * np.eye(dim) / dim)
