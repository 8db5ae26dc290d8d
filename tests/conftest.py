import os

# Before numpy is first imported: one BLAS thread, as CI and bench/run.py
# run, unless the environment already names a count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from instability import linalg as la  # noqa: E402
from instability import tasks as tk  # noqa: E402
from instability.verification import random_channel  # noqa: E402, F401  (shared sampler)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the calls to numpy's eigh, eigvalsh and svd and to
    linalg.spectral_norm (which runs an SVD inside numpy) made while the
    test runs, by name; set the counts back to 0 to count afresh."""
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "spectral_norm": 0}

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("eigh", "eigvalsh", "svd"):
        spy(np.linalg, name)
    spy(la, "spectral_norm")
    return calls


def raised_lower_bound(eps, shift=1e-3):
    """tasks.dmax_smoothed_free with its value at `eps` raised by `shift`."""
    real = tk.dmax_smoothed_free

    def patched(rho, channel, e, **kw):
        res = real(rho, channel, e, **kw)
        return dataclasses.replace(res, value=res.value + shift) if e == eps else res

    return patched


def place_blocks(channel, parts):
    """The block-frame operator with parts[i] on block i (None for zero) and
    zero off the blocks, placed one block at a time."""
    out = np.zeros((channel.dim, channel.dim), dtype=complex)
    start = 0
    for b, part in zip(channel.blocks, parts):
        if part is not None:
            out[start : start + b.dim, start : start + b.dim] = part
        start += b.dim
    return out


def block_dual_reduction(channel, yb, i):
    """tr_A[(tau_i (x) I) Y_i] for block i of ``yb`` in the block frame, of
    one matrix or of each member of a stack."""
    b = channel.blocks[i]
    start = sum(c.dim for c in channel.blocks[:i])
    m = yb[..., start : start + b.dim, start : start + b.dim]
    m = m.reshape(*yb.shape[:-2], b.d_a, b.d_b, b.d_a, b.d_b)
    return np.einsum("ae,...ebad->...bd", b.tau, m)
