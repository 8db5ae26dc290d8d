import dataclasses

import numpy as np
import pytest

from instability import tasks as tk
from instability.verification import random_channel  # noqa: F401  (shared sampler)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
