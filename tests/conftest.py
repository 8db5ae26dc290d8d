import dataclasses

import numpy as np
import pytest

from instability import channels as ch
from instability import tasks as tk
from instability.sampling import random_full_rank_density


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_channel(d, rng, kinds=("dephaser", "replacer", "tpce")):
    """Random destruction channel of dimension d, well conditioned."""
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "dephaser":
        return ch.dephaser(d)
    if kind == "replacer":
        return ch.replacer(random_full_rank_density(d, rng, 0.3))
    if kind == "tpce" and d >= 3:
        return ch.tpce([(1, d - 1), (1, 1)])
    if kind == "cond_depolarizer" and d % 2 == 0:
        return ch.cond_depolarizer(2, d // 2)
    return ch.dephaser(d)


@pytest.fixture
def channel_factory():
    return random_channel


def raised_lower_bound(eps, shift=1e-3):
    """tasks.dmax_smoothed_free with its value at `eps` raised by `shift`."""
    real = tk.dmax_smoothed_free

    def patched(rho, channel, e, **kw):
        res = real(rho, channel, e, **kw)
        return dataclasses.replace(res, value=res.value + shift) if e == eps else res

    return patched
