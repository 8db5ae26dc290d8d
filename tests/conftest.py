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
