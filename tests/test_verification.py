"""The property checks of `instability verify`, at the seed `verify --seed 0` uses."""

import pytest

from instability.verification import ALL_CHECKS, run_checks


@pytest.mark.parametrize("name", list(ALL_CHECKS))
def test_check_passes(name):
    (result,) = run_checks(0, [name])
    assert result.passed, (
        f"{result.name}: worst {result.worst:.3e} above tolerance {result.tolerance:.0e}"
    )
