"""Fixtures shared by the test modules."""

import math

import pytest


@pytest.fixture(scope="session")
def clausen_pi3_series():
    """Cl2(pi/3) from its sine series, coded independently of specfun.

    Cl2(pi/3) = (sqrt(3)/2) sum_k [(6k+1)^-2 + (6k+2)^-2 - (6k+4)^-2
    - (6k+5)^-2]; the bracket decays like k^-3, so the tail after the
    400,000 blocks summed here is about 2e-13. numpy is imported here, not
    at module level, so the q-series tests run without it.
    """
    import numpy as np

    a = 6.0 * np.arange(400_000, dtype=np.float64)
    s = 1 / (a + 1) ** 2 + 1 / (a + 2) ** 2 - 1 / (a + 4) ** 2 - 1 / (a + 5) ** 2
    return math.sqrt(3.0) / 2.0 * float(np.sum(s))
