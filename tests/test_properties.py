"""Property tests: identities that hold at random points off the fixed grids."""

from hypothesis import given, settings
from hypothesis import strategies as st

from olim41 import _kernels
from olim41 import quantum_invariants as qi
from olim41.quantum_invariants import (
    RootOfUnityContext,
    formula_discrepancy,
    wrt_direct,
    wrt_double_sum,
)


# N >= 65 lies off the acceptance grid, and the f64 pass there always
# misses the budget, so every evaluation runs the double-double round.
@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(N=st.integers(65, 96), p=st.integers(1, 40))
def test_routes_agree_off_grid(N, p):
    ctx = RootOfUnityContext(N)
    direct = wrt_direct(ctx, p)
    double = wrt_double_sum(ctx, p)
    if direct == 0 or double == 0:
        assert direct == double == 0
    else:
        assert formula_discrepancy(direct, double) < 1e-9


# The double-double round claims the noise floor abs_sum * N * 2^-104;
# a 60-digit replay of the same sum is exact on that scale.
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(N=st.integers(3, 96), p=st.integers(-40, 40))
def test_double_double_round_meets_its_floor(N, p):
    routes = [(_kernels.double_sum, qi._double_sum_dd, qi._double_sum_mp)]
    if p >= 1:
        routes.append((_kernels.direct_sum, qi._direct_sum_dd, qi._direct_sum_mp))
    for f64, dd, replay in routes:
        _, abs_sum = f64(N, p)
        floor = abs_sum * N * qi._DD_NOISE_PER_UNIT
        assert abs(dd(N, p) - replay(N, p, 60)) <= floor, (N, p, dd.__name__)
