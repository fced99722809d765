"""Property tests: identities that hold at random points off the fixed grids."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from olim41 import quantum_invariants as qi
from olim41.quantum_invariants import (
    RootOfUnityContext,
    formula_discrepancy,
    wrt_direct,
    wrt_double_sum,
)


# N >= 65 lies off the acceptance grid. There 9 to 13 digits of the sum
# cancel, more than a float64 sum could lose within the budget.
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


# Round 1 claims the noise floor abs_sum * N * 2^-104; a 60-digit replay
# of the same sum is exact on that scale. At (22, 44) and (60, 120) a
# direct sum that carries its colored Jones product from term to term errs
# by 2.1e-15 and 3.3e-15 per unit of abs_sum, and at (3, 1) a float64 sum
# of the terms errs by 2.2e-16 against a floor of 8.9e-31.
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(N=st.integers(3, 96), p=st.integers(-40, 40))
@example(N=3, p=1)
@example(N=22, p=44)
@example(N=60, p=120)
def test_double_double_round_meets_its_floor(N, p):
    routes = [(qi._double_sum_f64, qi._double_sum_mp)]
    if p >= 1:
        routes.append((qi._direct_sum_f64, qi._direct_sum_mp))
    ctx = RootOfUnityContext(N)
    for round_one, replay in routes:
        value, abs_sum = round_one(ctx, p)
        floor = abs_sum * N * qi._DD_NOISE_PER_UNIT
        assert abs(value - replay(N, p, 60)) <= floor, (N, p, round_one.__name__)
