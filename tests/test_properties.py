"""Property tests: identities that hold at random points off the fixed grids."""

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_quantum import (
    full_mp_tables,
    loop_direct_sum,
    loop_double_sum,
    unreduced,
)

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


# Round 1 claims the noise floor _noise_floor(abs_sum, N, _ROUND_ONE_DPS),
# derived in its docstring. The oracle is the step-by-step loops of
# test_quantum at 60 digits, which share no code with the fixed-point sum
# and whose own error is far below that floor. At (22, 44) and (60, 120) a
# direct sum that carries its colored Jones product from term to term errs
# by 2.1e-15 and 3.3e-15 per unit of abs_sum; at (3, 1) a float64 sum of
# the terms errs by 2.2e-16. At N = 500 the tables span more than 200 bits.
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(N=st.integers(3, 96), p=st.integers(-40, 40))
@example(N=3, p=1)
@example(N=22, p=44)
@example(N=60, p=120)
@example(N=500, p=6)
def test_round_one_meets_its_floor(N, p):
    with mp.workdps(60):
        t, zeta, y = full_mp_tables(N, 60)
        exact = [(qi._double_sum_f64, loop_double_sum(N, p, y, zeta, unreduced))]
        if p >= 1:
            exact.append((qi._direct_sum_f64,
                          loop_direct_sum(N, p, t, zeta, unreduced) / t[1] ** 2))
    ctx = RootOfUnityContext(N)
    for round_one, value in exact:
        rounded, abs_sum = round_one(ctx, p)
        floor = qi._noise_floor(abs_sum, N, qi._ROUND_ONE_DPS)
        assert abs(rounded - complex(value)) <= floor, \
            (N, p, round_one.__name__)
