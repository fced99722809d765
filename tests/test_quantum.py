"""Quantum invariant tests: context algebra, colored Jones, dual tau routes.

tau_5(M_1) is pinned from a 50-digit fixed-order replay of the direct sum;
everything else rests on exact identities (color symmetry, the J_N
positivity identity, the Pochhammer magnitude product), on the agreement
of the two independent evaluation routes, and on the replay and the zero
certificate evaluating one element of Z[zeta_{4N}]: the one that the
step-by-step statement of each sum, kept here as the oracle, gives.
"""

import cmath
import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest

from olim41 import _kernels, cli
from olim41 import quantum_invariants as qi
from olim41.errors import (
    DomainError,
    PrecisionExhaustedError,
    UnsupportedFramingError,
)
from olim41.quantum_invariants import (
    RootOfUnityContext,
    colored_jones_fig8,
    formula_discrepancy,
    growth_profile,
    quantum_integer,
    wrt_direct,
    wrt_double_sum,
)

TAU_5_P1 = complex(-1.9270509831248422723, -0.95105651629515357211644)


class TestContext:
    def test_validation(self):
        with pytest.raises(DomainError):
            RootOfUnityContext(2)
        with pytest.raises(DomainError):
            RootOfUnityContext(5.0)
        with pytest.raises(DomainError):
            RootOfUnityContext(True)

    def test_q_is_primitive_root(self):
        ctx = RootOfUnityContext(12)
        assert abs(ctx.q ** 12 - 1) < 1e-14
        assert abs(ctx.q - cmath.exp(2j * math.pi / 12)) == 0.0

    def test_q_power_additivity(self):
        ctx = RootOfUnityContext(7)
        rng = random.Random(43)
        for _ in range(200):
            x = rng.uniform(-50, 50)
            y = rng.uniform(-50, 50)
            assert abs(ctx.q_power(x + y) - ctx.q_power(x) * ctx.q_power(y)) < 1e-14

    def test_q_power_reduces_large_exponents(self):
        ctx = RootOfUnityContext(9)
        assert abs(ctx.q_power(4 * 9 + 0.25) - ctx.q_power(0.25)) < 1e-14
        assert abs(ctx.q_power(9) - 1) < 1e-15

    def test_q_power_reduces_int_and_fraction_exponents_exactly(self):
        # past 2^53 float(x) is not x: 2^60 + 1 = 2 and 7 * 10^17 + 1 = 1
        # (mod 7) give q^2 and q, and 10^400 has no float at all
        ctx = RootOfUnityContext(7)
        assert ctx.q_power(2 ** 60 + 1) == ctx.q_power(2)
        assert ctx.q_power(7 * 10 ** 17 + 1) == ctx.q_power(1)
        assert ctx.q_power(-(7 * 10 ** 17 + 1)) == ctx.q_power(-1)
        assert ctx.q_power(10 ** 400) == ctx.q_power(10 ** 400 % 7)
        assert ctx.q_power(Fraction(10 ** 400 + 1, 4)) == \
            ctx.q_power(Fraction(10 ** 400 % 28 + 1, 4))
        # 2^59 = 4 (mod 7), so -(2^60 + 3)/2 = -5.5 (mod 7), sign kept
        assert ctx.q_power(Fraction(-(2 ** 60) - 3, 2)) == ctx.q_power(-5.5)

    def test_q_power_keeps_the_bits_of_small_exponents(self):
        # an exact exponent gives the bits that its float gave, signed zeros
        # included; the prefactor's q^{(3-p)/4} is one of them
        ctx = RootOfUnityContext(11)
        for x in [*range(-100, 101), *(Fraction(k, 4) for k in range(-300, 301))]:
            assert repr(ctx.q_power(x)) == repr(ctx.q_power(float(x))), x
        assert repr(ctx.q_power(-44)) == repr(cmath.exp(2j * math.pi * -0.0 / 11))


class TestQuantumInteger:
    def test_degenerate_colors_are_zero(self):
        ctx = RootOfUnityContext(8)
        assert quantum_integer(ctx, 0) == 0.0
        assert quantum_integer(ctx, 8) == 0.0

    def test_values(self):
        ctx = RootOfUnityContext(8)
        assert quantum_integer(ctx, 1) == 1.0
        assert abs(quantum_integer(ctx, 2) - 2 * math.cos(math.pi / 8)) < 1e-14

    def test_color_symmetry(self):
        ctx = RootOfUnityContext(11)
        for n in range(12):
            assert abs(quantum_integer(ctx, n) - quantum_integer(ctx, 11 - n)) < 1e-12

    def test_range_checked(self):
        ctx = RootOfUnityContext(8)
        with pytest.raises(DomainError):
            quantum_integer(ctx, -1)
        with pytest.raises(DomainError):
            quantum_integer(ctx, 9)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_color_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="color must be an integer"):
            quantum_integer(RootOfUnityContext(8), n)


class TestColoredJones:
    def test_trivial_color(self):
        ctx = RootOfUnityContext(9)
        assert colored_jones_fig8(ctx, 1) == 1 + 0j

    def test_two_dimensional_color_closed_form(self):
        # J_2 = q^2 - q + 1 - q^-1 + q^-2
        ctx = RootOfUnityContext(7)
        q = ctx.q_power
        expected = q(2) - q(1) + 1 - q(-1) + q(-2)
        assert abs(colored_jones_fig8(ctx, 2) - expected) < 1e-14

    def test_values_are_real(self):
        ctx = RootOfUnityContext(9)
        for n in range(1, 10):
            value = colored_jones_fig8(ctx, n)
            assert abs(value.imag) < 1e-12 * (1 + abs(value.real))

    def test_top_color_positivity_identity(self):
        # J_N = sum_m |(q)_m|^2, real and positive
        ctx = RootOfUnityContext(11)
        value = colored_jones_fig8(ctx, 11)
        poch = [1 + 0j]
        for k in range(1, 11):
            poch.append(poch[-1] * (1 - cmath.exp(2j * math.pi * k / 11)))
        expected = sum(abs(x) ** 2 for x in poch)
        assert value.real > 0
        assert abs(value - expected) < 1e-10 * expected

    def test_range_checked(self):
        ctx = RootOfUnityContext(9)
        with pytest.raises(DomainError):
            colored_jones_fig8(ctx, 0)
        with pytest.raises(DomainError):
            colored_jones_fig8(ctx, 10)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_color_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="color must be an integer"):
            colored_jones_fig8(RootOfUnityContext(9), n)


class TestWrt:
    def test_pinned_value(self):
        ctx = RootOfUnityContext(5)
        assert abs(wrt_direct(ctx, 1) - TAU_5_P1) < 5e-13
        assert abs(wrt_double_sum(ctx, 1) - TAU_5_P1) < 5e-13

    def test_structural_zeros(self):
        # tau_3(M_p) vanishes for p = 2, 6, 10; the zero certificate returns
        # an exact zero and the guarded discrepancy stays absolute
        ctx = RootOfUnityContext(3)
        for p in (2, 6, 10):
            direct = wrt_direct(ctx, p)
            double = wrt_double_sum(ctx, p)
            assert abs(direct) < 1e-60
            assert formula_discrepancy(direct, double) < 1e-60

    def test_dual_routes_agree_on_sample(self):
        worst = 0.0
        for N in (3, 4, 5, 8, 13, 21, 34, 55):
            ctx = RootOfUnityContext(N)
            for p in (1, 4, 7, 10):
                worst = max(worst, formula_discrepancy(wrt_direct(ctx, p),
                                                       wrt_double_sum(ctx, p)))
        assert worst < 1e-9

    def test_direct_form_needs_positive_framing(self):
        ctx = RootOfUnityContext(5)
        with pytest.raises(UnsupportedFramingError):
            wrt_direct(ctx, 0)
        with pytest.raises(UnsupportedFramingError):
            wrt_direct(ctx, -3)
        with pytest.raises(DomainError):
            wrt_direct(ctx, 1.5)

    def test_double_sum_covers_all_framings(self):
        ctx = RootOfUnityContext(7)
        for p in (0, -5, 3):
            value = wrt_double_sum(ctx, p)
            assert math.isfinite(value.real) and math.isfinite(value.imag)
            assert abs(value) > 1e-6

    def test_amphichirality_identity(self):
        # 4_1 is amphichiral, so M_{-p} is M_p with its orientation reversed;
        # the prefactor convention leaves the phase e^{i pi (1/2 + 3/N)}
        worst = 0.0
        for N in (5, 8, 12, 17, 24, 31):
            ctx = RootOfUnityContext(N)
            phase = cmath.exp(1j * math.pi * (0.5 + 3 / N))
            for p in (1, 3, 4, 5, 7, 8):
                plus = wrt_double_sum(ctx, p)
                minus = wrt_double_sum(ctx, -p)
                if plus == 0 or minus == 0:
                    assert plus == minus, f"N={N}, p={p}"
                    continue
                worst = max(worst, abs(plus / minus.conjugate() - phase))
        assert worst < 1e-12

    @pytest.mark.parametrize("route", [wrt_direct, wrt_double_sum])
    @pytest.mark.parametrize("N", [5, 30, 64])
    def test_period_4N_in_the_framing(self, route, N):
        # Both formulas depend on p only through q^{p/4}, so tau_N has
        # period 4N in p, also past 2^53 (float exponents) and 2^63 (int64).
        ctx = RootOfUnityContext(N)
        for p0 in (6, 1):
            expected = route(ctx, p0)
            for k in (1, 2 ** 60, 10 ** 30):
                value = route(ctx, p0 + 4 * N * k)
                if p0 > 3:   # 3 - p keeps its sign: the same float exponent
                    assert value == expected, (p0, k)
                else:
                    assert formula_discrepancy(value, expected) < 1e-12, (p0, k)

    def test_escalated_region_still_agrees(self):
        # N past ~52 has enough cancellation that a float64 sum would miss
        # the budget; round 1 resolves the sum
        ctx = RootOfUnityContext(60)
        d = formula_discrepancy(wrt_direct(ctx, 6), wrt_double_sum(ctx, 6))
        assert d < 1e-9

    def test_mpmath_rounds_run_past_round_one(self, monkeypatch):
        # At N = 200 about 28 digits cancel: with the 12-digit budget that
        # is more than round 1's 40-digit tables resolve, so each route
        # needs a replay, at a precision picked past round 1's.
        calls = []
        for name in ("_direct_sum_mp", "_double_sum_mp"):
            replay = getattr(qi, name)
            monkeypatch.setattr(
                qi, name, lambda N, p, dps, replay=replay:
                calls.append(dps) or replay(N, p, dps))
        ctx = RootOfUnityContext(200)
        d = formula_discrepancy(wrt_direct(ctx, 6), wrt_double_sum(ctx, 6))
        assert len(calls) >= 2 and min(calls) > qi._ROUND_ONE_DPS
        assert d < 1e-9

    def test_noise_rounds_double_the_precision(self, monkeypatch):
        # wrt_direct at (1400, 6) sums magnitude 2.2e204 and needs about 212
        # digits. A replay that finds only noise below that must not run out
        # of rounds at 22 more digits each, as 51, 73, ..., 205 did.
        abs_sum = 2.2e204
        calls = []

        def replay(ctx, p, dps):
            calls.append(dps)
            return 1.0 if dps >= 212 else abs_sum * 10.0 ** -dps / 2

        monkeypatch.setattr(qi, "_direct_sum_f64", lambda ctx, p: (0j, abs_sum))
        monkeypatch.setattr(qi, "_direct_sum_mp", replay)
        monkeypatch.setattr(qi, "_field_image", lambda ctx, p, route, field: 1)
        value = qi._resolved(RootOfUnityContext(1400), 6, "direct")
        assert value == 1.0
        assert len(calls) <= 5, calls


class TestZetaTable:
    """Only zeta^j for 0 <= j <= N/2 is transcendental; the rest of the
    table is exact part swaps and negations of those entries."""

    @pytest.mark.parametrize("dps", [40, 100])
    @pytest.mark.parametrize("N", [3, 4, 5, 36, 37, 97])
    def test_filled_entries(self, N, dps):
        with mp.workdps(dps):
            _, zeta, _ = qi._mp_tables(N, dps)
            assert len(zeta) == 4 * N
            for j in range(3 * N):   # zeta^{j+N} = i zeta^j
                assert zeta[j + N].real == -zeta[j].imag, (N, j)
                assert zeta[j + N].imag == zeta[j].real, (N, j)
            for j in range(1, N):    # zeta^{N-j} = i conj(zeta^j)
                assert zeta[N - j].real == zeta[j].imag, (N, j)
                assert zeta[N - j].imag == zeta[j].real, (N, j)
            tol = mp.mpf(10) ** (2 - dps)
            for j in range(4 * N):
                assert abs(zeta[j] - mp.expjpi(mp.mpf(j) / (2 * N))) <= tol, (N, j)

    @pytest.mark.parametrize("N", [3, 4, 37, 96])
    def test_transcendental_calls(self, N, monkeypatch):
        calls = []
        context = qi._mp_context(30)

        def expjpi(x):
            calls.append(x)
            return context.mpc(context.cospi(x), context.sinpi(x))

        monkeypatch.setattr(context, "expjpi", expjpi)
        qi._mp_tables.__wrapped__(N, 30)   # past the cache
        assert len(calls) == N // 2 + 1


class TestF64Pass:
    # At N = 22 a float64 pass alone resolved these framings. A direct sum
    # that carries its colored Jones product from term to term returned
    # them 1.06e-12 to 1.48e-12 off, outside the budget.
    @pytest.mark.parametrize("p", [22, 33, 42, 44, 46, 55, 66])
    def test_direct_route_meets_the_budget(self, p):
        ctx = RootOfUnityContext(22)
        exact = qi._prefactor(ctx, p) * qi._direct_sum_mp(ctx, p, 50)
        assert abs(wrt_direct(ctx, p) - exact) <= 1e-12 * abs(exact)


class TestCertifiedZeros:
    # Exact zeros measured on N = 3..64, |p| <= 10: both routes at odd N
    # with p = 2 (mod 4), and the sporadic framings below.
    BOTH_ROUTES = ([(N, p) for N in (3, 5, 9, 33) for p in (2, 6, 10)]
                   + [(9, 9), (11, 11)])
    DOUBLE_ONLY = [(9, -9), (11, -11)] + [(N, 0) for N in (4, 6, 14, 16, 24, 26)]

    def test_pinned_zeros_are_exact(self):
        for N, p in self.BOTH_ROUTES:
            ctx = RootOfUnityContext(N)
            assert wrt_direct(ctx, p) == 0j, (N, p)
            assert wrt_double_sum(ctx, p) == 0j, (N, p)
        for N, p in self.DOUBLE_ONLY:
            assert wrt_double_sum(RootOfUnityContext(N), p) == 0j, (N, p)

    def test_escalated_nonzero_is_not_zeroed(self):
        for N, p in ((60, 6), (64, 6)):
            ctx = RootOfUnityContext(N)
            assert not qi._certified_zero(ctx, p, "direct")
            assert not qi._certified_zero(ctx, p, "double")
            direct = wrt_direct(ctx, p)
            double = wrt_double_sum(ctx, p)
            assert abs(direct) > 0 and abs(double) > 0
            assert formula_discrepancy(direct, double) < 1e-9

    def test_round_cap_raises(self, monkeypatch, capsys):
        # A replay that only ever returns 0 never meets the budget; the
        # sum at (60, 6) is nonzero, so the certificate cannot end it.
        for name in ("_direct_sum_f64", "_double_sum_f64"):
            round_one = getattr(qi, name)
            monkeypatch.setattr(qi, name, lambda ctx, p, round_one=round_one:
                                (0j, round_one(ctx, p)[1]))
        monkeypatch.setattr(qi, "_direct_sum_mp", lambda N, p, dps: 0j)
        monkeypatch.setattr(qi, "_double_sum_mp", lambda N, p, dps: 0j)
        ctx = RootOfUnityContext(60)
        with pytest.raises(PrecisionExhaustedError):
            wrt_direct(ctx, 6)
        with pytest.raises(PrecisionExhaustedError):
            wrt_double_sum(ctx, 6)
        code = cli.main(["wrt", "--N", "60", "--p", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


    def test_overflowed_f64_pass_raises(self, monkeypatch, capsys):
        # Round 1's abs_sum passes the float range from N = 2137.
        overflow = lambda ctx, p: (complex(math.nan, math.nan), math.inf)
        monkeypatch.setattr(qi, "_direct_sum_f64", overflow)
        monkeypatch.setattr(qi, "_double_sum_f64", overflow)
        ctx = RootOfUnityContext(2300)
        with pytest.raises(DomainError, match="N = 2300"):
            wrt_direct(ctx, 6)
        with pytest.raises(DomainError, match="N = 2300"):
            wrt_double_sum(ctx, 6)
        code = cli.main(["wrt", "--N", "2300", "--p", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


class TestFloatRange:
    """abs_sum passes the float range from N = 2137 (direct) and N = 2173
    (double). A lower bound on it, in O(N) floats, stops the orders from
    N = 2159 and N = 2195 before any table is built; round 1 stops the
    orders between."""

    def test_bound_below_abs_sum(self):
        for N in range(3, 301):
            ctx, bound = RootOfUnityContext(N), qi._log_largest_terms(N)
            for route in ("direct", "double"):
                _, abs_sum = getattr(qi, f"_{route}_sum_f64")(ctx, 1)
                assert bound[route] <= math.log(abs_sum), (N, route)

    def test_far_order_fails_fast(self, capsys):
        start = time.perf_counter()
        code = cli.main(["wrt", "--N", "100000", "--p", "1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "N = 100000" in captured.err
        assert elapsed < 2

    def test_orders_below_the_bound_stop_at_round_one(self, monkeypatch):
        overflow = lambda ctx, p: (complex(math.nan, math.nan), math.inf)
        monkeypatch.setattr(qi, "_direct_sum_f64", overflow)
        monkeypatch.setattr(qi, "_double_sum_f64", overflow)
        with pytest.raises(DomainError, match="N = 2158"):
            wrt_direct(RootOfUnityContext(2158), 6)
        with pytest.raises(DomainError, match="N = 2194"):
            wrt_double_sum(RootOfUnityContext(2194), 6)


def counted(monkeypatch, name):
    """Replace qi.<name> with a wrapper that records the arguments of
    each call, and return the list of them."""
    calls = []
    build = getattr(qi, name)

    def wrapper(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(qi, name, wrapper)
    return calls


class TestStatePerContext:
    """Each order's tables and rows are built once per context the caller
    holds, in whatever order the framings come."""

    # the tau-grid orders of bench/workloads.py at seed 0
    ORDERS = (6, 7, 14, 15, 33, 34, 35, 36, 37, 38, 39, 40)

    def test_round_one_rows_built_once_per_order(self, monkeypatch):
        # the framing outer, so every order comes back at each framing
        builds = counted(monkeypatch, "_fixed_sum")
        contexts = [RootOfUnityContext(N) for N in self.ORDERS]
        for p in range(1, 11):
            for ctx in contexts:
                direct, double = wrt_direct(ctx, p), wrt_double_sum(ctx, p)
                assert formula_discrepancy(direct, double) < 1e-9, (ctx, p)
        assert [(N, route, dps) for N, dps, route in builds] == \
            [(N, route, 40) for N in self.ORDERS for route in ("direct", "double")]

    def test_replay_rows_built_once_per_digits(self, monkeypatch):
        # past N = 180 every framing replays; a framing that comes back, or
        # another that replays at digits already built, reuses their rows
        framings = (6, 7, 10, 6)
        expected = [repr(wrt_direct(RootOfUnityContext(500), p))
                    for p in framings]
        builds = counted(monkeypatch, "_fixed_sum")
        ctx = RootOfUnityContext(500)
        assert [repr(wrt_direct(ctx, p)) for p in framings] == expected
        assert len(builds) == len(set(builds))
        assert (500, 40, "direct") in builds and len(builds) > 1

    def test_certificate_built_once_per_field(self, monkeypatch):
        orders = (33, 35, 37)
        contexts = [RootOfUnityContext(N) for N in orders]
        for ctx in contexts:   # round 1's rows, built before the count
            qi._direct_sum_f64(ctx, 2), qi._double_sum_f64(ctx, 2)
        builds = {name: counted(monkeypatch, name)
                  for name in ("_field_tables", "_route_tables", "_fixed_rows")}
        for p in (2, 6, 10):
            for ctx in contexts:
                assert wrt_direct(ctx, p) == 0j, (ctx, p)
                assert wrt_double_sum(ctx, p) == 0j, (ctx, p)
        fields = {N: qi._certificate_fields(N) for N in orders}
        assert sorted(builds["_field_tables"]) == sorted(
            (N, ell, r) for N in orders for ell, r in fields[N])
        # one row set per (field, route) and context, each built by
        # _fixed_rows over one-part integer tables in F_l
        per_field = sorted((N, route) for N in orders for _ in fields[N]
                           for route in ("direct", "double"))
        assert sorted((args[0], args[4])
                      for args in builds["_route_tables"]) == per_field
        assert sorted(args[0] for args in builds["_fixed_rows"]) == \
            [N for N, _ in per_field]
        assert all(len(table) == 1 for args in builds["_fixed_rows"]
                   for table in args[1:])

    def test_threads_share_one_context(self):
        # threads racing on one context may each build a set; every value
        # equals the one a context of its own gives
        framings = list(range(1, 11))
        expected = {p: (wrt_direct(RootOfUnityContext(37), p),
                        wrt_double_sum(RootOfUnityContext(37), p))
                    for p in framings}
        ctx = RootOfUnityContext(37)
        results = []

        def work(shift):
            for p in framings[shift:] + framings[:shift]:
                results.append((p, wrt_direct(ctx, p), wrt_double_sum(ctx, p)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(shift,))
                       for shift in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(framings)
        for p, direct, double in results:
            assert (direct, double) == expected[p], p


class TestPrecisionOnTheTables:
    """The mpmath tables carry their own precision, so no other thread's
    use of mpmath's global precision reaches a tau evaluation, and no
    evaluation changes it."""

    # replay range: round 1 misses the budget at each
    CASES = [(200, 6), (210, 7), (220, 9)]

    @staticmethod
    def both_routes(N, p):
        """Both routes at (N, p) from a fresh context and a cleared
        _mp_tables cache, so that every table is built again."""
        qi._mp_tables.cache_clear()
        ctx = RootOfUnityContext(N)
        return wrt_direct(ctx, p), wrt_double_sum(ctx, p)

    @staticmethod
    def alongside(step, work):
        """work(), while a thread calls step() over and over until work
        returns, under a short switch interval; the thread is joined with a
        timeout, so a hang fails instead of blocking the run."""
        stop = threading.Event()

        def loop():
            while not stop.is_set():
                step()

        thread = threading.Thread(target=loop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread.start()
        try:
            result = work()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            thread.join(timeout=60)
        assert not thread.is_alive()
        return result

    def test_caller_thread_changes_precision(self):
        expected = [self.both_routes(N, p) for N, p in self.CASES]

        def caller():
            with mp.workdps(15):
                mp.mpf(1) / 3

        values = self.alongside(
            caller, lambda: [self.both_routes(N, p) for N, p in self.CASES])
        assert values == expected

    def test_precision_seen_by_another_thread(self):
        seen = set()
        qi._mp_tables.cache_clear()
        self.alongside(lambda: seen.add(mp.mp.prec),
                       lambda: wrt_direct(RootOfUnityContext(200), 6))
        assert seen == {53}

    def test_concurrent_replays(self, monkeypatch):
        pairs = [(202, 3), (208, 5), (214, 6), (220, 7)]
        expected = {pair: self.both_routes(*pair) for pair in pairs}
        replays = {name: counted(monkeypatch, name)
                   for name in ("_direct_sum_mp", "_double_sum_mp")}
        qi._mp_tables.cache_clear()
        results = []

        def work(shift):
            for N, p in pairs[shift:] + pairs[:shift]:
                ctx = RootOfUnityContext(N)
                results.append(((N, p), (wrt_direct(ctx, p),
                                         wrt_double_sum(ctx, p))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(shift,))
                       for shift in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(map(len, replays.values())) >= 2 * len(results) == \
            8 * len(pairs)
        for pair, values in results:
            assert values == expected[pair], pair


class TestFiniteFieldImage:
    def test_miller_rabin(self):
        sieve = [n for n in range(2, 2000)
                 if all(n % d for d in range(2, int(n ** 0.5) + 1))]
        assert [n for n in range(2000) if qi._is_prime(n)] == sieve
        assert qi._is_prime(2 ** 61 - 1)
        # strong pseudoprime to every prime base up to 31
        assert not qi._is_prime(3825123056546413051)
        # 399165290221 * 798330580441, a strong pseudoprime to every prime
        # base up to 37: only base 41 rejects it
        assert not qi._is_prime(318665857834031151167461)

    def test_fields_have_primitive_roots(self):
        for N in (3, 5, 12, 64):
            fields = qi._certificate_fields(N)
            assert len(fields) == 2 and fields[0][0] != fields[1][0]
            for ell, r in fields:
                assert ell > 2 ** 61 and ell % (4 * N) == 1
                assert qi._is_prime(ell)
                assert pow(r, 4 * N, ell) == 1
                assert all(pow(r, d, ell) != 1
                           for d in range(1, 4 * N) if (4 * N) % d == 0)

    def test_nonzero_sum_has_nonzero_image(self):
        assert abs(TAU_5_P1) > 1
        ctx = RootOfUnityContext(5)
        for field in qi._certificate_fields(5):
            assert qi._field_image(ctx, 1, "direct", field) != 0
            assert qi._field_image(ctx, 1, "double", field) != 0

    def test_field_tables_built_once_per_field(self, monkeypatch):
        # the three zeros at N = 37 over both routes take 12 images and
        # build each field's tables once and each (field, route) row list
        # once; the sum loops leave the kept tables and rows as built
        ctx = RootOfUnityContext(37)
        qi._direct_sum_f64(ctx, 2), qi._double_sum_f64(ctx, 2)   # round 1's
        builds = {name: counted(monkeypatch, name)
                  for name in ("_field_tables", "_fixed_rows")}
        for p in (2, 6, 10):
            assert wrt_direct(ctx, p) == 0j and wrt_double_sum(ctx, p) == 0j
        fields = qi._certificate_fields(37)
        assert sorted(builds["_field_tables"]) == \
            sorted((37, ell, r) for ell, r in fields)
        assert len(builds["_fixed_rows"]) == 2 * len(fields)
        fresh = RootOfUnityContext(37)
        for field in fields:
            for route in ("direct", "double"):
                image = qi._field_image(ctx, 1, route, field)
                assert image != 0
                assert image == qi._field_image(fresh, 1, route, field)

    def test_certificate_needs_every_field(self, monkeypatch):
        first = qi._certificate_fields(5)[0]
        ctx = RootOfUnityContext(5)
        monkeypatch.setattr(qi, "_field_image", lambda ctx, p, route, field:
                            0 if field == first else 1)
        assert not qi._certified_zero(ctx, 1, "direct")
        monkeypatch.setattr(qi, "_field_image", lambda ctx, p, route, field: 0)
        assert qi._certified_zero(ctx, 1, "direct")


def unreduced(value):
    """The reduce argument of the sums for rings without a canonical form."""
    return value


def table_rows(N, A, B, c, reduce):
    """The rows c_n sum_{m<min(n, N-n)} A_{n+m} B_{n-m-1}, 1 <= n < N, of
    D times the bare sum, from the tables of _route_tables, term by term."""
    rows = []
    for n in range(1, N):
        row = 0
        for m in range(min(n, N - n)):
            row += A[n + m] * B[n - m - 1]
        rows.append(reduce(c[n] * row))
    return rows


def framed(N, p, rows, zeta, reduce):
    """sum_{n=1}^{N-1} rows[n-1] zeta^{p n^2}, row by row."""
    total = 0
    for n, row in enumerate(rows, 1):
        total += row * zeta[(p * n * n) % (4 * N)]
    return reduce(total)


def step_direct_rows(N, t, reduce):
    """t_1^2 times the rows [n]^2 J_n, 1 <= n < N, of the bare direct sum,
    step by step: [n]^2 = (t_n / t_1)^2 and each colored Jones factor
    pair is -t_{n+l} t_{n-l}."""
    rows = []
    for n in range(1, N):
        prod = jsum = 1
        for l in range(1, n):
            prod = reduce(-prod * t[n + l] * t[n - l])
            jsum += prod
        rows.append(reduce(t[n] * t[n] * jsum))
    return rows


def step_double_rows(N, y, zeta, reduce):
    """The rows sum_m (q)_n (q)_{n+m} / ((q)_{n-1} (q)_{n-m-1})
    zeta^{-4nm-4n}, 1 <= n < N, of the bare double sum, step by step: the
    Pochhammer ratio is y_n prod_{j=n-m}^{n+m} y_j, and n + m >= N adds
    exactly 0 via (q)_{n+m} = 0."""
    rows = []
    for n in range(1, N):
        ratio, row = 1, 0
        for m in range(min(n, N - n)):
            ratio = reduce(ratio * y[n + m] * y[n - m])
            row += ratio * zeta[(-4 * n * m - 4 * n) % (4 * N)]
        rows.append(reduce(row))
    return rows


def ring_sums(N, p, t, zeta, y, reduce):
    """t_1^2 times the bare direct sum and the bare double sum in the ring
    of the tables, from the step-by-step rows: the independent statement
    of both sums that the package's tables are tested against. N times
    each is D times the bare sum of _route_tables."""
    return (framed(N, p, step_direct_rows(N, t, reduce), zeta, reduce),
            framed(N, p, step_double_rows(N, y, zeta, reduce), zeta, reduce))


def route_sums(N, p, t, zeta, y, reduce):
    """(D times the bare sum, D) of each route, as the package takes them:
    the rows of _route_tables' tables times the framing's phases."""
    sums = []
    for route in ("direct", "double"):
        A, B, c, D = qi._route_tables(N, t, zeta, y, route, reduce)
        sums.append((framed(N, p, table_rows(N, A, B, c, reduce), zeta,
                            reduce), D))
    return sums


class Cyclotomic:
    """An integer polynomial in x modulo x^order - 1.

    Z[x]/(x^order - 1) maps onto Z[zeta_order], so a sum computed here is
    one exact element whose images under x -> r (mod l) and
    x -> exp(2 pi i/order) are the certificate's and the replay's values.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, order, j):
        coeffs = [0] * order
        coeffs[j % order] = 1
        return cls(coeffs)

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            return other.coeffs
        return (other,) + (0,) * (len(self.coeffs) - 1)

    def __add__(self, other):
        return Cyclotomic(a + b for a, b in zip(self.coeffs, self._lift(other)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(-a for a in self.coeffs)

    def __sub__(self, other):
        return self + -Cyclotomic(self._lift(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        order = len(self.coeffs)
        out = [0] * order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(self._lift(other)):
                    if b:
                        out[(i + j) % order] += a * b
        return Cyclotomic(out)

    __rmul__ = __mul__

    def at(self, x):
        return sum(c * x ** k for k, c in enumerate(self.coeffs) if c)


class TestOneElementOfZZeta:
    """The step-by-step sums, the replay and the certificate evaluate one
    element."""

    CASES = [(3, 1), (3, 2), (5, 1), (5, 2), (5, -3), (7, 4), (7, -1)]

    @staticmethod
    def exact_tables(N):
        x = [Cyclotomic.monomial(4 * N, j) for j in range(4 * N)]
        t = [x[(3 * N + 2 * a) % (4 * N)] - x[(3 * N - 2 * a) % (4 * N)]
             for a in range(2 * N)]
        y = [1 - x[4 * k] for k in range(N)]
        return t, x, y

    @staticmethod
    def exact_sums(N, p):
        t, x, y = TestOneElementOfZZeta.exact_tables(N)
        return ring_sums(N, p, t, x, y, unreduced)

    def test_certificate_is_the_image(self):
        # the step-by-step sums in F_l are the images of the exact ones,
        # and the certificate's, of D times the bare sum, are N times them
        for N, p in self.CASES:
            direct, double = self.exact_sums(N, p)
            ctx = RootOfUnityContext(N)
            for ell, r in qi._certificate_fields(N):
                field = (ell, r)

                def mod(v):
                    return v % ell

                steps = ring_sums(N, p, *pow_field_tables(N, ell, r), mod)
                assert steps == (direct.at(r) % ell, double.at(r) % ell)
                assert N * steps[0] % ell == \
                    qi._field_image(ctx, p, "direct", field)
                assert N * steps[1] % ell == \
                    qi._field_image(ctx, p, "double", field)
        # (5, 2) is a certified zero of both routes
        ctx = RootOfUnityContext(5)
        for field in qi._certificate_fields(5):
            assert qi._field_image(ctx, 2, "direct", field) == 0
            assert qi._field_image(ctx, 2, "double", field) == 0

    def test_replay_is_the_complex_value(self):
        for N, p in self.CASES:
            direct, double = self.exact_sums(N, p)
            with mp.workdps(50):
                t, zeta, y = full_mp_tables(N, 50)
                root = mp.expjpi(mp.mpf(1) / (2 * N))
                replay_direct, replay_double = ring_sums(N, p, t, zeta, y,
                                                         unreduced)
                assert abs(direct.at(root) - replay_direct) < 1e-45
                assert abs(double.at(root) - replay_double) < 1e-45
                (new_direct, D_direct), (new_double, D_double) = route_sums(
                    N, p, t, zeta, y, qi._exact)
                bare = direct.at(root) / (t[1] * t[1])
                assert abs(new_direct / D_direct - bare) < 1e-45, (N, p)
                assert abs(new_double / D_double - double.at(root)) < 1e-45
                bare = complex(bare)
            # one rounding to f64; the zeros are 50-digit noise
            replay = qi._direct_sum_mp(RootOfUnityContext(N), p, 50)
            assert abs(replay - bare) <= 1e-15 * abs(bare) + 1e-45, (N, p)

    def test_pochhammer_magnitude_product(self):
        # the identities _route_tables rests on, on the tables it reads:
        # prod_{k=1}^{N-1} (1 - q^k) = prod_{a=1}^{N-1} t_a = N,
        # t_{N-a} = t_a and y_{N-k} = -q^{-k} y_k, q^{-k} = zeta^{-4k}
        for N in (5, 12, 33):
            order = 4 * N
            for ell, r in qi._certificate_fields(N):
                t, zeta, y = qi._field_tables(N, ell, r)
                prod_y = prod_t = 1
                for k in range(1, N):
                    prod_y = prod_y * y[k] % ell
                    prod_t = prod_t * t[k] % ell
                assert prod_y == prod_t == N
                for k in range(1, N):
                    assert t[N - k] == t[k], (N, k)
                    assert y[N - k] == -zeta[-4 * k % order] * y[k] % ell
            with mp.workdps(50):
                t, zeta, y = qi._mp_tables(N, 50)
                assert abs(mp.fprod(y[1:]) - N) < 1e-45 * N
                assert abs(mp.fprod(t[1:N]) - N) < 1e-45 * N
                for k in range(1, N):
                    assert abs(t[N - k] - t[k]) < 1e-45, (N, k)
                    assert abs(y[N - k] + zeta[-4 * k % order] * y[k]) \
                        < 1e-45, (N, k)


class TestOddColorSplitting:
    """At odd N the rows R_n of table_rows, times the framing's phases,
    split:
    sum_n R_n zeta^{p n^2} = (1 + zeta^{-p N^2}) sum_{n odd} R_n zeta^{p n^2},
    in every ring _route_tables serves. Checked here exactly, in both
    certificate fields, for both routes.

    Pair row n with row N - n. Both routes' rows are symmetric,
    R_{N-n} = R_n, since each is D times the step-by-step row of n:
      direct: the step row t_n^2 J_n has t_{N-n} = t_n, and J_{N-n} = J_n
        term by term, as t_{N-a} = t_a maps the factors -t_{n+l} t_{n-l}
        of N - n onto those of n, and a term with m >= min(n, N - n) holds
        t_0 = 0 or t_N = 0;
      double: y_{N-k} = -q^{-k} y_k makes the ratio
        prod_{i<=m} y_{n+i} y_{n-i} of N - n equal q^{-2n(m+1)} times that
        of n, while its phase zeta^{-4(N-n)(m+1)} = q^{n(m+1)} is
        q^{2n(m+1)} times that of n.
    The phases: zeta^{2N} = -1 gives zeta^{p(N-n)^2} =
    (-1)^{pn} zeta^{p N^2} zeta^{p n^2}, and zeta^{2p N^2} = (-1)^{pN} =
    (-1)^p at odd N, so for odd n, (-1)^{pn} zeta^{p N^2} = zeta^{-p N^2}.
    At odd N, n -> N - n maps the odd colors onto the even ones, so the
    even part of the sum is zeta^{-p N^2} times the odd part.
    """

    FRAMINGS = (1, 2, 3, 4, 5, 8, 9, 10, 12, -3, -5)

    def test_odd_N_sums_split(self):
        checks = 0
        for N in range(3, 62, 2):
            order = 4 * N
            for ell, r in qi._certificate_fields(N):
                def mod(v):
                    return v % ell

                t, zeta, y = qi._field_tables(N, ell, r)
                for route in ("direct", "double"):
                    A, B, c, _ = qi._route_tables(N, t, zeta, y, route, mod)
                    rows = table_rows(N, A, B, c, mod)
                    assert rows == rows[::-1], (N, route)
                    for p in self.FRAMINGS:
                        odd = sum(rows[n - 1] * zeta[p * n * n % order]
                                  for n in range(1, N, 2))
                        split = (1 + zeta[-p * N * N % order]) * odd % ell
                        assert framed(N, p, rows, zeta, mod) == split, \
                            (N, route, p)
                        checks += 1
        assert checks == 1320


def loop_direct_sum(N, p, t, zeta, reduce):
    """The direct sum as one loop, each row times its phase as it ends."""
    total = 0
    for n in range(1, N):
        prod = jsum = 1
        for l in range(1, n):
            prod = reduce(-prod * t[n + l] * t[n - l])
            jsum += prod
        total += reduce(t[n] * t[n] * jsum) * zeta[(p * n * n) % (4 * N)]
    return reduce(total)


def loop_double_sum(N, p, y, zeta, reduce):
    """The double sum as one loop, each term with its full phase."""
    total = 0
    for n in range(1, N):
        ratio = 1
        for m in range(min(n, N - n)):
            ratio = reduce(ratio * y[n + m] * y[n - m])
            total += ratio * zeta[(p * n * n - 4 * n * m - 4 * n) % (4 * N)]
    return reduce(total)


class TestRowsTimesPhases:
    """Rows built once per order, times the framing's phases zeta^{p n^2},
    against the single loops."""

    CASES = [(3, 1), (5, -3), (7, 4), (12, -7), (37, 2), (40, 9), (64, 10)]

    def test_field_images_equal_the_loops(self):
        for N, p in self.CASES:
            ctx = RootOfUnityContext(N)
            for ell, r in qi._certificate_fields(N):
                t, zeta, y = pow_field_tables(N, ell, r)

                def mod(v):
                    return v % ell

                # the image is of D times the bare sum, N times the loop's
                assert qi._field_image(ctx, p, "direct", (ell, r)) == \
                    N * loop_direct_sum(N, p, t, zeta, mod) % ell, (N, p)
                assert qi._field_image(ctx, p, "double", (ell, r)) == \
                    N * loop_double_sum(N, p, y, zeta, mod) % ell, (N, p)

    def test_replay_equals_the_loops(self):
        # the step rows, and the replay's tables and rows divided by D,
        # move only the 50-digit rounding of terms that reach the summed
        # magnitude abs_sum of the bare sum
        for N, p in self.CASES:
            ctx = RootOfUnityContext(N)
            bounds = [1e-45 * max(fn(ctx, p)[1], 1.0)
                      for fn in (qi._direct_sum_f64, qi._double_sum_f64)]
            with mp.workdps(50):
                t, zeta, y = full_mp_tables(N, 50)
                loops = (loop_direct_sum(N, p, t, zeta, unreduced),
                         loop_double_sum(N, p, y, zeta, unreduced))
                direct, double = ring_sums(N, p, t, zeta, y, unreduced)
                assert direct == loops[0], (N, p)
                assert abs(double - loops[1]) < bounds[1], (N, p)
                bare = (loops[0] / (t[1] * t[1]), loops[1])
                for (value, D), loop, bound in zip(
                        route_sums(N, p, t, zeta, y, qi._exact), bare, bounds):
                    assert abs(value / D - loop) < bound, (N, p)


def full_mp_tables(N, dps):
    """_mp_tables with t_a and y_k computed at every index and the filled
    zeta^j made by mp.mpc from the parts of their source entries; t_a runs
    over 0 <= a < 2N, as the step-by-step oracle reads it."""
    with mp.workdps(dps):
        zeta = [mp.expjpi(mp.mpf(j) / (2 * N)) for j in range(N // 2 + 1)]
        zeta += [mp.mpc(z.imag, z.real) for z in zeta[(N - 1) // 2:0:-1]]
        for _ in range(3):
            zeta += [mp.mpc(-z.imag, z.real) for z in zeta[-N:]]
        t = [2 * zeta[2 * a].imag for a in range(2 * N)]
        y = [1 - zeta[4 * k] for k in range(N)]
    return t, zeta, y


def all_divisor_fields(N):
    """_certificate_fields testing r^d != 1 at every proper divisor d of 4N."""
    order = 4 * N
    divisors = [d for d in range(1, order) if order % d == 0]
    fields = []
    ell = (qi._CERTIFICATE_PRIME_FLOOR // order + 1) * order + 1
    while len(fields) < qi._CERTIFICATE_PRIMES:
        if qi._is_prime(ell):
            g = 2
            while True:
                r = pow(g, (ell - 1) // order, ell)
                if all(pow(r, d, ell) != 1 for d in divisors):
                    break
                g += 1
            fields.append((ell, r))
        ell += order
    return tuple(fields)


def pow_field_tables(N, ell, r):
    """_field_tables with zeta^j = pow(r, j, ell) at every j, and t_a over
    0 <= a < 2N, as the step-by-step oracle reads it."""
    order = 4 * N
    zeta = [pow(r, j, ell) for j in range(order)]
    t = [(zeta[(3 * N + 2 * a) % order] - zeta[(3 * N - 2 * a) % order]) % ell
         for a in range(2 * N)]
    y = [(1 - zeta[4 * k]) % ell for k in range(N)]
    return t, zeta, y


class TestTableBuilds:
    """The per-order tables, built from their computed entries and exact
    fills, equal the tables computed at every entry, bit for bit."""

    @pytest.mark.parametrize("dps", [40, 51, 100])
    def test_mp_tables(self, dps):
        # the exact parts, since a repr prints its table's own precision
        for N in [*range(3, 41), 64, 97, 150]:
            t, zeta, y = qi._mp_tables.__wrapped__(N, dps)
            full_t, full_zeta, full_y = full_mp_tables(N, dps)
            assert [v._mpf_ for v in t] == [v._mpf_ for v in full_t[:N]], \
                (N, dps)
            for table, full in ((zeta, full_zeta), (y, full_y)):
                assert [v._mpc_ for v in table] == \
                    [v._mpc_ for v in full], (N, dps)

    def test_certificate_fields_and_tables(self):
        for N in range(3, 201):
            fields = qi._certificate_fields(N)
            assert fields == all_divisor_fields(N), N
            for ell, r in fields:
                t, zeta, y = pow_field_tables(N, ell, r)
                assert qi._field_tables(N, ell, r) == (t[:N], zeta, y), N


class Gaussian:
    """An exact Gaussian integer re + i im, multiplied and added one pair
    of entries at a time."""

    def __init__(self, re, im=0):
        self.re, self.im = re, im

    @staticmethod
    def lift(value):
        return value if isinstance(value, Gaussian) else Gaussian(value)

    def __add__(self, other):
        other = self.lift(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = self.lift(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def parts(self, count):
        """The tuple of parts of _times: (re,) or (re, im)."""
        return (self.re, self.im)[:count]


def gaussians(parts):
    """The numbers of a tuple of part lists, (re,) or (re, im)."""
    return [Gaussian(*value) for value in zip(*parts)]


def exact_entries(values):
    """(entries, shift): the mpf or mpc values as Gaussians times 2^-shift,
    from mpmath's man_exp, which is unsigned, and their signs, with shift
    minus the least exponent of a nonzero part."""

    def signed(x):
        man, exp = x.man_exp
        return -man if x < 0 else man, exp

    parts = [(signed(v.real), signed(v.imag)) for v in values]
    shift = -min(exp for value in parts for man, exp in value if man)
    return [Gaussian(*(man * 2 ** (exp + shift) for man, exp in value))
            for value in parts], shift


class TestStackedProducts:
    """The stacked integer products, _times over part lists, do the
    arithmetic of the Gaussian products term by term, entry for entry."""

    @pytest.mark.parametrize("shape", [(1,), (257,), (7, 33)])
    def test_complex_product(self, shape):
        # rows of a shape (rows, length) are dots of length entries, with
        # zeros, units and parts past the float range among the entries
        rng = random.Random(17)
        rows, length = (1, *shape)[-2:]
        special = [0, 1, -1, 2 ** 1100, 1 - 2 ** 1100]

        def part():
            values = [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 400))
                      for _ in range(length)]
            for k in rng.sample(range(length), length // 3 + 1):
                values[k] = rng.choice(special)
            return values

        for _ in range(rows):
            a, b = (part(), part()), (part(), part())
            for x, y in ((a, b), (a, b[:1]), (a[:1], b), (a[:1], b[:1])):
                count = max(len(x), len(y))
                terms = [u * v for u, v in zip(gaussians(x), gaussians(y))]
                assert qi._times(x, y, qi._dot) == \
                    sum(terms, Gaussian(0)).parts(count)
                for k, term in enumerate(terms):
                    assert qi._times(tuple(v[k] for v in x),
                                     tuple(v[k] for v in y)) == \
                        term.parts(count), k

    @staticmethod
    def unstacked_round_one(N, route):
        """p -> (value, abs_sum) of route's round 1, from _route_tables over
        _mp_tables at round 1's digits, as Gaussians summed term by term by
        table_rows and framed, and rounded once from the exact sums."""
        t, zeta, y = qi._mp_tables(N, qi._ROUND_ONE_DPS)
        A, B, c, D = qi._route_tables(N, t, zeta, y, route, qi._exact)
        (A, a), (B, b), (c, s), (zeta, z) = map(
            exact_entries, (A, B, [v / D for v in c], zeta))
        rows = table_rows(N, A, B, c, unreduced)
        moduli = [[math.isqrt(v.re ** 2 + v.im ** 2) for v in table]
                  for table in (A, B, c)]
        abs_sum = sum(table_rows(N, *moduli, unreduced)) / 2 ** (a + b + s)

        def round_one(p):
            total = framed(N, p, rows, zeta, unreduced)
            scale = 2 ** (a + b + s + z)
            return complex(total.re / scale, total.im / scale), abs_sum

        return round_one

    @pytest.mark.parametrize("N", [*range(3, 97), 520])
    def test_round_one(self, N):
        # at N = 520 the tables' entries span more than 200 bits
        framings = range(-40, 41) if N < 97 else (-7, 6, 40)
        ctx = RootOfUnityContext(N)
        for route in ("direct", "double"):
            round_one = getattr(qi, f"_{route}_sum_f64")
            unstacked = self.unstacked_round_one(N, route)
            for p in framings:
                assert repr(round_one(ctx, p)) == repr(unstacked(p)), \
                    (route, N, p)


class TestFormulaDiscrepancy:
    def test_relative_above_guard(self):
        assert formula_discrepancy(2.0, 2.0) == 0.0
        assert abs(formula_discrepancy(1 + 0j, 1 + 1e-15j) - 1e-15) < 1e-18

    def test_absolute_below_guard(self):
        assert formula_discrepancy(0.0, 1e-30) == 1e-30


class TestGrowthProfile:
    def test_empty(self):
        assert growth_profile(6, []) == []

    def test_rows_sorted_and_consistent(self):
        rows = growth_profile(6, [20, 10])
        assert [row[0] for row in rows] == [10, 20]
        for N, log_tau, per_N, per_log_N in rows:
            assert abs(per_N - log_tau / N) < 1e-15
            assert abs(per_log_N - log_tau / math.log(N)) < 1e-12

    def test_amphichiral_framings(self):
        # M_{-p} is M_p with its orientation reversed, so |tau_N| agrees;
        # p = -6 runs the double sum, p = 6 the direct one
        orders = [30, 100, 200, 500]
        for plus, minus in zip(growth_profile(6, orders),
                               growth_profile(-6, orders)):
            assert plus[0] == minus[0]
            assert max(abs(a - b) for a, b in zip(plus[1:], minus[1:])) < 1e-12

    def test_exact_zero_reports_minus_inf(self, monkeypatch):
        import olim41.quantum_invariants as qi
        monkeypatch.setattr(qi, "wrt_direct", lambda ctx, p: 0j)
        rows = qi.growth_profile(6, [10])
        assert rows[0][1] == float("-inf")
        assert rows[0][2] == float("-inf")


class TestKernelBackends:
    def test_backend_name(self):
        # bench/worker.py reports this name among its machine facts.
        assert _kernels.backend_name == "python"

    def test_abs_sum_bounds_value(self):
        for fn in (qi._direct_sum_f64, qi._double_sum_f64):
            value, abs_sum = fn(RootOfUnityContext(30), 6)
            assert abs(value) <= abs_sum * (1 + 1e-12)
