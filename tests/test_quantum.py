"""Quantum invariant tests: context algebra, colored Jones, dual tau routes.

tau_5(M_1) is pinned from a 50-digit fixed-order replay of the direct sum;
everything else rests on exact identities (color symmetry, the J_N
positivity identity, the Pochhammer magnitude product), on the agreement
of the two independent evaluation routes, and on the replay and the zero
certificate evaluating one element of Z[zeta_{4N}].
"""

import cmath
import math
import random

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
        # N past ~52 has enough cancellation that the f64 pass misses the
        # budget and the double-double round resolves the sum
        ctx = RootOfUnityContext(60)
        d = formula_discrepancy(wrt_direct(ctx, 6), wrt_double_sum(ctx, 6))
        assert d < 1e-9

    def test_mpmath_rounds_run_past_double_double(self, monkeypatch):
        # At N = 200 about 28 digits cancel: with the 12-digit budget that
        # is more than double-double's ~31, so each route needs an mpmath
        # round, at a precision picked past the double-double floor.
        calls = []
        for name in ("_direct_sum_mp", "_double_sum_mp"):
            replay = getattr(qi, name)
            monkeypatch.setattr(
                qi, name, lambda N, p, dps, replay=replay:
                calls.append(dps) or replay(N, p, dps))
        ctx = RootOfUnityContext(200)
        d = formula_discrepancy(wrt_direct(ctx, 6), wrt_double_sum(ctx, 6))
        assert len(calls) >= 2 and min(calls) > 31
        assert d < 1e-9

    def test_noise_rounds_double_the_precision(self):
        # wrt_direct at (1400, 6) sums magnitude 2.2e204 and needs about 212
        # digits. A replay that finds only noise below that must not run out
        # of rounds at 22 more digits each, as 51, 73, ..., 205 did.
        abs_sum = 2.2e204
        calls = []

        def replay(N, p, dps):
            calls.append(dps)
            return 1.0 if dps >= 212 else abs_sum * 10.0 ** -dps / 2

        value = qi._escalated(1e187 + 0j, abs_sum, 1400, 6, lambda N, p: 0j,
                              replay, lambda N, p, ell, r: 1)
        assert value == 1.0
        assert len(calls) <= 5, calls


class TestDoubleDoubleRound:
    def test_row_blocks_keep_the_precision(self, monkeypatch):
        # Past _DD_BLOCK terms (N above about 510) the triangle is summed in
        # row blocks; blocks of about 64 terms must match the single block,
        # in the double-double round and in the f64 pass.
        routes = {qi._direct_sum_dd: qi._direct_sum_f64,
                  qi._double_sum_dd: qi._double_sum_f64}
        whole = {fn: fn(40, 6) for route in routes.items() for fn in route}
        monkeypatch.setattr(qi, "_DD_BLOCK", 64)
        for dd, f64 in routes.items():
            value, abs_sum = whole[f64]
            noise = abs_sum * qi._NOISE_PER_UNIT
            assert abs(f64(40, 6)[0] - value) <= noise, f64.__name__
            floor = abs_sum * 40 * qi._DD_NOISE_PER_UNIT
            assert abs(dd(40, 6) - whole[dd]) <= floor, dd.__name__


class TestF64Pass:
    # At N = 22 the f64 pass alone resolves these framings. A direct sum
    # that carries its colored Jones product from term to term returned
    # them 1.06e-12 to 1.48e-12 off, outside the budget.
    @pytest.mark.parametrize("p", [22, 33, 42, 44, 46, 55, 66])
    def test_direct_route_meets_the_budget(self, p):
        ctx = RootOfUnityContext(22)
        exact = qi._prefactor(ctx, p) * qi._direct_sum_mp(22, p, 50)
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
            assert not qi._certified_zero(qi._direct_sum_mod, N, p)
            assert not qi._certified_zero(qi._double_sum_mod, N, p)
            ctx = RootOfUnityContext(N)
            direct = wrt_direct(ctx, p)
            double = wrt_double_sum(ctx, p)
            assert abs(direct) > 0 and abs(double) > 0
            assert formula_discrepancy(direct, double) < 1e-9

    def test_round_cap_raises(self, monkeypatch, capsys):
        # A replay that only ever returns 0 never meets the budget; the
        # sum at (60, 6) is nonzero, so the certificate cannot end it.
        monkeypatch.setattr(qi, "_direct_sum_dd", lambda N, p: 0j)
        monkeypatch.setattr(qi, "_double_sum_dd", lambda N, p: 0j)
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
        # The f64 pass overflows between N = 2000 and 2300.
        overflow = lambda N, p: (complex(math.nan, math.nan), math.inf)
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

class TestFiniteFieldImage:
    def test_miller_rabin(self):
        sieve = [n for n in range(2, 2000)
                 if all(n % d for d in range(2, int(n ** 0.5) + 1))]
        assert [n for n in range(2000) if qi._is_prime(n)] == sieve
        assert qi._is_prime(2 ** 61 - 1)
        # strong pseudoprime to every prime base up to 23
        assert not qi._is_prime(3825123056546413051)

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
        for ell, r in qi._certificate_fields(5):
            assert qi._direct_sum_mod(5, 1, ell, r) != 0
            assert qi._double_sum_mod(5, 1, ell, r) != 0

    def test_certificate_needs_every_field(self):
        first = qi._certificate_fields(5)[0][0]
        assert not qi._certified_zero(
            lambda N, p, ell, r: 0 if ell == first else 1, 5, 1)
        assert qi._certified_zero(lambda N, p, ell, r: 0, 5, 1)


def unreduced(value):
    """The reduce argument of the sums for rings without a canonical form."""
    return value


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
    """The replay and the certificate run one loop on one element."""

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
        return (qi._direct_sum(N, p, t, x, unreduced),
                qi._double_sum(N, p, y, x, unreduced))

    def test_certificate_is_the_image(self):
        for N, p in self.CASES:
            direct, double = self.exact_sums(N, p)
            for ell, r in qi._certificate_fields(N):
                assert direct.at(r) % ell == qi._direct_sum_mod(N, p, ell, r)
                assert double.at(r) % ell == qi._double_sum_mod(N, p, ell, r)
        # (5, 2) is a certified zero of both routes
        for ell, r in qi._certificate_fields(5):
            assert qi._direct_sum_mod(5, 2, ell, r) == 0
            assert qi._double_sum_mod(5, 2, ell, r) == 0

    def test_replay_is_the_complex_value(self):
        for N, p in self.CASES:
            direct, double = self.exact_sums(N, p)
            with qi._MP_LOCK, mp.workdps(50):
                t, zeta, y = qi._mp_tables(N, 50)
                root = mp.expjpi(mp.mpf(1) / (2 * N))
                assert abs(direct.at(root)
                           - qi._direct_sum(N, p, t, zeta, unreduced)) < 1e-45
                assert abs(double.at(root)
                           - qi._double_sum(N, p, y, zeta, unreduced)) < 1e-45
                bare = complex(direct.at(root) / (t[1] * t[1]))
            # one rounding to f64; the zeros are 50-digit noise
            replay = qi._direct_sum_mp(N, p, 50)
            assert abs(replay - bare) <= 1e-15 * abs(bare) + 1e-45, (N, p)

    def test_pochhammer_magnitude_product(self):
        # prod_{k=1}^{N-1} (1 - q^k) = N on the tables the loops read
        for N in (5, 12, 33):
            for ell, r in qi._certificate_fields(N):
                _, _, y = qi._field_tables(N, ell, r)
                prod = 1
                for k in range(1, N):
                    prod = prod * y[k] % ell
                assert prod == N
            with qi._MP_LOCK, mp.workdps(50):
                _, _, y = qi._mp_tables(N, 50)
                assert abs(mp.fprod(y[1:]) - N) < 1e-45 * N


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
            value, abs_sum = fn(30, 6)
            assert abs(value) <= abs_sum * (1 + 1e-12)
