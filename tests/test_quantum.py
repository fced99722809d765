"""Quantum invariant tests: context algebra, colored Jones, dual tau routes.

tau_5(M_1) is pinned from a 50-digit fixed-order replay of the direct sum;
everything else rests on exact identities (Pochhammer recurrence and
magnitude product, color symmetry, the J_N positivity identity) and on the
agreement of the two independent evaluation routes.
"""

import cmath
import math
import random

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

    def test_pochhammer_recurrence(self):
        ctx = RootOfUnityContext(9)
        assert ctx.pochhammer(0) == 1 + 0j
        value = 1 + 0j
        for k in range(1, 9):
            value *= 1 - cmath.exp(2j * math.pi * k / 9)
            assert abs(ctx.pochhammer(k) - value) < 1e-13 * abs(value)

    def test_pochhammer_vanishes_at_order(self):
        ctx = RootOfUnityContext(6)
        assert ctx.pochhammer(6) == 0j
        assert ctx.pochhammer(10) == 0j
        with pytest.raises(DomainError):
            ctx.pochhammer(-1)

    def test_pochhammer_magnitude_product(self):
        # prod_{j=1}^{N-1} |1 - q^j| = N
        for N in (5, 12, 33):
            ctx = RootOfUnityContext(N)
            assert abs(abs(ctx.pochhammer(N - 1)) - N) < 1e-10 * N


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
        expected = sum(abs(ctx.pochhammer(m)) ** 2 for m in range(11))
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

    def test_escalated_region_still_agrees(self):
        # N past ~52 has enough cancellation to force the mpmath replay
        ctx = RootOfUnityContext(60)
        d = formula_discrepancy(wrt_direct(ctx, 6), wrt_double_sum(ctx, 6))
        assert d < 1e-9


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
        for fn in (_kernels.direct_sum, _kernels.double_sum):
            value, abs_sum = fn(30, 6)
            assert abs(value) <= abs_sum * (1 + 1e-12)
