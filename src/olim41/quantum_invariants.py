"""WRT invariants of integer surgeries on the figure-eight knot.

tau_N(M_p) is evaluated at q = exp(2*pi*i/N) by two algebraically equal
routes: the direct sum over colors weighted by [n]^2 q^{p n^2/4} J_n, and
the Pochhammer-ratio double sum with its prefactor P(N) carried in exact
closed form. Fractional powers q^x mean exp(2*pi*i*x/N) throughout; both
routes share that convention, which is what makes them agree to rounding.

The f64 kernels also report the summed magnitude of their terms. The sum
cancels severely (individual terms grow like exp(0.32*N) while tau_N stays
polynomially bounded), so when the implied rounding noise abs_sum * 1e-15
exceeds a 1e-12 relative budget the sum is replayed in the same fixed
(n, m) order under mpmath. The replay precision comes from the measured
cancellation of the previous round and is re-checked after each replay: a
round whose result is itself pure rounding noise (the true value sits far
below that round's floor) escalates again instead of being trusted, so
the precision climbs geometrically until the floor clears the budget.

An exact zero of tau_N never clears it, so a first replay round that misses
the budget triggers a zero certificate. Both bare sums lie in Z[zeta],
zeta = exp(pi*i/(2N)), and for a prime l = 1 (mod 4N) the ring map sending
zeta to a primitive 4N-th root of unity in F_l evaluates the same sum
exactly in O(N^2) integer operations. A sum whose image vanishes modulo two
such primes is returned as exact 0j; otherwise escalation goes on, and a
sum that still misses the budget at the round cap raises
PrecisionExhaustedError instead of returning rounding noise. tau_N itself
fits comfortably in a machine complex, which is what every public function
returns.
"""

import cmath
import math
import threading
from functools import lru_cache

import mpmath as mp

from ._kernels import direct_sum as _direct_sum_f64
from ._kernels import double_sum as _double_sum_f64
from .errors import (
    DomainError,
    PrecisionExhaustedError,
    UnsupportedFramingError,
    checked_framing,
)

__all__ = [
    "RootOfUnityContext",
    "quantum_integer",
    "colored_jones_fig8",
    "wrt_direct",
    "wrt_double_sum",
    "growth_profile",
    "formula_discrepancy",
]

_NOISE_PER_UNIT = 1e-15    # f64 accumulation noise per unit of summed magnitude
_RELATIVE_BUDGET = 1e-12   # relative accuracy target for the returned invariant
_MIN_DPS = 25
_GUARD_DPS = 22
_MAX_ESCALATIONS = 8
_CERTIFICATE_PRIME_FLOOR = 2 ** 61
_CERTIFICATE_PRIMES = 2
# mpmath precision state is process-global, and library callers may run
# wrt_direct / wrt_double_sum from several threads; serialize the replays.
_MP_LOCK = threading.Lock()


class RootOfUnityContext:
    """The root of unity q = exp(2*pi*i/N) with its power and Pochhammer tables.

    Immutable after construction and shareable across threads.
    """

    __slots__ = ("N", "q", "_poch")

    def __init__(self, N):
        if isinstance(N, bool) or not isinstance(N, int):
            raise DomainError(f"order must be an integer, got {N!r}")
        if N < 3:
            raise DomainError(f"order must be at least 3, got {N}")
        self.N = N
        self.q = cmath.exp(2j * math.pi / N)
        poch = [1 + 0j] * N
        for k in range(1, N):
            poch[k] = poch[k - 1] * (1 - cmath.exp(2j * math.pi * k / N))
        self._poch = tuple(poch)

    def q_power(self, x):
        """q^x = exp(2*pi*i*x/N), the single fractional-power convention.

        The exponent is reduced mod N before exponentiation so large x
        (such as p*n^2/4) do not lose accuracy to argument growth.
        """
        t = math.fmod(float(x), self.N)
        return cmath.exp(2j * math.pi * t / self.N)

    def pochhammer(self, k):
        """(q)_k = prod_{j=1}^{k} (1 - q^j); zero for k >= N since 1 - q^N = 0."""
        if k < 0:
            raise DomainError(f"Pochhammer index must be nonnegative, got {k}")
        if k >= self.N:
            return 0j
        return self._poch[k]

    def __repr__(self):
        return f"RootOfUnityContext(N={self.N})"


def quantum_integer(ctx, n):
    """[n] = sin(n*pi/N) / sin(pi/N), the balanced quantum integer at q.

    [0] and [N] vanish; both are accepted and return exactly 0.0 so callers
    can treat those colors as degenerate instead of handling an error.
    """
    if n < 0 or n > ctx.N:
        raise DomainError(f"color must satisfy 0 <= n <= N, got n={n} at N={ctx.N}")
    if n == 0 or n == ctx.N:
        return 0.0
    return math.sin(n * math.pi / ctx.N) / math.sin(math.pi / ctx.N)


def colored_jones_fig8(ctx, n):
    """Colored Jones value J_n(4_1; q), normalized so J_1 = 1.

    J_n = sum_{m=0}^{n-1} prod_{l=1}^{m}
              (q^{(n+l)/2} - q^{-(n+l)/2}) (q^{(n-l)/2} - q^{-(n-l)/2})
    with fractional powers in the q^x convention of the context. Each
    factor is a product of two imaginary differences, so the value is real;
    it is returned as computed, letting tests check that cancellation. At
    n = N the factors pair into |1 - q^l|^2 and J_N = sum_m |(q)_m|^2.
    """
    if n < 1 or n > ctx.N:
        raise DomainError(f"color must satisfy 1 <= n <= N, got n={n} at N={ctx.N}")
    total = 1 + 0j
    prod = 1 + 0j
    for l in range(1, n):
        a = ctx.q_power((n + l) / 2) - ctx.q_power(-(n + l) / 2)
        b = ctx.q_power((n - l) / 2) - ctx.q_power(-(n - l) / 2)
        prod *= a * b
        total += prod
    return total


def _prefactor(ctx, p):
    # sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}
    return (
        math.sqrt(2.0 / ctx.N)
        * math.sin(math.pi / ctx.N)
        * cmath.exp(-0.75j * math.pi)
        * ctx.q_power((3 - p) / 4)
    )


def _escalated(value, abs_sum, N, p, replay, image):
    """Resolve the cancellation in (value, abs_sum) to the relative budget.

    value starts as the f64 result, whose noise floor is abs_sum * 1e-15;
    a replay(N, p, dps) at dps digits has floor abs_sum * 10^-dps. Each
    round picks its precision from the digits lost against the larger of
    the current value and the current floor, so a round that lands on pure
    rounding noise raises the precision by the guard amount and tries
    again. If the first replay misses the budget, _certified_zero(image,
    N, p) is asked whether the sum is exactly zero, and if so 0j is
    returned. errors: PrecisionExhaustedError when _MAX_ESCALATIONS
    replays still miss the budget.
    """
    noise = abs_sum * _NOISE_PER_UNIT
    dps = 0
    for rounds in range(_MAX_ESCALATIONS + 1):
        if noise <= _RELATIVE_BUDGET * abs(value):
            return value
        if rounds == 1 and _certified_zero(image, N, p):
            return 0j
        if rounds == _MAX_ESCALATIONS:
            break
        floor = max(abs(value), noise, 1e-300)
        lost = math.log10(max(abs_sum / floor, 1.0))
        dps = max(_MIN_DPS, _GUARD_DPS + int(math.ceil(lost)), dps + 1)
        value = replay(N, p, dps)
        noise = abs_sum * 10.0 ** (-dps)
    raise PrecisionExhaustedError(
        f"tau_{N}(M_{p}): {_MAX_ESCALATIONS} replay rounds up to {dps} digits "
        f"missed the {_RELATIVE_BUDGET:g} relative budget, and the sum is not "
        f"certified zero"
    )


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=128)
def _certificate_fields(N):
    """(l, r) pairs for the zero certificate at order N.

    l runs over the first _CERTIFICATE_PRIMES primes above 2^61 with
    l = 1 (mod 4N), and r is the first power g^((l-1)/(4N)), g = 2, 3, ...,
    of multiplicative order exactly 4N mod l. zeta = exp(pi*i/(2N)) -> r
    then extends to a ring map Z[zeta] -> F_l. The choice is deterministic,
    so certified results are reproducible.
    """
    order = 4 * N
    divisors = [d for d in range(1, order) if order % d == 0]
    fields = []
    ell = (_CERTIFICATE_PRIME_FLOOR // order + 1) * order + 1
    while len(fields) < _CERTIFICATE_PRIMES:
        if _is_prime(ell):
            g = 2
            while True:
                r = pow(g, (ell - 1) // order, ell)
                if all(pow(r, d, ell) != 1 for d in divisors):
                    break
                g += 1
            fields.append((ell, r))
        ell += order
    return tuple(fields)


def _direct_sum_mod(N, p, ell, r):
    """Image in F_ell of the bare direct sum under zeta -> r.

    With x_a = zeta^{2a} - zeta^{-2a}, the factor -4 sin(pi a/N) sin(pi b/N)
    is x_a x_b and [n]^2 = (x_n / x_1)^2; x_1 is a unit since r has order 4N.
    """
    zeta = [pow(r, j, ell) for j in range(4 * N)]
    x = [(zeta[2 * a] - zeta[-2 * a]) % ell for a in range(2 * N)]
    inv_x1 = pow(x[1], -1, ell)
    total = 0
    for n in range(1, N):
        prod = 1
        jsum = 1
        for l in range(1, n):
            prod = prod * x[n + l] * x[n - l] % ell
            jsum += prod
        bracket = x[n] * inv_x1 % ell
        total += bracket * bracket % ell * jsum % ell * zeta[(p * n * n) % (4 * N)]
    return total % ell


def _double_sum_mod(N, p, ell, r):
    """Image in F_ell of the bare double sum under zeta -> r.

    Each Pochhammer ratio is the polynomial (1 - q^n) prod_{j=n-m}^{n+m}
    (1 - q^j) with q = zeta^4; step m -> m+1 multiplies in
    (1 - q^{n+m+1}) (1 - q^{n-m-1}).
    """
    zeta = [pow(r, j, ell) for j in range(4 * N)]
    y = [(1 - zeta[4 * j]) % ell for j in range(N)]
    total = 0
    for n in range(1, N):
        ratio = y[n] * y[n] % ell
        for m in range(min(n, N - n)):
            if m:
                ratio = ratio * y[n + m] % ell * y[n - m] % ell
            total += ratio * zeta[(p * n * n - 4 * n * m - 4 * n) % (4 * N)]
    return total % ell


def _certified_zero(image, N, p):
    """True when image(N, p, l, r) vanishes in every certificate field.

    The image is a ring map of a sum in Z[zeta], so a true zero always
    passes. A nonzero sum that passed would have to lie in a degree-one
    prime above each of two primes near 2^61, and, since _escalated asks
    only after its first replay missed the budget, that replayed value
    would also have to sit within 1e12 times that round's noise floor
    abs_sum * 10^-dps. The check proves nothing beyond those conditions.
    """
    return all(image(N, p, ell, r) == 0 for ell, r in _certificate_fields(N))


@lru_cache(maxsize=8)
def _mp_tables(N, dps):
    """sin(pi k/N), exp(pi i j/(2N)), and (q)_k tables at dps digits.

    Shared across surgery coefficients; call while holding _MP_LOCK.
    """
    with mp.workdps(dps):
        sin_tbl = [mp.sinpi(mp.mpf(k) / N) for k in range(2 * N)]
        phase = [mp.expjpi(mp.mpf(j) / (2 * N)) for j in range(4 * N)]
        poch = [mp.mpc(1)] * N
        for k in range(1, N):
            poch[k] = poch[k - 1] * (1 - phase[(4 * k) % (4 * N)])
    return sin_tbl, phase, poch


def _direct_sum_mp(N, p, dps):
    with _MP_LOCK, mp.workdps(dps):
        sin_tbl, phase, _ = _mp_tables(N, dps)
        s1 = sin_tbl[1]
        total = mp.mpc(0)
        for n in range(1, N):
            prod = mp.mpf(1)
            jsum = mp.mpf(1)
            for l in range(1, n):
                prod *= -4 * sin_tbl[(n + l) % (2 * N)] * sin_tbl[n - l]
                jsum += prod
            bracket = (sin_tbl[n] / s1) ** 2
            total += bracket * jsum * phase[(p * n * n) % (4 * N)]
        return complex(total)


def _double_sum_mp(N, p, dps):
    with _MP_LOCK, mp.workdps(dps):
        sin_tbl, phase, poch = _mp_tables(N, dps)
        total = mp.mpc(0)
        for n in range(1, N):
            # n + m >= N contributes exactly 0 via (q)_{n+m} = 0; skip it.
            for m in range(min(n, N - n)):
                ratio = poch[n] * poch[n + m] / (poch[n - 1] * poch[n - m - 1])
                total += ratio * phase[(p * n * n - 4 * n * m - 4 * n) % (4 * N)]
        return complex(total)


def wrt_direct(ctx, p):
    """tau_N(M_p) from the direct color sum; positive framing only.

    tau_N = sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}
            * sum_{n=1}^{N-1} [n]^2 q^{p n^2/4} J_n(4_1; q).

    errors: UnsupportedFramingError for p <= 0, where this prefactor is
    not valid; wrt_double_sum covers every integer framing.
    """
    p = checked_framing(p)
    if p <= 0:
        raise UnsupportedFramingError(
            f"direct form requires a positive surgery coefficient, got {p}"
        )
    value, abs_sum = _direct_sum_f64(ctx.N, p)
    value = _escalated(value, abs_sum, ctx.N, p, _direct_sum_mp, _direct_sum_mod)
    if not value:
        return 0j
    return _prefactor(ctx, p) * value


def wrt_double_sum(ctx, p):
    """tau_N(M_p) from the Pochhammer-ratio double sum; any integer framing.

    tau_N = P(N) * sum_{n=1}^{N-1} sum_{m=0}^{n-1}
            (q)_n (q)_{n+m} / ((q)_{n-1} (q)_{n-m-1}) * q^{n(p n/4 - m) - n},
    with P(N) = sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}
                / (q^{1/2} - q^{-1/2})^2
    carried exactly, so this is a true second evaluation of tau_N rather
    than a proportional one. For p <= 0 this form is taken as the
    definition. The figure-eight knot is amphichiral, so M_{-p} is M_p
    with its orientation reversed, and the two framings obey
    tau_N(M_p) = e^{i pi (1/2 + 3/N)} conj(tau_N(M_{-p})), a phase of the
    prefactor convention. It holds to 1e-13 at every 3 <= N <= 31 and
    1 <= |p| <= 8, where exact zeros pair with exact zeros.
    """
    p = checked_framing(p)
    value, abs_sum = _double_sum_f64(ctx.N, p)
    value = _escalated(value, abs_sum, ctx.N, p, _double_sum_mp, _double_sum_mod)
    if not value:
        return 0j
    denom = (ctx.q_power(0.5) - ctx.q_power(-0.5)) ** 2
    return _prefactor(ctx, p) * value / denom


def growth_profile(p, N_values):
    """Rows (N, log|tau_N|, log|tau_N|/N, log|tau_N|/log N), sorted by N.

    Probes the growth class of the invariant: polynomial growth makes the
    /N column decay toward zero while the /log N column stays bounded.
    An exact zero of tau_N reports -inf in the log columns.
    """
    rows = []
    for N in sorted(N_values):
        tau = wrt_direct(RootOfUnityContext(N), p)
        log_tau = math.log(abs(tau)) if tau != 0 else float("-inf")
        rows.append((N, log_tau, log_tau / N, log_tau / math.log(N)))
    return rows


def formula_discrepancy(a, b):
    """Disagreement between the two tau_N routes, guarded against zeros.

    Relative when max(|a|, |b|) >= 1e-12, absolute below that, since tau_N
    has exact zeros. Measured over N = 3..64, |p| <= 10, they are: every
    odd N with p = 2 (mod 4); (N, p) = (9, +-9); and, in the double sum,
    p = 0 at N = +-1 (mod 5). (11, +-11) is another zero off that grid.
    The first family is the one Kirby-Melvin's factorization
    tau_N = tau_3 tau'_N for odd N (Invent. Math. 105, 1991) gives, since
    tau_3(M_p) vanishes at exactly those p on the measured range.
    """
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    return diff / scale if scale >= 1e-12 else diff
