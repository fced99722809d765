"""WRT invariants of integer surgeries on the figure-eight knot.

tau_N(M_p) is evaluated at q = exp(2*pi*i/N) by two algebraically equal
routes: the direct sum over colors weighted by [n]^2 q^{p n^2/4} J_n, and
the Pochhammer-ratio double sum with its prefactor P(N) carried in exact
closed form. Fractional powers q^x mean exp(2*pi*i*x/N) throughout; both
routes share that convention, which is what makes them agree to rounding.

Each route is first summed in float64 (_direct_sum_f64, _double_sum_f64),
which also reports the summed magnitude of its terms. The sum cancels
severely (individual terms grow like exp(0.32*N) while tau_N stays
polynomially bounded; about 0.14*N + 4 digits are lost), so when the
implied rounding noise abs_sum * 1e-15 exceeds a 1e-12 relative budget the
sum is replayed. The first replay round is double-double (about 31 digits;
Dekker, Numer. Math. 18, 1971). The f64 pass and that round compute the
same terms: each is a fixed product of prefix tables (S_k = prod_{a<=k}
t_a and (q)_k, with their inverses), multiplied out over the whole
triangle of terms at once, and all parts of all terms are summed exactly
by math.fsum. The tables are built once per N (_dd_tables) from the
40-digit mpmath tables of the replay (_mp_tables) and split into
double-doubles; the f64 pass reads their hi rows and multiplies in plain
float64, the round multiplies hi and lo parts with Dekker's TwoProd. No
term carries a product from the one before, so the f64 error does not
grow with n: against a 60-digit replay over N = 3..64 and p = 1..4N it
stays below abs_sum * 1.3e-16. The double-double noise floor is
abs_sum * N * 2^-104, 33 times the largest error measured against a
60-digit replay over N = 3..96 at eleven framings in -40..40; at p = 6 it
meets the budget up to N of about 120.
Later rounds run the sum in the same fixed (n, m) order under mpmath, at a
precision taken from the cancellation the previous round measured. A
round whose result is itself rounding noise escalates again at twice its
digits or more, so the precision climbs until the floor clears the budget.

An exact zero of tau_N never clears it, so a double-double round that
misses the budget triggers a zero certificate. Both bare sums lie in Z[zeta],
zeta = exp(pi*i/(2N)), and for a prime l = 1 (mod 4N) the ring map sending
zeta to a primitive 4N-th root of unity in F_l evaluates them exactly. A
sum whose image vanishes modulo two such primes is returned as exact 0j;
any other escalates on, and at the round cap raises PrecisionExhaustedError
instead of returning rounding noise. Public functions return Python complex.

Each route is one exact-arithmetic loop (_direct_sum, _double_sum) over the
tables t_a = 2 sin(pi a/N), zeta^j and y_k = 1 - q^k: the mpmath replay
runs it over mpmath tables (_mp_tables), the certificate over their images
in F_l (_field_tables). The double sum steps its Pochhammer ratio by
multiplying, so the replay divides nothing. The f64 pass and the
double-double round are their own closed form (_direct_sum_dd,
_double_sum_dd), tested against the mpmath replay of these loops.
"""

import cmath
import math
import threading
from functools import lru_cache

import mpmath as mp
import numpy as np

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
_GUARD_DPS = 22
_MAX_ESCALATIONS = 8
_CERTIFICATE_PRIME_FLOOR = 2 ** 61
_CERTIFICATE_PRIMES = 2
_DD_DPS = 40               # digits of the mpmath pass building the DD tables
_DD_NOISE_PER_UNIT = 2.0 ** -104   # DD noise per unit of abs_sum and of N
_DD_BLOCK = 1 << 16        # terms per vectorised block of the DD replay
# mpmath precision state is process-global, and library callers may run
# wrt_direct / wrt_double_sum from several threads; serialize the replays.
_MP_LOCK = threading.Lock()


class RootOfUnityContext:
    """The root of unity q = exp(2*pi*i/N) and its fractional powers.

    Immutable after construction and shareable across threads.
    """

    __slots__ = ("N", "q")

    def __init__(self, N):
        if isinstance(N, bool) or not isinstance(N, int):
            raise DomainError(f"order must be an integer, got {N!r}")
        if N < 3:
            raise DomainError(f"order must be at least 3, got {N}")
        self.N = N
        self.q = cmath.exp(2j * math.pi / N)

    def q_power(self, x):
        """q^x = exp(2*pi*i*x/N), the single fractional-power convention.

        The exponent is reduced mod N before exponentiation so large x
        (such as p*n^2/4) do not lose accuracy to argument growth.
        """
        t = math.fmod(float(x), self.N)
        return cmath.exp(2j * math.pi * t / self.N)

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
    # sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}; 3 - p is reduced by its
    # period 4N keeping its sign, so the float exponent is exact at any p
    return (
        math.sqrt(2.0 / ctx.N)
        * math.sin(math.pi / ctx.N)
        * cmath.exp(-0.75j * math.pi)
        * ctx.q_power(math.copysign(abs(3 - p) % (4 * ctx.N), 3 - p) / 4)
    )


def _escalated(value, abs_sum, N, p, dd_replay, replay, image):
    """Resolve the cancellation in (value, abs_sum) to the relative budget.

    value starts as the f64 result, whose noise floor is abs_sum * 1e-15.
    The first replay round is dd_replay(N, p), in double-double with floor
    abs_sum * N * 2^-104. If it misses the budget, _certified_zero(image,
    N, p) is asked whether the sum is exactly zero, and if so 0j is
    returned. Up to _MAX_ESCALATIONS rounds of replay(N, p, dps) under
    mpmath follow, with floor abs_sum * 10^-dps. Each picks its precision
    from the digits lost against the larger of the current value and the
    current floor, plus _GUARD_DPS. After a round whose value lies within
    its own floor, and so resolved no digit, it takes at least twice that
    round's digits; the guard alone would add only 22 digits a round.
    errors: DomainError when the f64 pass is not finite (it overflows past
    N of about 2000); PrecisionExhaustedError when the last mpmath round
    still misses the budget.
    """
    if not (cmath.isfinite(value) and math.isfinite(abs_sum)):
        raise DomainError(f"tau_{N}(M_{p}): the f64 sum overflowed at N = {N}")
    if abs_sum * _NOISE_PER_UNIT <= _RELATIVE_BUDGET * abs(value):
        return value
    value = dd_replay(N, p)
    noise = abs_sum * N * _DD_NOISE_PER_UNIT
    dps = 0
    for rounds in range(_MAX_ESCALATIONS + 1):
        if noise <= _RELATIVE_BUDGET * abs(value):
            return value
        if rounds == 0 and _certified_zero(image, N, p):
            return 0j
        if rounds == _MAX_ESCALATIONS:
            break
        floor = max(abs(value), noise)
        lost = max(math.log10(abs_sum) - math.log10(floor), 0.0)
        dps = max(_GUARD_DPS + int(math.ceil(lost)), dps + 1,
                  2 * dps if abs(value) <= noise else 0)
        value = replay(N, p, dps)
        # abs_sum * 10^-dps; 10.0 ** -dps alone underflows past 323 digits
        noise = max(10.0 ** (math.log10(abs_sum) - dps), 1e-300)
    raise PrecisionExhaustedError(
        f"tau_{N}(M_{p}): a double-double round and {_MAX_ESCALATIONS} "
        f"mpmath rounds up to {dps} digits missed the {_RELATIVE_BUDGET:g} "
        f"relative budget, and the sum is not certified zero"
    )


def _direct_sum(N, p, t, zeta, reduce):
    """t_1^2 times the bare direct sum, in the ring of the tables.

    t[a] = 2 sin(pi a/N) and zeta[j] = zeta^j, zeta = exp(pi*i/(2N)), as
    _mp_tables builds them; reduce(v) is v in the ring's canonical form.
    [n]^2 = (t_n / t_1)^2 and each colored Jones factor pair is
    -t_{n+l} t_{n-l}, so the loop needs no division: the caller divides by
    t_1^2 where it needs the bare sum.
    """
    total = 0
    for n in range(1, N):
        prod = jsum = 1
        for l in range(1, n):
            prod = reduce(-prod * t[n + l] * t[n - l])
            jsum += prod
        total += reduce(t[n] * t[n] * jsum) * zeta[(p * n * n) % (4 * N)]
    return reduce(total)


def _double_sum(N, p, y, zeta, reduce):
    """The bare double sum, in the ring of the tables.

    y[k] = 1 - q^k and zeta as for _direct_sum. The Pochhammer ratio
    (q)_n (q)_{n+m} / ((q)_{n-1} (q)_{n-m-1}) is y_n prod_{j=n-m}^{n+m} y_j,
    so each step m multiplies in y_{n+m} y_{n-m} and nothing is divided.
    n + m >= N contributes exactly 0 via (q)_{n+m} = 0; skip it.
    """
    total = 0
    for n in range(1, N):
        ratio = 1
        for m in range(min(n, N - n)):
            ratio = reduce(ratio * y[n + m] * y[n - m])
            total += ratio * zeta[(p * n * n - 4 * n * m - 4 * n) % (4 * N)]
    return reduce(total)


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


def _field_tables(N, ell, r):
    """The replay's three tables in F_ell under zeta -> r, i = zeta^N -> r^N;
    t_a = -i (zeta^{2a} - zeta^{-2a}) becomes zeta^{3N+2a} - zeta^{3N-2a}."""
    order = 4 * N
    zeta = [pow(r, j, ell) for j in range(order)]
    t = [(zeta[(3 * N + 2 * a) % order] - zeta[(3 * N - 2 * a) % order]) % ell
         for a in range(2 * N)]
    y = [(1 - zeta[4 * k]) % ell for k in range(N)]
    return t, zeta, y


def _direct_sum_mod(N, p, ell, r):
    """Image in F_ell of _direct_sum: t_1^2, a unit, times the bare sum."""
    t, zeta, _ = _field_tables(N, ell, r)
    return _direct_sum(N, p, t, zeta, lambda v: v % ell)


def _double_sum_mod(N, p, ell, r):
    """Image in F_ell of the bare double sum under zeta -> r."""
    _, zeta, y = _field_tables(N, ell, r)
    return _double_sum(N, p, y, zeta, lambda v: v % ell)


def _certified_zero(image, N, p):
    """True when image(N, p, l, r) vanishes in every certificate field.

    The image is a ring map of a sum in Z[zeta], so a true zero always
    passes. A nonzero sum that passed would have to lie in a degree-one
    prime above each of two primes near 2^61, and, since _escalated asks
    only after its double-double round missed the budget, that round's
    value would also have to sit within 1e12 times its noise floor
    abs_sum * N * 2^-104. The check proves nothing beyond those conditions.
    """
    return all(image(N, p, ell, r) == 0 for ell, r in _certificate_fields(N))


@lru_cache(maxsize=8)
def _mp_tables(N, dps):
    """t_a = 2 sin(pi a/N) = 2 Im zeta^{2a}, zeta^j = exp(pi i j/(2N)) and
    y_k = 1 - q^k.

    The replay's tables at dps digits (0 <= a < 2N, 0 <= j < 4N, 0 <= k < N);
    the certificate runs the same loops over their images in F_l, and the
    double sum divides nothing. _dd_tables builds the double-double tables
    from them at _DD_DPS digits. Call while holding _MP_LOCK.
    """
    with mp.workdps(dps):
        zeta = [mp.expjpi(mp.mpf(j) / (2 * N)) for j in range(4 * N)]
        t = [2 * zeta[2 * a].imag for a in range(2 * N)]
        y = [1 - zeta[4 * k] for k in range(N)]
    return t, zeta, y


_SPLITTER = 134217729.0    # 2^27 + 1: Dekker's split of a float64 into halves


def _two_prod(a, b):
    """(p, e) with p + e = a * b exactly (Dekker's TwoProd; numpy has no fma)."""
    p = a * b
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLITTER * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_mul(a, b):
    """Product of double-doubles a = (hi, lo) and b, renormalized."""
    p, e = _two_prod(a[0], b[0])
    e = e + (a[0] * b[1] + a[1] * b[0])
    hi = p + e
    return hi, e - (hi - p)


def _dd_add(a, b):
    """Sum of double-doubles a = (hi, lo) and b, renormalized (TwoSum)."""
    s = a[0] + b[0]
    v = s - a[0]
    e = (a[0] - (s - v)) + (b[0] - v) + a[1] + b[1]
    hi = s + e
    return hi, e - (hi - s)


def _dd_cmul(a, b):
    """Product of complex double-doubles a = (re_hi, re_lo, im_hi, im_lo)
    and b, as the same four arrays."""
    rr = _dd_mul(a[:2], b[:2])
    ii = _dd_mul(a[2:], b[2:])
    ri = _dd_mul(a[:2], b[2:])
    ir = _dd_mul(a[2:], b[:2])
    return (*_dd_add(rr, (-ii[0], -ii[1])), *_dd_add(ri, ir))


def _dd_split(values):
    """The mpf values as a (2, len) float64 array of (hi, lo) rows."""
    hi = [float(v) for v in values]
    return np.array([hi, [float(v - h) for v, h in zip(values, hi)]])


def _dd_split_complex(values):
    """The mpc values as a (4, len) array of (re_hi, re_lo, im_hi, im_lo)."""
    return np.concatenate([_dd_split([v.real for v in values]),
                           _dd_split([v.imag for v in values])])


def _dd_phases(zeta, N, p):
    """zeta^{p n^2} for 0 <= n < N from the (4, 4N) table zeta^j."""
    n = np.arange(N)
    return zeta[:, (p % (4 * N)) * n * n % (4 * N)]


def _triangle_sum(N, terms, width):
    """Exact sums of the arrays terms(n, l) over the triangle 1 <= n < N,
    0 <= l < min(n, N - n), where neither sum vanishes exactly.

    terms takes index arrays and returns float64 arrays, read in groups of
    width consecutive arrays; the result lists, per group, math.fsum of all
    its parts, the correctly rounded exact sum. Past _DD_BLOCK terms (N
    above about 510) the triangle runs in blocks of whole rows, which
    bounds the memory, and each block keeps its rounded sum and the
    rounded exact remainder, within 2^-106 of the block's sum.
    """
    rows = np.arange(1, N)
    counts = np.minimum(rows, N - rows)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_DD_BLOCK, ends[-1], _DD_BLOCK))
    partials = {}
    for n, count in zip(np.split(rows, cuts), np.split(counts, cuts)):
        starts = np.repeat(np.cumsum(count) - count, count)
        n = np.repeat(n, count)
        arrays = terms(n, np.arange(len(n)) - starts)
        for k in range(0, len(arrays), width):
            partial = partials.setdefault(k, [])
            parts = np.concatenate(arrays[k:k + width]).tolist()
            partial.append(math.fsum(parts))
            if len(cuts):
                parts.append(-partial[-1])
                partial.append(math.fsum(parts))
    return [math.fsum(partial) for partial in partials.values()]


@lru_cache(maxsize=8)
def _dd_tables(N):
    """Double-double tables of both routes at order N, as (S, 1/S, c, A, B,
    Y, zeta), built from _mp_tables(N, _DD_DPS).

    The direct sum reads S_k = prod_{a=1}^{k} t_a, 1/S_k and c_k = t_k / t_1^2.
    In the double sum, with i = n + m and j = n - m - 1, zeta^{-4nm} =
    zeta^{-i^2} zeta^{(j+1)^2}, so its tables fold that in: A_i = (q)_i
    zeta^{-i^2}, B_j = zeta^{(j+1)^2} / (q)_j and Y_n = y_n zeta^{-4n}.
    Indices run over 0..N-1, except zeta^j (0 <= j < 4N), which both read.
    The f64 pass reads their hi rows: row 0 of a real table, rows 0 and 2
    (re_hi, im_hi) of a complex one.
    """
    order = 4 * N
    with _MP_LOCK, mp.workdps(_DD_DPS):
        t, zeta, y = _mp_tables(N, _DD_DPS)
        prefix, poch = [mp.mpf(1)], [mp.mpc(1)]
        for k in range(1, N):
            prefix.append(prefix[-1] * t[k])
            poch.append(poch[-1] * y[k])
        return (_dd_split(prefix), _dd_split([1 / v for v in prefix]),
                _dd_split([v / (t[1] * t[1]) for v in t[:N]]),
                _dd_split_complex([poch[i] * zeta[-i * i % order]
                                   for i in range(N)]),
                _dd_split_complex([zeta[(j + 1) ** 2 % order] / poch[j]
                                   for j in range(N)]),
                _dd_split_complex([y[k] * zeta[-4 * k % order]
                                   for k in range(N)]),
                _dd_split_complex(zeta))


def _direct_sum_dd(N, p):
    """The bare direct sum in double-double arithmetic.

    Term (n, l) of _direct_sum over t_1^2 is
    (-1)^l S_{n+l} / S_{n-l-1} * t_n zeta^{p n^2} / t_1^2, a fixed product
    of table entries, so no product is carried from step to step.
    """
    S, S_inv, c, *_, zeta = _dd_tables(N)
    phase = _dd_phases(zeta, N, p)
    coef = np.array([*_dd_mul(c, phase[:2]), *_dd_mul(c, phase[2:])])

    def terms(n, l):
        hi, lo = _dd_mul(S[:, n + l], S_inv[:, n - l - 1])
        sign = 1.0 - 2.0 * (l & 1)
        ratio = (sign * hi, sign * lo)
        return (*_dd_mul(ratio, coef[:2, n]), *_dd_mul(ratio, coef[2:, n]))

    return complex(*_triangle_sum(N, terms, 2))


def _double_sum_dd(N, p):
    """The bare double sum in double-double arithmetic.

    Term (n, m) of _double_sum is A_{n+m} B_{n-m-1} * Y_n zeta^{p n^2} in
    the tables of _dd_tables.
    """
    *_, A, B, Y, zeta = _dd_tables(N)
    coef = np.array(_dd_cmul(Y, _dd_phases(zeta, N, p)))
    return complex(*_triangle_sum(N, lambda n, m: _dd_cmul(
        _dd_cmul(A[:, n + m], B[:, n - m - 1]), coef[:, n]), 2))


def _hi(z):
    """The hi parts of the complex double-doubles z as complex128."""
    return z[0] + 1j * z[2]


@np.errstate(over="ignore", invalid="ignore")
def _f64_triangle_sum(N, term):
    """(sum, sum of moduli) of the complex128 terms term(n, l), both
    summed exactly by _triangle_sum. Past N of about 2000 the terms
    overflow, math.fsum raises, and (nan, inf) is returned.
    """
    def parts(n, l):
        t = term(n, l)
        return t.real, t.imag, np.abs(t)

    try:
        re, im, abs_sum = _triangle_sum(N, parts, 1)
    except (ValueError, OverflowError):
        return complex(math.nan, math.nan), math.inf
    return complex(re, im), abs_sum


def _direct_sum_f64(N, p):
    """The terms of _direct_sum_dd in float64 from the hi rows of its
    tables, summed as _f64_triangle_sum; each is the same fixed product,
    so its error does not grow with n."""
    S, S_inv, c, *_, zeta = _dd_tables(N)
    coef = c[0] * _hi(_dd_phases(zeta, N, p))
    return _f64_triangle_sum(N, lambda n, l: (
        (1.0 - 2.0 * (l & 1)) * S[0, n + l] * S_inv[0, n - l - 1] * coef[n]))


def _double_sum_f64(N, p):
    """The terms of _double_sum_dd in float64 from the hi rows of its
    tables, summed as _f64_triangle_sum."""
    *_, A, B, Y, zeta = _dd_tables(N)
    A, B, coef = _hi(A), _hi(B), _hi(Y) * _hi(_dd_phases(zeta, N, p))
    return _f64_triangle_sum(N, lambda n, m: A[n + m] * B[n - m - 1] * coef[n])


def _direct_sum_mp(N, p, dps):
    with _MP_LOCK, mp.workdps(dps):
        t, zeta, _ = _mp_tables(N, dps)
        return complex(_direct_sum(N, p, t, zeta, lambda v: v) / (t[1] * t[1]))


def _double_sum_mp(N, p, dps):
    with _MP_LOCK, mp.workdps(dps):
        _, zeta, y = _mp_tables(N, dps)
        return complex(_double_sum(N, p, y, zeta, lambda v: v))


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
    value = _escalated(value, abs_sum, ctx.N, p,
                       _direct_sum_dd, _direct_sum_mp, _direct_sum_mod)
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
    value = _escalated(value, abs_sum, ctx.N, p,
                       _double_sum_dd, _double_sum_mp, _double_sum_mod)
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
