"""WRT invariants of integer surgeries on the figure-eight knot.

tau_N(M_p) is evaluated at q = exp(2*pi*i/N) by two algebraically equal
routes: the direct sum over colors weighted by [n]^2 q^{p n^2/4} J_n, and
the Pochhammer-ratio double sum with its prefactor P(N) carried in exact
closed form. Fractional powers q^x mean exp(2*pi*i*x/N) throughout; both
routes share that convention, which is what makes them agree to rounding.

Both bare sums lie in Z[zeta], zeta = exp(pi*i/(2N)) = q^{1/4}, and each
route is stated once (_route_tables): in every ring, D times the bare sum
is sum_{n=1}^{N-1} c_n zeta^{p n^2} sum_{m<min(n, N-n)} A_{n+m} B_{n-m-1},
where each entry of A and B is a sign or a power of zeta times a prefix
product, S_k = prod_{a<=k} 2 sin(pi a/N) or (q)_k = prod_{j<=k} (1 - q^j).
A reads the products forward and B backward, so no table divides; the
only division is by D. The framing enters only through the phase
zeta^{p n^2} of row n, so each ring sums its rows once (_rows) and a
framing costs one dot of the N rows with its phases (_framed).

Round 1 of each route (_direct_sum_f64, _double_sum_f64) is double-double
arithmetic (about 31 digits; Dekker, Numer. Math. 18, 1971), and reports
the summed magnitude abs_sum of the sum's terms with its value. The sum
cancels severely (individual terms grow like exp(0.32*N) while tau_N stays
polynomially bounded; about 0.14*N + 4 digits are lost), so when the
round's noise floor exceeds a 1e-12 relative budget the sum is replayed.
Its tables (_dd_tables) are A, B and c/D over the replay's 40-digit mpmath
tables (_mp_tables), split into double-doubles. _mp_tables computes zeta^j,
t_a and y_k only for indices up to N/2 and fills the rest by exact part
swaps, negations and conjugations; _dd_tables splits zeta^j only for j < N
and fills the rest by the exact rotation zeta^{j+N} = i zeta^j. Each row is
summed exactly once per order, with Dekker's TwoProd and math.fsum, and
rounded to a double-double (_rows_dd), as is abs_sum, since
|zeta^{p n^2}| = 1; a complex product is one stacked TwoProd of the
(re, im) parts (_dd_cmul). No term carries a product from the one before,
so the error does not grow with n. The noise floor is
abs_sum * N * 2^-104, 33 times the largest error measured against a
60-digit replay over N = 3..96 at eleven framings in -40..40; at p = 6 it
meets the budget up to N of about 120. Later rounds run _rows under
mpmath, at a precision taken from the cancellation the previous round
measured, and divide by D. A round whose result is itself rounding noise
escalates again at twice its digits or more.

An exact zero of tau_N never clears the budget, so a double-double round
that misses it triggers a zero certificate. For a prime l = 1 (mod 4N) the
ring map sending zeta to a primitive 4N-th root of unity in F_l evaluates
both sums exactly; the certificate runs _rows over the images of the
tables (_field_image) and skips D, a unit there. A sum whose image vanishes
modulo two such primes is returned as exact 0j; any other escalates on,
and at the round cap raises PrecisionExhaustedError instead of returning
rounding noise. Every table and row set built per order, of round 1 and
the certificate, is kept on the caller's RootOfUnityContext, so a further
framing costs O(N). Public functions return Python complex.

Precision lives on the tables: _mp_tables builds each in a private mpmath
context at its digits (_mp_context), so all arithmetic on their entries
runs at that precision wherever it is called, and no code here reads or
sets mpmath's global precision. The one lock, _MP_LOCK, covers only
_mp_tables' transcendental calls, because mpmath memoizes pi in shared
state without a lock. Threads may call any public function, also while
they change mpmath's precision themselves.
"""

import cmath
import math
import operator
import sys
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

_RELATIVE_BUDGET = 1e-12   # relative accuracy target for the returned invariant
_GUARD_DPS = 22
_MAX_ESCALATIONS = 8
_CERTIFICATE_PRIME_FLOOR = 2 ** 61
_CERTIFICATE_PRIMES = 2
_DD_DPS = 40               # digits of the mpmath pass building the DD tables
_DD_NOISE_PER_UNIT = 2.0 ** -104   # DD noise per unit of abs_sum and of N
_DD_BLOCK = 1 << 16        # terms per vectorised block of the DD row build
# mpmath memoizes pi in shared state without a lock; _mp_tables holds this
# around its expjpi calls, the package's only transcendental ones.
_MP_LOCK = threading.Lock()


class RootOfUnityContext:
    """The root of unity q = exp(2*pi*i/N) and its fractional powers.

    It also keeps, as long as it lives, what tau evaluations build once
    per order, each set on first use: round 1's tables and rows, and the
    zero certificate's fields with their F_l tables and rows. Shareable
    across threads without a lock: two threads that race on one set may
    each build it, and the builds agree.
    """

    __slots__ = ("N", "q", "_state")

    def __init__(self, N):
        if isinstance(N, bool) or not isinstance(N, int):
            raise DomainError(f"order must be an integer, got {N!r}")
        if N < 3:
            raise DomainError(f"order must be at least 3, got {N}")
        self.N = N
        self.q = cmath.exp(2j * math.pi / N)
        self._state = {}

    def _kept(self, key, build, *args):
        """build(*args), called on the first request for key and kept."""
        if key not in self._state:
            self._state[key] = build(*args)
        return self._state[key]

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


def _escalated(value, abs_sum, ctx, p, replay, route):
    """Resolve the cancellation in round 1's (value, abs_sum) of route
    ("direct" or "double") to the relative budget.

    value starts as the double-double round, with noise floor
    abs_sum * N * 2^-104. If it misses the budget, _certified_zero(ctx, p,
    route) is asked whether the sum is exactly zero, and if so 0j is
    returned. Up to _MAX_ESCALATIONS rounds of replay(N, p, dps) under
    mpmath follow, with floor abs_sum * 10^-dps. Each picks its precision
    from the digits lost against the larger of the current value and the
    current floor, plus _GUARD_DPS. After a round whose value lies within
    its own floor, and so resolved no digit, it takes at least twice that
    round's digits; the guard alone would add only 22 digits a round.
    errors: DomainError when round 1 is not finite (its row build
    overflows from N of about 2150); PrecisionExhaustedError when the last
    mpmath round still misses the budget.
    """
    N = ctx.N
    if not (cmath.isfinite(value) and math.isfinite(abs_sum)):
        raise DomainError(
            f"tau_{N}(M_{p}): the double-double row build overflowed at N = {N}")
    noise = abs_sum * N * _DD_NOISE_PER_UNIT
    dps = 0
    for rounds in range(_MAX_ESCALATIONS + 1):
        if noise <= _RELATIVE_BUDGET * abs(value):
            return value
        if rounds == 0 and _certified_zero(ctx, p, route):
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


def _exact(value):
    """The reduce argument of the sums for mpmath, which rounds as it goes."""
    return value


def _route_tables(N, t, zeta, y, route, reduce):
    """(A, B, c, D) of route ("direct" or "double") in the ring of the
    tables, with D times the bare sum equal to
    sum_{n=1}^{N-1} c_n zeta^{p n^2} sum_{m<min(n, N-n)} A_{n+m} B_{n-m-1}.

    t[a] = 2 sin(pi a/N), zeta[j] = zeta^j and y[k] = 1 - q^k, as
    _mp_tables builds them; reduce(v) is v in the ring's canonical form.
    With s_k = (-1)^{k(k-1)/2} and the prefix products S_k = prod_{a<=k} t_a
    and (q)_k = prod_{j<=k} y_j, read forward by A and backward by B:
      direct: A_k = s_{k-1} S_k, B_j = s_j S_{N-1-j}, c_n = t_n, D = t_1^2 N;
      double: A_k = zeta^{-k^2} (q)_k, B_j = zeta^{1+2Nj-j^2} (q)_{N-1-j},
              c_n = zeta^{-4n} - 1, D = N.
    prod t_a = prod y_k = N over 0 < a, k < N, t_{N-a} = t_a and
    y_{N-k} = -q^{-k} y_k give 1/S_j = S_M/N and 1/(q)_j =
    (-1)^M q^{-M(M+1)/2} (q)_M/N, M = N-1-j, so no entry divides; the signs
    follow from (-1)^m = s_{n+m-1} s_{n-m-1}, and the double sum's phases
    from zeta^{-4nm} = zeta^{-(n+m)^2} zeta^{(n-m)^2}. Terms with n + m >= N
    hold t_N = 0 or y_N = 0 and are left out. None depends on the framing.
    """
    order = 4 * N
    factors = t if route == "direct" else y
    prefix = [zeta[0].real]   # the empty product, 1 of the tables' ring
    for k in range(1, N):
        prefix.append(reduce(prefix[-1] * factors[k]))
    if route == "direct":
        def s(k):
            return (-1) ** (k * (k - 1) // 2)
        A = [s(k - 1) * P for k, P in enumerate(prefix)]
        B = [s(j) * P for j, P in enumerate(reversed(prefix))]
        c, D = t[:N], t[1] * t[1] * N
    else:
        A = [zeta[-k * k % order] * P for k, P in enumerate(prefix)]
        B = [zeta[(1 + 2 * N * j - j * j) % order] * P
             for j, P in enumerate(reversed(prefix))]
        c, D = [zeta[-4 * n % order] - 1 for n in range(N)], N
    return ([reduce(v) for v in A], [reduce(v) for v in B],
            [reduce(v) for v in c], reduce(D))


def _rows(N, A, B, c, reduce):
    """The rows c_n sum_{m<min(n, N-n)} A_{n+m} B_{n-m-1}, 1 <= n < N, of
    D times the bare sum, from the tables of _route_tables: each term is
    one product of two table entries."""
    return [reduce(c[n] * sum(map(operator.mul, A[n:], B[n - 1::-1])))
            for n in range(1, N)]


def _framed(N, p, rows, zeta, reduce):
    """sum_{n=1}^{N-1} rows[n-1] zeta^{p n^2}, the framing's only part in
    either sum."""
    total = 0
    for n, row in enumerate(rows, 1):
        total += row * zeta[(p * n * n) % (4 * N)]
    return reduce(total)


def _is_prime(n):
    """Miller-Rabin with the first thirteen prime bases, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
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


def _certificate_fields(N):
    """(l, r) pairs for the zero certificate at order N.

    l runs over the first _CERTIFICATE_PRIMES primes above 2^61 with
    l = 1 (mod 4N), and r is the first power g^((l-1)/(4N)), g = 2, 3, ...,
    of multiplicative order exactly 4N mod l. r^{4N} = g^{l-1} = 1, so the
    order is 4N unless r^{4N/q} = 1 for a prime q dividing 4N; only those
    powers are tested. zeta = exp(pi*i/(2N)) -> r then extends to a ring
    map Z[zeta] -> F_l. The choice is deterministic, so certified results
    are reproducible.
    """
    order = 4 * N
    cofactors = [order // q for q in range(2, order + 1)
                 if order % q == 0 and _is_prime(q)]
    fields = []
    ell = (_CERTIFICATE_PRIME_FLOOR // order + 1) * order + 1
    while len(fields) < _CERTIFICATE_PRIMES:
        if _is_prime(ell):
            g = 2
            while True:
                r = pow(g, (ell - 1) // order, ell)
                if all(pow(r, d, ell) != 1 for d in cofactors):
                    break
                g += 1
            fields.append((ell, r))
        ell += order
    return tuple(fields)


def _field_tables(N, ell, r):
    """The replay's three tables in F_ell under zeta -> r, i = zeta^N -> r^N;
    t_a = -i (zeta^{2a} - zeta^{-2a}) becomes zeta^{3N+2a} - zeta^{3N-2a}.
    zeta^j = r^j is built as a running product."""
    order = 4 * N
    zeta = [1]
    for _ in range(order - 1):
        zeta.append(zeta[-1] * r % ell)
    t = [(zeta[(3 * N + 2 * a) % order] - zeta[(3 * N - 2 * a) % order]) % ell
         for a in range(N)]
    y = [(1 - zeta[4 * k]) % ell for k in range(N)]
    return t, zeta, y


def _field_image(ctx, p, route, field):
    """Image in F_l, field = (l, r), under zeta -> r of D times route's
    bare sum, D of _route_tables: a unit of F_l, so the image vanishes
    exactly when the sum's does. The field's tables and rows are kept on
    ctx, so a further framing costs N terms.
    """
    N, (ell, r) = ctx.N, field

    def reduce(v):
        return v % ell

    def rows():
        A, B, c, _ = _route_tables(N, t, zeta, y, route, reduce)
        return _rows(N, A, B, c, reduce)

    t, zeta, y = ctx._kept(field, _field_tables, N, ell, r)
    return _framed(N, p, ctx._kept((route, field), rows), zeta, reduce)


def _certified_zero(ctx, p, route):
    """True when route's _field_image vanishes in every certificate field.

    Each image is the dot of its route's rows, built once per context and
    field, with the framing's phases zeta^{p n^2}, so the second and third
    zeros of an order cost O(N) per field. The image is a
    ring map of a sum in Z[zeta], so a true zero always passes. A nonzero
    sum that passed would have to lie in a degree-one prime above each of
    two primes near 2^61, and, since _escalated asks only after its
    double-double round missed the budget, that round's value would also
    have to sit within 1e12 times its noise floor abs_sum * N * 2^-104.
    The check proves nothing beyond those conditions.
    """
    fields = ctx._kept(_certificate_fields, _certificate_fields, ctx.N)
    return all(_field_image(ctx, p, route, field) == 0 for field in fields)


@lru_cache(maxsize=8)
def _mp_context(dps):
    """A private mpmath context at dps digits: its numbers compute at its
    precision wherever they are used."""
    context = mp.MPContext()
    context.dps = dps
    return context


@lru_cache(maxsize=8)
def _mp_tables(N, dps):
    """t_a = 2 sin(pi a/N) = 2 Im zeta^{2a}, zeta^j = exp(pi i j/(2N)) and
    y_k = 1 - q^k.

    The replay's tables (0 <= a, k < N, 0 <= j < 4N), built in
    _mp_context(dps); the replay and _dd_tables, at _DD_DPS digits, pass
    them to _route_tables, and the certificate passes their images in F_l
    (_field_tables). Only zeta^j for 0 <= j <= N/2 calls expjpi, under
    _MP_LOCK; the rest of the table is exact part swaps and negations of
    those entries, zeta^{N-j} = i conj(zeta^j) and zeta^{j+N} = i zeta^j,
    made from their part tuples. Likewise only t_a and y_k for a, k <= N/2
    are computed; the rest are the exact copies t_{N-a} = t_a and
    y_{N-k} = conj(y_k) that the filled zeta^j give.
    """
    context, half = _mp_context(dps), N // 2
    with _MP_LOCK:
        zeta = [context.expjpi(context.mpf(j) / (2 * N))
                for j in range(half + 1)]
    parts = [z._mpc_ for z in zeta]
    parts += [(im, re) for re, im in parts[(N - 1) // 2:0:-1]]
    for _ in range(3):
        parts += [(mp.libmp.mpf_neg(im), re) for re, im in parts[-N:]]
    zeta += [context.make_mpc(z) for z in parts[half + 1:]]
    t = [2 * zeta[2 * a].imag for a in range(half + 1)]
    t += t[(N - 1) // 2:0:-1]
    y = [1 - zeta[4 * k] for k in range(half + 1)]
    y += [v.conjugate() for v in y[(N - 1) // 2:0:-1]]
    return t, zeta, y


_SPLITTER = 134217729.0    # 2^27 + 1: Dekker's split of a float64 into halves
_FLOAT_MIN = sys.float_info.min


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
    and b, as the same four arrays.

    The four real products are one _dd_mul: the (re, im) parts of a, on
    the first axis, times those of b on the next, which gives
    [[rr, ri], [ir, ii]]. One _dd_add of the stacked pairs (rr, ri) and
    (-ii, ir) then gives the real and imaginary parts. Each entry is the
    same arithmetic as four separate products and two sums.
    """
    a, b = np.asarray(a), np.asarray(b)
    hi, lo = _dd_mul((a[::2, None], a[1::2, None]), (b[::2], b[1::2]))
    for part in (hi, lo):
        np.negative(part[1, 1], out=part[1, 1])
    hi, lo = _dd_add((hi[0], lo[0]), (hi[1, ::-1], lo[1, ::-1]))
    return hi[0], lo[0], hi[1], lo[1]


def _dd_split(values):
    """The mpf values as a (2, len) float64 array of (hi, lo) rows, bit for
    bit hi = float(v) and lo = float(v - hi).

    Each v = man * 2^exp is split from its integer mantissa: float(man)
    rounds half-even to 53 bits as float(v) does, the remainder
    man - int(float(man)) is exact, and ldexp scales both. Zero, values
    whose hi would overflow or fall below the normal range, and mantissas
    past the float range are converted under mpmath as stated.
    """
    hi, lo = [], []
    for v in values:
        sign, man, exp, _ = v._mpf_
        man = -man if sign else man
        try:
            h = float(man)
            a = math.ldexp(h, exp)
        except OverflowError:
            a = 0.0    # float(v) below gives +-inf, as mpmath does
        if abs(a) >= _FLOAT_MIN:
            hi.append(a)
            lo.append(math.ldexp(float(man - int(h)), exp))
        else:
            h = float(v)
            hi.append(h)
            lo.append(float(v - h))
    return np.array([hi, lo])


def _dd_split_complex(values):
    """The mpc values as a (4, len) array of (re_hi, re_lo, im_hi, im_lo)."""
    return np.concatenate([_dd_split([v.real for v in values]),
                           _dd_split([v.imag for v in values])])


def _dd_phases(zeta, N, p):
    """zeta^{p n^2} for 0 <= n < N from the (4, 4N) table zeta^j."""
    n = np.arange(N)
    return zeta[:, (p % (4 * N)) * n * n % (4 * N)]


def _triangle_blocks(N):
    """The triangle 1 <= n < N, 0 <= l < min(n, N - n) in blocks of whole
    rows of about _DD_BLOCK terms (one block up to N of about 510), which
    bounds the memory of the arrays built over it.

    Yields (counts, n, l) per block: the term count of each of its rows and
    the index arrays of its terms, row after row.
    """
    rows = np.arange(1, N)
    counts = np.minimum(rows, N - rows)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_DD_BLOCK, ends[-1], _DD_BLOCK))
    for block, count in zip(np.split(rows, cuts), np.split(counts, cuts)):
        starts = np.repeat(np.cumsum(count) - count, count)
        n = np.repeat(block, count)
        yield count, n, np.arange(len(n)) - starts


def _triangle_rows(N, terms):
    """Exact row sums of the double-double arrays terms(n, l), as a
    (len(terms), N) array of double-doubles whose column 0 is zero, and
    the sum of the terms' moduli in each row, as an array of N whose
    entry 0 is zero.

    terms takes the index arrays of _triangle_blocks and returns (hi, lo)
    pairs of arrays, one pair for a real term and (re, im) for a complex
    one. For each pair, column n holds hi = math.fsum of the hi and lo
    parts of every term of row n and lo = math.fsum of the rest, so the
    row is within 2^-106 of its exact sum. A term's modulus is taken from
    its hi parts. A row never spans two blocks.
    """
    sums, moduli = [], [0.0]
    for counts, n, l in _triangle_blocks(N):
        block = terms(n, l)
        modulus = np.hypot.reduce(np.abs(block[::2]), axis=0)
        moduli += np.add.reduceat(modulus, np.cumsum(counts) - counts).tolist()
        arrays = [array.tolist() for array in block]
        end = 0
        for count in counts.tolist():
            start, end = end, end + count
            row = []
            for hi, lo in zip(arrays[::2], arrays[1::2]):
                parts = hi[start:end] + lo[start:end]
                row.append(math.fsum(parts))
                parts.append(-row[-1])
                row.append(math.fsum(parts))
            sums.append(row)
    return np.array([[0.0] * len(sums[0]), *sums]).T, np.array(moduli)


def _dd_tables(N):
    """Double-double tables at order N: ({route: (A, B, c/D)}, zeta), the
    tables of _route_tables over _mp_tables(N, _DD_DPS), split from their
    _DD_DPS-digit values (real for the direct sum, complex for the double),
    and zeta^j for 0 <= j < 4N.

    Only zeta^j for j < N is split; the other three quarters are the exact
    fill zeta^{j+N} = i zeta^j of the split parts, with 0.0 - v for the
    negated parts so that no -0.0 appears, as the split gives none.
    """
    routes = {}
    t, zeta, y = _mp_tables(N, _DD_DPS)
    for route, split in (("direct", _dd_split), ("double", _dd_split_complex)):
        A, B, c, D = _route_tables(N, t, zeta, y, route, _exact)
        routes[route] = split(A), split(B), split([v / D for v in c])
    quarters = [_dd_split_complex(zeta[:N])]
    for _ in range(3):
        re_hi, re_lo, im_hi, im_lo = quarters[-1]
        quarters.append(np.array([0.0 - im_hi, 0.0 - im_lo, re_hi, re_lo]))
    return routes, np.concatenate(quarters, axis=1)


def _rows_dd(N, A, B, c, mul):
    """The rows c_n/D sum_m A_{n+m} B_{n-m-1} of a bare sum as
    double-doubles, and abs_sum, the summed moduli of the sum's terms, from
    one route's tables of _dd_tables(N); mul is _dd_mul for the real
    direct tables and _dd_cmul for the complex double ones.

    Each exact row sum is multiplied by c_n/D. A term of the sum is a row's
    term times c_n/D zeta^{p n^2}, and |zeta^{p n^2}| = 1, so abs_sum does
    not depend on the framing.
    """
    rows, moduli = _triangle_rows(
        N, lambda n, m: mul(A[:, n + m], B[:, n - m - 1]))
    scale = np.hypot.reduce(np.abs(c[::2]), axis=0)
    return np.array(mul(rows, c)), math.fsum((moduli * scale).tolist())


def _dd_total(z):
    """The exact sum of the complex double-doubles z, rounded to complex."""
    return complex(math.fsum(np.concatenate(z[:2]).tolist()),
                   math.fsum(np.concatenate(z[2:]).tolist()))


@np.errstate(over="ignore", invalid="ignore")
def _round_one(ctx, p, route, mul, times):
    """(value, abs_sum) of route's bare sum, from the rows and abs_sum of
    _rows_dd with mul, both kept on ctx: the exact sum of
    times(rows, phases), the rows times the framing's phases zeta^{p n^2}
    in double-double, O(N) per framing. From N of about 2150 the row build
    overflows and the result is not finite: (nan, inf) where math.fsum
    raises on the overflowed terms.
    """
    try:
        routes, zeta = ctx._kept(_dd_tables, _dd_tables, ctx.N)
        rows, abs_sum = ctx._kept(route, _rows_dd, ctx.N, *routes[route], mul)
        return _dd_total(times(rows, _dd_phases(zeta, ctx.N, p))), abs_sum
    except (ValueError, OverflowError):
        return complex(math.nan, math.nan), math.inf


def _direct_sum_f64(ctx, p):
    """Round 1 of the bare direct sum, from its real rows.

    The name is that of the float64 pass this round replaced:
    bench/tracing.py wraps it, and _double_sum_f64, as its kernels
    boundary.
    """
    def times(rows, phase):
        # the real rows times the (re, im) parts of the phases, one product
        hi, lo = _dd_mul(rows, (phase[::2], phase[1::2]))
        return hi[0], lo[0], hi[1], lo[1]

    return _round_one(ctx, p, "direct", _dd_mul, times)


def _double_sum_f64(ctx, p):
    """Round 1 of the bare double sum, from its complex rows."""
    return _round_one(ctx, p, "double", _dd_cmul, _dd_cmul)


def _replay(N, p, dps, route):
    """route's bare sum at dps digits: _rows over _mp_tables(N, dps) times
    the framing's phases, divided by D."""
    t, zeta, y = _mp_tables(N, dps)
    A, B, c, D = _route_tables(N, t, zeta, y, route, _exact)
    rows = _rows(N, A, B, c, _exact)
    return complex(_framed(N, p, rows, zeta, _exact) / D)


def _direct_sum_mp(N, p, dps):
    return _replay(N, p, dps, "direct")


def _double_sum_mp(N, p, dps):
    return _replay(N, p, dps, "double")


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
    value, abs_sum = _direct_sum_f64(ctx, p)
    value = _escalated(value, abs_sum, ctx, p, _direct_sum_mp, "direct")
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
    value, abs_sum = _double_sum_f64(ctx, p)
    value = _escalated(value, abs_sum, ctx, p, _double_sum_mp, "double")
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
