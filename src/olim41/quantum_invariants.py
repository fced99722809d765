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
zeta^{p n^2} of row n. So in every ring one row builder (_fixed_rows)
sums the rows once, each an exact dot of integer tables, and a framing
costs one exact dot of the N rows with its phases, by one framing dot
(_framing_dot).

Every round of each route is one exact integer sum: the tables of
_route_tables over _mp_tables(N, dps), with c/D for c, and zeta^j are
converted exactly to integers times powers of two (_fixed), and a
framing's dot is rounded once to complex (_bare_sum). So all error lies
in the mpmath tables, and one noise floor, derived in _noise_floor,
serves every round. The sum cancels severely (individual terms grow like
exp(0.32*N) while tau_N stays polynomially bounded; about 0.14*N + 4
digits are lost), so each round is checked against a 1e-12 relative
budget by one resolver (_resolved), which wrt_direct and wrt_double_sum
share. Round 1 (_direct_sum_f64, _double_sum_f64) is this sum at
_ROUND_ONE_DPS digits, and reports the summed magnitude abs_sum of the
sum's terms with its value. At p = 6 it meets the budget up to N = 180.
Later rounds (_direct_sum_mp, _double_sum_mp) are the same sum at a
precision taken from the cancellation the previous round measured. A
round whose result is itself rounding noise escalates again at twice its
digits or more.

An exact zero of tau_N never clears the budget, so a round 1 that misses
it triggers a zero certificate. For a prime l = 1 (mod 4N) the ring map
sending zeta to a primitive 4N-th root of unity in F_l evaluates both sums
exactly; the certificate runs the same row builder and framing dot over
the images of the tables (_field_image), reduced mod l once per row, and
skips D, a unit there. A sum whose image vanishes modulo
two such primes is returned as exact 0j; any other escalates on, and at
the round cap raises PrecisionExhaustedError instead of returning rounding
noise. Every table and row set built per order, of each round at its
digits and of the certificate, is kept on the caller's
RootOfUnityContext, so a further framing costs O(N) per round it runs.
Public functions return Python complex.

Precision lives on the tables: _mp_tables builds each in a private mpmath
context at its digits (_mp_context), so all arithmetic on their entries
runs at that precision wherever it is called, and no code here reads or
sets mpmath's global precision. The one lock, _MP_LOCK, covers only
_mp_tables' transcendental calls, because mpmath memoizes pi in shared
state without a lock. Threads may call any public function, also while
they change mpmath's precision themselves.
"""

import cmath
import itertools
import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import (
    DomainError,
    PrecisionExhaustedError,
    UnsupportedFramingError,
    checked_integer,
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
_ROUND_ONE_DPS = 40        # digits of round 1's mpmath tables
# mpmath memoizes pi in shared state without a lock; _mp_tables holds this
# around its expjpi calls, the package's only transcendental ones.
_MP_LOCK = threading.Lock()


class RootOfUnityContext:
    """The root of unity q = exp(2*pi*i/N) and its fractional powers.

    It also keeps, as long as it lives, what tau evaluations build once
    per order, each set on first use: the integer rows of each route at
    each round's digits, with abs_sum at round 1's, the float-range bound,
    and the zero certificate's fields with their F_l tables and rows.
    Shareable across threads without a lock: two threads that race on one
    set may each build it, and the builds agree.
    """

    __slots__ = ("N", "q", "_state")

    def __init__(self, N):
        N = checked_integer(N, "order")
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

        The exponent is reduced mod N before exponentiation, keeping its
        sign (and the sign of zero) as math.fmod does, so large x (such as
        p*n^2/4) do not lose accuracy to argument growth. int and Fraction
        exponents are reduced exactly, at any size; a float is reduced by
        math.fmod, which is exact too.
        """
        if isinstance(x, (int, Fraction)):
            t = float(abs(x) % self.N)
            t = -t if x < 0 else t
        else:
            t = math.fmod(float(x), self.N)
        return cmath.exp(2j * math.pi * t / self.N)

    def __repr__(self):
        return f"RootOfUnityContext(N={self.N})"


def quantum_integer(ctx, n):
    """[n] = sin(n*pi/N) / sin(pi/N), the balanced quantum integer at q.

    [0] and [N] vanish; both are accepted and return exactly 0.0 so callers
    can treat those colors as degenerate instead of handling an error.
    errors: DomainError unless n is an int with 0 <= n <= N.
    """
    n = checked_integer(n, "color")
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
    errors: DomainError unless n is an int with 1 <= n <= N.
    """
    n = checked_integer(n, "color")
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
    # sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}; q_power reduces the
    # exact exponent, so it is exact at any p
    return (
        math.sqrt(2.0 / ctx.N)
        * math.sin(math.pi / ctx.N)
        * cmath.exp(-0.75j * math.pi)
        * ctx.q_power(Fraction(3 - p, 4))
    )


def _resolved(ctx, p, route):
    """route's ("direct" or "double") bare sum at framing p, resolved to
    the relative budget: round 1, then the certificate, then the replays.

    First, before any table is built, DomainError is raised when the bound
    _log_largest_terms keeps on ctx says abs_sum passes the float range,
    2^1024: from N = 2159 in the direct sum and N = 2195 in the double sum.
    Round 1 (_direct_sum_f64, _double_sum_f64) then gives (value, abs_sum)
    at _ROUND_ONE_DPS digits, and the same error is raised when either is
    not finite, as abs_sum passes the float range from N = 2137 (direct)
    and N = 2173 (double). A round at dps digits has the noise floor
    _noise_floor(abs_sum, N, dps). If round 1 misses the budget,
    _certified_zero(ctx, p, route) is asked whether the sum is exactly
    zero, and if so 0j is returned. Up to _MAX_ESCALATIONS replays
    (_direct_sum_mp, _double_sum_mp) follow. Each picks its precision from
    the digits lost against the larger of the current value and the
    current floor, plus _GUARD_DPS. After a round whose value lies within
    its own floor, and so resolved no digit, it takes at least twice that
    round's digits; the guard alone would add only 22 digits a round. The
    round functions are looked up by name at each call.
    errors: DomainError past the float range; PrecisionExhaustedError when
    the last replay still misses the budget.
    """
    N = ctx.N
    if route == "direct":
        round_one, replay = _direct_sum_f64, _direct_sum_mp
    else:
        round_one, replay = _double_sum_f64, _double_sum_mp
    past = ctx._kept(_log_largest_terms, _log_largest_terms, N)[route] \
        > 1024 * math.log(2)
    if not past:
        value, abs_sum = round_one(ctx, p)
        past = not (cmath.isfinite(value) and math.isfinite(abs_sum))
    if past:
        raise DomainError(
            f"tau_{N}(M_{p}): the summed magnitude of the terms passes the "
            f"float range at N = {N}")
    dps = _ROUND_ONE_DPS
    noise = _noise_floor(abs_sum, N, dps)
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
        value = replay(ctx, p, dps)
        noise = _noise_floor(abs_sum, N, dps)
    raise PrecisionExhaustedError(
        f"tau_{N}(M_{p}): round 1 and {_MAX_ESCALATIONS} replays up to "
        f"{dps} digits missed the {_RELATIVE_BUDGET:g} relative budget, "
        f"and the sum is not certified zero"
    )


def _log_largest_terms(N):
    """{route: a lower bound on log abs_sum}: the log of the largest term
    of the middle row n = N // 2 of route's bare sum, less a margin for
    the rounding of the logs. O(N) floats.

    In both routes |A_k| = S_k and |B_j| = S_{N-1-j}, as |1 - q^j| = t_j,
    so term m of row n has modulus t_n S_{n+m} S_{N-n+m} / N in the double
    sum and t_1^-2 times that in the direct sum. Its log is read from the
    prefix sums L_k = sum_{a<=k} log t_a, with t_a = t_{N-a} taken from
    sin at an argument of at most pi/2: each log t_a is then within
    (5 + ln N) 2^-53, as |log t_a| <= ln N, and each of the at most 2N
    additions behind a term within N ln N 2^-53. A term's log is so within
    N^2 (1 + ln N) 2^-50 for N >= 3, and the margin N^2 (1 + ln N) 2^-48
    also covers abs_sum's own rounding (the tables' 40 digits, the moduli
    rounded down to the unit and the one rounding to float, each relative
    and below 2^-100 N) and the 1e-13 of 1024 ln 2 at the orders where the
    bound comes near it. Every term is at most abs_sum.
    """
    n = N // 2
    logs = [math.log(2 * math.sin(math.pi * min(a, N - a) / N))
            for a in range(1, N)]
    L = [0.0, *itertools.accumulate(logs)]
    largest = max(L[n + m] + L[N - n + m] for m in range(min(n, N - n)))
    double = logs[n - 1] + largest - math.log(N) \
        - N * N * (1 + math.log(N)) * 2.0 ** -48
    return {"double": double, "direct": double - 2 * logs[0]}


def _noise_floor(abs_sum, N, dps):
    """The noise floor of a round at dps digits at order N: abs_sum times
    ((3 ln N + 12) N + 16) u, u = 2^-bits for the bits of _mp_context(dps).

    Derivation, to first order in u (N u < 2^-120 here). _fixed converts
    every table entry exactly and every integer sum is exact, so the
    entry rounding at 2^-shift is zero, and a term's error is that of its
    four mpmath factors c_n/D, A_{n+m}, B_{n-m-1} and zeta^{p n^2}: the
    value is within abs_sum times the largest relative error of a term.
    mpmath rounds each real result to nearest, within u relatively, and
    each part of a complex product or sum once, so within u |result|.
    Each part of zeta^j is taken to be within one unit in its last place
    (2u) of its value at the rounded argument j/(2N), and that rounding
    moves it by at most u more, as j <= N/2 keeps the angle below pi/4: 3u
    in all. So t_a is within 3u, y_k = 1 - zeta^{4k} within u (4 + 3/|y_k|),
    and a prefix product of k factors within 4k u (S_k) or
    5k u + 3u sum_{j<=k} 1/|y_j| ((q)_k). A term reads two prefix
    products of n + m and N - n + m factors, fewer than 2N in all:
      direct: S_{n+m} and S_{N-n+m} give 8N u; c_n/D = t_n/(t_1 t_1 N)
              12u; the phase 3u: at most 8N u + 15u.
      double: (q)_{n+m} and (q)_{N-n+m} give 10N u + 6u H, with
              H = sum_{0<j<N} 1/|y_j| <= (N/2)(ln N + 0.31) from
              2 sin x >= 4x/pi on [0, pi/2]; their powers of zeta 8u;
              c_n/D u (5 + 3/|c_n|) <= 5u + 0.75 N u, as |c_n| = t_n >= 4/N;
              the phase 3u: at most (3 ln N + 11.7) N u + 16u.
    The double route's bound covers the direct one's. The float value is
    then rounded once, by less than 2^-53 of itself. The floor does not
    fall below 1e-300, where it would underflow.
    """
    bits = _mp_context(dps).prec
    return max(math.ldexp(abs_sum, -bits) * ((3 * math.log(N) + 12) * N + 16),
               1e-300)


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
    exactly when the sum's does. The rows are _fixed_rows over the
    tables' images as one-part integer tables, each row reduced mod l
    once, and the framing is their _framing_dot with the images of zeta^j,
    as in every round. The field's tables and rows are kept on ctx, so a
    further framing costs N terms.
    """
    N, (ell, r) = ctx.N, field

    def reduce(v):
        return v % ell

    def rows():
        A, B, c, _ = _route_tables(N, t, zeta, y, route, reduce)
        (sums,) = _fixed_rows(N, (A,), (B,), (c,))
        return ([reduce(row) for row in sums],)

    t, zeta, y = ctx._kept(field, _field_tables, N, ell, r)
    (image,) = _framing_dot(N, p, ctx._kept((route, field), rows), (zeta,))
    return reduce(image)


def _certified_zero(ctx, p, route):
    """True when route's _field_image vanishes in every certificate field.

    Each image is the dot of its route's rows, built once per context and
    field, with the framing's phases zeta^{p n^2}, so the second and third
    zeros of an order cost O(N) per field. The image is a
    ring map of a sum in Z[zeta], so a true zero always passes. A nonzero
    sum that passed would have to lie in a degree-one prime above each of
    two primes near 2^61, and, since _resolved asks only after round 1
    missed the budget, that round's value would also have to sit within
    1e12 times its noise floor (_noise_floor at _ROUND_ONE_DPS digits).
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

    The tables of every round (0 <= a, k < N, 0 <= j < 4N), built in
    _mp_context(dps); each round passes them to _route_tables
    (_fixed_sum), and the certificate passes their images in F_l
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


def _fixed(values):
    """(parts, shift): the mpf or mpc values exactly as integers times
    2^-shift, a tuple of one list for real values or two, re and im, for
    complex ones. shift is minus the least exponent of a nonzero part, so
    each part man * 2^exp is the integer man * 2^(exp + shift)."""
    raw = [v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_,) for v in values]
    shift = -min(exp for entry in raw for _, man, exp, _ in entry if man)

    def part(sign, man, exp, _):
        return (-man if sign else man) << (exp + shift)

    return tuple([part(*value) for value in column]
                 for column in zip(*raw)), shift


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def _times(a, b, mul=operator.mul):
    """a times b, for numbers given by their tuple of parts, (re,) or
    (re, im). With mul=_dot, a and b are sequences of such numbers given
    by their part lists, and this is their dot product: a complex one is
    four real dots."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return tuple(map(mul, a, b * len(a)))
    (a_re, a_im), (b_re, b_im) = a, b
    return (mul(a_re, b_re) - mul(a_im, b_im),
            mul(a_re, b_im) + mul(a_im, b_re))


def _to_float(value, shift):
    """value * 2^-shift, rounded once by int division; +-inf past the
    float range."""
    try:
        return value / (1 << shift)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _fixed_rows(N, A, B, c):
    """The rows c_n sum_{m<min(n, N-n)} A_{n+m} B_{n-m-1}, 1 <= n < N, of
    D times the bare sum, as part lists, from integer tables of
    _route_tables given by their part lists, (re,) or (re, im): the
    mpmath tables through _fixed, or the certificate's F_l tables as one
    part each. Each row is an exact dot, four real ones for a complex
    row, times c_n."""
    rows = [_times(c_n, _times([part[n:] for part in A],
                               [part[n - 1::-1] for part in B], _dot))
            for n, c_n in enumerate(zip(*(part[1:] for part in c)), 1)]
    return tuple(map(list, zip(*rows)))


def _framing_dot(N, p, rows, zeta):
    """sum_{n=1}^{N-1} rows[n-1] zeta^{p n^2}, the framing's only part in
    either sum, as the exact dot of the part lists of _fixed_rows with the
    phases read from the part lists of zeta^j, 0 <= j < 4N."""
    order = 4 * N
    p %= order
    index = [p * n * n % order for n in range(1, N)]
    return _times(rows, tuple([part[j] for j in index] for part in zeta), _dot)


def _fixed_sum(N, dps, route):
    """(rows, zeta, shift, abs_sum) of route's bare sum at dps digits:
    _fixed_rows over the tables of _route_tables over _mp_tables(N, dps),
    with c/D for c, and zeta^j, each converted by _fixed, and the shift of
    a framing's dot of the two (_framing_dot).

    abs_sum, the summed moduli of the bare sum's terms, is summed from the
    same tables at _ROUND_ONE_DPS digits, the round that reports it, and is
    None at any other digits. A term is a row's term times c_n/D
    zeta^{p n^2}, and |zeta^{p n^2}| = 1, so abs_sum is the rows over the
    moduli of the entries, each to the unit below, and does not depend on
    the framing.
    """
    t, zeta, y = _mp_tables(N, dps)
    A, B, c, D = _route_tables(N, t, zeta, y, route, _exact)
    (A, a), (B, b), (c, s), (zeta, z) = [
        _fixed(v) for v in (A, B, [v / D for v in c], zeta)]
    abs_sum = None
    if dps == _ROUND_ONE_DPS:
        moduli = [([math.isqrt(_dot(entry, entry)) for entry in zip(*table)],)
                  for table in (A, B, c)]
        (magnitudes,) = _fixed_rows(N, *moduli)
        abs_sum = _to_float(sum(magnitudes), a + b + s)
    return _fixed_rows(N, A, B, c), zeta, a + b + s + z, abs_sum


def _bare_sum(ctx, p, route, dps):
    """(value, abs_sum) of route's bare sum at dps digits: the framing's
    exact dot (_framing_dot) of the rows of _fixed_sum, whose result is
    kept on ctx under (route, dps), times 2^-shift and rounded once to
    complex (_to_float). A further framing costs one dot of N terms."""
    rows, zeta, shift, abs_sum = ctx._kept((route, dps), _fixed_sum,
                                           ctx.N, dps, route)
    value = _framing_dot(ctx.N, p, rows, zeta)
    return complex(*(_to_float(v, shift) for v in value)), abs_sum


# Round 1 and the replays of each route. _resolved looks them up by name at
# each call, so bench/tracing.py can wrap them; its kernels boundary keeps
# the name of the float64 pass round 1 replaced.
def _direct_sum_f64(ctx, p):
    return _bare_sum(ctx, p, "direct", _ROUND_ONE_DPS)


def _double_sum_f64(ctx, p):
    return _bare_sum(ctx, p, "double", _ROUND_ONE_DPS)


def _direct_sum_mp(ctx, p, dps):
    return _bare_sum(ctx, p, "direct", dps)[0]


def _double_sum_mp(ctx, p, dps):
    return _bare_sum(ctx, p, "double", dps)[0]


def wrt_direct(ctx, p):
    """tau_N(M_p) from the direct color sum; positive framing only.

    tau_N = sqrt(2/N) sin(pi/N) e^{-3 pi i/4} q^{(3-p)/4}
            * sum_{n=1}^{N-1} [n]^2 q^{p n^2/4} J_n(4_1; q).

    errors: UnsupportedFramingError for p <= 0, where this prefactor is
    not valid; wrt_double_sum covers every integer framing.
    """
    p = checked_integer(p, "surgery coefficient")
    if p <= 0:
        raise UnsupportedFramingError(
            f"direct form requires a positive surgery coefficient, got {p}"
        )
    value = _resolved(ctx, p, "direct")
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
    p = checked_integer(p, "surgery coefficient")
    value = _resolved(ctx, p, "double")
    if not value:
        return 0j
    denom = (ctx.q_power(0.5) - ctx.q_power(-0.5)) ** 2
    return _prefactor(ctx, p) * value / denom


def growth_profile(p, N_values):
    """Rows (N, log|tau_N|, log|tau_N|/N, log|tau_N|/log N), sorted by N.

    Probes the growth class of the invariant: polynomial growth makes the
    /N column decay toward zero while the /log N column stays bounded.
    An exact zero of tau_N reports -inf in the log columns. tau_N comes
    from the direct sum at p > 0 and from the double sum, which defines
    it, at p <= 0.
    """
    p = checked_integer(p, "surgery coefficient")
    route = wrt_direct if p > 0 else wrt_double_sum
    rows = []
    for N in sorted(N_values):
        tau = route(RootOfUnityContext(N), p)
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
