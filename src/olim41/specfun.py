"""Complex dilogarithm, Clausen function, and periodic Bernoulli polynomial.

All multivalued functions here share one branch convention: the principal
logarithm with arg in [-pi, pi), i.e. points on the negative real axis take
the limit from below (arg = -pi), and the dilogarithm's values on its cut
[1, oo) are the coherent limit with Im Li2(x) = +pi*ln(x). Downstream
branch mismatches are compensated by explicit correction integers, never by
per-call branch picking, so one fixed deterministic convention is essential.

The Clausen function Cl2(theta) = sum_{n>=1} sin(n*theta)/n^2 doubles as the
imaginary part of Li2 on the unit circle; the real part is pi^2 * B2(x)
with B2 the periodic extension of x^2 - x + 1/6 (note B2(0) = +1/6; the
opposite sign sometimes seen in print contradicts Li2(1) = +pi^2/6).
"""

import cmath
import math

from mpmath import bernfrac

from .errors import DomainError

PI = math.pi
PI2_6 = PI * PI / 6.0

# series cutoffs: power series inside |z| <= 1/2, inversion outside
# |z| >= 3/2, reflection near 1, log series on the remaining annulus
_SERIES_RADIUS = 0.5
_INVERSION_RADIUS = 1.5
_REFLECTION_RADIUS = 0.5

# exact Bernoulli numbers B_0..B_89 as (numerator, denominator); int true
# division rounds the coefficients below correctly
_BERN = [bernfrac(n) for n in range(90)]

# Li2(z) = sum_{n>=0} B_n u^{n+1} / (n! (n+1)) with u = -log(1-z)
_LOG_SERIES_COEF = [num / (den * math.factorial(n) * (n + 1))
                    for n, (num, den) in enumerate(_BERN)]

# Cl2(theta) = theta - theta*log|theta|
#              + sum_{n>=1} (-1)^{n+1} B_{2n} theta^{2n+1} / (2n(2n+1)(2n)!)
_CLAUSEN_COEF = [(-1) ** (n + 1) * num
                 / (den * 2 * n * (2 * n + 1) * math.factorial(2 * n))
                 for n, (num, den) in enumerate(_BERN[2::2], start=1)]


def _require_finite(value, name):
    if isinstance(value, complex):
        ok = math.isfinite(value.real) and math.isfinite(value.imag)
    else:
        ok = math.isfinite(value)
    if not ok:
        raise DomainError("%s: non-finite input %r" % (name, value))


def principal_log(z):
    """Principal logarithm with arg in [-pi, pi).

    Identical to the standard principal branch except on the negative real
    axis, where the lower edge is taken: log(-x) = ln(x) - i*pi for x > 0.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("principal_log: argument is zero")
    if z.imag == 0.0 and z.real < 0.0:
        return complex(math.log(-z.real), -PI)
    return cmath.log(z)


def _dilog_series(z):
    # plain power series, |z| <= 1/2
    total = 0j
    term = complex(z)
    n = 1
    while True:
        add = term / (n * n)
        total += add
        if abs(add) < 1e-18 * (1.0 + abs(total)):
            return total
        term *= z
        n += 1


def _dilog_log_series(z):
    # log series in u = -log(1-z); converges for |u| < 2*pi, used on the
    # annulus where neither the power series nor the reflection applies.
    # B_n = 0 for odd n >= 3, so after the u^2 term only even indices
    # contribute and the series advances in powers of u^2.
    u = -principal_log(1.0 - z)
    usq = u * u
    total = _LOG_SERIES_COEF[0] * u + _LOG_SERIES_COEF[1] * usq
    upow = usq * u
    for m in range(1, len(_LOG_SERIES_COEF) // 2):
        add = _LOG_SERIES_COEF[2 * m] * upow
        total += add
        if abs(add) < 1e-18 * (1.0 + abs(total)):
            break
        upow *= usq
    return total


def dilog(z):
    """Principal-branch dilogarithm Li2(z), cut along [1, oo).

    On the cut the value is the limit coherent with the [-pi, pi) log
    convention, Im Li2(x) = +pi*ln(x) for x > 1. Absolute accuracy is
    ~1e-13 for |z| <= 10 and degrades only logarithmically beyond.
    """
    z = complex(z)
    _require_finite(z, "dilog")
    if z == 0:
        return 0j
    if z == 1:
        return complex(PI2_6, 0.0)
    r = abs(z)
    if r <= _SERIES_RADIUS:
        return _dilog_series(z)
    if r >= _INVERSION_RADIUS:
        # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lg = principal_log(-z)
        return -dilog(1.0 / z) - PI2_6 - 0.5 * lg * lg
    if abs(1.0 - z) <= _REFLECTION_RADIUS:
        # Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        w = 1.0 - z
        return PI2_6 - principal_log(z) * principal_log(w) - _dilog_series(w)
    return _dilog_log_series(z)


def clausen2(theta):
    """Clausen function Cl2(theta) = sum_{n>=1} sin(n*theta)/n^2.

    2*pi periodic and odd, maximal at theta = pi/3 where
    Cl2(pi/3) = 1.01494...; twice that value is the hyperbolic volume of
    the figure-eight knot complement, the limit constant used downstream.
    """
    _require_finite(theta, "clausen2")
    t = math.fmod(theta, 2.0 * PI)
    if t < 0.0:
        t += 2.0 * PI
    sign = 1.0
    if t > PI:
        t = 2.0 * PI - t
        sign = -1.0
    if t == 0.0:
        return 0.0
    total = t - t * math.log(t)
    tsq = t * t
    tpow = t * tsq
    for c in _CLAUSEN_COEF:
        add = c * tpow
        total += add
        if abs(add) < 1e-17 * (1.0 + abs(total)):
            break
        tpow *= tsq
    return sign * total


def bernoulli2_periodic(x):
    """Periodic second Bernoulli polynomial, x^2 - x + 1/6 on [0, 1).

    Even and 1-periodic; value 1/6 at integers (the sign making
    Re Li2(e^{i theta}) = pi^2 * B2(theta / 2pi) hold).
    """
    _require_finite(x, "bernoulli2_periodic")
    t = x - math.floor(x)
    return t * t - t + 1.0 / 6.0


def dilog_unit_circle_decomposition(theta):
    """Real/imaginary split of Li2 on the unit circle.

    Returns (pi^2 * B2(theta/2pi), Cl2(theta)), the two components of
    Li2(e^{i*theta}).
    """
    _require_finite(theta, "dilog_unit_circle_decomposition")
    return (PI * PI * bernoulli2_periodic(theta / (2.0 * PI)),
            clausen2(theta))
