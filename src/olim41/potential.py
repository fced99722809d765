"""The dilogarithm potential of the figure-eight surgery double sum.

tau_N(M_p) is a double sum over colors (n, m) of the Pochhammer ratio
(q)_n (q)_{n+m} / ((q)_{n-1} (q)_{n-m-1}) times q^{(p/4) n^2 - n m}. Under
n -> z = q^n, m -> w = q^m each Pochhammer factor (q)_l contributes
-Li2(x) with x the monomial of its index (z, z, z w and z / w); the two
factors in z cancel, and the quadratic form becomes a product of logs:

    Vt(z, w) = -Li2(z w) + Li2(z / w) + (p/4) (Log z)^2 - Log z Log w.

Both Li2 and Log take the cut convention of specfun: arguments on a cut
evaluate on the lower edge of the branch, so conj(Vt(z, w)) =
Vt(conj z, conj w). Vt(1, 1) = 0.

The logarithmic gradient (D_z, D_w) = (z dVt/dz, w dVt/dw) is formed as a
fixed composition of principal logs,

    D_z = Log(1 - z w) - Log(1 - z / w) + (p/2) Log z - Log w,
    D_w = Log(1 - z w) + Log(1 - z / w) - Log z,

never as the log of the combined product; every branch ambiguity is then
carried by the explicit correction c of branch_correct, which rounds
-D/(2 pi i) onto its grid and reports the corrected value
V = Vt + 2 pi i (c_z Log z + c_w Log w). A branch shift of Log z moves D_z
by p pi i, so the grid is (1/2) Z for odd p and Z for even p.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchInconsistencyError,
    DomainError,
    SingularPointError,
    checked_integer,
    within_float_range,
)
from .specfun import PI2_6, dilog, principal_log

__all__ = [
    "BranchCorrection",
    "eval_potential",
    "eval_log_gradient",
    "branch_correct",
]

_TWO_PI_I = 2j * math.pi
_BRANCH_TOLERANCE = 1e-4    # largest accepted distance of -D/(2 pi i) to the grid


@dataclass(frozen=True)
class BranchCorrection:
    """Correction c (rationals) with V = Vt + 2 pi i sum c_i Log z_i.

    rounding_residuals[i] is |(-D_i/2 pi i) - c_i|, the distance from the
    raw correction to its grid; accepted points keep these below 1e-4.
    """

    c: tuple
    value: complex
    rounding_residuals: tuple


def _checked_point(point):
    point = tuple(complex(z) for z in point)
    if len(point) != 2:
        raise DomainError(
            f"point has {len(point)} coordinates, potential has 2 variables"
        )
    for idx, z in enumerate(point):
        if not cmath.isfinite(z):
            raise DomainError(f"coordinate {idx + 1} is not finite: {z!r}")
        if z == 0:
            raise SingularPointError(f"coordinate {idx + 1} is zero")
    return point


def _check_finite(values, what, z, w):
    """A DomainError naming what unless every one of values is finite."""
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"{what} passes the float range at ({z}, {w})")


def _dilog_arguments(z, w):
    """z w and z / w, the arguments of the two dilogarithms; z / w is
    formed as z * w ** -1, which keeps eval_potential's bits."""
    try:
        arguments = z * w, z * w ** -1
    except OverflowError:    # w ** -1 raises where it overflows
        arguments = (math.inf,)
    _check_finite(arguments, "z w or z / w", z, w)
    return arguments


def eval_potential(p, point):
    """Vt at the point (z, w). Coordinates must be finite and nonzero;
    z w = 1 and z / w = 1 are permitted, because Li2(1) = pi^2/6 is
    finite. p must have a float, and z w, z / w and Vt must be finite
    (DomainError otherwise)."""
    p = within_float_range(checked_integer(p, "surgery coefficient"),
                           "surgery coefficient")
    z, w = _checked_point(point)
    zw, z_over_w = _dilog_arguments(z, w)
    # the pi^2/6 shifts keep values bit-identical
    value = (dilog(z_over_w) - PI2_6) - (dilog(zw) - PI2_6)
    log_z = principal_log(z)
    value = value + p / 4 * log_z * log_z - log_z * principal_log(w)
    _check_finite((value,), "the potential", z, w)
    return value


def eval_log_gradient(p, point):
    """Logarithmic gradient [D_z, D_w] in the fixed composition of principal
    logs stated in the module docstring. z = 1, z w = 1 and z / w = 1 make
    a Log(1 - x) of the surgery sum infinite, so they are rejected as
    singular points rather than evaluated. p must have a float, and z w,
    z / w and the gradient must be finite (DomainError otherwise)."""
    p = within_float_range(checked_integer(p, "surgery coefficient"),
                           "surgery coefficient")
    z, w = _checked_point(point)
    zw, z_over_w = _dilog_arguments(z, w)
    if z == 1 or zw == 1 or z_over_w == 1:
        raise SingularPointError(
            "argument of a dilogarithm factor equals 1; gradient is singular"
        )
    log_plus = principal_log(1 - zw)
    log_minus = principal_log(1 - z_over_w)
    log_z = principal_log(z)
    gradient = [log_plus - log_minus + p / 2 * log_z - principal_log(w),
                log_plus + log_minus - log_z]
    _check_finite(gradient, "the gradient", z, w)
    return gradient


def branch_correct(p, point):
    """Round -D/(2 pi i) onto the correction grid and correct the value.

    Returns BranchCorrection with c on (1/2) Z for odd p and Z for even p,
    and V = Vt + 2 pi i (c_z Log z + c_w Log w). A raw correction 1e-4 or
    farther from the grid means the point is not a critical point of any
    branch of the potential.
    """
    p = checked_integer(p, "surgery coefficient")
    point = _checked_point(point)
    grad = eval_log_gradient(p, point)
    d = 2 if p % 2 else 1
    corrections = []
    residuals = []
    for i, d_i in enumerate(grad):
        raw = -d_i / _TWO_PI_I
        c_i = Fraction(round(raw.real * d), d)
        residual = abs(raw - complex(c_i))
        if residual >= _BRANCH_TOLERANCE:
            raise BranchInconsistencyError(
                f"correction {i + 1} is {raw:.6g}, not within "
                f"{_BRANCH_TOLERANCE:g} of the 1/{d} integer grid"
            )
        corrections.append(c_i)
        residuals.append(residual)
    value = eval_potential(p, point)
    for c_i, z in zip(corrections, point):
        if c_i:
            value += _TWO_PI_I * float(c_i) * principal_log(z)
    return BranchCorrection(
        c=tuple(corrections),
        value=value,
        rounding_residuals=tuple(residuals),
    )
