"""Dilogarithm potentials for the saddle-point asymptotics of q-hypersums.

A sum over lattice colors n_1..n_k whose summand is a ratio of Pochhammer
symbols (q)_{l_a(n)} with signs eps_a and a rational quadratic form
Q = sum r_ij n_i n_j has, after n_i -> z_i = q^{n_i}, the potential

    Vt(z) = -sum_a eps_a (Li2(x_a) - pi^2/6) + sum_{i<=j} r_ij Log z_i Log z_j

with x_a the monomial built from the degree-one part of l_a (constants
dropped). The constant shift makes Vt(1, .., 1) = 0. Both Li2 and Log take
the cut convention of specfun: arguments on a cut evaluate on the lower
edge of the branch, so conj(Vt(z)) = Vt(conj(z)) holds coordinatewise.

The logarithmic gradient D_i = z_i dVt/dz_i is formed as a fixed
composition of principal logs of each factor,

    D_i = sum_a eps_a l_ai Log(1 - x_a) + 2 r_ii Log z_i
          + sum_{j != i} r_ij Log z_j,

never as the log of the combined product; every branch ambiguity is then
carried by the explicit correction c of branch_correct, which rounds
-D_i/(2 pi i) onto its rational grid and reports the corrected value
V = Vt + 2 pi i sum_i c_i Log z_i.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchInconsistencyError,
    DomainError,
    SingularPointError,
    checked_framing,
)
from .specfun import dilog, principal_log

__all__ = [
    "HypersumSpec",
    "PotentialFunction",
    "BranchCorrection",
    "fig8_spec",
    "build_potential",
    "fig8_potential",
    "eval_potential",
    "eval_log_gradient",
    "branch_correct",
]

_PI_SQ_OVER_6 = math.pi * math.pi / 6.0
_TWO_PI_I = 2j * math.pi


def _as_fraction(value, what):
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be rational, got {value!r}") from exc


@dataclass(frozen=True)
class HypersumSpec:
    """Shape of a q-hypersum: signs, linear forms, and quadratic form.

    epsilon[a] is the sign of the a-th Pochhammer factor, linear_forms[a]
    its index l_a as (coefficients over n_1..n_k, constant). quadratic maps
    (i, j) with 1 <= i <= j <= k to the rational coefficient r_ij.
    """

    k: int
    epsilon: tuple
    linear_forms: tuple
    quadratic: tuple

    def __init__(self, k, epsilon, linear_forms, quadratic):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise DomainError(f"variable count must be a nonnegative integer, got {k!r}")
        epsilon = tuple(epsilon)
        for e in epsilon:
            if e not in (1, -1):
                raise DomainError(f"signs must be +1 or -1, got {e!r}")
        forms = []
        for form in linear_forms:
            coeffs, const = form
            coeffs = tuple(coeffs)
            if len(coeffs) != k:
                raise DomainError(
                    f"linear form {form!r} must have {k} coefficients"
                )
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
                raise DomainError(f"linear form coefficients must be integers: {form!r}")
            if not isinstance(const, int) or isinstance(const, bool):
                raise DomainError(f"linear form constant must be an integer: {form!r}")
            forms.append((coeffs, const))
        forms = tuple(forms)
        if len(epsilon) != len(forms):
            raise DomainError(
                f"{len(epsilon)} signs for {len(forms)} linear forms"
            )
        quad = []
        for (i, j), r in dict(quadratic).items():
            if not (1 <= i <= j <= k):
                raise DomainError(
                    f"quadratic index ({i}, {j}) outside 1 <= i <= j <= {k}"
                )
            quad.append(((i, j), _as_fraction(r, f"quadratic coefficient r_{i}{j}")))
        quad.sort()
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "linear_forms", forms)
        object.__setattr__(self, "quadratic", tuple(quad))

    @property
    def alpha(self):
        """Number of Pochhammer factors."""
        return len(self.epsilon)


@dataclass(frozen=True)
class PotentialFunction:
    """Evaluatable potential: spec plus its precomputed term lists.

    dilog_terms holds (eps_a, degree-one coefficients of l_a); log_pairs
    holds (i, j, r_ij) zero-indexed with nonzero r only. The correction
    denominator is the grid for branch corrections: 2 when some log-branch
    shift moves a gradient by an odd multiple of pi i (for the surgery
    potential, odd p), 1 otherwise. Immutable and thread-safe.
    """

    spec: HypersumSpec
    dilog_terms: tuple
    log_pairs: tuple
    correction_denominator: int


@dataclass(frozen=True)
class BranchCorrection:
    """Correction c (rationals) with V = Vt + 2 pi i sum c_i Log z_i.

    rounding_residuals[i] is |(-D_i/2 pi i) - c_i|, the distance from the
    raw correction to its grid; accepted points keep these below 1e-4.
    """

    c: tuple
    value: complex
    rounding_residuals: tuple


def fig8_spec(p):
    """Hypersum shape of the tau_N(M_p) double sum over (n, m).

    alpha = 4 factors with signs (+, -, +, -) and indices
    (n, n-1, n+m, n-m-1); quadratic form p/4 n^2 - n m.
    The monomials are x_1 = x_2 = z, x_3 = z w, x_4 = z / w.
    """
    p = checked_framing(p)
    return HypersumSpec(
        k=2,
        epsilon=(1, -1, 1, -1),
        linear_forms=(
            ((1, 0), 0),
            ((1, 0), -1),
            ((1, 1), 0),
            ((1, -1), -1),
        ),
        quadratic={(1, 1): Fraction(p, 4), (1, 2): Fraction(-1), (2, 2): Fraction(0)},
    )


def build_potential(spec):
    """Bind a HypersumSpec into an evaluatable PotentialFunction."""
    dilog_terms = tuple(
        (eps, coeffs) for eps, (coeffs, _const) in zip(spec.epsilon, spec.linear_forms)
    )
    log_pairs = tuple(
        (i - 1, j - 1, r) for (i, j), r in spec.quadratic if r != 0
    )
    denominator = 1
    for (i, j), r in spec.quadratic:
        # A branch shift of Log z_j moves D_i by 2 pi i times this step.
        step = 2 * r if i == j else r
        if step.denominator == 2:
            denominator = 2
        elif step.denominator != 1:
            raise DomainError(
                f"unsupported correction grid: gradient steps by {2 * step} pi i"
            )
    return PotentialFunction(
        spec=spec,
        dilog_terms=dilog_terms,
        log_pairs=log_pairs,
        correction_denominator=denominator,
    )


def fig8_potential(p):
    """Potential of the surgery hypersum:
    Vt(z, w) = -Li2(z w) + Li2(z / w) + (p/4) (Log z)^2 - Log z Log w."""
    return build_potential(fig8_spec(p))


def _checked_point(pf, point):
    point = tuple(complex(z) for z in point)
    if len(point) != pf.spec.k:
        raise DomainError(
            f"point has {len(point)} coordinates, potential has {pf.spec.k} variables"
        )
    for idx, z in enumerate(point):
        if z == 0:
            raise SingularPointError(f"coordinate {idx + 1} is zero")
    return point


def _monomial(point, coeffs):
    x = 1 + 0j
    for z, c in zip(point, coeffs):
        if c:
            x *= z ** c
    return x


def eval_potential(pf, point):
    """Vt at the point. Coordinates must be nonzero; x_a = 1 is permitted
    because Li2(1) = pi^2/6 cancels against the constant shift there."""
    point = _checked_point(pf, point)
    total = 0j
    for eps, coeffs in pf.dilog_terms:
        total -= eps * (dilog(_monomial(point, coeffs)) - _PI_SQ_OVER_6)
    if pf.log_pairs:
        logs = [principal_log(z) for z in point]
        for i, j, r in pf.log_pairs:
            total += float(r) * logs[i] * logs[j]
    return total


def eval_log_gradient(pf, point):
    """Logarithmic gradient (D_1, .., D_k), D_i = z_i dVt/dz_i.

    Each D_i is the fixed composition of principal logs stated in the
    module docstring. Any x_a = 1 makes some Log(1 - x_a) infinite, so
    that is rejected as a singular point rather than evaluated.
    """
    point = _checked_point(pf, point)
    k = pf.spec.k
    grad = [0j] * k
    for eps, coeffs in pf.dilog_terms:
        x = _monomial(point, coeffs)
        if x == 1:
            raise SingularPointError(
                "argument of a dilogarithm factor equals 1; gradient is singular"
            )
        log_one_minus = principal_log(1 - x)
        for i, c in enumerate(coeffs):
            if c:
                grad[i] += eps * c * log_one_minus
    if pf.log_pairs:
        logs = [principal_log(z) for z in point]
        for i, j, r in pf.log_pairs:
            if i == j:
                grad[i] += 2 * float(r) * logs[i]
            else:
                grad[i] += float(r) * logs[j]
                grad[j] += float(r) * logs[i]
    return grad


def branch_correct(pf, point, tolerance=1e-4):
    """Round -D_i/(2 pi i) onto the correction grid and correct the value.

    Returns BranchCorrection with c_i on (1/d) Z for the potential's
    correction denominator d, and V = Vt + 2 pi i sum_i c_i Log z_i. A raw
    correction farther than `tolerance` from the grid means the point is
    not a critical point of any branch of the potential.
    """
    point = _checked_point(pf, point)
    grad = eval_log_gradient(pf, point)
    d = pf.correction_denominator
    corrections = []
    residuals = []
    for i, d_i in enumerate(grad):
        raw = -d_i / _TWO_PI_I
        c_i = Fraction(round(raw.real * d), d)
        residual = abs(raw - complex(c_i))
        if residual >= tolerance:
            raise BranchInconsistencyError(
                f"correction {i + 1} is {raw:.6g}, not within {tolerance:g} "
                f"of the 1/{d} integer grid"
            )
        corrections.append(c_i)
        residuals.append(residual)
    value = eval_potential(pf, point)
    for c_i, z in zip(corrections, point):
        if c_i:
            value += _TWO_PI_I * float(c_i) * principal_log(z)
    return BranchCorrection(
        c=tuple(corrections),
        value=value,
        rounding_residuals=tuple(residuals),
    )
