"""Critical points of the figure-eight surgery potential.

The criticality conditions exp(D_z) = exp(D_w) = 1 of the potential are
the algebraic system

    z^{p/2} (1 - z w) = w - z,        (1 - z w)(w - z) = z w.

Solving happens in s = z^{1/2}, which turns z^{p/2} into the polynomial
s^p and makes both parities of p algebraic. Two independent searches feed
one candidate pool: the exact resultant-style elimination (substituting
w = (s^2 + s^p)/(1 + s^{p+2}) into the w-quadratic and clearing
denominators) whose roots a dense companion-matrix solver finds, and a
damped Newton iteration from a grid of complex starts seeded with the two
roots of the w-quadratic at each grid point. The grid path exists for the
z = -1 solutions, such as (-1, (-3 +- sqrt 5)/2) at p = 4, which the
sources of truth require. At every p = 0 (mod 4) the numerator s^2 + s^p
and the denominator 1 + s^{p+2} both vanish at s = +-i, so the cleared
polynomial has a double root there, but np.roots returns it about 1e-8
off, where |1 + s^{p+2}| is 2e-8 or more. That is above the 1e-8 test
that reseeds w from the quadratic, so the elimination path substitutes a
meaningless w, and only the grid finds z = -1.

Candidates are polished, snapped onto the real/imaginary axes when within
rounding distance, deduplicated in (z, w), filtered of the spurious roots
introduced by clearing (s = 0, w = 0) and of z = 1 where the potential's
gradient is singular, branch-corrected, classified, and returned in a
deterministic order. Non-convergent or inconsistent candidates are dropped
with a logged diagnostic, never returned as silently wrong values.
"""

import cmath
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (
    BranchInconsistencyError,
    DomainError,
    SingularPointError,
    checked_framing,
)
from .potential import branch_correct
from .specfun import principal_log

__all__ = [
    "SaddlePoint",
    "solve_fig8",
    "residual_fig8",
    "symmetry_orbit",
    "classify",
    "track_geometric",
]

_log = logging.getLogger(__name__)

_RESIDUAL_BOUND = 1e-10     # polished points must satisfy the system this well
_SPURIOUS_RADIUS = 1e-8     # |s|, |w|, or |z - 1| below this is a cleared root
_SNAP_EPS = 1e-12           # relative distance for snapping onto an axis
_NEWTON_TOLERANCE = 1e-13   # residual at which Newton stops
_MAX_ITERATIONS = 60        # Newton steps per start
_DEDUP_DISTANCE = 1e-9      # max-norm distance at which points merge
_GRID_DENSITY = 24          # grid starts per axis of the s-square
_MEMBERSHIP_DISTANCE = 1e-8  # orbit membership of the geometric candidate
_LABEL_RANK = {
    "geometric-candidate": 0,
    "conjugate": 1,
    "unit-modulus": 2,
    "real": 3,
    "other": 4,
}


@dataclass(frozen=True)
class SaddlePoint:
    """A polished critical point with its branch-corrected value.

    sheet is +1 when z^{p/2} = exp((p/2) Log z) satisfies the system at
    (zeta, omega) and -1 when the opposite square root does; residual is
    the sheet-minimal max-modulus defect of the two equations.
    """

    zeta: complex
    omega: complex
    residual: float
    correction: object
    label: str = "other"
    sheet: int = 1

    @property
    def value(self):
        """Branch-corrected optimistic limit V at this point."""
        return self.correction.value


def _system(p, s, w):
    z = s * s
    u = 1 - z * w
    return s ** p * u - w + z, u * (w - z) - z * w


def _residual_sw(p, s, w):
    try:
        f1, f2 = _system(p, s, w)
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.inf
    r = max(abs(f1), abs(f2))
    return r if math.isfinite(r) else math.inf


def _newton(p, s, w):
    """Damped Newton on the (s, w) system; returns (s, w, residual, ok)."""
    res = _residual_sw(p, s, w)
    if not math.isfinite(res):
        return s, w, math.inf, False
    for _ in range(_MAX_ITERATIONS):
        if res < _NEWTON_TOLERANCE:
            return s, w, res, True
        try:
            z = s * s
            sp = s ** p
            u = 1 - z * w
            f1 = sp * u - w + z
            f2 = u * (w - z) - z * w
            j11 = p * s ** (p - 1) * u - 2 * s * w * sp + 2 * s
            j12 = -sp * z - 1
            j21 = -2 * s * w * (w - z) - 2 * s * u - 2 * s * w
            j22 = -z * (w - z) + u - z
        except (OverflowError, ZeroDivisionError, ValueError):
            return s, w, res, False
        det = j11 * j22 - j12 * j21
        if det == 0 or not (math.isfinite(abs(det))):
            return s, w, res, False
        ds = (f1 * j22 - f2 * j12) / det
        dw = (j11 * f2 - j21 * f1) / det
        # halve the step while it does not reduce the residual;
        # the logarithmic singularities near w = z demand damping
        step = 1.0
        improved = False
        for _ in range(20):
            s_next = s - step * ds
            w_next = w - step * dw
            if s_next != 0:
                r_next = _residual_sw(p, s_next, w_next)
                if r_next < res:
                    improved = True
                    break
            step *= 0.5
        if not improved:
            return s, w, res, res < _NEWTON_TOLERANCE
        s, w, res = s_next, w_next, r_next
    return s, w, res, res < _NEWTON_TOLERANCE


def _sparse_poly(terms):
    coeffs = np.zeros(max(terms) + 1, dtype=np.int64)
    for exponent, c in terms.items():
        coeffs[exponent] += c
    return coeffs


def _elimination_coefficients(p):
    """Ascending integer coefficients of the cleared polynomial in s.

    With A = s^sigma (s^2 + s^p), B = s^sigma (1 + s^{p+2}) for
    sigma = max(0, -p), eliminating w between w B = A and the w-quadratic
    z w^2 - (1 - z + z^2) w + z = 0 gives s^2 A^2 - C A B + s^2 B^2 with
    C = 1 - s^2 + s^4; degree 2 max(p, 0) + 2 sigma + 6.
    """
    sigma = max(0, -p)
    a = _sparse_poly({2 + sigma: 1, p + sigma: 1})
    b = _sparse_poly({sigma: 1, p + 2 + sigma: 1})
    c = _sparse_poly({0: 1, 2: -1, 4: 1})
    aa = np.convolve(a, a)
    bb = np.convolve(b, b)
    cab = np.convolve(c, np.convolve(a, b))
    out = np.zeros(max(len(aa) + 2, len(bb) + 2, len(cab)), dtype=np.int64)
    out[2:2 + len(aa)] += aa
    out[2:2 + len(bb)] += bb
    out[:len(cab)] -= cab
    return out


def _quadratic_w_roots(z):
    # z w^2 - (1 - z + z^2) w + z = 0: the second equation solved for w
    c = 1 - z + z * z
    disc = cmath.sqrt(c * c - 4 * z * z)
    return (c + disc) / (2 * z), (c - disc) / (2 * z)


def _elimination_starts(p):
    coeffs = _elimination_coefficients(p)[::-1].astype(float)
    coeffs = np.trim_zeros(coeffs, "f")   # degree-side zeros never occur
    tail = np.trim_zeros(coeffs, "b")     # s = 0 roots from clearing
    if len(tail) == 0:
        return
    for s in np.roots(tail):
        s = complex(s)
        if abs(s) < _SPURIOUS_RADIUS:
            continue
        denom = 1 + s ** (p + 2)
        numer = s * s + s ** p
        if abs(denom) > 1e-8 * (1 + abs(numer)):
            yield s, numer / denom
        else:
            # denominator-degenerate root; reseed w from the quadratic.
            # The s = +-i double roots at p = 0 (mod 4) land about 1e-8
            # off and miss this branch (see the module docstring).
            for w in _quadratic_w_roots(s * s):
                yield s, w


def _grid_starts():
    span = np.linspace(-1.75, 1.75, _GRID_DENSITY)
    for re in span:
        for im in span:
            s = complex(re, im)
            if abs(s) < 0.2:
                continue
            for w in _quadratic_w_roots(s * s):
                yield s, w


def _snap_axis(value):
    scale = 1 + abs(value)
    if abs(value.imag) < _SNAP_EPS * scale:
        return complex(value.real, 0.0)
    if abs(value.real) < _SNAP_EPS * scale:
        return complex(0.0, value.imag)
    return value


def _sheet_residual(p, z, w):
    """Max-modulus defect of the two equations, minimized over the two
    square roots of z; returns (residual, sheet)."""
    s = cmath.exp(0.5 * principal_log(z))
    best = (math.inf, 1)
    for sheet in (1, -1):
        r = _residual_sw(p, sheet * s, w)
        if r < best[0]:
            best = (r, sheet)
    return best


def residual_fig8(p, zeta, omega):
    """Defect of z^{p/2}(1-zw) = w-z and (1-zw)(w-z) = zw at (zeta, omega).

    z^{p/2} means exp((p/2) Log z); if that sign fails, the opposite
    square-root sheet is also tried and the smaller defect returned.
    """
    p = checked_framing(p)
    return _sheet_residual(p, complex(zeta), complex(omega))[0]


def solve_fig8(p):
    """All critical points of the surgery potential at framing p.

    Union of the elimination roots and the grid Newton search, polished to
    a residual below 1e-13, deduplicated at max-norm distance 1e-9, filtered
    of cleared-root artifacts, branch-corrected and classified. Points are
    sorted by label rank, then lexicographically by coordinates.
    """
    p = checked_framing(p)

    polished = []
    for s0, w0 in chain(_elimination_starts(p), _grid_starts()):
        s, w, res, ok = _newton(p, s0, w0)
        if not ok:
            _log.debug("start (%.3g%+.3gj, %.3g%+.3gj) stalled at residual %.3g",
                       s0.real, s0.imag, w0.real, w0.imag, res)
            continue
        if abs(s) < _SPURIOUS_RADIUS or abs(w) < _SPURIOUS_RADIUS:
            _log.debug("discarding cleared root s=%s w=%s", s, w)
            continue
        z_raw, w_raw = s * s, w
        z, w = _snap_axis(z_raw), _snap_axis(w_raw)
        residual, sheet = _sheet_residual(p, z, w)
        if residual >= _RESIDUAL_BOUND:
            z, w = z_raw, w_raw
            residual, sheet = _sheet_residual(p, z, w)
            if residual >= _RESIDUAL_BOUND:
                _log.debug("candidate (%s, %s) fails the residual bound: %.3g",
                           z, w, residual)
                continue
        if abs(z - 1) <= _SPURIOUS_RADIUS:
            _log.info("discarding z = 1 solution (singular gradient) at p=%d", p)
            continue
        polished.append((z, w, residual, sheet))

    polished.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    kept = []
    for z, w, residual, sheet in polished:
        merged = False
        for idx, (zk, wk, rk, sk) in enumerate(kept):
            if max(abs(z - zk), abs(w - wk)) < _DEDUP_DISTANCE:
                if residual < rk:
                    kept[idx] = (z, w, residual, sheet)
                merged = True
                break
        if not merged:
            kept.append((z, w, residual, sheet))

    points = []
    for z, w, residual, sheet in kept:
        try:
            correction = branch_correct(p, (z, w))
        except (BranchInconsistencyError, SingularPointError) as exc:
            _log.warning("dropping (%s, %s) at p=%d: %s", z, w, p, exc)
            continue
        points.append(SaddlePoint(zeta=z, omega=w, residual=residual,
                                  correction=correction, sheet=sheet))

    points = classify(points)
    points.sort(key=lambda pt: (_LABEL_RANK[pt.label], pt.zeta.real,
                                pt.zeta.imag, pt.omega.real, pt.omega.imag))
    return points


def symmetry_orbit(point, dedup_distance=1e-9):
    """Orbit {(z, w), (conj z, conj w), (1/z, w), (conj 1/z, conj w)}.

    Accepts a SaddlePoint or a bare (zeta, omega) pair; members closer
    than dedup_distance are merged, so unit-modulus or real points yield
    orbits of size 2.
    """
    if isinstance(point, SaddlePoint):
        zeta, omega = point.zeta, point.omega
    else:
        zeta, omega = (complex(c) for c in point)
    if zeta == 0:
        raise DomainError("zeta must be nonzero")
    members = [
        (zeta, omega),
        (zeta.conjugate(), omega.conjugate()),
        (1 / zeta, omega),
        ((1 / zeta).conjugate(), omega.conjugate()),
    ]
    members.sort(key=lambda m: (m[0].real, m[0].imag, m[1].real, m[1].imag))
    orbit = []
    for z, w in members:
        if not any(max(abs(z - zo), abs(w - wo)) < dedup_distance
                   for zo, wo in orbit):
            orbit.append((z, w))
    return orbit


def classify(points):
    """Fill labels on polished points.

    The geometric-candidate is the point of maximal Im V among those with
    Im V > 0 (ties within 1e-9 broken lexicographically by (Re zeta,
    Im zeta)); points within 1e-8 of its remaining orbit members are
    labeled conjugate. Of the rest, ||zeta| - 1| < 1e-9 is unit-modulus and
    both coordinates real to 1e-9 is real; everything else is other.
    """
    if not points:
        return []
    geometric = None
    positive = [pt for pt in points if pt.correction.value.imag > 1e-9]
    if positive:
        top = max(pt.correction.value.imag for pt in positive)
        ties = [pt for pt in positive if pt.correction.value.imag >= top - 1e-9]
        geometric = min(ties, key=lambda pt: (pt.zeta.real, pt.zeta.imag))
    orbit = symmetry_orbit(geometric, _MEMBERSHIP_DISTANCE) if geometric else []

    labeled = []
    for pt in points:
        if geometric is not None and pt is geometric:
            label = "geometric-candidate"
        elif any(max(abs(pt.zeta - z), abs(pt.omega - w)) < _MEMBERSHIP_DISTANCE
                 for z, w in orbit):
            label = "conjugate"
        elif abs(abs(pt.zeta) - 1) < 1e-9:
            label = "unit-modulus"
        elif abs(pt.zeta.imag) < 1e-9 and abs(pt.omega.imag) < 1e-9:
            label = "real"
        else:
            label = "other"
        labeled.append(replace(pt, label=label))
    return labeled


def track_geometric(p_values):
    """Geometric-candidate branch over a sequence of framings.

    Each p is tried from the large-p start (s, w) = (e^{-i pi/p},
    e^{-i pi/3}) and from the previous framing's solution, which is far
    cheaper than full enumeration; a framing where neither start converges
    to a point with Im V > 0 falls back to solve_fig8, and DomainError is
    raised when even that has no geometric candidate.
    """
    results = []
    previous = None
    for p in p_values:
        p = checked_framing(p)
        if p < 1:
            raise DomainError(f"geometric tracking needs p >= 1, got {p}")
        starts = [(cmath.exp(-1j * math.pi / p), cmath.exp(-1j * math.pi / 3))]
        if previous is not None:
            starts.append(previous)
        point = None
        for s0, w0 in starts:
            s, w, res, ok = _newton(p, s0, w0)
            if not ok:
                continue
            z = _snap_axis(s * s)
            w = _snap_axis(w)
            residual, sheet = _sheet_residual(p, z, w)
            if residual >= _RESIDUAL_BOUND or abs(z - 1) <= _SPURIOUS_RADIUS:
                continue
            try:
                correction = branch_correct(p, (z, w))
            except (BranchInconsistencyError, SingularPointError):
                continue
            if correction.value.imag > 1e-9:
                point = SaddlePoint(zeta=z, omega=w, residual=residual,
                                    correction=correction,
                                    label="geometric-candidate", sheet=sheet)
                previous = (s, w)
                break
        if point is None:
            _log.info("continuation failed at p=%d; enumerating", p)
            candidates = [pt for pt in solve_fig8(p)
                          if pt.label == "geometric-candidate"]
            if not candidates:
                raise DomainError(f"no geometric candidate at p={p}")
            point = candidates[0]
            previous = None
        results.append(point)
    return results
