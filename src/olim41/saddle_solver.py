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
sources of truth require. At z = -1, s = +-i, the first equation reads
(s^p - 1)(1 + w) = 0 and the second w^2 + 3w + 1 = 0, whose roots are
not -1: z = -1 solves the system exactly when i^p = 1, that is at every
p = 0 (mod 4). At these p the numerator s^2 + s^p
and the denominator 1 + s^{p+2} both vanish at s = +-i, so the cleared
polynomial has a double root there, but np.roots returns it about 1e-8
off, where |1 + s^{p+2}| is 2e-8 or more. That is above the 1e-8 test
that reseeds w from the quadratic, so the elimination path substitutes a
meaningless w, and only the grid finds z = -1.

solve_fig8 runs Newton from all of its starts (about 1,150) at once:
_newton_many iterates float64 arrays and gives every start the bits that
the scalar _newton gives it. It cannot use numpy's complex128, whose
products, quotients and powers round differently from CPython's; it uses
the port of CPython's complex arithmetic in _pycomplex instead. The
scalar _newton stays as the reference the tests hold _newton_many to,
and track_geometric runs it from one start per framing, where arrays
would cost more than they save.

One test, in _polished, decides whether a Newton root becomes a
candidate: it is no spurious root of clearing (s = 0, w = 0), its (z, w),
snapped onto the real axis within rounding distance, meets the
residual bound on one square-root sheet (1e-10, or 8 |p| 2^-53 past
|p| = 1.1e5, where s^p rounds coarser), and z != 1, where the gradient is
singular (within 1e-8, or 1/|p| past |p| = 1e8, where the geometric point
comes within 2 pi/|p| of 1). Whether Newton reached its own 1e-13
stopping tolerance does not enter: that flag is a diagnostic. solve_fig8
deduplicates its candidates in (z, w); one step, _points, then
branch-corrects the candidates of both entry points into SaddlePoints, and
classify labels them. Dropped candidates are logged with the reason,
never returned as silently wrong values.
"""

import cmath
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from ._pycomplex import add, mul, neg, power, quot, sub
from .errors import (
    BranchInconsistencyError,
    DomainError,
    SingularPointError,
    checked_integer,
    within_float_range,
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

_RESIDUAL_BOUND = 1e-10     # residual bound of polished points, |p| < 1.1e5
_SPURIOUS_RADIUS = 1e-8     # cleared-root radius in |s|, |w| and |z - 1|
_SNAP_EPS = 1e-12           # relative distance that snaps onto the real axis
_NEWTON_TOLERANCE = 1e-13   # residual at which Newton stops
_MAX_ITERATIONS = 60        # Newton steps per start
_MAX_HALVINGS = 20          # step sizes 2^-k, k < 20, per Newton step
_LINE_SEARCH_BLOCK = 1024   # line-search candidates evaluated at once
_DEDUP_DISTANCE = 1e-9      # max-norm distance at which points merge
_GRID_DENSITY = 24          # grid starts per axis of the s-square
_MEMBERSHIP_DISTANCE = 1e-8  # orbit membership of the geometric candidate
_POSITIVE_IM_V = 1e-9       # Im V above this is positive: a geometric candidate
_MAX_FRAMING = 136          # largest |p| at which np.roots keeps every point
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
    """The defects f1, f2 of the two equations in (s, w), and the
    z = s^2, s^p and u = 1 - z w they are made of."""
    z = s * s
    sp = s ** p
    u = 1 - z * w
    return sp * u - w + z, u * (w - z) - z * w, z, sp, u


def _residual_sw(p, s, w):
    try:
        f1, f2, *_ = _system(p, s, w)
        r = max(abs(f1), abs(f2))
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.inf
    return r if math.isfinite(r) else math.inf


def _newton(p, s, w):
    """Damped Newton on the (s, w) system; returns (s, w, residual, ok).

    At most _MAX_ITERATIONS steps, each the first of the step sizes 2^-k,
    k < _MAX_HALVINGS, that lowers the residual. It stops with ok false
    where a power raises or the Jacobian determinant is 0 or has no finite
    modulus. ok, whether the residual reached _NEWTON_TOLERANCE, is a
    diagnostic: _polished decides by the residual bound alone.
    _newton_many must match it bit for bit.
    """
    res = _residual_sw(p, s, w)
    if not math.isfinite(res):
        return s, w, math.inf, False
    for _ in range(_MAX_ITERATIONS):
        if res < _NEWTON_TOLERANCE:
            return s, w, res, True
        try:
            f1, f2, z, sp, u = _system(p, s, w)
            j11 = p * s ** (p - 1) * u - 2 * s * w * sp + 2 * s
            j12 = -sp * z - 1
            j21 = -2 * s * w * (w - z) - 2 * s * u - 2 * s * w
            j22 = -z * (w - z) + u - z
            det = j11 * j22 - j12 * j21
            if det == 0 or not math.isfinite(abs(det)):
                return s, w, res, False
        except (OverflowError, ZeroDivisionError, ValueError):
            return s, w, res, False
        ds = (f1 * j22 - f2 * j12) / det
        dw = (j11 * f2 - j21 * f1) / det
        # halve the step while it does not reduce the residual;
        # the logarithmic singularities near w = z demand damping
        step = 1.0
        improved = False
        for _ in range(_MAX_HALVINGS):
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


def _system_many(sp, s, w):
    """_system's defects f1, f2 over arrays, given sp = s ** p, and the
    z = s s, u = 1 - z w and w - z they are made of."""
    z = mul(s, s)
    zw = mul(z, w)
    u = sub((1.0, 0.0), zw)
    d = sub(w, z)
    f1 = add(sub(mul(sp, u), w), z)
    f2 = sub(mul(u, d), zw)
    return f1, f2, z, u, d


def _residual_many(p, s, w):
    """_residual_sw over arrays."""
    sp, raised = power(s, p)
    f1, f2, *_ = _system_many(sp, s, w)
    # abs is hypot, which is inf where CPython's abs raises OverflowError
    r1, r2 = np.hypot(*f1), np.hypot(*f2)
    r = np.where(r2 > r1, r2, r1)  # max(r1, r2) keeps r1 unless r2 > r1
    return np.where(raised | ~np.isfinite(r), np.inf, r)


def _newton_step(p, s, w):
    """_newton's step (ds, dw) over arrays, and where _newton gives up
    instead: a power raises, or the Jacobian determinant is 0 or has no
    finite modulus."""
    sp, raised = power(s, p)
    q, raised1 = power(s, p - 1)     # s^(p-1)
    f1, f2, z, u, d = _system_many(sp, s, w)
    s2 = mul((2.0, 0.0), s)
    s2w = mul(s2, w)
    j11 = add(sub(mul(mul((float(p), 0.0), q), u), mul(s2w, sp)), s2)
    j12 = sub(mul(neg(sp), z), (1.0, 0.0))
    j21 = sub(sub(mul(mul(mul((-2.0, 0.0), s), w), d), mul(s2, u)), s2w)
    j22 = sub(add(mul(neg(z), d), u), z)
    det = sub(mul(j11, j22), mul(j12, j21))
    failed = (raised | raised1 | ((det[0] == 0) & (det[1] == 0))
              | ~np.isfinite(np.hypot(*det)))
    ds, _ = quot(sub(mul(f1, j22), mul(f2, j12)), det)
    dw, _ = quot(sub(mul(j11, f2), mul(j21, f1)), det)
    return ds, dw, failed


def _trial(p, state, delta, step):
    """The state s - step ds, w - step dw reaches, step promoted to
    (step, 0.0) as in CPython, and where _newton's line search accepts it:
    s is nonzero and the residual is lower.

    state holds the rows s.re, s.im, w.re, w.im, residual and delta the
    rows ds.re, ds.im, dw.re, dw.im; the state reached has state's rows.
    """
    s = sub(state[:2], mul((step, 0.0), delta[:2]))
    w = sub(state[2:4], mul((step, 0.0), delta[2:]))
    r = _residual_many(p, s, w)
    return np.array([*s, *w, r]), ((s[0] != 0) | (s[1] != 0)) & (r < state[4])


def _line_search(p, state, delta, go):
    """_newton's line search over arrays: for each lane where go, the first
    step 2^-k, k < _MAX_HALVINGS, that _trial accepts.

    Returns where a step was found, and state with each such lane moved to
    the state its step reaches. The lanes still searching try the steps
    from k = 0 on in blocks of _LINE_SEARCH_BLOCK candidates, one lane per
    row and the steps 2^-k, 2^-(k+1), ... across, so from 1024 lanes on a
    block is the one step 2^-k; the first step a lane accepts does not
    depend on the blocks.
    """
    found = np.zeros_like(go)
    reached = state.copy()
    todo = np.flatnonzero(go)
    k = 0
    while k < _MAX_HALVINGS and len(todo):
        # steps past _MAX_HALVINGS only fill the block
        ks = np.arange(k, k + max(1, _LINE_SEARCH_BLOCK // len(todo)))
        block, accept = _trial(p, state[:, todo, None], delta[:, todo, None],
                               np.ldexp(1.0, -ks))
        accept &= ks < _MAX_HALVINGS
        hit = accept.any(axis=1)
        reached[:, todo[hit]] = block[:, hit, accept[hit].argmax(axis=1)]
        found[todo[hit]] = True
        todo = todo[~hit]
        k += len(ks)
    return found, reached


def _newton_many(p, s, w):
    """_newton from each start (s[i], w[i]), bit for bit: an iterator of
    (s, w, residual, ok) in the order of the starts.

    The starts iterate together as float64 arrays of real and imaginary
    parts, in CPython's complex arithmetic as _pycomplex rebuilds it. A
    start leaves the arrays at the exit _newton takes for it; at every
    exit ok is whether the residual is below _NEWTON_TOLERANCE, a
    diagnostic that no candidate test reads.
    """
    s = np.asarray(s, dtype=complex)
    w = np.asarray(w, dtype=complex)
    # rows s.re, s.im, w.re, w.im, residual, one column per start
    final = np.array([s.real, s.imag, w.real, w.imag, np.zeros(len(s))])
    with np.errstate(all="ignore"):
        final[4] = _residual_many(p, final[:2], final[2:4])
        lanes = np.flatnonzero(final[4] < np.inf)
        for _ in range(_MAX_ITERATIONS):
            if not len(lanes):
                break
            state = final[:, lanes]
            ds, dw, failed = _newton_step(p, state[:2], state[2:4])
            go = (state[4] >= _NEWTON_TOLERANCE) & ~failed
            found, final[:, lanes] = _line_search(
                p, state, np.array([*ds, *dw]), go)
            lanes = lanes[found]
    sr, si, wr, wi, res = final
    return zip(map(complex, sr, si), map(complex, wr, wi), map(float, res),
               map(bool, res < _NEWTON_TOLERANCE))


def _elimination_coefficients(p):
    """Ascending integer coefficients of the cleared polynomial in s.

    With A = s^sigma (s^2 + s^p), B = s^sigma (1 + s^{p+2}) for
    sigma = max(0, -p), eliminating w between w B = A and the w-quadratic
    z w^2 - (1 - z + z^2) w + z = 0 gives s^2 A^2 - C A B + s^2 B^2 with
    C = 1 - s^2 + s^4. Over s^{2 sigma},
      s^2 A^2 + s^2 B^2 = s^2 + s^6 + 4 s^{p+4} + s^{2p+2} + s^{2p+6},
      C A B = (1 - s^2 + s^4)(s^2 + s^p + s^{p+4} + s^{2p+2})
            = s^2 - s^4 + s^6 + s^p - s^{p+2} + 2 s^{p+4} - s^{p+6}
              + s^{p+8} + s^{2p+2} - s^{2p+4} + s^{2p+6},
    so the polynomial is the seven terms
      s^{2 sigma} (s^4 - s^p + s^{p+2} + 2 s^{p+4} + s^{p+6} - s^{p+8}
                   + s^{2p+4}).
    Terms with one exponent add up, as s^4 and s^{p+2} do at p = 2. The
    top coefficient returned is nonzero: the degree is 2|p| + 4 for
    |p| >= 5, where s^{2 sigma} s^{2p+4} is the only top term.
    """
    sigma = max(0, -p)
    terms = ((4, 1), (p, -1), (p + 2, 1), (p + 4, 2), (p + 6, 1), (p + 8, -1),
             (2 * p + 4, 1))
    coeffs = [0] * (2 * sigma + max(e for e, _ in terms) + 1)
    for exponent, c in terms:
        coeffs[2 * sigma + exponent] += c
    while not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _quadratic_w_roots(z):
    # z w^2 - (1 - z + z^2) w + z = 0: the second equation solved for w
    c = 1 - z + z * z
    disc = cmath.sqrt(c * c - 4 * z * z)
    return (c + disc) / (2 * z), (c - disc) / (2 * z)


def _elimination_starts(p):
    # np.roots strips zero coefficients and returns the s = 0 roots of
    # clearing as exact zeros, which the radius test drops
    for s in np.roots(_elimination_coefficients(p)[::-1]):
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
    if abs(value.imag) < _SNAP_EPS * (1 + abs(value)):
        return complex(value.real, 0.0)
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
    p = checked_integer(p, "surgery coefficient")
    return _sheet_residual(p, complex(zeta), complex(omega))[0]


def _polished(p, roots):
    """(z, w, residual, sheet) for each Newton result (s, w, residual, ok)
    that is no cleared root, meets the residual bound snapped onto the
    real axis and has z != 1; each dropped root is logged.

    This is the one test a Newton root must pass to become a point. ok is
    not read: a root on which Newton gave up just above _NEWTON_TOLERANCE
    (at 1.01e-13, at p = 1835) is as good a point as one that reached it.

    The bound is _RESIDUAL_BOUND, or 8 |p| 2^-53 where that is larger, from
    |p| = 2^50 * 1e-10 = 1.1e5 on. The defect f1 = s^p u - w + z carries
    the rounding of s^p, which grows with p: the float s nearest the root
    lies within 2^-53 |s| of it, which moves s^p by p 2^-53 of itself, and
    s ** p rounds |s| by 2^-53 more before raising it to p, and the phase
    p arg s by |p arg s| 2^-53 <= p pi 2^-53. That is (2 + pi) p 2^-53 of
    |s^p u| = |w - z|, about 1 on the geometric branch at large p, and
    8 p 2^-53 covers it. Newton ends at 1.66e-10 at p = 3e6, 2.61e-10 at
    1e7 and 2.19e-9 at 1e8, each below p 2^-53.

    A root with |z - 1| <= min(_SPURIOUS_RADIUS, 1/|p|) is taken for z = 1.
    The radius shrinks with p because the geometric point tends to z = 1:
    there w tends to e^{-i pi/3}, and the first equation at z = 1 reads
    s^p (1 - w) = w - 1, so s^p = -1 + O(1/p), p log s = -i pi + O(1/p),
    and z = s^2 = e^{-2 pi i/p + O(p^-2)}, with |z - 1| = 2 pi/|p| + O(p^-2)
    (6.28318530706/|p| measured at p = 1e6). So 1/|p| keeps the point
    outside by a factor near 2 pi. A fixed 1e-8 would take it for z = 1
    from |p| = 2 pi 1e8 = 6.3e8 on. The radius is 1e-8 for |p| <= 1e8.
    """
    bound = max(_RESIDUAL_BOUND, abs(p) * 2.0 ** -50)
    radius = min(_SPURIOUS_RADIUS, 1 / max(abs(p), 1))
    for s, w, _, _ in roots:
        if abs(s) < _SPURIOUS_RADIUS or abs(w) < _SPURIOUS_RADIUS:
            _log.debug("discarding cleared root s=%s w=%s", s, w)
            continue
        z, w = _snap_axis(s * s), _snap_axis(w)
        residual, sheet = _sheet_residual(p, z, w)
        if residual >= bound:
            _log.debug("candidate (%s, %s) fails the residual bound: %.3g",
                       z, w, residual)
            continue
        if abs(z - 1) <= radius:
            _log.info("discarding z = 1 solution (singular gradient) at p=%d", p)
            continue
        yield z, w, residual, sheet


def _deduplicated(candidates):
    """The (z, w, residual, sheet) candidates, merged at max-norm distance
    _DEDUP_DISTANCE.

    Taken in ascending order of (z, w), each candidate merges into the
    first kept point within the distance, which then holds whichever of
    the two has the lower residual, or else is kept. Only kept points
    whose Re z lies within the distance of the candidate's are compared:
    the order is ascending in Re z, a rounded difference is monotone in
    its operands and abs bounds |Re|, and a kept point changes only on a
    merge, so one that falls behind can never merge again.
    """
    candidates = sorted(candidates, key=lambda c: (c[0].real, c[0].imag,
                                                   c[1].real, c[1].imag))
    kept, window = [], []
    for z, w, residual, sheet in candidates:
        window = [k for k in window
                  if z.real - kept[k][0].real < _DEDUP_DISTANCE]
        for k in window:
            zk, wk, rk, _ = kept[k]
            if max(abs(z - zk), abs(w - wk)) < _DEDUP_DISTANCE:
                if residual < rk:
                    kept[k] = (z, w, residual, sheet)
                break
        else:
            window.append(len(kept))
            kept.append((z, w, residual, sheet))
    return kept


def _points(p, candidates):
    """The SaddlePoint of each (z, w, residual, sheet) candidate, with its
    branch correction and no label yet; a candidate that branch_correct
    rejects is logged as a warning and dropped."""
    points = []
    for z, w, residual, sheet in candidates:
        try:
            correction = branch_correct(p, (z, w))
        except (BranchInconsistencyError, SingularPointError) as exc:
            _log.warning("dropping (%s, %s) at p=%d: %s", z, w, p, exc)
            continue
        points.append(SaddlePoint(zeta=z, omega=w, residual=residual,
                                  correction=correction, sheet=sheet))
    return points


def solve_fig8(p):
    """All critical points of the surgery potential at framing p.

    Union of the elimination roots and the grid Newton search, run from
    all starts at once by _newton_many, which stops at a residual of
    1e-13, kept by _polished's test (residual below 1e-10, no cleared-root
    artifact, z != 1), deduplicated at max-norm distance 1e-9,
    branch-corrected by _points and classified. Points are
    sorted by label rank, then lexicographically by coordinates.

    |p| must be at most 136 (DomainError otherwise). The elimination
    polynomial has degree 2|p| + 4 for |p| >= 5, and np.roots first loses
    points of it at p = 137 (270 of 272), so past the bound the set would
    be incomplete without a sign. Checked at every |p| <= 136, the set has
    2|p| - 2 points at odd p and |p| at even p for 5 <= |p| <= 136 (4 at
    p = 0, 6 at p = +-1 and +-3, 4 at +-2, 2 at +-4), except at
    p = 0 (mod 4) in -136..-36 but -60 and in 60..136 but 132, where the
    z = -1 pair (-1, (-3 +- sqrt 5)/2) lacks a point or both.
    """
    p = checked_integer(p, "surgery coefficient")
    if abs(p) > _MAX_FRAMING:
        raise DomainError(
            f"the saddle solver takes |p| <= {_MAX_FRAMING}, got p={p}")

    # s0, w0, s1, w1, ... of every start
    starts = np.fromiter(chain.from_iterable(
        chain(_elimination_starts(p), _grid_starts())), dtype=complex)
    roots = _newton_many(p, starts[0::2], starts[1::2])
    points = classify(_points(p, _deduplicated(_polished(p, roots))))
    points.sort(key=lambda pt: (_LABEL_RANK[pt.label], pt.zeta.real,
                                pt.zeta.imag, pt.omega.real, pt.omega.imag))
    return points


def symmetry_orbit(point):
    """Orbit {(z, w), (conj z, conj w), (1/z, w), (conj 1/z, conj w)}.

    Accepts a SaddlePoint or a bare (zeta, omega) pair of finite
    coordinates, zeta nonzero with a finite 1/zeta (DomainError
    otherwise); members closer than _MEMBERSHIP_DISTANCE (1e-8, as in
    classify) are merged, so unit-modulus or real points yield orbits of
    size 2.
    """
    if isinstance(point, SaddlePoint):
        zeta, omega = point.zeta, point.omega
    else:
        zeta, omega = (complex(c) for c in point)
    if not (cmath.isfinite(zeta) and cmath.isfinite(omega)):
        raise DomainError(f"coordinates must be finite, got ({zeta}, {omega})")
    if zeta == 0:
        raise DomainError("zeta must be nonzero")
    inverse = 1 / zeta
    if not cmath.isfinite(inverse):
        raise DomainError(f"1/zeta passes the float range at zeta = {zeta}")
    members = [
        (zeta, omega),
        (zeta.conjugate(), omega.conjugate()),
        (inverse, omega),
        (inverse.conjugate(), omega.conjugate()),
    ]
    members.sort(key=lambda m: (m[0].real, m[0].imag, m[1].real, m[1].imag))
    orbit = []
    for z, w in members:
        if not any(max(abs(z - zo), abs(w - wo)) < _MEMBERSHIP_DISTANCE
                   for zo, wo in orbit):
            orbit.append((z, w))
    return orbit


def classify(points):
    """Fill labels on polished points.

    The geometric-candidate is the point of maximal Im V among those with
    Im V > _POSITIVE_IM_V (ties within 1e-9 broken lexicographically by
    (Re zeta, Im zeta)); points within 1e-8 of its remaining orbit members
    are labeled conjugate. Of the rest, ||zeta| - 1| < 1e-9 is unit-modulus and
    both coordinates real to 1e-9 is real; everything else is other.
    """
    if not points:
        return []
    geometric = None
    positive = [pt for pt in points if pt.correction.value.imag > _POSITIVE_IM_V]
    if positive:
        top = max(pt.correction.value.imag for pt in positive)
        ties = [pt for pt in positive if pt.correction.value.imag >= top - 1e-9]
        geometric = min(ties, key=lambda pt: (pt.zeta.real, pt.zeta.imag))
    orbit = symmetry_orbit(geometric) if geometric else []

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

    Each p is solved alone, by one _newton from the large-p start
    (s, w) = (e^{-i pi/p}, e^{-i pi/3}), which is far cheaper than full
    enumeration; nothing carries over from one framing to the next. The
    root passes the test of solve_fig8's points (_polished), _points
    branch-corrects it, and it is the point if classify labels it
    geometric (Im V > 0). A framing where it is not raises DomainError, as
    at p = 1..4, which have no hyperbolic structure, and so does a p < 1
    or one without a float, whose pi/p has none. Measured with one
    call per framing: every p in 5..3000, 600 seeded random p in
    3001..10^6, and 3e6, 1e7 and 1e8, where _polished's bound grows with
    the rounding of s^p, and 7e8, 1e9, 3e9, 1e10 and 1e12, where its z = 1
    radius shrinks as 1/p, give the point, and p = 1..4 raise; at
    p <= 136 the point is solve_fig8's geometric candidate to 7.8e-15.
    """
    results = []
    for p in p_values:
        p = checked_integer(p, "surgery coefficient")
        if p < 1:
            raise DomainError(f"geometric tracking needs p >= 1, got {p}")
        within_float_range(p, "surgery coefficient")
        root = _newton(p, cmath.exp(-1j * math.pi / p),
                       cmath.exp(-1j * math.pi / 3))
        geometric = [pt for pt in classify(_points(p, _polished(p, [root])))
                     if pt.label == "geometric-candidate"]
        if not geometric:
            raise DomainError(f"no geometric candidate at p={p}")
        results.append(geometric[0])
    return results
