"""Potential-function tests: framing checks, values, gradients, branches.

Anchor points are frozen saddle coordinates of the surgery potential; their
corrected values and gradients were cross-checked against a 30-digit replay
before freezing. Finite differences and exponentiated-gradient identities
provide oracle coverage at generic points.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from olim41.errors import (
    BranchInconsistencyError,
    DomainError,
    SingularPointError,
)
from olim41.potential import (
    branch_correct,
    eval_log_gradient,
    eval_potential,
)
from olim41.saddle_solver import solve_fig8
from olim41.specfun import principal_log

PI = math.pi

# the two printed p=6 saddles: unit-modulus zeta with real omega, and the
# geometric candidate
A_POINT = (complex(-0.8294835410, -0.5585311587), complex(-2.205569430, 0.0))
G_POINT = (complex(0.3679390314, -0.4972675889), complex(0.1027847152, -0.6654569513))
B_POINT = (complex(-1.0, 0.0), complex(-0.381966011, 0.0))  # p=4


def _cut_distance(x):
    return abs(x.imag) if x.real >= 1.0 else abs(x - 1.0)


def _regular_points(count, seed):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        z = cmath.rect(rng.uniform(0.4, 1.6), rng.uniform(-2.4, 2.4))
        w = cmath.rect(rng.uniform(0.4, 1.6), rng.uniform(-2.4, 2.4))
        if min(_cut_distance(z * w), _cut_distance(z / w)) < 0.1:
            continue
        points.append((z, w))
    return points


class TestSpecConstruction:
    def test_fig8_framing_checked(self):
        for fn in (eval_potential, eval_log_gradient, branch_correct):
            with pytest.raises(DomainError):
                fn(2.5, G_POINT)
            with pytest.raises(DomainError):
                fn(True, G_POINT)

    def test_correction_denominator_parity(self):
        # odd framings step the gradient by pi i, so they live on half-integers
        for p in range(-4, 8):
            denominators = {
                f.denominator
                for pt in solve_fig8(p)
                for f in branch_correct(p, (pt.zeta, pt.omega)).c
            }
            assert denominators == ({1, 2} if p % 2 else {1}), f"p={p}"


class TestValues:
    def test_vanishes_at_unit_point(self):
        for p in (-2, 0, 1, 4, 6, 9):
            assert abs(eval_potential(p, (1.0, 1.0))) < 1e-12

    def test_closed_form(self):
        # Vt = -Li2(zw) + Li2(z/w) + (p/4) Log^2 z - Log z Log w
        from olim41.specfun import dilog
        p = 6
        rng = random.Random(47)
        for _ in range(50):
            z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.5, 0.5))
            w = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.5, 0.5))
            expected = (-dilog(z * w) + dilog(z / w)
                        + 1.5 * principal_log(z) ** 2
                        - principal_log(z) * principal_log(w))
            assert abs(eval_potential(p, (z, w)) - expected) < 1e-12

    def test_zero_coordinate_rejected(self):
        p = 6
        with pytest.raises(SingularPointError):
            eval_potential(p, (0.0, 0.5))
        with pytest.raises(DomainError):
            eval_potential(p, (0.5,))


class TestGradient:
    def test_matches_finite_differences(self):
        p = 6
        h = 1e-6
        worst = 0.0
        for z, w in _regular_points(100, 31):
            dz, dw = eval_log_gradient(p, (z, w))
            fd_z = (eval_potential(p, (z * math.exp(h), w))
                    - eval_potential(p, (z * math.exp(-h), w))) / (2 * h)
            fd_w = (eval_potential(p, (z, w * math.exp(h)))
                    - eval_potential(p, (z, w * math.exp(-h)))) / (2 * h)
            worst = max(worst,
                        abs(fd_z - dz) / max(abs(dz), 1e-3),
                        abs(fd_w - dw) / max(abs(dw), 1e-3))
        assert worst < 1e-5

    def test_exponentiated_identities(self):
        # exp(D_z) = z^{p/2} (1-zw) / ((1-z/w) w), exp(D_w) = (1-zw)(1-z/w)/z;
        # exp removes every branch ambiguity, so this holds at generic points
        for p, seed in ((5, 37), (6, 41)):
            rng = random.Random(seed)
            count = 0
            worst = 0.0
            while count < 500:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if min(abs(z), abs(w)) < 0.1:
                    continue
                if min(abs(1 - z * w), abs(1 - z / w)) < 1e-3:
                    continue
                try:
                    dz, dw = eval_log_gradient(p, (z, w))
                except SingularPointError:
                    continue
                half = cmath.exp(0.5 * p * principal_log(z))
                rhs_z = half * (1 - z * w) / ((1 - z / w) * w)
                rhs_w = (1 - z * w) * (1 - z / w) / z
                worst = max(worst,
                            abs(cmath.exp(dz) - rhs_z) / abs(rhs_z),
                            abs(cmath.exp(dw) - rhs_w) / abs(rhs_w))
                count += 1
            assert worst < 1e-10

    def test_saddle_gradients(self):
        p = 6
        dz, dw = eval_log_gradient(p, A_POINT)
        assert abs(dz + 2j * PI) < 1e-8  # off by one full branch, c_1 = 1
        assert abs(dw) < 1e-8
        dz, dw = eval_log_gradient(p, G_POINT)
        assert abs(dz) < 1e-8
        assert abs(dw) < 1e-8

    def test_singular_monomial_rejected(self):
        p = 6
        with pytest.raises(SingularPointError):
            eval_log_gradient(p, (1.0, 1.0))
        with pytest.raises(SingularPointError):
            eval_log_gradient(p, (0.5, 0.5))  # z/w = 1


class TestBranchCorrection:
    def test_unit_modulus_saddle(self):
        bc = branch_correct(6, A_POINT)
        assert bc.c == (Fraction(1), Fraction(0))
        assert max(bc.rounding_residuals) < 1e-4
        assert abs(bc.value - 13.767505694281377) < 1e-8
        assert abs(bc.value.imag) < 1e-9

    def test_geometric_saddle(self):
        bc = branch_correct(6, G_POINT)
        assert bc.c == (Fraction(0), Fraction(0))
        assert abs(bc.value - complex(1.340917487, 1.284485301)) < 5e-9

    def test_degenerate_p4_saddle(self):
        bc = branch_correct(4, B_POINT)
        assert bc.c == (Fraction(0), Fraction(0))
        assert abs(bc.value - PI * PI / 5) < 1e-7
        assert abs(bc.value - 1.973920880) < 1e-8

    def test_corrected_gradient_vanishes(self):
        p = 6
        for point in (A_POINT, G_POINT):
            bc = branch_correct(p, point)
            gradient = eval_log_gradient(p, point)
            for d, c in zip(gradient, bc.c):
                assert abs(d + 2j * PI * float(c)) < 1e-7

    def test_generic_point_rejected(self):
        with pytest.raises(BranchInconsistencyError):
            branch_correct(6, (complex(0.5, 0.5), complex(0.7, 0.0)))
