"""olim41._pycomplex against CPython's own complex arithmetic.

Every operand pair is built from signed zeros, subnormals, values near
overflow, infinities and NaN, and each result must carry the bits that
CPython gives, or raise where CPython raises.
"""

import itertools
import math
import operator

import numpy as np
import pytest

from olim41 import _pycomplex

PARTS = [0.0, -0.0, 0.7, -1.5, 1e-300, -5e-324, 1e300, -1.7e308,
         math.inf, -math.inf, math.nan]
VALUES = [complex(a, b) for a, b in itertools.product(PARTS, PARTS)]


def _pairs(values):
    return (np.array([v.real for v in values]),
            np.array([v.imag for v in values]))


def _bits(re, im):
    return float(re).hex(), float(im).hex()


def _python(op, *args):
    """op(*args) as bits, or None where CPython raises."""
    try:
        c = op(*args)
    except (OverflowError, ZeroDivisionError):
        return None
    return _bits(c.real, c.imag)


@pytest.fixture(autouse=True)
def _quiet():
    # overflow and NaN are the point here, not a warning
    with np.errstate(all="ignore"):
        yield


@pytest.fixture(scope="module")
def operands():
    a, b = zip(*itertools.product(VALUES, VALUES))
    return a, b, _pairs(a), _pairs(b)


@pytest.mark.parametrize("name, op", [("add", operator.add),
                                      ("sub", operator.sub),
                                      ("mul", operator.mul)])
def test_ring_operations(operands, name, op):
    a, b, pa, pb = operands
    re, im = getattr(_pycomplex, name)(pa, pb)
    assert [_bits(*z) for z in zip(re, im)] == [
        _python(op, x, y) for x, y in zip(a, b)]


def test_neg():
    re, im = _pycomplex.neg(_pairs(VALUES))
    assert [_bits(*z) for z in zip(re, im)] == [
        _python(operator.neg, x) for x in VALUES]


def test_quot(operands):
    a, b, pa, pb = operands
    (re, im), raised = _pycomplex.quot(pa, pb)
    got = [None if r else _bits(x, y) for x, y, r in zip(re, im, raised)]
    assert got == [_python(operator.truediv, x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 100, 101, 2000])
def test_powers(n):
    # -n and 1 - n go through 1 / x^m
    for m in (n, n - 1, -n, 1 - n):
        (re, im), raised = _pycomplex.power(_pairs(VALUES), m)
        got = [None if r else _bits(x, y) for x, y, r in zip(re, im, raised)]
        assert got == [_python(operator.pow, x, m) for x in VALUES], m
