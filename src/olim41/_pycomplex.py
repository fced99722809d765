"""CPython's complex arithmetic, bit for bit, on float64 arrays.

A complex array is a pair (re, im) of float64 arrays (or floats, which
broadcast). numpy's complex128 rounds differently from CPython: of 100,000
random pairs with parts in [-2, 2], 46,415 products, 43,072 quotients and
32,883 squares differed from CPython 3.11's (numpy 2.4.6). So each
operation here follows CPython's C code, and an int or float x enters as
(x, 0.0), as it does there. Where CPython raises, a function returns a
mask of the lanes instead. Callers silence numpy's floating-point
warnings, since overflow and NaN are part of what is reproduced.
"""

import numpy as np

__all__ = ["add", "sub", "neg", "mul", "quot", "power"]

_C_POWI_CUTOFF = 100    # CPython's largest |n| for repeated squaring


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def neg(a):
    return -a[0], -a[1]


def mul(a, b):
    # _Py_c_prod
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def quot(a, b):
    """_Py_c_quot (Smith's algorithm), and where CPython raises
    ZeroDivisionError instead.

    _Py_c_quot scales by b.real where |b.real| >= |b.imag|. Elsewhere it
    scales by b.imag, which gives bit for bit the b.real formulas applied
    to a (-i) / b (-i), since negation is exact; a NaN in b gives NaN
    either way.
    """
    swap = ~(np.abs(b[0]) >= np.abs(b[1]))
    ar, ai = np.where(swap, a[1], a[0]), np.where(swap, -a[0], a[1])
    br, bi = np.where(swap, b[1], b[0]), np.where(swap, -b[0], b[1])
    ratio = bi / br
    denom = br + bi * ratio
    re = (ar + ai * ratio) / denom
    im = (ai - ar * ratio) / denom
    return (re, im), (br == 0) & (bi == 0)


def power(x, n):
    """(x ** n, raised) as the Python complex power gives it; raised marks
    where CPython raises OverflowError or ZeroDivisionError.

    For 0 < |n| <= 100 CPython multiplies by repeated squaring (c_powu,
    then 1 / that for n < 0). Past that it takes libm's exp/log path, whose
    results numpy's vectorised transcendentals do not reproduce, so those
    lanes run one at a time.
    """
    m = abs(n)
    if m > _C_POWI_CUTOFF:
        return _libm_power(x, n)
    if n == 0:      # 1 / 1
        return ((np.ones(x[0].shape), np.zeros(x[0].shape)),
                np.zeros(x[0].shape, dtype=bool))
    result, square, mask = (1.0, 0.0), x, 1
    while mask <= m:
        if m & mask:
            result = mul(result, square)
        mask <<= 1
        if mask <= m:     # c_powu's last squaring goes unused
            square = mul(square, square)
    raised = False
    if n < 0:
        result, raised = quot((1.0, 0.0), result)
    return result, raised | np.isinf(result[0]) | np.isinf(result[1])


def _libm_power(x, n):
    re, im = np.zeros(x[0].shape), np.zeros(x[0].shape)
    raised = np.zeros(x[0].shape, dtype=bool)
    for k, (a, b) in enumerate(zip(x[0].flat, x[1].flat)):
        try:
            c = complex(a, b) ** n
        except (OverflowError, ZeroDivisionError):
            raised.flat[k] = True
        else:
            re.flat[k], im.flat[k] = c.real, c.imag
    return (re, im), raised
