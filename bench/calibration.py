"""A fixed probe loop that measures how fast the machine runs at the moment.

The 2-core host this benchmark was built on switches between states whose
speeds differ by up to about 1.7x, and each lasts from half a minute to
several minutes, so a whole run can fall in one state. The slowdown shows
in CPU time as well as in wall time. worker.py runs probe() between
operations, and run.py rescales each operation's latency by REFERENCE_S
over the probe times around it: the result is the latency the operation
would have had on a machine that runs the probe in REFERENCE_S. A launch
timed for setup_s is rescaled by the first probe of the pass that follows
it, or by the last probe of the run.

The probe is the benchmark's own code and calls nothing of olim41, so no
change to the program moves it. It does what the program spends its time
on: mpmath complex arithmetic, as in the replay, and small numpy arrays
with a polynomial root solve, as in the saddle solver. Both slow down in
the host's slow state by the same factor as the program's operations, to
within about 5%. It uses no mpmath function that caches constants, so it
leaves the program's caches cold, and it runs with the garbage collector
off, so that the heap the program has built does not slow it.
"""

import gc
import time

import mpmath
import numpy

# About the probe's median time on the 2-core baseline machine (Python
# 3.11.7, mpmath 1.3.0 on Python ints, numpy 2.4.6). It only sets the scale
# of the rescaled times.
REFERENCE_S = 0.020

MP_STEPS = 500
NUMPY_STEPS = 150


def _loop():
    with mpmath.workdps(60):
        x = mpmath.mpc(1, 2) / 3
        step = mpmath.mpc("0.9999", "0.0001")
        total = mpmath.mpc(0)
        for _ in range(MP_STEPS):
            total += x * x
            x *= step
    coeffs = numpy.array([1.0, 2.0, 3.0, 4.0])
    a = numpy.arange(64, dtype=complex)
    for _ in range(NUMPY_STEPS):
        a = a * 0.999 + numpy.roots(coeffs)[0]
    return total, a


def probe():
    """Seconds one run of the loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rescale(seconds, probe_s):
    """`seconds` measured while the probe took `probe_s`, rescaled to a
    probe of REFERENCE_S."""
    return seconds * REFERENCE_S / probe_s
