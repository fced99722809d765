"""Numpy implementations of the q-series double sums.

Both kernels return (sum, abs_sum): the complex value of the bare sum
(prefactors are applied by the caller) together with the total modulus of
the summands. The ratio abs_sum / |sum| measures the cancellation the sum
undergoes, which the caller uses to decide whether double precision is
trustworthy. Accumulation is compensated (Neumaier) across the outer index
so results are reproducible to well below the comparison tolerances.
Past N of about 2000 they overflow silently; the caller reports it.
"""

import numpy as np

# bench/worker.py reports this name among its machine facts.
backend_name = "python"


def _neumaier_add(total, comp, term):
    t = total + term
    if abs(total) >= abs(term):
        comp += (total - t) + term
    else:
        comp += (term - t) + total
    return t, comp


@np.errstate(over="ignore", invalid="ignore")
def direct_sum(N, p):
    """sum_{n=1}^{N-1} [n]^2 q^{p n^2/4} J_n(q) at q = exp(2 pi i/N).

    J_n is the figure-eight colored Jones sum; each product factor pair
    (q^{(n+l)/2} - q^{-(n+l)/2})(q^{(n-l)/2} - q^{-(n-l)/2}) is evaluated
    in its real closed form -4 sin(pi(n+l)/N) sin(pi(n-l)/N).
    """
    sin_tbl = np.sin(np.pi * np.arange(2 * N) / N)
    quarter = np.exp(1j * np.pi * np.arange(4 * N) / (2 * N))
    s1 = sin_tbl[1]
    total = 0j
    comp = 0j
    abs_sum = 0.0
    for n in range(1, N):
        l = np.arange(1, n)
        factors = -4.0 * sin_tbl[n + l] * sin_tbl[n - l]
        prods = np.empty(n)
        prods[0] = 1.0
        np.cumprod(factors, out=prods[1:])
        bracket = (sin_tbl[n] / s1) ** 2
        term = bracket * prods.sum() * quarter[(p * n * n) % (4 * N)]
        abs_sum += bracket * np.abs(prods).sum()
        total, comp = _neumaier_add(total, comp, term)
    return total + comp, abs_sum


@np.errstate(over="ignore", invalid="ignore")
def double_sum(N, p):
    """sum over 1 <= n < N, 0 <= m < n of the Pochhammer-ratio summand.

    Summand: (q)_n (q)_{n+m} / ((q)_{n-1} (q)_{n-m-1}) * q^{n(p n/4 - m) - n}
    with (q)_k = 0 for k >= N, so pairs with n + m >= N are skipped. The
    exponent is exact: index j = (p n^2 - 4 n m - 4 n) mod 4N into the
    table exp(pi i j / (2N)), with p reduced mod 4N first so it fits int64.
    """
    quarter = np.exp(1j * np.pi * np.arange(4 * N) / (2 * N))
    q = quarter[::4]    # q^k is entry 4k
    poch = np.empty(N, dtype=complex)
    poch[0] = 1.0
    np.cumprod(1.0 - q[1:], out=poch[1:])
    total = 0j
    comp = 0j
    abs_sum = 0.0
    for n in range(1, N):
        m = np.arange(min(n, N - n))
        ratio = poch[n] * poch[n + m] / (poch[n - 1] * poch[n - m - 1])
        idx = (p % (4 * N) * n * n - 4 * n * m - 4 * n) % (4 * N)
        terms = ratio * quarter[idx]
        abs_sum += np.abs(terms).sum()
        total, comp = _neumaier_add(total, comp, terms.sum())
    return total + comp, abs_sum
