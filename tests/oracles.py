"""Independent reference implementations used only to check the package.

Everything here except jn_block is deliberately written from scratch with
different algorithms than the library: ascending series with compensated
summation, plain bisection, composite-trapezoid quadrature, and central
differences.  jn_block only lays out the library's own jn_trio rows by
order, for the recurrence tests.
"""

import math

import numpy as np

from diskflow.bessel import jn_trio


def series_jn(n: int, x: float, terms: int = 60) -> float:
    """Ascending power series for J_n(x) with compensated summation."""
    half = 0.5 * x
    parts = []
    lead = 1.0
    for m in range(1, n + 1):
        lead *= half / m
    term = lead
    q = half * half
    for t in range(terms):
        parts.append(term)
        term *= -q / ((t + 1) * (n + t + 1))
    return math.fsum(parts)


def series_jn_prime(n: int, x: float, terms: int = 60) -> float:
    if n == 0:
        return -series_jn(1, x, terms)
    return 0.5 * (series_jn(n - 1, x, terms) - series_jn(n + 1, x, terms))


def bisect_zero(f, lo: float, hi: float, tol: float = 1e-15) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def trapezoid_radial(f, a: float, b: float, n: int = 20001) -> float:
    """Composite trapezoid for integrals of r * f(r) over (a, b)."""
    r = np.linspace(a, b, n)
    return float(np.trapezoid(r * f(r), r))


def central_diff(f, x: float, h: float = 1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def jn_block(nmax: int, x) -> np.ndarray:
    """All orders J_0(x)..J_nmax(x) from jn_trio; shape (nmax + 1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    centers = np.arange(1, nmax + 2, 3)  # their trios hold every order
    trio = jn_trio(np.repeat(centers, x.size), np.tile(x.ravel(), centers.size))
    rows = trio.reshape(3, centers.size, x.size).transpose(1, 0, 2).reshape(-1, x.size)
    return rows[: nmax + 1].reshape((nmax + 1,) + x.shape)
