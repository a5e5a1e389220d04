"""Bessel functions of the first kind: values, derivatives, positive zeros.

Self-contained double-precision kernel for integer orders.  Each lane of a
pass takes one of three routes by its own order n and argument x alone: the
ascending power series for x <= 0.5; for x >= 25 and x > n, J_0 and J_1
from Hankel's expansion and upward recurrence to n + 1, which is stable
there; otherwise backward recurrence with sum normalization, started from
a point that depends on n alone.  Zeros come from asymptotic seeds refined
by batched safeguarded Newton iteration.  Everything is vectorized over the
argument so that table construction and dense lemma scans stay cheap.
"""

from __future__ import annotations

import functools
import math

import numpy as np

X_MAX = 1.0e4
ORDER_MAX = 2048

# Ascending series is used only where its terms decay from the start;
# beyond this the alternating sum cancels and backward recurrence is stable.
_SERIES_X_CUT = 0.5
# From here on, _HANKEL_TERMS terms of Hankel's expansion give J_0 and J_1
# to below 1e-17 of their envelope (the 20th term is 4e-18 at x = 25).
_UPWARD_X_CUT = 25.0
_HANKEL_TERMS = 20

_RESCALE = 1.0e250
_RESCALE_INV = 1.0e-250

_ZERO_REL_TOL = 1.0e-12  # safeguarded-loop stop; polish steps finish the job
_BLOCK = 1 << 14  # lanes per batched pass, Bessel or over a trace: bounds its workspace


def _hankel_coefficients() -> np.ndarray:
    """Rows (P_0, Q_0, P_1, Q_1) of (-1)^j a_{2j}(nu) and (-1)^j a_{2j+1}(nu),
    a_k(nu) = prod_{i<=k} (4 nu^2 - (2i - 1)^2) / (k! 8^k) (DLMF 10.17.1),
    each one integer quotient rounded once."""
    a = [[math.prod(4 * nu * nu - (2 * i - 1) ** 2 for i in range(1, k + 1))
          / (math.factorial(k) * 8**k) for k in range(_HANKEL_TERMS)] for nu in (0, 1)]
    sign = (-1.0) ** np.arange(_HANKEL_TERMS // 2)
    return np.array([row[parity::2] for row in a for parity in (0, 1)]) * sign


_HANKEL = _hankel_coefficients()


class BesselDomainError(ValueError):
    """Argument or order outside the supported range."""


class ZeroConvergenceError(RuntimeError):
    """Zero refinement failed to converge inside its bracket."""


def _check_order(n):
    """n as an int, or an integer array of orders as a flat array."""
    a = np.asarray(n)
    if a.dtype.kind not in "iu" or (a.size and a.min() < 0):
        raise BesselDomainError(f"orders must be nonnegative integers, got {n!r}")
    if a.size and a.max() > ORDER_MAX:
        raise BesselDomainError(f"order {a.max()} exceeds the supported maximum {ORDER_MAX}")
    return int(a) if a.ndim == 0 else a.ravel()


def _stores(n: np.ndarray) -> dict[int, list[tuple[int, int, int]]]:
    """For lanes sorted by order n: {k: [(row of J_k, first lane, end lane)]},
    each order's slots (J_{|n-1|}, J_n, J_{n+1}) as slices."""
    cuts = (np.flatnonzero(n[1:] != n[:-1]) + 1).tolist()
    stores = {}
    for s, e in zip([0] + cuts, cuts + [n.size]):
        o = int(n[s])
        for slot, k in enumerate((abs(o - 1), o, o + 1)):
            stores.setdefault(k, []).append((slot, s, e))
    return stores


def _miller(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(J_{|n-1|}, J_n, J_{n+1}) at each x > 0 for its lane's order n, shape
    (3, x.size), where x < max(n + 1, _UPWARD_X_CUT); n is nondecreasing.

    Normalized backward recurrence (Gautschi 1967): J_{m-1} = (2m/x) J_m -
    J_{m+1}, scaled by J_0 + 2*sum_{m even} J_m = 1.  A lane joins at
    m = t + 14 t^(1/3) + 18, t = max(n + 1, _UPWARD_X_CUT), above its turning
    point; this depends on its order alone, so the lanes running at any m are
    a suffix of the sorted array and every store is a slice copy.  Lanes are
    rescaled on the fly against overflow, and each store records its scale
    for the correction at the end.
    """
    p = x.size
    top = np.maximum(n + 1.0, _UPWARD_X_CUT)
    joins = np.ceil(top + 14.0 * np.cbrt(top) + 18.0).astype(int)
    first = np.searchsorted(joins, np.arange(joins[-1] + 2)).tolist()  # lanes at m: first[m]:
    stores = _stores(n)
    out = np.zeros((3, p))
    oexp = np.zeros((3, p), dtype=np.int16)  # rescale counts: at most ~30
    exp = np.zeros(p, dtype=np.int16)
    a, b = np.empty((2, p))   # J_{m+1}, J_m
    tmp = np.empty(p)
    even_sum = np.zeros(p)    # 2 * sum of positive even orders
    inv_x = 1.0 / x
    for m in range(joins[-1], 0, -1):
        s = first[m]
        if s < first[m + 1]:  # lanes of the next orders join
            a[s:first[m + 1]], b[s:first[m + 1]] = 0.0, 1e-30
        np.multiply(b[s:], inv_x[s:], out=tmp[s:])
        tmp[s:] *= 2.0 * m
        np.subtract(tmp[s:], a[s:], out=a[s:])   # a becomes J_{m-1}
        a, b = b, a                              # now a = J_m, b = J_{m-1}
        k = m - 1
        if k > 0 and k % 2 == 0:
            even_sum[s:] += b[s:]
        if m % 8 == 0 and np.max(np.abs(b[s:])) > _RESCALE:
            bigmask = np.abs(b[s:]) > _RESCALE
            scale = np.where(bigmask, _RESCALE_INV, 1.0)
            a[s:] *= scale
            b[s:] *= scale
            even_sum[s:] *= scale
            exp[s:] += bigmask
        for slot, lo, hi in stores.get(k, ()):
            out[slot, lo:hi] = b[lo:hi]
            oexp[slot, lo:hi] = exp[lo:hi]
    out /= b + 2.0 * even_sum  # b now holds J_0 (up to scale)
    if exp.any():
        with np.errstate(under="ignore"):
            for row, e in zip(out, oexp):  # a row at a time bounds the workspace
                row *= np.power(_RESCALE_INV, (exp - e).astype(float))
    return out


def _hankel_j0_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_0, J_1) at each x >= _UPWARD_X_CUT from Hankel's expansion (DLMF
    10.17.3).  The phases x - pi/4 and x - 3 pi/4 enter through cos x and
    sin x, so no rounded phase costs digits at large x.  Every step writes
    into one (6, x.size) workspace or the two 1/x arrays."""
    inv = 1.0 / x
    y = inv * inv
    p0, q0, p1, q1, c, s = rows = np.empty((6, x.size))  # P_0, x Q_0, P_1, x Q_1
    for coef, row in zip(_HANKEL, rows):  # Horner in 1/x^2
        row.fill(coef[-1])
        for k in coef[-2::-1]:
            row *= y
            row += k
    q0 *= inv
    q1 *= inv
    np.divide(inv, np.pi, out=y)
    np.sqrt(y, out=y)               # y = sqrt(1 / (pi x))
    np.cos(x, out=c)
    np.sin(x, out=s)
    np.add(c, s, out=inv)           # inv = cos x + sin x
    c -= s                          # c = cos x - sin x
    p0 *= inv
    q0 *= c
    p0 += q0                        # J_0 (pi x)^(1/2) = P_0 (c + s) + x Q_0 (c - s)
    q1 *= inv
    p1 *= c
    q1 -= p1                        # J_1 (pi x)^(1/2) = x Q_1 (c + s) - P_1 (c - s)
    p0 *= y
    q1 *= y
    return p0, q1


def _upward(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(J_{|n-1|}, J_n, J_{n+1}) at each x >= _UPWARD_X_CUT with x > n, shape
    (3, x.size); n is nondecreasing.  J_{m+1} = (2m/x) J_m - J_{m-1} from
    Hankel's J_0, J_1 is stable above the turning point (Numerical Recipes
    6.5); the lanes still running at m, those with n >= m, are a suffix.
    Each step divides 2m by x afresh: one rounded 1/x reused at every step
    would add its error coherently, about 1e-16 x relative at x near n."""
    p = x.size
    stores = _stores(n)
    out = np.empty((3, p))
    a, b = _hankel_j0_j1(x)   # J_{m-1}, J_m at m = 1
    tmp = np.empty(p)
    first = np.searchsorted(n, np.arange(n[-1] + 1)).tolist()  # lanes at m: first[m]:
    for k, row in ((0, a), (1, b)):
        for slot, lo, hi in stores.get(k, ()):
            out[slot, lo:hi] = row[lo:hi]
    for m in range(1, n[-1] + 1):
        s = first[m]
        np.divide(2.0 * m, x[s:], out=tmp[s:])
        tmp[s:] *= b[s:]
        np.subtract(tmp[s:], a[s:], out=a[s:])   # a becomes J_{m+1}
        a, b = b, a
        for slot, lo, hi in stores.get(m + 1, ()):
            out[slot, lo:hi] = b[lo:hi]
    return out


def _series_orders(orders: list[int], x: np.ndarray) -> np.ndarray:
    """The given orders via the ascending series, one row each; valid for
    small x."""
    q = 0.25 * x * x
    out = np.zeros((len(orders), x.size))
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0.0, np.log(0.5 * x), -np.inf)
    for i, m in enumerate(orders):
        if m == 0:
            lead = np.ones_like(x)
        else:
            with np.errstate(under="ignore"):
                lead = np.exp(m * logx - math.lgamma(m + 1))
        term = lead.copy()
        acc = term.copy()
        for t in range(1, 14):
            term = term * (-q) / (t * (m + t))
            acc += term
        out[i] = acc
    return out


def jn_trio(n, x) -> np.ndarray:
    """Rows (J_{n-1}, J_n, J_{n+1}) at each x >= 0, J_{-1} = -J_1, for one
    order n or one per argument.  Each lane's route (series, upward or
    backward recurrence) and its value depend on its own (n, x) alone; the
    recurrences run on lanes sorted by order."""
    n = _check_order(n)
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if x.size and x.min() < 0.0:
        raise BesselDomainError("argument must be nonnegative")
    n = np.broadcast_to(n, x.shape)
    perm = np.argsort(n, kind="stable") if (n[1:] < n[:-1]).any() else None
    if perm is not None:
        x, n = x[perm], n[perm]
    out = np.empty((3, x.size))
    small = x <= _SERIES_X_CUT
    up = (x >= _UPWARD_X_CUT) & (x > n)
    for o in set(n[small].tolist()):  # np.unique would import numpy.ma
        sel = small & (n == o)
        out[:, sel] = _series_orders([abs(o - 1), o, o + 1], x[sel])
    for route, sel in ((_upward, up), (_miller, ~(small | up))):
        if sel.any():
            out[:, sel] = route(x[sel], n[sel])
    np.negative(out[0], out=out[0], where=n == 0)
    if perm is not None:
        out[:, perm] = out.copy()
    return out


def _at(n: int, x, pick):
    """pick(J_{n-1}, J_n, J_{n+1}) at each 0 <= x <= X_MAX, shaped like x;
    a float for scalar x."""
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    if flat.size and float(flat.max()) > X_MAX:
        raise BesselDomainError(f"argument exceeds maximum {X_MAX}")
    res = pick(*jn_trio(n, flat)).reshape(xa.shape)
    return float(res) if xa.ndim == 0 else res


def bessel_j(n: int, x):
    """J_n(x) for integer n >= 0 and 0 <= x <= X_MAX."""
    return _at(n, x, lambda jm1, j, jp1: j)


def bessel_j_prime(n: int, x):
    """dJ_n/dx via the two-neighbor recurrence (J_{n-1} - J_{n+1})/2."""
    return _at(n, x, lambda jm1, j, jp1: 0.5 * (jm1 - jp1))


def _zero_seeds(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """First guesses for the zeros j_{n,k}: McMahon's expansion in
    b = (k + n/2 - 1/4) pi for k > n (DLMF 10.21.19), otherwise the leading
    term n z(zeta) of Olver's uniform expansion, zeta = n^(-2/3) a_k with
    a_k the k-th Airy zero (DLMF 10.21.43, 9.9.6).  Every seed up to
    (n, k) = (201, 202) lies within 0.01 of its zero."""
    nf, kf = n.astype(float), k.astype(float)
    b = (kf + 0.5 * nf - 0.25) * np.pi
    mu, e = 4.0 * nf * nf, 8.0 * b
    mcmahon = b - (mu - 1.0) / e * (1.0 + 4.0 * (7.0 * mu - 31.0) / (3.0 * e * e) + 32.0
                                    * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e**4))
    t = 0.375 * np.pi * (4.0 * kf - 1.0)
    minus_ak = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t) - 5.0 / (36.0 * t ** 4))
    nu = np.maximum(nf, 1.0)
    # z solves sqrt(z^2 - 1) - arcsec z = (2/3) (-zeta)^(3/2); the left side
    # is convex in z, so Newton from the right of the root converges
    s = minus_ak ** 1.5 / (1.5 * nu)
    z = s + 0.5 * np.pi
    for _ in range(6):
        root = np.sqrt(z * z - 1.0)
        z -= (root - np.arccos(1.0 / z) - s) * z / root
    return np.where(k > n, mcmahon, nu * z)


def _block_zeros(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Zeros j_{n,k} for lanes sorted by order n, all refined at once.

    Seeds lie within 0.01 and the zeros of J_n more than pi apart, so
    seed -+ 1 holds one zero: the k-th if J_n has the sign (-1)^(k-1) at the
    left end and the other at the right.  One pass over the lanes (lo, hi,
    seed), 3 per zero, checks that and serves the first Newton step.
    Safeguarded Newton (bisection when a step leaves the bracket) makes one
    pass per further step, and two polish steps follow, the first from the
    rows of the last step.  A lane's rows depend on its own (n, x) alone, so
    the zeros are those of a fresh pass per step.
    """
    x = _zero_seeds(n, k)
    lo, hi = x - 1.0, x + 1.0
    sign_lo = np.where(k % 2 == 1, 1.0, -1.0)
    rows = jn_trio(np.repeat(n, 3), np.stack([lo, hi, x], axis=1).ravel())
    ends = rows[1]
    bad = np.flatnonzero(~((ends[0::3] * sign_lo > 0.0) & (ends[1::3] * sign_lo < 0.0)))
    if bad.size:
        raise ZeroConvergenceError(f"no bracket for j_(n,k) at ({n[bad[0]]}, {k[bad[0]]})")
    jm1, f, jp1 = rows[:, 2::3]
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(120):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 2.0 * f / (jm1 - jp1)
        # Convergence is judged on the proposed Newton step: near the root
        # a one-ulp overshoot may fall outside the shrunken bracket, and
        # accepting-only moves would degrade to bisection.
        done = done | (np.isfinite(step) & (np.abs(step) <= _ZERO_REL_TOL * x))
        left = f * sign_lo > 0.0
        lo = np.where(left & ~done, np.maximum(lo, x), lo)
        hi = np.where(~left & (f != 0.0) & ~done, np.minimum(hi, x), hi)
        xn = x - step
        inside = (xn > lo) & (xn < hi) & np.isfinite(xn)
        xn = np.where(inside, xn, 0.5 * (lo + hi))
        x = np.where(done, x, xn)
        if done.all():  # so x is still where the rows were taken
            break
        jm1, f, jp1 = jn_trio(n, x)
    else:
        raise ZeroConvergenceError(f"zero refinement stalled for orders {n[0]}..{n[-1]}")
    # Unsafeguarded Newton polish from inside the basin reaches ulp level.
    x = x - step
    jm1, f, jp1 = jn_trio(n, x)
    return x - 2.0 * f / (jm1 - jp1)


class ZeroTable:
    """Positive zeros j_{n,k} of J_n for n <= n_max, 1 <= k <= k_max.

    Built in blocks of at most _BLOCK lanes (n, k), each refined from
    asymptotic seeds at once; monotone rows and interlacing validate the
    result, and a spare column lets that check cover every public entry.
    """

    def __init__(self, n_max: int, k_max: int):
        # j_{n,k} < pi (n/2 + k), the spare column k_max + 1 included
        if n_max < 0 or k_max < 1 or math.pi * (k_max + 1 + 0.5 * n_max) > X_MAX:
            raise BesselDomainError(f"need n_max >= 0, k_max >= 1 and zeros below "
                                    f"{X_MAX}, got ({n_max}, {k_max})")
        _check_order(n_max + 1)
        self.n_max = int(n_max)
        self.k_max = int(k_max)
        self._rows = self._build(self.n_max, self.k_max + 1)

    @staticmethod
    def _build(n_max: int, cols: int) -> np.ndarray:
        size = (n_max + 1) * cols
        zeros = np.empty(size)
        for s in range(0, size, _BLOCK):
            n, k = np.divmod(np.arange(s, min(s + _BLOCK, size)), cols)
            zeros[s:s + n.size] = _block_zeros(n, k + 1)
        rows = zeros.reshape(n_max + 1, cols)
        if not (np.diff(rows, axis=1) > 0).all():
            raise ZeroConvergenceError("zero table rows are not increasing")
        if n_max >= 1 and not ((rows[1:] > rows[:-1]).all()
                               and (rows[1:, :-1] < rows[:-1, 1:]).all()):
            raise ZeroConvergenceError("zero table violates interlacing")
        return rows

    def zero(self, n: int, k: int) -> float:
        if not (0 <= n <= self.n_max):
            raise BesselDomainError(f"order {n} outside table bound {self.n_max}")
        if not (1 <= k <= self.k_max):
            raise BesselDomainError(f"index {k} outside table bound {self.k_max}")
        return float(self._rows[n, k - 1])

    def row(self, n: int, k_max: int | None = None) -> np.ndarray:
        k_max = self.k_max if k_max is None else k_max
        if not (0 <= n <= self.n_max) or k_max > self.k_max:
            raise BesselDomainError("requested row outside table bounds")
        return self._rows[n, :k_max].copy()

    def all_rows(self) -> np.ndarray:
        return self._rows[:, : self.k_max].copy()


@functools.lru_cache(maxsize=8)
def zero_table(n_max: int, k_max: int) -> ZeroTable:
    """The zero table of exact size (n_max, k_max), built once: a table is a
    function of its size alone, so the memo changes no value."""
    return ZeroTable(n_max, k_max)


def bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n."""
    n = _check_order(n)
    if k < 1:
        raise BesselDomainError(f"zero index must be >= 1, got {k}")
    return zero_table(n, k).zero(n, k)


def compound_decay(alpha: float, x):
    """(1 - alpha/x)**x for 0 < alpha < 1, x >= 1, computed via log1p.

    Increases monotonically from (1 - alpha) at x = 1 toward exp(-alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise BesselDomainError(f"alpha must lie in (0, 1), got {alpha}")
    xa = np.asarray(x, dtype=float)
    if xa.size and float(np.min(xa)) < 1.0:
        raise BesselDomainError("x must be >= 1")
    res = np.exp(xa * np.log1p(-alpha / xa))
    return float(res) if np.isscalar(x) or xa.ndim == 0 else res
