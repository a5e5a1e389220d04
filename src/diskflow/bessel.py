"""Bessel functions of the first kind: values, derivatives, positive zeros.

Self-contained double-precision kernel for integer orders.  Values come from
the ascending power series for small arguments and from backward recurrence
with sum normalization otherwise; zeros come from interlacing brackets
refined by safeguarded Newton iteration.  Everything is vectorized over the
argument so that table construction and dense lemma scans stay cheap.
"""

from __future__ import annotations

import math

import numpy as np

X_MAX = 1.0e4
ORDER_MAX = 2048

# Ascending series is used only where its terms decay from the start;
# beyond this the alternating sum cancels and backward recurrence is stable.
_SERIES_X_CUT = 0.5

_RESCALE = 1.0e250
_RESCALE_INV = 1.0e-250

_ZERO_REL_TOL = 1.0e-12  # safeguarded-loop stop; polish steps finish the job


class BesselDomainError(ValueError):
    """Argument or order outside the supported range."""


class ZeroConvergenceError(RuntimeError):
    """Zero refinement failed to converge inside its bracket."""


def _check_order(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise BesselDomainError(f"order must be a nonnegative integer, got {n!r}")
    if n > ORDER_MAX:
        raise BesselDomainError(f"order {n} exceeds the supported maximum {ORDER_MAX}")
    return int(n)


def _miller_select(x: np.ndarray, orders: list[int]) -> np.ndarray:
    """The sorted distinct orders of J at each x > 0 via normalized backward
    recurrence; one row per order, shape (len(orders), x.size).

    The recurrence J_{m-1} = (2m/x) J_m - J_{m+1} is seeded high above the
    turning point and scaled by the identity J_0 + 2*sum_{m even} J_m = 1.
    Lanes are rescaled on the fly to avoid overflow; the per-order scale is
    tracked so orders stored before a rescale can be corrected at the end.
    """
    p = x.size
    top = max(float(orders[-1]), float(x.max()))
    m_start = int(np.ceil(top + 14.0 * np.cbrt(top) + 18.0))

    row = {o: i for i, o in enumerate(orders)}
    out = np.zeros((len(orders), p))
    oexp = np.zeros((len(orders), p), dtype=np.int64)
    exp = np.zeros(p, dtype=np.int64)
    a = np.zeros(p)           # J_{m+1}
    b = np.full(p, 1e-30)     # J_m
    tmp = np.empty(p)
    even_sum = np.zeros(p)    # 2 * sum of positive even orders
    inv_x = 1.0 / x
    for m in range(m_start, 0, -1):
        np.multiply(b, inv_x, out=tmp)
        tmp *= 2.0 * m
        np.subtract(tmp, a, out=a)   # a becomes J_{m-1}
        a, b = b, a                  # now a = J_m, b = J_{m-1}
        k = m - 1
        if k > 0 and k % 2 == 0:
            even_sum += b
        if m % 8 == 0 and np.max(np.abs(b)) > _RESCALE:
            bigmask = np.abs(b) > _RESCALE
            s = np.where(bigmask, _RESCALE_INV, 1.0)
            a *= s
            b *= s
            even_sum *= s
            exp = exp + bigmask
        if k in row:
            out[row[k]] = b
            oexp[row[k]] = exp
    norm = b + 2.0 * even_sum  # b now holds J_0 (up to scale)
    with np.errstate(under="ignore"):
        scale = np.power(_RESCALE_INV, (exp[None, :] - oexp).astype(float))
        return out / norm * scale


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


def _jn_orders(x: np.ndarray, orders) -> np.ndarray:
    """J_m(x) for each m in orders (repeats allowed), shape (len(orders), x.size)."""
    orders = list(orders)
    uniq = sorted(set(orders))
    out = np.empty((len(uniq), x.size))
    small = x <= _SERIES_X_CUT
    if small.any():
        out[:, small] = _series_orders(uniq, x[small])
    if (~small).any():
        out[:, ~small] = _miller_select(x[~small], uniq)
    return out if uniq == orders else out[np.searchsorted(uniq, orders)]


def jn_block(nmax: int, x) -> np.ndarray:
    """All orders J_0(x)..J_nmax(x); shape (nmax + 1,) + x.shape."""
    nmax = _check_order(nmax)
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    if flat.size and flat.min() < 0.0:
        raise BesselDomainError("argument must be nonnegative")
    return _jn_orders(flat, range(nmax + 1)).reshape((nmax + 1,) + x.shape)


def jn_trio(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_{n-1}, J_n, J_{n+1}) at each x >= 0, with J_{-1} = -J_1 for n = 0."""
    n = _check_order(n)
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if x.size and x.min() < 0.0:
        raise BesselDomainError("argument must be nonnegative")
    jm1, jn, jp1 = _jn_orders(x, (abs(n - 1), n, n + 1))
    return (jm1 if n >= 1 else -jm1), jn, jp1


def bessel_j(n: int, x):
    """J_n(x) for integer n >= 0 and 0 <= x <= X_MAX."""
    n = _check_order(n)
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    if flat.size and float(flat.max()) > X_MAX:
        raise BesselDomainError(f"argument exceeds maximum {X_MAX}")
    if flat.size and float(flat.min()) < 0.0:
        raise BesselDomainError("argument must be nonnegative")
    res = _jn_orders(flat, (n,))[0].reshape(xa.shape)
    return float(res) if np.isscalar(x) or xa.ndim == 0 else res


def bessel_j_prime(n: int, x):
    """dJ_n/dx via the two-neighbor recurrence (J_{n-1} - J_{n+1})/2."""
    n = _check_order(n)
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    if flat.size and float(flat.max()) > X_MAX:
        raise BesselDomainError(f"argument exceeds maximum {X_MAX}")
    jm1, _, jp1 = jn_trio(n, flat)
    res = (0.5 * (jm1 - jp1)).reshape(xa.shape)
    return float(res) if np.isscalar(x) or xa.ndim == 0 else res


def _jn_and_prime(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    jm1, jn, jp1 = jn_trio(n, x)
    return jn, 0.5 * (jm1 - jp1)


def _refine_row(n: int, x0, lo, hi, sign_lo) -> np.ndarray:
    """Safeguarded Newton for a batch of bracketed zeros of J_n.

    (lo, hi) must bracket exactly one zero each and sign_lo is the sign of
    J_n just right of lo.  Falls back to bisection whenever a Newton step
    leaves the bracket.
    """
    lo = lo.copy()
    hi = hi.copy()
    x = np.clip(x0, lo + 1e-9, hi - 1e-9)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(120):
        f, fp = _jn_and_prime(n, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
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
        if done.all():
            break
    else:
        raise ZeroConvergenceError(f"zero refinement stalled for order {n}")
    # Unsafeguarded Newton polish from inside the basin reaches ulp level.
    for _ in range(2):
        f, fp = _jn_and_prime(n, x)
        x = x - f / fp
    return x


class ZeroTable:
    """Positive zeros j_{n,k} of J_n for n <= n_max, 1 <= k <= k_max.

    Rows are built upward: row 0 from asymptotic first guesses, row n from
    the interlacing brackets (j_{n-1,k}, j_{n-1,k+1}).  One spare column is
    kept internally so every public entry has a two-sided bracket.
    """

    def __init__(self, n_max: int, k_max: int):
        if n_max < 0 or k_max < 1:
            raise BesselDomainError("need n_max >= 0 and k_max >= 1")
        _check_order(n_max + 1)
        self.n_max = int(n_max)
        self.k_max = int(k_max)
        self._rows = self._build(self.n_max, self.k_max + 1)

    @staticmethod
    def _build(n_max: int, cols: int) -> np.ndarray:
        rows = np.empty((n_max + 1, cols))
        ks = np.arange(1, cols + 1)
        sign_lo = np.where(ks % 2 == 1, 1.0, -1.0)

        b = (ks - 0.25) * np.pi
        guess = b + 1.0 / (8.0 * b)
        rows[0] = _refine_row(0, guess, b - 0.8, b + 0.8, sign_lo)

        prev_spacing = np.full(cols, 1.3)
        for n in range(1, n_max + 1):
            prev = rows[n - 1]
            lo = prev
            hi = np.empty(cols)
            hi[:-1] = prev[1:]
            hi[-1] = prev[-1] + 0.5 * np.pi + 0.1
            guess = np.clip(prev + prev_spacing, lo + 1e-6, hi - 1e-6)
            rows[n] = _refine_row(n, guess, lo, hi, sign_lo)
            prev_spacing = rows[n] - prev

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


_table_cache: dict[tuple[int, int], ZeroTable] = {}


def zero_table(n_max: int, k_max: int) -> ZeroTable:
    """Shared zero table covering at least (n_max, k_max)."""
    for (tn, tk), tab in _table_cache.items():
        if tn >= n_max and tk >= k_max:
            return tab
    key = (max(n_max, 8), max(k_max, 8))
    tab = ZeroTable(*key)
    _table_cache[key] = tab
    return tab


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
