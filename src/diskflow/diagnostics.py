"""Frequency truncations, boundary-layer condition functionals, and the
inequality-verification engine.

The thirteen condition kinds are time integrals of squared norms, weighted
by the viscosity:

  K1  nu * int |omega|^2 over the disk
  K2  nu * int |omega|^2 over the layer of width c*nu
  K3  nu * int |grad u|^2 over the layer of width c*nu
  K4  nu * int |(1/r) d_th u^th|^2 over the layer of width delta(nu)
  K5  nu * int |(1/r) d_th u^r|^2 over the layer of width delta(nu)
  K6  (1/nu) * int |u|^2 over the layer of width c*nu
  N1  like K1 for the band between square truncations L(nu) and M(nu)
  N2  like K1 for the residual of the tangential truncation at L(nu)
  N3  like K2 for the residual of the square truncation at L(nu)
  N4  like K3 for the band between L(nu) and M(nu)
  N5  like K4 for the residual of the tangential truncation at L(delta(nu))
  N6  like K5 for the residual of the tangential truncation at L(delta(nu))
  N7  like K6 for the band between L(nu) and M(nu)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .basis import StokesBasis, stokes_basis
from .bessel import _BLOCK, compound_decay, jn_trio, zero_table
from .field import (SpectralCoeffs, block_buffer, gram, layer_masses, layer_rule, live_rows,
                    mode_inner_product, pairing)

if TYPE_CHECKING:  # vv_gap imports it at call time, so verify loads no solver
    from .solver import SimTrace

CONDITION_KINDS = ("K1", "K2", "K3", "K4", "K5", "K6",
                   "N1", "N2", "N3", "N4", "N5", "N6", "N7")


class ScheduleError(ValueError):
    """Frequency/width schedule invalid for the requested viscosities."""


class TraceResolutionError(ValueError):
    """Trace sampling too coarse for a trustworthy time integral."""


@dataclass(frozen=True)
class TruncationSpec:
    """Which modes survive: square(N), tangential(N), eigenvalue threshold,
    or the band between two square truncations."""

    kind: str
    n: int = 0
    lo: int = 0
    hi: int = 0
    lam_max: float = 0.0

    @classmethod
    def square(cls, n: int) -> "TruncationSpec":
        return cls(kind="square", n=int(n))

    @classmethod
    def tangential(cls, n: int) -> "TruncationSpec":
        return cls(kind="tangential", n=int(n))

    @classmethod
    def eigenvalue_threshold(cls, lam_max: float) -> "TruncationSpec":
        return cls(kind="eigenvalue_threshold", lam_max=float(lam_max))

    @classmethod
    def band(cls, lo: int, hi: int) -> "TruncationSpec":
        if lo > hi:
            raise ValueError("band needs lo <= hi")
        return cls(kind="band", lo=int(lo), hi=int(hi))

    def mask(self, n_theta: int, n_r: int,
             basis: StokesBasis | None = None) -> np.ndarray:
        ns = np.arange(n_theta + 1)[:, None]
        ks = np.arange(1, n_r + 1)[None, :]
        if self.kind == "square":
            return (ns <= self.n) & (ks <= self.n)
        if self.kind == "tangential":
            return np.broadcast_to(ns <= self.n, (n_theta + 1, n_r)).copy()
        if self.kind == "eigenvalue_threshold":
            if basis is None:
                raise ValueError("eigenvalue threshold needs the basis")
            lam = basis.lam[: n_theta + 1, :n_r]
            return lam < self.lam_max
        if self.kind == "band":
            inner = (ns <= self.lo) & (ks <= self.lo)
            outer = (ns <= self.hi) & (ks <= self.hi)
            return outer & ~inner
        raise ValueError(f"unknown truncation kind {self.kind!r}")


def _apply_mask(g: np.ndarray, spec: TruncationSpec, keep: bool = True,
                basis: StokesBasis | None = None) -> np.ndarray:
    """g[..., n, k] with the modes outside the truncation zeroed, or with
    those inside it zeroed for keep=False (the residual)."""
    m = spec.mask(g.shape[-2] - 1, g.shape[-1], basis)
    return np.where(m if keep else ~m, g, 0.0)


def truncate(coeffs: SpectralCoeffs, spec: TruncationSpec,
             basis: StokesBasis | None = None) -> SpectralCoeffs:
    """Zero all coefficients outside the truncation; idempotent."""
    return SpectralCoeffs(g=_apply_mask(coeffs.g, spec, basis=basis), time=coeffs.time)


@dataclass(frozen=True)
class ScheduleSpec:
    """Frequency cutoffs L, M and layer width delta as powers of nu.

    L(nu) = ceil(nu**-a) with 0 < a < 1 keeps nu*L -> 0, M(nu) = ceil(nu**-b)
    with b > 1 makes nu*M -> infinity, and delta(nu) = nu**gamma with
    0 < gamma < 1 shrinks while delta/nu diverges; c scales the thin layer.
    """

    a: float = 0.5
    b: float = 1.5
    gamma: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "gamma", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ScheduleError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.a < 1.0:
            raise ScheduleError(f"exponent a={self.a} outside (0, 1)")
        if self.b <= 1.0:
            raise ScheduleError(f"exponent b={self.b} must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ScheduleError(f"exponent gamma={self.gamma} outside (0, 1)")
        if self.c <= 0.0:
            raise ScheduleError("layer constant c must be positive")

    def L(self, nu: float) -> int:
        return int(math.ceil(nu ** (-self.a)))

    def M(self, nu: float) -> int:
        return int(math.ceil(nu ** (-self.b)))

    def delta(self, nu: float) -> float:
        return nu ** self.gamma

    def validate_sweep(self, nus) -> None:
        """Endpoint trend checks on a decreasing viscosity list.

        Integer rounding lets nu*L wiggle locally, so the limits in the
        cutoff conditions are checked between the sweep's endpoints.
        """
        nus = list(nus)
        if len(nus) < 1 or any(v <= 0 for v in nus):
            raise ScheduleError("need a nonempty positive viscosity list")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ScheduleError("viscosity list must be strictly decreasing")
        if len(nus) >= 2:
            if nus[-1] * self.L(nus[-1]) >= nus[0] * self.L(nus[0]):
                raise ScheduleError("nu*L(nu) does not decrease over the sweep")
            if nus[-1] * self.M(nus[-1]) <= nus[0] * self.M(nus[0]):
                raise ScheduleError("nu*M(nu) does not increase over the sweep")
            if self.delta(nus[-1]) >= self.delta(nus[0]):
                raise ScheduleError("delta(nu) does not decrease over the sweep")
            if self.delta(nus[-1]) / nus[-1] <= self.delta(nus[0]) / nus[0]:
                raise ScheduleError("delta(nu)/nu does not increase over the sweep")


def condition_functional(trace: SimTrace, kind: str, schedule: ScheduleSpec,
                         basis: StokesBasis) -> float:
    """One boundary-layer condition functional evaluated on a trace."""
    if kind not in CONDITION_KINDS:
        raise ValueError(f"unknown condition kind {kind!r}; "
                         f"valid: {', '.join(CONDITION_KINDS)}")
    nu = trace.nu
    nt1, nr = trace.states(0).shape
    thin, wide = schedule.c * nu, schedule.delta(nu)
    if thin >= 1.0 or wide >= 1.0:
        raise ScheduleError(f"layer width exceeds the disk at nu={nu}")
    L, M, Ld = schedule.L(nu), schedule.M(nu), schedule.L(wide)
    if L < 1 or M <= L:
        raise ScheduleError(f"need 1 <= L < M at nu={nu}, got L={L}, M={M}")

    # (truncation, keep): the band is kept, the other truncations' residuals
    band = (TruncationSpec.band(L, M), True)
    sq_res = (TruncationSpec.square(L), False)
    tan_res = (TruncationSpec.tangential(L), False)
    tan_res_d = (TruncationSpec.tangential(Ld), False)

    table = {
        "K1": (nu, "vorticity", None, None),
        "K2": (nu, "vorticity", thin, None),
        "K3": (nu, "gradient", thin, None),
        "K4": (nu, "dtau_utau", wide, None),
        "K5": (nu, "dtau_un", wide, None),
        "K6": (1.0 / nu, "velocity", thin, None),
        "N1": (nu, "vorticity", None, band),
        "N2": (nu, "vorticity", None, tan_res),
        "N3": (nu, "vorticity", thin, sq_res),
        "N4": (nu, "gradient", thin, band),
        "N5": (nu, "dtau_utau", wide, tan_res_d),
        "N6": (nu, "dtau_un", wide, tan_res_d),
        "N7": (1.0 / nu, "velocity", thin, band),
    }
    weight, quantity, delta, trunc = table[kind]
    rule = None if delta is None else layer_rule(delta, basis.alpha[:nt1, :nr])
    # the time integral of the squared norm is the pairing of the moments,
    # masked to the kept modes, with the Gram as the weight, over the rows
    # that hold energy; the Parseval Gram is I.  The rows are taken before the
    # mask, so every kind of a trace shares them, and one Gram stack per
    # quantity and rule serves them all.
    rows = live_rows(trace.moments[0].reshape(nt1, -1))
    moments = trace.moments[:, rows]
    if trunc is not None:
        keep = _apply_mask(np.ones((nt1, nr)), *trunc)[rows]  # 1 on the kept modes
        moments = moments * (keep[:, :, None] * keep[:, None, :])
    gr = np.eye(nr) if rule is None else gram(basis, rows, quantity, rule, nr)
    # over all samples and over the halved trace
    full, half = pairing(moments.reshape(2, -1, nr * nr), gr.reshape(-1, nr * nr), b=1.0,
                         rows=rows)[0]
    scale = max(abs(full), 1e-14)
    if trace.n_samples >= 5 and abs(full) > 1e-12 and abs(full - half) > 0.01 * scale:
        raise TraceResolutionError(
            f"time integral changes by {abs(full - half) / scale:.1%} "
            "under sample halving; record a denser trace")
    return weight * float(full)


def vv_gap(trace: SimTrace, reference, basis: StokesBasis) -> float:
    """Sup over samples of the L2 distance between the trace velocity and a
    reference velocity (steady coefficients or an aligned time series),
    one block of samples at a time (block_buffer).

    A closed-form trace against its own g0, with nu and every time >= 0,
    pairs its one state at the largest time: there |u(t) - u(0)|^2 = sum_n
    wr_n sum_k |g0|^2 (1 - exp(-nu lam t))^2 / lam, and every term is
    nondecreasing in t, so the sup is at the last sample."""
    from .solver import SimTrace

    shape = trace.states(0).shape
    first, end = 0, trace.n_samples
    if isinstance(reference, SpectralCoeffs):
        def ref(s, out):
            return reference.g
        if (trace.g0 is not None and min(trace.nu, trace.times.min()) >= 0.0
                and np.array_equal(reference.g, trace.g0)):
            end = (first := int(np.argmax(trace.times))) + 1
    elif isinstance(reference, SimTrace):
        if (reference.times.size != trace.times.size
                or not np.allclose(reference.times, trace.times, atol=1e-12)):
            raise ValueError("reference sample times do not match the trace")
        ref = reference.states
    else:
        raise TypeError("reference must be SpectralCoeffs or SimTrace")
    ilam = 1.0 / basis.lam[: shape[0], : shape[1]]
    step, buf = block_buffer(end - first, shape)
    a = np.empty((min(step, end - first), *shape), complex)
    b = np.empty_like(a) if isinstance(reference, SimTrace) else a
    u2 = []
    for i in range(first, end, step):
        s, m = slice(i, min(i + step, end)), min(step, end - i)
        d = np.subtract(trace.states(s, out=a[:m]), ref(s, out=b[:m]), out=a[:m])
        u2.append(pairing(d, ilam, buf=buf)[0])
    return float(np.sqrt(np.concatenate(u2).max()))


def truncate_trace(trace: SimTrace, spec: TruncationSpec,
                   basis: StokesBasis | None = None) -> SimTrace:
    return trace.with_coeffs(_apply_mask(trace.g, spec, basis=basis))


def residual_trace(trace: SimTrace, spec: TruncationSpec,
                   basis: StokesBasis | None = None) -> SimTrace:
    return trace.with_coeffs(_apply_mask(trace.g, spec, keep=False, basis=basis))


# ---------------------------------------------------------------------------
# Inequality verification

# Continuous parameters (position, layer width) are sampled densely inside
# their stated ranges; strict bounds pass when the worst margin is >= -_TOL.
_X_SAMPLES = 160
_DELTA_SAMPLES = 8
_TOL = 1e-9


@dataclass
class LemmaReport:
    """Scan result for one inequality over an index/parameter range."""

    lemma: str
    n_max: int
    k_max: int
    worst_margin: float        # min over the scan of (bound - observed)
    worst_at: dict
    passed: bool | None        # None for envelope-style checks
    constant: float | None = None   # smallest admissible constant, if envelope
    extra: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)  # (n, k, param, observed, bound, margin)

    def csv_rows(self):
        for n, k, param, observed, bound, margin in self.rows:
            yield {"lemma": self.lemma, "n": n, "k": k, "param": param,
                   "observed": observed, "bound": bound, "margin": margin}


def verify_lemma(lemma_id: str, n_max: int = 50, k_max: int = 50,
                 basis: StokesBasis | None = None) -> LemmaReport:
    """Scan one stated inequality over an index range and report the margin.

    Strict bounds pass when the worst margin is >= -1e-9; checks with an
    unspecified constant return the smallest empirical constant instead of
    a verdict.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; valid: "
                         f"{', '.join(LEMMA_IDS)}")
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    if basis is None and lemma_id not in ("ZeroDifference", "jnkRange",
                                          "UsefulFunctionBound"):
        basis = stokes_basis(n_max, k_max)
    return _LEMMA_DISPATCH[lemma_id](lemma_id, n_max, k_max, basis)


def _worst(n, k, param, observed, bound, margin) -> list[tuple]:
    """Per row of margin (rows, samples), the scan row (n, k, param, observed,
    bound, margin) at its argmin; the other arguments broadcast to margin."""
    i = np.argmin(margin, axis=-1)[:, None]
    return list(zip(*(np.take_along_axis(np.broadcast_to(v, margin.shape), i, -1)[:, 0]
                      .tolist() for v in (n, k, param, observed, bound, margin))))


def _report(lemma, n_max, k_max, rows, envelope=False, extra=None):
    """Rows sorted by margin rounded to _TOL, then (n, k, param), so roundoff
    moves no row; an envelope's constant is minus its worst margin."""
    worst = min(rows, key=lambda r: r[5])
    # rows within _TOL of the worst tie up to roundoff: report the first (n, k)
    at = min((r for r in rows if r[5] <= worst[5] + _TOL),
             key=lambda r: (r[0], r[1], r[5]))
    rows = sorted(rows, key=lambda r: (round(r[5] / _TOL), r[0], r[1], r[2]))
    return LemmaReport(
        lemma=lemma, n_max=n_max, k_max=k_max,
        worst_margin=float(worst[5]),
        worst_at={"n": at[0], "k": at[1], "param": at[2]},
        passed=None if envelope else bool(worst[5] >= -_TOL),
        constant=-float(worst[5]) if envelope else None,
        extra=extra or {},
        rows=rows,
    )


def _index_modes(n_max, k_max, square):
    """The modes (n, k) as flat arrays, row by row: the whole square, or the
    triangle k <= n of the checks stated for n >= 1 only."""
    n, k = np.divmod(np.arange((n_max + 1) * k_max), k_max)
    keep = square | (k < n)
    return n[keep], k[keep] + 1


def _scan_zero_difference(lemma, n_max, k_max, basis):
    z = zero_table(n_max + 1, k_max).all_rows()
    d = z[1:] - z[:-1]
    rows = _worst(np.arange(n_max + 1)[:, None], np.arange(1, k_max + 1), 0.0, d,
                  "(1, pi/2)", np.minimum(d - 1.0, 0.5 * np.pi - d))
    return _report(lemma, n_max, k_max, rows)


def _scan_jnk_range(lemma, n_max, k_max, basis):
    z = zero_table(n_max + 1, k_max).all_rows()[: n_max + 1]
    n, k = np.arange(n_max + 1)[:, None], np.arange(1, k_max + 1)
    rows = _worst(n, k, 0.0, z, [[f"({a + b}, {np.pi * (a / 2 + b):.6f})" for b in k]
                                 for a in range(n_max + 1)],
                  np.minimum(z - (n + k), np.pi * (n / 2.0 + k) - z))
    return _report(lemma, n_max, k_max, rows)


# lemma: (entry of jn_trio(n), upper end of x, bound).  On beta/alpha < x < 1
# the ratio is |J_m(alpha x)| / |J_n(alpha)| with m = n - 1, n, n + 1; the
# J_{n+1} ratio is also divided by n (1 - x).  A numeric bound is a strict
# check over all (n, k); a named one is an envelope over k <= n.  The scans
# that share an upper end share their x grid, and so their Bessel values.
_RATIO_SCANS = {
    "JRatios": (1, 1.0 - 1e-12, 1.0),
    "Jnp1Ratios": (2, 1.0 - 1e-7, "C*n*(1-x)"),
    "Jnm1Ratios": (0, 1.0 - 1e-12, "C"),
}


def _scan_ratios(lemma, n_max, k_max, basis):
    """The rows of every ratio scan on this lemma's x grid come from one pass,
    memoized on the basis per grid; each call builds its own report."""
    entry, x_hi, bound = _RATIO_SCANS[lemma]
    rows = basis._ratio_cache.get(key := (x_hi, n_max, k_max))
    if rows is None:
        basis._ratio_cache[key] = rows = _ratio_rows(x_hi, n_max, k_max, basis)
    return _report(lemma, n_max, k_max, rows[lemma], isinstance(bound, str))


def _ratio_rows(x_hi, n_max, k_max, basis):
    """{lemma: scan rows as tuples} for the ratio scans whose x grid ends at
    x_hi, from one Bessel pass over the union of their modes in blocks of at
    most _BLOCK lanes; every row depends on its own mode alone."""
    group = {lemma: v for lemma, v in _RATIO_SCANS.items() if v[1] == x_hi}
    square = any(not isinstance(bound, str) for _, _, bound in group.values())
    modes = _index_modes(n_max, k_max, square)
    rows, per = {lemma: [] for lemma in group}, _BLOCK // _X_SAMPLES
    for s in range(0, modes[0].size, per):
        n, k = (v[s:s + per] for v in modes)
        a = basis.alpha[n, k - 1]
        x = np.linspace(basis.beta[n, k - 1] / a + 1e-9, x_hi, _X_SAMPLES, axis=-1)
        trio = jn_trio(np.repeat(n, _X_SAMPLES), (a[:, None] * x).ravel())
        ja = np.abs(basis.j_at_alpha[n, k - 1])[:, None]
        for lemma, (entry, _, bound) in group.items():
            envelope = isinstance(bound, str)
            i = np.flatnonzero(k <= n) if envelope and square else slice(None)
            jm, xi, ni, ji = np.abs(trio[entry].reshape(x.shape)[i]), x[i], n[i, None], ja[i]
            ratio = jm / (ji * ni * (1.0 - xi) if entry == 2 else ji)
            margin = -ratio if envelope else bound - ratio
            rows[lemma] += _worst(ni, k[i, None], xi, ratio, bound, margin)
    return rows


# lemma: (quantity, layer widths deltas[mode, d] from the columns of the
# modes' zeros a and their rows' first zeros a1).  The vorticity mass is
# bounded by 2 delta; the velocity mass by C1 delta^3, an envelope.  The
# general vorticity widths stay below lam_{n1}^{-1/2} / (2 pi): this is the
# range the underlying zero-ratio argument supports (the ratio of the n-th
# to the first zero in a row is at most 2 pi, which brings every mode with k
# <= n back to the single-mode layer bound).  The wider printed range 2 pi *
# lam_{n1}^{-1/2} fails numerically already at (n, k) = (20, 1) and is
# reported as an exploratory extra only.  The velocity widths stay deep
# inside the cap c2 / alpha_1 so the cubic leading order dominates the slope
# fit.
_U_LAYER_C2 = 0.5
_LAYER_SCANS = {
    "L2omegaGammaBound": (
        "vorticity",
        lambda a, a1: np.geomspace(1e-4, 1.0, _DELTA_SAMPLES) / a),
    "L2omegaGammaBoundGeneral": (
        "vorticity",
        lambda a, a1: np.geomspace(1e-3, 1.0, _DELTA_SAMPLES)
        * (1.0 / (2.0 * np.pi * a1))),
    "L2uGammaBoundGeneral": (
        "velocity",
        lambda a, a1: np.geomspace(0.01, 0.25, _DELTA_SAMPLES) * (_U_LAYER_C2 / a1)),
}


def _median(v: np.ndarray) -> float:
    """np.median of a 1-D array, bit for bit, without the numpy.ma import
    that np.median's NaN check makes."""
    s = np.sort(v)
    return 0.5 * (s[(s.size - 1) // 2] + s[s.size // 2])


def _scan_layers(lemma, n_max, k_max, basis):
    quantity, widths = _LAYER_SCANS[lemma]
    envelope = quantity == "velocity"
    n, k = (v[:, None] for v in _index_modes(n_max, k_max, lemma == "L2omegaGammaBound"))
    a1 = basis.alpha[n, 0]
    deltas = widths(basis.alpha[n, k - 1], a1)
    if lemma == "L2omegaGammaBoundGeneral":  # the printed range rides along
        deltas = np.hstack([deltas, np.geomspace(0.05, 1.0, 4)
                            * np.minimum(2.0 * np.pi / a1, 0.999)])
    mass = layer_masses(basis, n, k, deltas, quantity)[0].reshape(deltas.shape)
    d, m = deltas[:, :_DELTA_SAMPLES], mass[:, :_DELTA_SAMPLES]
    extra = None
    if envelope:
        rows = _worst(n, k, d, m, "C1*delta^3", -m / d**3)
        # each row's least-squares slope of log m on log delta, in closed form
        x, y = np.log(d), np.log(m)
        x -= x.mean(axis=1, keepdims=True)
        slopes = np.sum(x * y, axis=1) / np.sum(x * x, axis=1)
        extra = {"c2": _U_LAYER_C2, "slope_median": float(_median(slopes)),
                 "slope_min": float(np.min(slopes)),
                 "slope_max": float(np.max(slopes))}
    else:
        rows = _worst(n, k, d, m, 2.0 * d, 2.0 * d - m)
        if deltas.shape[1] > _DELTA_SAMPLES:
            excess = mass[:, _DELTA_SAMPLES:] - 2.0 * deltas[:, _DELTA_SAMPLES:]
            extra = {"printed_range_worst_excess": max(0.0, float(np.max(excess)))}
    return _report(lemma, n_max, k_max, rows, envelope, extra)


def _cross_pairs(n_max, k_max):
    """The inner-product scan's sorted pairs (m, j, n, k), m != n, as arrays
    over about 11 orders a side, and a random layer width per pair."""
    rng = np.random.default_rng(0)
    pairs = set()
    for m in range(0, n_max + 1, max(1, n_max // 10)):
        for n in range(0, n_max + 1, max(1, n_max // 10)):
            if m == n:
                continue
            j = int(rng.integers(1, k_max + 1))
            k = int(rng.integers(1, k_max + 1))
            pairs.add((m, j, n, k))
    m, j, n, k = np.array(sorted(pairs)).T
    return m, j, n, k, rng.uniform(0.02, 1.0, m.size)


def _scan_cross_inner_products(lemma, n_max, k_max, basis):
    m, j, n, k, delta = _cross_pairs(n_max, k_max)
    vel, vort = mode_inner_product(basis, (m, j), (n, k), ("velocity", "vorticity"), delta)
    v = np.maximum(np.abs(vort), np.abs(vel))
    rows = _worst(*(c[:, None] for c in (m, j, delta, v)), 0.0, -v[:, None])
    rep = _report(lemma, n_max, k_max, rows)
    rep.passed = bool(rep.worst_margin >= -1e-12)
    return rep


def _scan_useful_function(lemma, n_max, k_max, basis):
    x = np.concatenate([[1.0], np.geomspace(1.0 + 1e-9, 1e6, _X_SAMPLES)])
    alpha = np.linspace(0.05, 0.95, 19)
    g = np.array([compound_decay(a, x) for a in alpha.tolist()])
    a = alpha[:, None]
    rows = _worst(0, 0, a, g, [[f"[{1 - v:.3f}, {math.exp(-v):.6f})"] for v in alpha],
                  np.minimum(g - (1.0 - a), np.exp(-a) - g))
    return _report(lemma, n_max, k_max, rows)


_LEMMA_DISPATCH = {
    "ZeroDifference": _scan_zero_difference,
    "jnkRange": _scan_jnk_range,
    "JRatios": _scan_ratios,
    "Jnp1Ratios": _scan_ratios,
    "Jnm1Ratios": _scan_ratios,
    "L2omegaGammaBound": _scan_layers,
    "L2omegaGammaBoundGeneral": _scan_layers,
    "L2uGammaBoundGeneral": _scan_layers,
    "SomeL2InnerProductsAreZero": _scan_cross_inner_products,
    "UsefulFunctionBound": _scan_useful_function,
}
LEMMA_IDS = tuple(_LEMMA_DISPATCH)
