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

import numpy as np

from .basis import StokesBasis, radial_profiles, stokes_basis
from .bessel import compound_decay, jn_trio, zero_table
from .field import (SpectralCoeffs, _gauss_radial, mode_inner_product,
                    norm_sq_series, radial_rule)
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


def _trapz_validated(y: np.ndarray, t: np.ndarray) -> float:
    full = float(np.trapezoid(y, t))
    if t.size >= 5:
        half = float(np.trapezoid(y[::2], t[::2]))
        scale = max(abs(full), 1e-14)
        if abs(full) > 1e-12 and abs(full - half) > 0.01 * scale:
            raise TraceResolutionError(
                f"time integral changes by {abs(full - half) / scale:.1%} "
                "under sample halving; record a denser trace")
    return full


def condition_functional(trace: SimTrace, kind: str, schedule: ScheduleSpec,
                         basis: StokesBasis) -> float:
    """One boundary-layer condition functional evaluated on a trace."""
    if kind not in CONDITION_KINDS:
        raise ValueError(f"unknown condition kind {kind!r}; "
                         f"valid: {', '.join(CONDITION_KINDS)}")
    nu = trace.nu
    nt = trace.g.shape[1] - 1
    nr = trace.g.shape[2]
    thin = schedule.c * nu
    wide = schedule.delta(nu)
    if thin >= 1.0 or wide >= 1.0:
        raise ScheduleError(f"layer width exceeds the disk at nu={nu}")
    L, M = schedule.L(nu), schedule.M(nu)
    Ld = schedule.L(wide)
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
    g = trace.g if trunc is None else _apply_mask(trace.g, *trunc)
    rule = None
    if delta is not None:
        alpha_max = float(basis.alpha[: nt + 1, :nr].max())
        rule = radial_rule(1.0 - delta, alpha_max)
    series = norm_sq_series(g, basis, quantity, rule)
    return weight * _trapz_validated(series, trace.times)


def vv_gap(trace: SimTrace, reference, basis: StokesBasis) -> float:
    """Sup over samples of the L2 distance between the trace velocity and a
    reference velocity (steady coefficients or an aligned time series)."""
    if isinstance(reference, SpectralCoeffs):
        ref = np.broadcast_to(reference.g, trace.g.shape)
    elif isinstance(reference, SimTrace):
        if (reference.times.size != trace.times.size
                or not np.allclose(reference.times, trace.times, atol=1e-12)):
            raise ValueError("reference sample times do not match the trace")
        ref = reference.g
    else:
        raise TypeError("reference must be SpectralCoeffs or SimTrace")
    u2 = norm_sq_series(trace.g - ref, basis, "velocity")
    return float(np.sqrt(u2.max()))


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
    if basis is None and lemma_id not in ("ZeroDifference", "jnkRange",
                                          "UsefulFunctionBound"):
        basis = stokes_basis(n_max, k_max)
    return _LEMMA_DISPATCH[lemma_id](lemma_id, n_max, k_max, basis)


def _worst(n, k, param, observed, bound, margin) -> tuple:
    """The scan row (n, k, param, observed, bound, margin) at argmin(margin);
    each argument is a per-sample array (or list) or one fixed value."""
    i = int(np.argmin(margin))
    row = (v[i] if np.ndim(v) else v for v in (n, k, param, observed, bound, margin))
    return tuple(v.item() if isinstance(v, np.generic) else v for v in row)


def _report(lemma, n_max, k_max, rows, envelope=False, extra=None):
    """Rows sorted by margin; an envelope's constant is minus its worst margin."""
    rows = sorted(rows, key=lambda r: r[5])
    worst = rows[0]
    # rows within _TOL of the worst tie up to roundoff: report the first (n, k)
    at = min((r for r in rows if r[5] <= worst[5] + _TOL), key=lambda r: r[:2])
    return LemmaReport(
        lemma=lemma, n_max=n_max, k_max=k_max,
        worst_margin=float(worst[5]),
        worst_at={"n": at[0], "k": at[1], "param": at[2]},
        passed=None if envelope else bool(worst[5] >= -_TOL),
        constant=-float(worst[5]) if envelope else None,
        extra=extra or {},
        rows=rows,
    )


def _index_rows(n_max, k_max, square):
    """(n, k = 1..K) per row: the whole square, or the triangle k <= n of
    the checks stated for n >= 1 only."""
    for n in range(0 if square else 1, n_max + 1):
        yield n, np.arange(1, (k_max if square else min(n, k_max)) + 1)


def _scan_zero_difference(lemma, n_max, k_max, basis):
    z = zero_table(n_max + 1, k_max).all_rows()[: n_max + 2, :k_max]
    diff = z[1:] - z[:-1]
    ks = np.arange(1, k_max + 1)
    rows = [_worst(n, ks, 0.0, d, "(1, pi/2)", np.minimum(d - 1.0, 0.5 * np.pi - d))
            for n, d in enumerate(diff)]
    return _report(lemma, n_max, k_max, rows)


def _scan_jnk_range(lemma, n_max, k_max, basis):
    z = zero_table(n_max, k_max).all_rows()[: n_max + 1, :k_max]
    ks = np.arange(1, k_max + 1)
    rows = [_worst(n, ks, 0.0, z[n],
                   [f"({n + k}, {np.pi * (n / 2 + k):.6f})" for k in ks],
                   np.minimum(z[n] - (n + ks), np.pi * (n / 2.0 + ks) - z[n]))
            for n in range(n_max + 1)]
    return _report(lemma, n_max, k_max, rows)


# lemma: (entry of jn_trio(n), upper end of x, bound).  On beta/alpha < x < 1
# the ratio is |J_m(alpha x)| / |J_n(alpha)| with m = n - 1, n, n + 1; the
# J_{n+1} ratio is also divided by n (1 - x).  A numeric bound is a strict
# check over all (n, k); a named one is an envelope over k <= n.
_RATIO_SCANS = {
    "JRatios": (1, 1.0 - 1e-12, 1.0),
    "Jnp1Ratios": (2, 1.0 - 1e-7, "C*n*(1-x)"),
    "Jnm1Ratios": (0, 1.0 - 1e-12, "C"),
}


def _scan_ratios(lemma, n_max, k_max, basis):
    entry, x_hi, bound = _RATIO_SCANS[lemma]
    envelope = isinstance(bound, str)
    rows = []
    for n, kk in _index_rows(n_max, k_max, not envelope):
        a = basis.alpha[n, kk - 1]
        x = np.linspace(basis.beta[n, kk - 1] / a + 1e-9, x_hi, _X_SAMPLES, axis=-1)
        jm = np.abs(jn_trio(n, (a[:, None] * x).ravel())[entry].reshape(x.shape))
        ja = np.abs(basis.j_at_alpha[n, kk - 1])[:, None]
        ratio = jm / (ja * n * (1.0 - x) if entry == 2 else ja)
        margin = -ratio if envelope else bound - ratio
        rows += [_worst(n, k, xk, rk, bound, mk)
                 for k, xk, rk, mk in zip(kk, x, ratio, margin)]
    return _report(lemma, n_max, k_max, rows, envelope)


def _layer_mass(basis: StokesBasis, n: int, kk: np.ndarray, deltas: np.ndarray,
                quantity: str) -> np.ndarray:
    """Squared layer norms of the modes (n, kk) for the widths deltas[k, d].

    The whole row takes one Bessel pass; the node count tracks the number
    of radial oscillations inside the row's widest layer.
    """
    alphas = basis.alpha[n, kk - 1]
    nq = int(max(48, np.max(1.6 * alphas * deltas.max(axis=1)) + 24))
    r, w = _gauss_radial(nq, 1.0 - deltas[..., None])
    prof = radial_profiles(n, alphas, basis.c_signed[n, kk - 1],
                           r.reshape(kk.size, -1), quantity)[quantity]
    dens = np.sum(prof ** 2, axis=0).reshape(r.shape)
    return 2.0 * np.pi * np.sum(w * dens, axis=-1)


# lemma: (quantity, layer widths deltas[k, d] of a row from its zeros a and
# its first zero a1).  The vorticity mass is bounded by 2 delta; the
# velocity mass by C1 delta^3, an envelope.  The general vorticity widths
# stay below lam_{n1}^{-1/2} / (2 pi): this is the range the underlying
# zero-ratio argument supports (the ratio of the n-th to the first zero in
# a row is at most 2 pi, which brings every mode with k <= n back to the
# single-mode layer bound).  The wider printed range 2 pi * lam_{n1}^{-1/2}
# fails numerically already at (n, k) = (20, 1) and is reported as an
# exploratory extra only.  The velocity widths stay deep inside the cap
# c2 / alpha_1 so the cubic leading order dominates the slope fit.
_U_LAYER_C2 = 0.5
_LAYER_SCANS = {
    "L2omegaGammaBound": (
        "vorticity",
        lambda a, a1: np.geomspace(1e-4, 1.0, _DELTA_SAMPLES) / a[:, None]),
    "L2omegaGammaBoundGeneral": (
        "vorticity",
        lambda a, a1: np.geomspace(1e-3, 1.0, _DELTA_SAMPLES)
        * (1.0 / (2.0 * np.pi * a1))),
    "L2uGammaBoundGeneral": (
        "velocity",
        lambda a, a1: np.geomspace(0.01, 0.25, _DELTA_SAMPLES) * (_U_LAYER_C2 / a1)),
}


def _scan_layers(lemma, n_max, k_max, basis):
    quantity, widths = _LAYER_SCANS[lemma]
    envelope = quantity == "velocity"
    rows, slopes, printed_worst = [], [], 0.0
    for n, kk in _index_rows(n_max, k_max, lemma == "L2omegaGammaBound"):
        deltas = np.broadcast_to(widths(basis.alpha[n, kk - 1], basis.alpha[n, 0]),
                                 (kk.size, _DELTA_SAMPLES))
        mass = _layer_mass(basis, n, kk, deltas, quantity)
        if envelope:
            rows += [_worst(n, k, d, m, "C1*delta^3", -m / d**3)
                     for k, d, m in zip(kk, deltas, mass)]
            slopes += [float(np.polyfit(np.log(d), np.log(m), 1)[0])
                       for d, m in zip(deltas, mass)]
        else:
            rows += [_worst(n, k, d, m, 2.0 * d, 2.0 * d - m)
                     for k, d, m in zip(kk, deltas, mass)]
        if lemma == "L2omegaGammaBoundGeneral":
            cap = min(2.0 * np.pi / basis.alpha[n, 0], 0.999)
            dp = np.broadcast_to(np.geomspace(0.05, 1.0, 4) * cap, (kk.size, 4))
            mp = _layer_mass(basis, n, kk, dp, quantity)
            printed_worst = max(printed_worst, float(np.max(mp - 2.0 * dp)))
    extra = None
    if envelope:
        extra = {"c2": _U_LAYER_C2, "slope_median": float(np.median(slopes)),
                 "slope_min": float(np.min(slopes)),
                 "slope_max": float(np.max(slopes))}
    elif lemma == "L2omegaGammaBoundGeneral":
        extra = {"printed_range_worst_excess": printed_worst}
    return _report(lemma, n_max, k_max, rows, envelope, extra)


def _scan_cross_inner_products(lemma, n_max, k_max, basis):
    rng = np.random.default_rng(0)
    pairs = set()
    for m in range(0, n_max + 1, max(1, n_max // 10)):
        for n in range(0, n_max + 1, max(1, n_max // 10)):
            if m == n:
                continue
            j = int(rng.integers(1, k_max + 1))
            k = int(rng.integers(1, k_max + 1))
            pairs.add((m, j, n, k))
    rows = []
    for m, j, n, k in sorted(pairs):
        delta = float(rng.uniform(0.02, 1.0))
        vo = abs(mode_inner_product(basis, (m, j), (n, k), "vorticity", delta))
        vu = abs(mode_inner_product(basis, (m, j), (n, k), "velocity", delta))
        v = max(vo, vu)
        rows.append(_worst(m, j, delta, v, 0.0, -v))
    rep = _report(lemma, n_max, k_max, rows)
    rep.passed = bool(rep.worst_margin >= -1e-12)
    return rep


def _scan_useful_function(lemma, n_max, k_max, basis):
    rows = []
    x = np.concatenate([[1.0], np.geomspace(1.0 + 1e-9, 1e6, _X_SAMPLES)])
    for alpha in np.linspace(0.05, 0.95, 19):
        g = compound_decay(float(alpha), x)
        rows.append(_worst(0, 0, float(alpha), g,
                           f"[{1 - alpha:.3f}, {math.exp(-alpha):.6f})",
                           np.minimum(g - (1.0 - alpha), np.exp(-alpha) - g)))
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
