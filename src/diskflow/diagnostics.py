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

from .basis import StokesBasis, pair_profile, stokes_basis
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


def _trapz_validated(y: np.ndarray, t: np.ndarray, validate: bool) -> float:
    full = float(np.trapezoid(y, t))
    if validate and t.size >= 5:
        half = float(np.trapezoid(y[::2], t[::2]))
        scale = max(abs(full), 1e-14)
        if abs(full) > 1e-12 and abs(full - half) > 0.01 * scale:
            raise TraceResolutionError(
                f"time integral changes by {abs(full - half) / scale:.1%} "
                "under sample halving; record a denser trace")
    return full


def condition_functional(trace: SimTrace, kind: str, schedule: ScheduleSpec,
                         basis: StokesBasis, n_radial: int = 48,
                         validate: bool = True) -> float:
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
        rule = radial_rule(1.0 - delta, alpha_max, n_radial)
    series = norm_sq_series(g, basis, quantity, rule)
    return weight * _trapz_validated(series, trace.times, validate)


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

LEMMA_IDS = (
    "ZeroDifference",
    "jnkRange",
    "JRatios",
    "Jnp1Ratios",
    "Jnm1Ratios",
    "L2omegaGammaBound",
    "L2omegaGammaBoundGeneral",
    "L2uGammaBoundGeneral",
    "SomeL2InnerProductsAreZero",
    "UsefulFunctionBound",
)

# checks whose stated constant is unspecified report an envelope, not a verdict
ENVELOPE_IDS = {"Jnp1Ratios", "Jnm1Ratios", "L2uGammaBoundGeneral"}


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


def _mode_layer_mass(basis: StokesBasis, n: int, k: int, deltas: np.ndarray,
                     quantity: str) -> np.ndarray:
    """Squared layer norm of one complex mode for several layer widths.

    All layers share one Bessel evaluation pass; the node count per layer
    tracks the number of radial oscillations inside it.
    """
    pair = basis.pair(n, k)
    nq = int(max(48, 1.6 * pair.alpha * float(deltas.max()) + 24))
    rules = [_gauss_radial(nq, 1.0 - float(d)) for d in deltas]
    prof = pair_profile(pair, np.concatenate([r for r, _ in rules]), quantity)
    dens = np.sum(prof ** 2, axis=0).reshape(deltas.size, nq)
    return np.array([2.0 * np.pi * float(np.dot(w, d))
                     for (_, w), d in zip(rules, dens)])


def verify_lemma(lemma_id: str, n_max: int = 50, k_max: int = 50,
                 basis: StokesBasis | None = None, x_samples: int = 160,
                 delta_samples: int = 8, tol: float = 1e-9) -> LemmaReport:
    """Scan one stated inequality over an index range and report the margin.

    Strict bounds pass when the worst margin is >= -tol; checks with an
    unspecified constant return the smallest empirical constant instead of
    a verdict.  Continuous parameters (position, layer width) are sampled
    densely inside their stated ranges.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; valid: "
                         f"{', '.join(LEMMA_IDS)}")
    if basis is None and lemma_id not in ("ZeroDifference", "jnkRange",
                                          "UsefulFunctionBound"):
        basis = stokes_basis(n_max, k_max)
    fn = _LEMMA_DISPATCH[lemma_id]
    return fn(n_max, k_max, basis, x_samples, delta_samples, tol)


def _report(lemma, n_max, k_max, rows, tol, envelope=False, extra=None):
    rows = sorted(rows, key=lambda r: r[5])
    worst = rows[0]
    report = LemmaReport(
        lemma=lemma, n_max=n_max, k_max=k_max,
        worst_margin=float(worst[5]),
        worst_at={"n": worst[0], "k": worst[1], "param": worst[2]},
        passed=None if envelope else bool(worst[5] >= -tol),
        extra=extra or {},
        rows=rows,
    )
    if envelope:
        report.constant = float(extra["constant"])
    return report


def _scan_zero_difference(n_max, k_max, basis, xs, ds, tol):
    tab = zero_table(n_max + 1, k_max)
    z = tab.all_rows()[: n_max + 2, :k_max]
    diff = z[1:] - z[:-1]
    rows = []
    for n in range(n_max + 1):
        k = int(np.argmin(np.minimum(diff[n] - 1.0, 0.5 * np.pi - diff[n]))) + 1
        d = diff[n, k - 1]
        rows.append((n, k, 0.0, float(d), "(1, pi/2)",
                     float(min(d - 1.0, 0.5 * np.pi - d))))
    return _report("ZeroDifference", n_max, k_max, rows, tol)


def _scan_jnk_range(n_max, k_max, basis, xs, ds, tol):
    tab = zero_table(n_max, k_max)
    z = tab.all_rows()[: n_max + 1, :k_max]
    ns = np.arange(n_max + 1)[:, None]
    ks = np.arange(1, k_max + 1)[None, :]
    low = z - (ns + ks)
    high = np.pi * (ns / 2.0 + ks) - z
    margin = np.minimum(low, high)
    rows = []
    for n in range(n_max + 1):
        k = int(np.argmin(margin[n])) + 1
        rows.append((n, k, 0.0, float(z[n, k - 1]),
                     f"({n + k}, {np.pi * (n / 2 + k):.6f})",
                     float(margin[n, k - 1])))
    return _report("jnkRange", n_max, k_max, rows, tol)


def _scan_j_ratios(n_max, k_max, basis, xs, ds, tol):
    rows = []
    for n in range(n_max + 1):
        alphas = basis.alpha[n, :k_max]
        betas = basis.beta[n, :k_max]
        ja = basis.j_at_alpha[n, :k_max]
        for k in range(1, k_max + 1):
            a, b = alphas[k - 1], betas[k - 1]
            x = np.linspace(b / a + 1e-9, 1.0 - 1e-12, xs)
            vals = np.abs(jn_trio(n, a * x)[1] / ja[k - 1])
            i = int(np.argmax(vals))
            rows.append((n, k, float(x[i]), float(vals[i]), 1.0,
                         float(1.0 - vals[i])))
    return _report("JRatios", n_max, k_max, rows, tol)


def _scan_jnp1_ratios(n_max, k_max, basis, xs, ds, tol):
    rows = []
    cmax = 0.0
    for n in range(1, n_max + 1):
        for k in range(1, min(n, k_max) + 1):
            a = basis.alpha[n, k - 1]
            b = basis.beta[n, k - 1]
            ja = basis.j_at_alpha[n, k - 1]
            x = np.linspace(b / a + 1e-9, 1.0 - 1e-7, xs)
            num = np.abs(jn_trio(n + 1, a * x)[1])
            ratio = num / (np.abs(ja) * n * (1.0 - x))
            i = int(np.argmax(ratio))
            c = float(ratio[i])
            cmax = max(cmax, c)
            rows.append((n, k, float(x[i]), c, "C*n*(1-x)", -c))
    return _report("Jnp1Ratios", n_max, k_max, rows, tol, envelope=True,
                   extra={"constant": cmax})


def _scan_jnm1_ratios(n_max, k_max, basis, xs, ds, tol):
    rows = []
    cmax = 0.0
    for n in range(1, n_max + 1):
        for k in range(1, min(n, k_max) + 1):
            a = basis.alpha[n, k - 1]
            b = basis.beta[n, k - 1]
            ja = basis.j_at_alpha[n, k - 1]
            x = np.linspace(b / a + 1e-9, 1.0 - 1e-12, xs)
            ratio = np.abs(jn_trio(n, a * x)[0] / ja)
            i = int(np.argmax(ratio))
            c = float(ratio[i])
            cmax = max(cmax, c)
            rows.append((n, k, float(x[i]), c, "C", -c))
    return _report("Jnm1Ratios", n_max, k_max, rows, tol, envelope=True,
                   extra={"constant": cmax})


def _scan_l2_omega_layer(n_max, k_max, basis, xs, ds, tol):
    rows = []
    for n in range(n_max + 1):
        for k in range(1, k_max + 1):
            lam_sqrt = basis.alpha[n, k - 1]
            deltas = np.geomspace(1e-4, 1.0, ds) / lam_sqrt
            mass = _mode_layer_mass(basis, n, k, deltas, "vorticity")
            margin = 2.0 * deltas - mass
            i = int(np.argmin(margin))
            rows.append((n, k, float(deltas[i]), float(mass[i]),
                         float(2.0 * deltas[i]), float(margin[i])))
    return _report("L2omegaGammaBound", n_max, k_max, rows, tol)


def _scan_l2_omega_layer_general(n_max, k_max, basis, xs, ds, tol):
    # The admissible widths are delta < lam_{n1}^{-1/2} / (2 pi): this is the
    # range the underlying zero-ratio argument supports (the ratio of the
    # n-th to the first zero in a row is at most 2 pi, which brings every
    # mode with k <= n back to the single-mode layer bound).  The wider
    # printed range 2 pi * lam_{n1}^{-1/2} fails numerically already at
    # (n, k) = (20, 1) and is reported as an exploratory extra only.
    rows = []
    printed_worst = 0.0
    for n in range(1, n_max + 1):
        lam_n1_sqrt = basis.alpha[n, 0]
        cap = 1.0 / (2.0 * np.pi * lam_n1_sqrt)
        cap_printed = min(2.0 * np.pi / lam_n1_sqrt, 0.999)
        for k in range(1, min(n, k_max) + 1):
            deltas = np.geomspace(1e-3, 1.0, ds) * cap
            mass = _mode_layer_mass(basis, n, k, deltas, "vorticity")
            margin = 2.0 * deltas - mass
            i = int(np.argmin(margin))
            rows.append((n, k, float(deltas[i]), float(mass[i]),
                         float(2.0 * deltas[i]), float(margin[i])))
            dp = np.geomspace(0.05, 1.0, 4) * cap_printed
            mp = _mode_layer_mass(basis, n, k, dp, "vorticity")
            printed_worst = max(printed_worst, float(np.max(mp - 2.0 * dp)))
    return _report("L2omegaGammaBoundGeneral", n_max, k_max, rows, tol,
                   extra={"printed_range_worst_excess": printed_worst})


def _scan_l2_u_layer_general(n_max, k_max, basis, xs, ds, tol, c2: float = 0.5):
    rows = []
    cmax = 0.0
    slopes = []
    for n in range(1, n_max + 1):
        cap = c2 / basis.alpha[n, 0]
        for k in range(1, min(n, k_max) + 1):
            # stay deep inside the layer-width cap so the cubic leading
            # order dominates the slope fit
            deltas = np.geomspace(0.01, 0.25, ds) * cap
            mass = _mode_layer_mass(basis, n, k, deltas, "velocity")
            ratio = mass / deltas**3
            i = int(np.argmax(ratio))
            c = float(ratio[i])
            cmax = max(cmax, c)
            slope = float(np.polyfit(np.log(deltas), np.log(mass), 1)[0])
            slopes.append(slope)
            rows.append((n, k, float(deltas[i]), float(mass[i]),
                         "C1*delta^3", -c))
    extra = {"constant": cmax, "c2": c2,
             "slope_median": float(np.median(slopes)),
             "slope_min": float(np.min(slopes)),
             "slope_max": float(np.max(slopes))}
    return _report("L2uGammaBoundGeneral", n_max, k_max, rows, tol,
                   envelope=True, extra=extra)


def _scan_cross_inner_products(n_max, k_max, basis, xs, ds, tol):
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
        rows.append((m, j, delta, float(v), 0.0, float(-v)))
    rep = _report("SomeL2InnerProductsAreZero", n_max, k_max, rows, tol)
    rep.passed = bool(rep.worst_margin >= -1e-12)
    return rep


def _scan_useful_function(n_max, k_max, basis, xs, ds, tol):
    rows = []
    for alpha in np.linspace(0.05, 0.95, 19):
        x = np.concatenate([[1.0], np.geomspace(1.0 + 1e-9, 1e6, xs)])
        g = compound_decay(float(alpha), x)
        lower = g - (1.0 - alpha)
        upper = np.exp(-alpha) - g
        margin = np.minimum(lower, upper)
        i = int(np.argmin(margin))
        rows.append((0, 0, float(alpha), float(g[i]),
                     f"[{1 - alpha:.3f}, {math.exp(-alpha):.6f})",
                     float(margin[i])))
    return _report("UsefulFunctionBound", n_max, k_max, rows, tol)


_LEMMA_DISPATCH = {
    "ZeroDifference": _scan_zero_difference,
    "jnkRange": _scan_jnk_range,
    "JRatios": _scan_j_ratios,
    "Jnp1Ratios": _scan_jnp1_ratios,
    "Jnm1Ratios": _scan_jnm1_ratios,
    "L2omegaGammaBound": _scan_l2_omega_layer,
    "L2omegaGammaBoundGeneral": _scan_l2_omega_layer_general,
    "L2uGammaBoundGeneral": _scan_l2_u_layer_general,
    "SomeL2InnerProductsAreZero": _scan_cross_inner_products,
    "UsefulFunctionBound": _scan_useful_function,
}
