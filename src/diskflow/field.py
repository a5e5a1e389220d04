"""Spectral/physical transforms, quadrature, and norms over the disk.

Coefficient arrays store angular indices n = 0..n_theta only; the physical
field is g_{0k} * mode + 2 Re(g_{nk} * mode) for n >= 1, so row 0 must stay
real and every norm identity carries a factor 2 on the n >= 1 rows.  All
norm functions return the *squared* L2 norm, which is the quantity every
downstream functional consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import PHASES, QUANTITIES, StokesBasis, pair_profile
from .bessel import jn_trio

_RULE_TOL = 1.0e-11


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


@dataclass
class PolarGrid:
    """Tensor quadrature grid: Gauss-Legendre in r (weights include the
    Jacobian r), equispaced angles with trapezoid weight 2*pi/n_angular."""

    r: np.ndarray
    w: np.ndarray
    n_angular: int
    r_lo: float

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular

    def same_as(self, other: "PolarGrid") -> bool:
        return (self.n_angular == other.n_angular and self.r_lo == other.r_lo
                and self.r.size == other.r.size and np.array_equal(self.r, other.r))


# leggauss costs about a millisecond per call, and a lemma scan asks for the
# same few node counts thousands of times.
_leggauss = lru_cache(maxsize=64)(leggauss)


def _gauss_radial(n_radial: int, r_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on (r_lo, 1); the weights include the Jacobian r."""
    xi, wq = _leggauss(n_radial)
    half = 0.5 * (1.0 - r_lo)
    r = r_lo + half * (xi + 1.0)
    return r, half * wq * r


def _bessel_mass_exact(alpha: float, r_lo: float) -> float:
    # antiderivative of x J_0(a x)^2 is (x^2/2)(J_0(a x)^2 + J_1(a x)^2)
    def f(x):
        _, j0, j1 = jn_trio(0, np.array([alpha * x]))
        return 0.5 * x * x * (j0[0] ** 2 + j1[0] ** 2)

    return f(1.0) - f(r_lo)


def _resolves(r: np.ndarray, w: np.ndarray, alpha: float, r_lo: float) -> bool:
    _, j0, _ = jn_trio(0, alpha * r)
    quad = float(np.sum(w * j0 * j0))
    exact = _bessel_mass_exact(alpha, r_lo)
    return abs(quad - exact) <= _RULE_TOL * max(1.0, abs(exact))


def build_grid(n_radial, n_angular: int, r_lo: float = 0.0,
               validate_alpha: float | None = None) -> PolarGrid:
    """Quadrature grid on the annulus r_lo < r < 1 (full disk for r_lo = 0).

    With validate_alpha set, the radial rule is radial_rule's, started at
    n_radial nodes: the node count doubles until r * J_0(validate_alpha * r)^2
    integrates to within 1e-11 of the closed form, so oscillatory mode
    products up to that wavenumber are trusted.
    """
    if n_radial == "auto":
        n_radial = 32
    if n_radial < 4 or n_angular < 4 or n_angular % 2:
        raise GridError("need n_radial >= 4 and even n_angular >= 4")
    if not 0.0 <= r_lo < 1.0:
        raise GridError(f"r_lo {r_lo} outside [0, 1)")
    if validate_alpha is None:
        r, w = _gauss_radial(int(n_radial), r_lo)
    else:
        r, w = radial_rule(r_lo, validate_alpha, int(n_radial))
    return PolarGrid(r=r, w=w, n_angular=int(n_angular), r_lo=float(r_lo))


@lru_cache(maxsize=256)
def radial_rule(r_lo: float, alpha_max: float, n_start: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """Validated radial-only quadrature rule for mode products up to alpha_max."""
    n = n_start
    for _ in range(10):
        r, w = _gauss_radial(n, r_lo)
        if _resolves(r, w, alpha_max, r_lo):
            return r, w
        n *= 2
    raise GridError(f"radial rule not converged for alpha={alpha_max} on "
                    f"({r_lo}, 1)")


@dataclass
class SpectralCoeffs:
    """Complex mode coefficients over n = 0..n_theta, k = 1..n_r."""

    g: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=complex)
        if self.g.ndim != 2 or self.g.shape[1] < 1:
            raise ValueError("coefficient array must be 2-D (n_theta+1, n_r)")

    @property
    def n_theta(self) -> int:
        return self.g.shape[0] - 1

    @property
    def n_r(self) -> int:
        return self.g.shape[1]

    @classmethod
    def zeros(cls, n_theta: int, n_r: int, time: float = 0.0) -> "SpectralCoeffs":
        return cls(g=np.zeros((n_theta + 1, n_r), dtype=complex), time=time)

    def copy(self) -> "SpectralCoeffs":
        return SpectralCoeffs(g=self.g.copy(), time=self.time)

    def to_dict(self) -> dict:
        return {
            "time": float(self.time),
            "n_theta": self.n_theta,
            "n_r": self.n_r,
            "re": self.g.real.tolist(),
            "im": self.g.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralCoeffs":
        g = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        if g.shape != (int(d["n_theta"]) + 1, int(d["n_r"])):
            raise ValueError("coefficient snapshot shape mismatch")
        return cls(g=g, time=float(d["time"]))


@dataclass
class FieldSample:
    """Real samples of one field quantity on every grid point."""

    grid: PolarGrid
    quantity: str
    values: np.ndarray  # (ncomp, n_angular, n_radial)


def _reality_weights(n_theta: int) -> np.ndarray:
    w = np.full(n_theta + 1, 2.0)
    w[0] = 1.0
    return w


def _pairs(z: np.ndarray) -> np.ndarray:
    """Complex z[..., m] viewed as real (Re, Im) pairs, shape (..., m, 2)."""
    return z.view(np.float64).reshape(*z.shape, 2)


class Transform:
    """Between states g[n, k] (n <= nt, k <= nr) and samples on na angles
    times the radial nodes r (weights w): one real matmul per n of the
    stacked radial factors, the phases applied apart, and one FFT.
    Synthesis gives every quantity's components, exact pointwise at any na;
    projection takes the first quantity back, reading row n at n mod na.
    """

    def __init__(self, basis: StokesBasis, nt: int, nr: int, r: np.ndarray,
                 w: np.ndarray, na: int, quantities: tuple[str, ...]):
        self.nt, self.na = nt, na
        # synthesis keeps every m-th of m * na angles: row nt is below Nyquist
        self.m = -(-(2 * nt + 2) // na)
        # last quantity first: a gradient Bessel pass also fills velocity rows
        self.rows = {q: [basis.profile_matrix(n, r, q, k_max=nr) for n in range(nt + 1)]
                     for q in reversed(quantities)}
        # synthesis factors (component * q, k) and the first quantity's weighted
        # projection factors (k, component * q), filled per n to bound peak memory
        self.phase = np.array(sum((PHASES[q] for q in quantities), ()))[:, None]
        ncomp, nq = self.phase.shape[0], r.size
        stack = np.empty((nt + 1, ncomp, nq, nr))
        weighted = np.empty((nt + 1, nr, QUANTITIES[quantities[0]], nq))
        for n in range(nt + 1):
            np.concatenate([self.rows[q][n] for q in quantities], out=stack[n].swapaxes(1, 2))
            weighted[n] = (self.rows[quantities[0]][n] * w).swapaxes(0, 1)
        self.stack = stack.reshape(nt + 1, ncomp * nq, nr)
        self.weighted = weighted.reshape(nt + 1, nr, -1)
        alias = np.arange(nt + 1) % na
        self._fold = alias > na // 2  # read as the conjugate of na - alias
        self._alias = np.where(self._fold, na - alias, alias)
        # reused buffers: fresh ones this size are page-faulted anew whenever
        # the heap is trimmed.  Spectrum rows above nt stay zero.
        self._spec = np.zeros((self.m * na // 2 + 1, ncomp, nq), dtype=complex)
        self._phys = np.empty((self.m * na, ncomp, nq))

    def synthesize(self, g: np.ndarray) -> np.ndarray:
        """Real samples of g, shape (na, components, q); row 0 is read as
        real.  The result is a view of a buffer the next call overwrites."""
        nt, spec = self.nt, self._spec
        g = np.ascontiguousarray(g, dtype=complex)
        np.matmul(self.stack, _pairs(g), out=_pairs(spec[: nt + 1].reshape(nt + 1, -1)))
        spec[: nt + 1] *= self.phase
        np.fft.irfft(spec, n=self.m * self.na, axis=0, norm="forward", out=self._phys)
        return self._phys[:: self.m]

    def project(self, vals: np.ndarray) -> np.ndarray:
        """Mode coefficients (nt+1, nr) of real samples (na, components, q)
        of the first quantity: the quadrature of <field, mode>."""
        spec = np.fft.rfft(vals, axis=0, norm="forward")
        what = spec[self._alias]
        what[self._fold] = np.conj(what[self._fold])
        what *= np.conj(self.phase[: what.shape[1]])
        out = np.matmul(self.weighted, _pairs(what.reshape(self.nt + 1, -1)))
        return 2.0 * np.pi * (out[..., 0] + 1j * out[..., 1])


def synthesize(coeffs: SpectralCoeffs, grid: PolarGrid, basis: StokesBasis,
               quantity: str = "vorticity") -> FieldSample:
    """Real physical field of the coefficient state on the grid."""
    nt = coeffs.n_theta
    if nt > basis.n_max or coeffs.n_r > basis.k_max:
        raise ValueError("coefficient truncation exceeds basis table")
    if nt > grid.n_angular // 2 - 1:
        warnings.warn("angular band exceeds grid Nyquist; field will alias")
    tf = Transform(basis, nt, coeffs.n_r, grid.r, grid.w, grid.n_angular, (quantity,))
    return FieldSample(grid, quantity, tf.synthesize(coeffs.g).transpose(1, 0, 2))


def project(sample: FieldSample, basis: StokesBasis, n_theta: int,
            n_r: int) -> SpectralCoeffs:
    """Mode coefficients of a vorticity sample on a full-disk grid."""
    grid = sample.grid
    if sample.quantity != "vorticity":
        raise ValueError("projection is defined for vorticity samples")
    if grid.r_lo != 0.0:
        raise GridError("projection requires a full-disk grid")
    if n_theta > grid.n_angular // 2 - 1:
        warnings.warn("angular band exceeds grid Nyquist; projection will alias")
    tf = Transform(basis, n_theta, n_r, grid.r, grid.w, grid.n_angular, ("vorticity",))
    g = tf.project(sample.values.transpose(1, 0, 2))
    g[0] = g[0].real
    return SpectralCoeffs(g=g, time=0.0)


def norm_sq_series(g: np.ndarray, basis: StokesBasis | None, quantity: str,
                   rule: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Squared L2 norms of the coefficient states g[..., n, k].

    With rule=None this is the Parseval sum over the whole disk (vorticity,
    gradient, velocity); with a radial rule (r, w) on (r_lo, 1) it is the
    per-angular-mode quadrature over the annulus r_lo < r < 1.  Leading
    axes of g are kept, so a stack of states gives one norm per state.  The
    vorticity and gradient Parseval sums need no basis.
    """
    nt, nr = g.shape[-2] - 1, g.shape[-1]
    wr = _reality_weights(nt)
    if rule is None:
        if quantity not in ("vorticity", "gradient", "velocity"):
            raise ValueError(f"no Parseval identity for quantity {quantity!r}")
        mag = wr[:, None] * np.abs(g) ** 2
        if quantity == "velocity":
            mag = mag / basis.lam[: nt + 1, :nr]
        return np.sum(mag, axis=(-2, -1))
    r, w = rule
    out = np.zeros(g.shape[:-2])
    for n in range(nt + 1):
        gn = g[..., n, :]
        if not np.any(gn):
            continue
        prof = basis.profile_matrix(n, r, quantity, k_max=nr)
        # the phases have unit modulus, so |g . prof|^2 is the sum of the
        # squares of (Re g) . prof and (Im g) . prof
        c = np.tensordot(np.stack([gn.real, gn.imag]), prof, axes=(-1, 1))
        out += wr[n] * np.sum(w * c * c, axis=(0, -2, -1))
    return 2.0 * np.pi * out


def norm_l2(source, basis: StokesBasis | None = None, quantity: str = "vorticity",
            delta: float | None = None) -> float:
    """Squared L2 norm over the disk (delta=None) or the layer 1-delta < r < 1.

    Coefficient input uses the Parseval identities on the full disk for
    vorticity, velocity, and gradient, and a per-angular-mode radial
    quadrature otherwise.  Sample input integrates on the sample's own grid
    (delta must then be None: the region is the grid's region).
    """
    if isinstance(source, FieldSample):
        if delta is not None:
            raise ValueError("sample input integrates over its own grid region")
        return inner_product(source, source).real
    if not isinstance(source, SpectralCoeffs):
        raise TypeError("source must be SpectralCoeffs or FieldSample")
    if basis is None:
        raise ValueError("coefficient norms need the basis")
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity in ("dtau_utau", "dtau_un") and (delta is None or delta >= 1.0):
        # (1/r) d_theta of an n >= 1 mode is not square-integrable across
        # the pole; these norms exist on boundary layers only
        raise ValueError("tangential-gradient norms need a layer width < 1")
    if delta is None:
        return float(norm_sq_series(source.g, basis, quantity))
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"layer width {delta} outside (0, 1]")
    alpha_max = float(basis.alpha[: source.n_theta + 1, : source.n_r].max())
    rule = radial_rule(1.0 - delta, alpha_max)
    return float(norm_sq_series(source.g, basis, quantity, rule))


def inner_product(a: FieldSample, b: FieldSample) -> complex:
    """Quadrature inner product of two samples on the same grid."""
    if not a.grid.same_as(b.grid):
        raise GridError("samples live on different grids")
    if a.values.shape != b.values.shape:
        raise GridError("samples have different component counts")
    wth = 2.0 * np.pi / a.grid.n_angular
    return complex(wth * np.sum(a.grid.w[None, None, :] * a.values * np.conj(b.values)))


def mode_inner_product(basis: StokesBasis, mode_a: tuple[int, int],
                       mode_b: tuple[int, int], quantity: str = "vorticity",
                       delta: float = 1.0) -> complex:
    """Inner product of two complex basis modes over a boundary layer.

    Integrates the actual complex mode values on a tensor grid, so the
    angular cancellation between different angular indices is exercised
    numerically rather than assumed.
    """
    (m, j), (n, k) = mode_a, mode_b
    n_angular = 2 * max(m, n) + 4
    pair_a, pair_b = basis.pair(m, j), basis.pair(n, k)
    r, w = radial_rule(1.0 - delta, max(pair_a.alpha, pair_b.alpha), 64)
    pa = pair_profile(pair_a, r, quantity)
    pb = pair_profile(pair_b, r, quantity)
    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    ang = np.sum(np.exp(1j * (m - n) * th)) * (2.0 * np.pi / n_angular)
    rad = complex(np.sum(w[None, :] * pa * pb))  # real factors; phases cancel
    return ang * rad

