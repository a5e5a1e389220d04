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

from .basis import PHASES, QUANTITIES, StokesBasis, radial_profiles
from .bessel import _BLOCK, jn_trio

_RULE_TOL = 1.0e-11
_MASS_TOL = 1.0e-11  # above the velocity's cancellation floor, 7.5e-13 at 48 nodes
_MASS_MAX_NODES = 1024


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


def _legval(x: np.ndarray, c: list) -> np.ndarray:
    """The Legendre series c at x by numpy's Clenshaw loop, op for op."""
    c0, c1 = c[-2:] if len(c) > 1 else (c[0], 0)
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


# numpy's leggauss op for op, so no command imports numpy.polynomial (a test
# pins the bits): eigenvalues of the symmetric companion matrix (Golub &
# Welsch 1969), one Newton step, weights from P_{deg-1}.  About 0.12 ms at 10
# nodes and 2.2 ms at 132; a lemma scan asks for a few counts thousands of times.
@lru_cache(maxsize=64)
def _leggauss(deg: int) -> tuple[np.ndarray, np.ndarray]:
    scl = 1.0 / np.sqrt(2 * np.arange(deg) + 1)
    mat = np.zeros((deg, deg))
    mat.flat[1 :: deg + 1] = mat.flat[deg :: deg + 1] = np.arange(1, deg) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(mat)
    # P_deg' = sum (2k + 1) P_k over k = deg-1, deg-3, ...: exact coefficients
    df = _legval(x, [float(2 * k + 1) if (deg - k) % 2 else 0.0 for k in range(deg)])
    x -= _legval(x, [0.0] * deg + [1.0]) / df
    fm = _legval(x, [0.0] * (deg - 1) + [1.0])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    return x, w * (2.0 / w.sum())


def _gauss_radial(n_radial: int, r_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on (r_lo, 1); the weights include the Jacobian r."""
    xi, wq = _leggauss(n_radial)
    half = 0.5 * (1.0 - r_lo)
    r = r_lo + half * (xi + 1.0)
    return r, half * wq * r


def _resolves(n_radial: int, alpha: float, r_lo: float) -> bool:
    # x J_0(a x)^2 integrates to (x^2/2)(J_0(a x)^2 + J_1(a x)^2); one Bessel
    # pass covers the nodes and then both end points
    r, w = _gauss_radial(n_radial, r_lo)
    _, j0, j1 = jn_trio(0, alpha * np.append(r, (r_lo, 1.0)))
    f = 0.5 * np.array([r_lo, 1.0]) ** 2 * (j0[-2:] ** 2 + j1[-2:] ** 2)
    quad, exact = float(np.sum(w * j0[:-2] ** 2)), float(f[1] - f[0])
    return abs(quad - exact) <= _RULE_TOL * max(1.0, abs(exact))


def build_grid(n_radial, n_angular: int, r_lo: float = 0.0,
               validate_alpha: float | None = None) -> PolarGrid:
    """Quadrature grid on the annulus r_lo < r < 1 (full disk for r_lo = 0).

    With validate_alpha set, the radial rule is radial_rule's with n_radial
    as its floor: the fewest nodes, at least n_radial, for which
    r * J_0(validate_alpha * r)^2 integrates to within 1e-11 of the closed
    form, so oscillatory mode products up to that wavenumber are trusted.
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
    """Gauss rule (r, w) on (r_lo, 1) for mode products up to alpha_max with
    the fewest nodes >= n_start that pass _resolves.  The count is predicted
    from a = alpha_max (1 - r_lo), a product of frequency and length; the
    search walks from there, down while one node fewer passes, or else up to
    the first count that passes, so it takes the check to be monotone near
    the answer.  The J_0 check passes 4 nodes at delta = 0.01, n = 24,
    which miss the layer norms by 2e-7 relative, so 48 is the floor here;
    layer_masses sizes the lemma scans' rules by self-convergence instead."""
    if not (np.isfinite(r_lo) and np.isfinite(alpha_max)):
        raise GridError(f"radial rule needs finite r_lo and alpha, got "
                        f"({r_lo}, {alpha_max})")
    cap = n_start * 2**9
    a = alpha_max * (1.0 - r_lo)
    n = min(max(n_start, round(0.5 * a + 3.0 * np.cbrt(a) + 2.0)), cap)
    if _resolves(n, alpha_max, r_lo):
        while n > n_start and _resolves(n - 1, alpha_max, r_lo):
            n -= 1
        return _gauss_radial(n, r_lo)
    for n in range(n + 1, cap + 1):
        if _resolves(n, alpha_max, r_lo):
            return _gauss_radial(n, r_lo)
    raise GridError(f"radial rule not converged for alpha={alpha_max} on ({r_lo}, 1)")


def layer_rule(delta, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rules (r, w) on the layers 1 - delta < r < 1, one per width
    along a new last axis, for mode products up to the largest of alphas.
    All take radial_rule's node count for the widest layer, which resolves
    every thinner one; a scalar width gets radial_rule's rule itself."""
    delta = np.asarray(delta, dtype=float)
    if not np.all(ok := (delta > 0.0) & (delta <= 1.0)):
        raise ValueError(f"layer width {delta[~ok].flat[0]} outside (0, 1]")
    rule = radial_rule(1.0 - float(delta.max()), float(np.max(alphas)))
    return rule if delta.ndim == 0 else _gauss_radial(rule[0].size, 1.0 - delta[..., None])


def _lane_masses(basis: StokesBasis, n, k, delta, quantity: str, q) -> np.ndarray:
    """2 pi int sum_c P_c(r)^2 r dr over 1 - delta[i] < r < 1 for the radial
    factors P of the modes (n[i], k[i]) on q[i]-node Gauss rules: one Bessel
    pass per block of whole lanes of at most _BLOCK nodes."""
    mass, end = np.empty(q.size), np.cumsum(q)
    lo = 0
    while lo < q.size:
        b = slice(lo, int(np.searchsorted(end, end[lo] - q[lo] + _BLOCK, side="right")))
        at = np.cumsum(q[b]) - q[b]
        r, w = np.empty((2, int(q[b].sum())))
        for c in set(q[b].tolist()):
            sel = np.flatnonzero(q[b] == c)
            idx = at[sel, None] + np.arange(c)
            r[idx], w[idx] = _gauss_radial(c, 1.0 - delta[b][sel, None])
        nl, jl = np.repeat(n[b], q[b]), np.repeat(k[b] - 1, q[b])
        prof = radial_profiles(nl, basis.alpha[nl, jl], basis.c_signed[nl, jl],
                               r[:, None], quantity)[quantity]
        mass[b] = 2.0 * np.pi * np.add.reduceat(w * np.sum(prof[:, :, 0] ** 2, axis=0), at)
        lo = b.stop
    return mass


def layer_masses(basis: StokesBasis, n, k, delta,
                 quantity: str) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms of the modes (n, k) over the layers 1 - delta < r < 1,
    arrays that broadcast to lanes, and each lane's Gauss node count.  From q
    = max(5, ceil(a/2 + 3.5 a^(1/3) + 1.9)), a = alpha delta, a lane's q- and
    ceil(1.5 q)-node masses come from one Bessel pass; it keeps the finer
    once they agree to _MASS_TOL relative (self-convergence: Davis &
    Rabinowitz, Methods of Numerical Integration, 4.8), else reruns at
    ceil(1.5 q), up to _MASS_MAX_NODES.  The start bounds the counts the
    vorticity lanes of the lemma scans need at n = k = 30 (a <= 24), so
    all but one pass at once, and it keeps 5 for a <= 1/2."""
    n, k, delta = (np.ravel(v) for v in np.broadcast_arrays(n, k, delta))
    a = basis.alpha[n, k - 1] * delta
    q = np.maximum(5, np.ceil(0.5 * a + 3.5 * np.cbrt(a) + 1.9)).astype(int)
    mass, todo = np.empty(n.size), np.arange(n.size)
    while todo.size:
        fine = (3 * q[todo] + 1) // 2
        if fine.max() > _MASS_MAX_NODES:
            i = todo[np.argmax(fine)]
            raise GridError(f"layer mass of mode ({n[i]}, {k[i]}) at width {delta[i]:.6g} "
                            f"not converged at {_MASS_MAX_NODES} nodes")
        two = np.repeat(todo, 2)  # each lane at q and at ceil(1.5 q) nodes
        m = _lane_masses(basis, n[two], k[two], delta[two], quantity,
                         np.stack([q[todo], fine], axis=1).ravel()).reshape(-1, 2)
        ok = np.abs(m[:, 0] - m[:, 1]) <= _MASS_TOL * np.abs(m[:, 1])
        mass[todo[ok]] = m[ok, 1]
        q[todo] = fine
        todo = todo[~ok]
    return mass, q


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
        if not np.all(np.isfinite(g)):
            raise ValueError("coefficient snapshot holds non-finite values")
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


def pairing(a: np.ndarray, *weights, b=None, buf=None, rows=None) -> list:
    """The reality-weighted Parseval pairing sum_n wr_n sum_k w[..., n, k]
    Re(conj(a) b) of coefficients a[..., n, k] and b (a itself by default,
    with no complex temporary) for each weight w, leading axes kept; wr_n
    is 2 on the rows n >= 1 that stand for their conjugates, 1 on row 0,
    and rows lists a's rows n (default all).  The products are formed once,
    in the float buffer buf[:s] when given, and each weight multiplies them
    in place in turn: weights 1 and 1/lam give |omega|^2 and |u|^2.  A sum
    spans the last two axes at once, whatever the leading axes' sizes."""
    shape = np.broadcast(a, *weights).shape
    out = np.empty(shape) if buf is None else buf[: shape[0]]
    p = out if a.shape == shape else np.empty(a.shape)
    p = np.square(np.abs(a, out=p), out=p) if b is None else (a.conj() * b).real
    wr = _reality_weights(a.shape[-2] - 1 if rows is None else max(rows, default=0))
    np.multiply(p, wr[:, None] if rows is None else wr[rows, None], out=p)
    return [(p := np.multiply(p, w, out=out)).sum(axis=(-2, -1)) for w in weights]


def _pairs(z: np.ndarray) -> np.ndarray:
    """Complex z[..., m] viewed as real (Re, Im) pairs, shape (..., m, 2)."""
    return z.view(np.float64).reshape(*z.shape, 2)


class Transform:
    """Between states g[n, k] (n <= nt, k <= nr) and samples on na angles
    times the radial nodes r (weights w): real matmuls of the stacked radial
    factors and one FFT.  Synthesis gives every quantity's components, exact
    pointwise at any na, one matmul per run of stack rows of equal phase,
    whose right-hand side is g or i g.  Projection takes the first quantity
    back, reading row n at n mod na: its kept FFT rows times one complex
    factor 2 pi conj(phase) w per component and node, then that quantity's
    rows of the same stack transposed (proj).  Each row comes from one
    profile_matrix pass of the first quantity, which must return the others
    (a velocity pass also gives the vorticity).  A call works in three
    buffers: the spectrum, the synthesis grid, which a caller may overwrite
    and project in place, and the rfft rows, which take the factor in
    place; only a folding grid makes a per-call array.
    """

    def __init__(self, basis: StokesBasis, nt: int, nr: int, r: np.ndarray,
                 w: np.ndarray, na: int, quantities: tuple[str, ...]):
        self.nt, self.na = nt, na
        # synthesis keeps every m-th of m * na angles: row nt is below Nyquist
        self.m = -(-(2 * nt + 2) // na)
        phase = sum((PHASES[q] for q in quantities), ())
        ncomp, nq, nc0 = len(phase), r.size, QUANTITIES[quantities[0]]
        # stack rows [a, b) of one phase, which is 1 or i
        cut = [0, *(c for c in range(1, ncomp) if phase[c] != phase[c - 1]), ncomp]
        self._runs = [(a * nq, b * nq, phase[a] == 1j) for a, b in zip(cut, cut[1:])]
        self._factor = 2.0 * np.pi * np.conj(phase[:nc0])[:, None] * w
        # synthesis factors (component * q, k), filled per n to bound peak memory
        stack = np.empty((nt + 1, ncomp, nq, nr))
        self.rows = stack.swapaxes(2, 3)  # (n, component, k, q) view
        for n in range(nt + 1):
            profs = basis.profile_matrix(n, r, quantities[0], k_max=nr)
            np.concatenate([profs[q] for q in quantities], out=self.rows[n])
        self.stack = stack.reshape(nt + 1, ncomp * nq, nr)
        self.proj = self.stack[:, : nc0 * nq].swapaxes(1, 2)  # (n, k, component * q)
        alias = np.arange(nt + 1) % na
        fold = alias > na // 2  # read as the conjugate of na - alias
        self._alias, self._folds = np.where(fold, na - alias, alias), np.flatnonzero(fold)
        # reused buffers: fresh ones this size are page-faulted anew whenever
        # the heap is trimmed.  Spectrum rows above nt stay zero: a spectrum of
        # rows 0..nt only, which irfft pads itself, made convective 20% slower.
        self._spec = np.zeros((self.m * na // 2 + 1, ncomp, nq), dtype=complex)
        self._phys = np.empty((self.m * na, ncomp, nq))
        self._rspec = np.empty((na // 2 + 1, nc0, nq), dtype=complex)

    def synthesize(self, g: np.ndarray) -> np.ndarray:
        """Real samples of g, shape (na, components, q); row 0 is read as
        real.  The result is a view of a buffer the next call overwrites."""
        nt, spec = self.nt, self._spec
        g = np.ascontiguousarray(g, dtype=complex)
        rows = spec[: nt + 1].reshape(nt + 1, -1)
        for a, b, rotate in self._runs:  # i g only swaps and negates: exact
            np.matmul(self.stack[:, a:b], _pairs(1j * g if rotate else g),
                      out=_pairs(rows[:, a:b]))
        np.fft.irfft(spec, n=self.m * self.na, axis=0, norm="forward", out=self._phys)
        return self._phys[:: self.m]

    def project(self, vals: np.ndarray) -> np.ndarray:
        """Mode coefficients (nt+1, nr) of real samples (na, components, q)
        of the first quantity: the quadrature of <field, mode>.  vals is
        left unchanged; it may be a view of the synthesis grid."""
        np.fft.rfft(vals, axis=0, norm="forward", out=self._rspec)
        if not self._folds.size:  # row n is read at n: its kept rows take the factor
            what = self._rspec[: self.nt + 1]
        else:
            what = np.take(self._rspec, self._alias, axis=0)
            what[self._folds] = np.conj(what[self._folds])
        what *= self._factor
        out = np.matmul(self.proj, _pairs(what.reshape(self.nt + 1, -1)))
        return out.view(complex)[..., 0]


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


def live_rows(g: np.ndarray) -> np.ndarray:
    """The rows n of g[..., n, k] that hold a nonzero coefficient."""
    return np.flatnonzero(np.any(g, axis=(*range(g.ndim - 2), -1)))


def gram(basis: StokesBasis, rows: np.ndarray, quantity: str,
         rule: tuple[np.ndarray, np.ndarray], k_max: int) -> np.ndarray:
    """Gram matrices 2 pi sum_c P_c diag(w) P_c^T of the real radial factors
    P of the modes (n, 1..k_max), one per n in rows, on the radial rule (r,
    w), shape (len(rows), k_max, k_max): row n of a state adds Re(conj(g_n)
    . G_n . g_n), doubled for n >= 1, to the squared norm over the rule's
    annulus.  One gradient radial_profiles pass, with one order per mode,
    builds all five quantities' stacks (it refuses any other), memoized in
    _gram_stacks, so every kind of a trace on one rule shares a pass.  No
    rows, no pass."""
    rows = np.asarray(rows, dtype=np.intp)
    if not rows.size:
        return np.zeros((0, k_max, k_max))
    return _gram_stacks(basis, rows.tobytes(), k_max,
                        tuple(np.asarray(v, float).tobytes() for v in rule),
                        "gradient" if quantity in QUANTITIES else quantity)[quantity]


@lru_cache(maxsize=2)  # a trace's kinds use two rules, the thin and the wide layer's
def _gram_stacks(basis: StokesBasis, rows: bytes, k_max: int, rule: tuple[bytes, bytes],
                 quantity: str) -> dict[str, np.ndarray]:
    """gram's stacks of every quantity one pass gives, keyed on exact bytes."""
    rows, (r, w) = np.frombuffer(rows, np.intp), map(np.frombuffer, rule)
    profs = radial_profiles(np.repeat(rows, k_max), basis.alpha[rows, :k_max].ravel(),
                            basis.c_signed[rows, :k_max].ravel(), r, quantity)
    stacks = {}
    for q, prof in profs.items():
        p = prof.reshape(prof.shape[0], rows.size, k_max, r.size)
        stacks[q] = 2.0 * np.pi * np.sum((p * w) @ p.swapaxes(2, 3), axis=0)
    return stacks


def norm_sq_series(g: np.ndarray, basis: StokesBasis | None, quantity: str,
                   rule: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Squared L2 norms of the coefficient states g[..., n, k].

    With rule=None this is the Parseval sum over the whole disk (vorticity,
    gradient, velocity); with a radial rule (r, w) on (r_lo, 1) it is the
    quadrature over the annulus r_lo < r < 1, each live row paired with its
    image under gram's stack.  Both are pairings.  Leading axes of g are
    kept, so a stack of states gives one norm per state.  The vorticity and
    gradient Parseval sums need no basis.
    """
    if rule is None:
        if quantity not in ("vorticity", "gradient", "velocity"):
            raise ValueError(f"no Parseval identity for quantity {quantity!r}")
        lam = basis.lam[: g.shape[-2], : g.shape[-1]] if quantity == "velocity" else 1.0
        return pairing(g, 1.0 / lam)[0]
    rows = live_rows(g)
    gl = np.ascontiguousarray(g[..., rows, :], dtype=complex)
    ggl = (gram(basis, rows, quantity, rule, g.shape[-1]) @ _pairs(gl)).view(complex)[..., 0]
    return pairing(gl, 1.0, b=ggl, rows=rows)[0]


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
    rule = layer_rule(delta, basis.alpha[: source.n_theta + 1, : source.n_r])
    return float(norm_sq_series(source.g, basis, quantity, rule))


def inner_product(a: FieldSample, b: FieldSample) -> complex:
    """Quadrature inner product of two samples on the same grid."""
    if not a.grid.same_as(b.grid):
        raise GridError("samples live on different grids")
    if a.values.shape != b.values.shape:
        raise GridError("samples have different component counts")
    wth = 2.0 * np.pi / a.grid.n_angular
    return complex(wth * np.sum(a.grid.w[None, None, :] * a.values * np.conj(b.values)))


def mode_inner_product(basis: StokesBasis, mode_a, mode_b,
                       quantity="vorticity", delta=1.0):
    """Inner product of two complex basis modes over a boundary layer.

    Integrates the actual complex mode values on a tensor grid, so the
    angular cancellation between different angular indices is exercised
    numerically rather than assumed.  The orders and indices of mode_a and
    mode_b, and delta, may also be arrays that broadcast to P pairs; the
    result is then an array of P inner products, evaluated with one
    radial_profiles call per side of the pairs.  A tuple of quantities
    gives a list of one result per quantity from the same passes, which
    the first quantity's must return (a velocity pass gives the vorticity).
    """
    quantities = (quantity,) if isinstance(quantity, str) else tuple(quantity)
    scalar = all(np.ndim(v) == 0 for v in (*mode_a, *mode_b, delta))
    m, j, n, k, delta = np.broadcast_arrays(*np.atleast_1d(*mode_a, *mode_b, delta))
    orders, idx = np.concatenate([m, n]), np.concatenate([j, k])
    for o, i in zip(orders.tolist(), idx.tolist()):
        basis._check(o, i)
    r, w = layer_rule(delta, basis.alpha)
    pa, pb = (radial_profiles(o, basis.alpha[o, i - 1], basis.c_signed[o, i - 1], r,
                              quantities[0]) for o, i in ((m, j), (n, k)))
    if missing := [q for q in quantities if q not in pa]:
        raise ValueError(f"a {quantities[0]} pass does not give {', '.join(missing)}")
    na = 2 * np.maximum(m, n) + 4
    ang = np.array([np.sum(np.exp(1j * d * (2.0 * np.pi * np.arange(a) / a)))
                    * (2.0 * np.pi / a) for d, a in zip((m - n).tolist(), na.tolist())])
    # phases cancel
    out = [ang * np.sum(w * pa[q] * pb[q], axis=(0, 2)) for q in quantities]
    out = [complex(v[0]) for v in out] if scalar else out
    return out[0] if isinstance(quantity, str) else out
