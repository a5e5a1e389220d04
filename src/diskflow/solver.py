"""Time integration of the spectrally projected flow equations.

Each mode coefficient obeys g' = -nu * lam * g + lam * (f - N(g)), where
N(g) is the convective term projected onto the mode and f a forcing
coefficient.  The viscous factor is integrated exactly with exp(-nu lam dt)
and the rest with a two-stage explicit (Heun) rule in the integrating-factor
variable, so linear runs reproduce the per-mode exponential decay to
roundoff.  Of u.grad(u) = grad(|u|^2/2) + omega z x u (rotation form) only
omega z x u is formed, pointwise on a dealiased grid: the gradient projects
to zero on modes that are divergence-free and vanish on the wall.  It is
orthogonal to u at every node, so the energy flux is zero to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import StokesBasis, stokes_basis
from .field import (SpectralCoeffs, Transform, _reality_weights, norm_sq_series,
                    radial_rule)


class SolverInstability(RuntimeError):
    """Norm grew by more than 10x in a single step, beyond what the forcing
    alone supplies."""


@dataclass
class ForcingSeries:
    """In-band forcing coefficients given at sample times, interpolated linearly."""

    times: np.ndarray
    g: np.ndarray  # (T, n_theta+1, n_r)

    def at(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.g[0]
        if t >= ts[-1]:
            return self.g[-1]
        i = int(np.searchsorted(ts, t)) - 1
        s = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - s) * self.g[i] + s * self.g[i + 1]


@dataclass
class SimConfig:
    nu: float
    t_end: float
    n_theta: int
    n_r: int
    dt: float | None = None
    init: object = "radial-1"        # preset name or SpectralCoeffs
    linear: bool = False
    forcing: ForcingSeries | None = None
    seed: int = 0
    amplitude: float = 0.1
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("nu", "t_end", "dt", "amplitude"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.nu <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.n_theta < 0 or self.n_r < 1:
            raise ValueError("truncation must satisfy n_theta >= 0, n_r >= 1")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive (or None for automatic)")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class SimTrace:
    """Sampled history of one run: times, coefficients, and scalar series."""

    nu: float
    times: np.ndarray
    g: np.ndarray             # (S, n_theta+1, n_r) complex
    u_norm_sq: np.ndarray
    w_norm_sq: np.ndarray
    visc_cum: np.ndarray      # 2 nu * integral of |omega|^2 up to each time
    energy_in: np.ndarray     # 2 * integral of <f, u> up to each time
    flux: np.ndarray          # convective energy flux <u.grad u, u> per sample
    failed: bool = False
    message: str = ""

    @property
    def n_samples(self) -> int:
        return self.times.size

    def coeffs_at(self, i: int) -> SpectralCoeffs:
        return SpectralCoeffs(g=self.g[i].copy(), time=float(self.times[i]))

    @cached_property
    def moments(self) -> np.ndarray:
        """Time moments H[w, n] = Re(g_n^H diag(c_w) g_n), shape (2,
        n_theta+1, n_r, n_r), with c_0 the trapezoid weights of the samples
        and c_1 those of every second sample (the halved trace): the time
        integral of a squared norm is linear in H.  Formed once per trace;
        all-zero rows of g give zero rows."""
        c = np.zeros((2, 1, self.n_samples))
        for w, t in enumerate((self.times, self.times[::2])):
            c[w, 0, :: w + 1] = 0.5 * (np.diff(t, prepend=t[0]) + np.diff(t, append=t[-1]))
        out = np.zeros((2, self.g.shape[1], self.g.shape[2], self.g.shape[2]))
        for n, gn in enumerate(self.g.swapaxes(0, 1)):
            if np.any(gn):
                out[:, n] = (np.conj(gn.T) * c @ gn).real
        return out

    def with_coeffs(self, gnew: np.ndarray) -> "SimTrace":
        """Same sampling, different coefficient history (for truncations)."""
        return replace(self, g=gnew)


def make_initial(name: str, n_theta: int, n_r: int, seed: int = 0,
                 amplitude: float = 0.1) -> SpectralCoeffs:
    """Named initial states: 'radial-1', 'radial-mix', or 'generic'."""
    c = SpectralCoeffs.zeros(n_theta, n_r)
    if name == "radial-1":
        c.g[0, 0] = 1.0
    elif name == "radial-mix":
        for k in range(1, min(8, n_r) + 1):
            c.g[0, k - 1] = 1.0 / k
    elif name == "generic":
        rng = np.random.default_rng(seed)
        bn = min(8, n_theta)
        bk = min(8, n_r)
        blk = rng.standard_normal((bn + 1, bk)) + 1j * rng.standard_normal((bn + 1, bk))
        blk[0] = blk[0].real
        c.g[: bn + 1, :bk] = blk
        scale = np.sqrt(norm_sq_series(c.g, None, "vorticity"))
        c.g *= amplitude / scale
    else:
        raise ValueError(f"unknown initial-condition preset {name!r}")
    return c


class _Engine:
    """Per-run workspace: grids, profiles, and the convective projection."""

    def __init__(self, config: SimConfig, basis: StokesBasis):
        nt, nr = config.n_theta, config.n_r
        if nt > basis.n_max or nr > basis.k_max:
            raise ValueError("truncation exceeds basis table")
        self.nt, self.nr = nt, nr
        self.basis = basis
        self.lam = basis.lam[: nt + 1, :nr].copy()
        self.wr = _reality_weights(nt)
        self.linear = config.linear
        self.forcing = config.forcing
        if self.linear:  # no convective term: no grid and no profiles
            return
        self.na = max(16, 3 * nt + 4 + nt % 2)  # even, dealiases the product
        # convective projection integrands oscillate at ~3x the band limit
        self.wavenumber = 1.5 * float(basis.alpha[: nt + 1, :nr].max())
        self.r, self.w = radial_rule(0.0, self.wavenumber)
        self.tf = Transform(basis, nt, nr, self.r, self.w, self.na,
                            ("velocity", "vorticity"))
        # prof_g holds the vorticity rows; perfbench reads it by that name
        self.prof_u, self.prof_g = self.tf.rows["velocity"], self.tf.rows["vorticity"]
        self.proj = list(self.tf.weighted)  # per-n views

    def norms(self, g: np.ndarray) -> tuple[float, float]:
        return (float(norm_sq_series(g, self.basis, "velocity")),
                float(norm_sq_series(g, self.basis, "vorticity")))

    def convective(self, g: np.ndarray) -> np.ndarray:
        """Projection of u.grad(u), as omega z x u, onto every mode."""
        phys = self.tf.synthesize(g)  # (u^r, u^theta, omega) per node
        return self.tf.project(phys[:, 2:] * np.stack([-phys[:, 1], phys[:, 0]], axis=1))

    def flux(self, g: np.ndarray, h: np.ndarray) -> float:
        """Reality-weighted pairing: the flux <N(g), u> for h = N(g), the
        power <f, u> for h = f."""
        return float(np.sum(self.wr[:, None] * (np.conj(g) * h).real))

    def rhs(self, g: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        conv = np.zeros_like(g) if self.linear else self.convective(g)
        f = self.forcing.at(t) if self.forcing is not None else 0.0
        return self.lam * (f - conv), conv

    def heun(self, g: np.ndarray, phi: np.ndarray, t: float, dt: float,
             decay: np.ndarray, u2: float) -> tuple[np.ndarray, float, float]:
        """One exponential-Heun step of length dt from g at time t, where phi
        is rhs(g, t) and u2 is |u|^2 of g; returns the new state and its
        |u|^2 and |omega|^2.  Growth is judged against the larger of u2 and
        |u|^2 of the step without convection (u2 itself when unforced)."""
        gbar = decay * (g + dt * phi)
        phi2, _ = self.rhs(gbar, t + dt)
        gnew = decay * g + 0.5 * dt * (decay * phi + phi2)
        gnew[0] = gnew[0].real
        u2_new, w2_new = self.norms(gnew)
        ref = u2
        if self.forcing is not None:
            f0, f1 = self.forcing.at(t), self.forcing.at(t + dt)
            glin = decay * g + 0.5 * dt * self.lam * (decay * f0 + f1)
            ref = max(u2, float(norm_sq_series(glin, self.basis, "velocity")))
        if u2_new > 100.0 * ref + 1e-300:
            raise SolverInstability(
                f"norm grew {np.sqrt(u2_new / max(ref, 1e-300)):.2f}x in one step "
                f"at t={t:.6g} (dt={dt:.3g})")
        return gnew, u2_new, w2_new


def nonlinear_coeffs(coeffs: SpectralCoeffs, basis: StokesBasis | None = None) -> np.ndarray:
    """Projection of u.grad(u) onto every mode of the coefficient state.

    The rotation-form product omega z x u is formed pointwise on a dealiased
    tensor grid and projected back by quadrature; radial flows project to
    zero because that product is then radial and independent of theta.
    """
    basis = basis or stokes_basis(coeffs.n_theta, coeffs.n_r)
    cfg = SimConfig(nu=1.0, t_end=1.0, n_theta=coeffs.n_theta, n_r=coeffs.n_r)
    return _Engine(cfg, basis).convective(coeffs.g)


def default_dt(config: SimConfig, eng: _Engine,
               init: SpectralCoeffs) -> float:
    """Viscous splitting-error cap plus a CFL on the finest resolved scale."""
    dt = 0.25 / (config.nu * float(eng.lam.max()))
    if not config.linear:
        umax = float(np.abs(eng.tf.synthesize(init.g)[:, :2]).max())
        if umax > 0.0:
            dt = min(dt, 0.5 / (eng.wavenumber * umax))
    return min(dt, config.t_end)


def step(state: SpectralCoeffs, config: SimConfig, dt: float,
         basis: StokesBasis | None = None) -> SpectralCoeffs:
    """One exponential-Heun step of length dt."""
    eng = _Engine(config, basis or stokes_basis(config.n_theta, config.n_r))
    if state.g.shape != (config.n_theta + 1, config.n_r):
        raise ValueError("state truncation does not match config")
    u2, _ = eng.norms(state.g)
    phi, _ = eng.rhs(state.g, state.time)
    decay = np.exp(-config.nu * eng.lam * dt)
    gnew, _, _ = eng.heun(state.g, phi, state.time, dt, decay, u2)
    return SpectralCoeffs(g=gnew, time=state.time + dt)


def exact_linear_solution(init: SpectralCoeffs, basis: StokesBasis, nu: float,
                          t: float) -> SpectralCoeffs:
    """Unforced linear (Stokes) solution: every mode decays as exp(-nu lam t)."""
    return SpectralCoeffs(g=linear_trace(init, basis, nu, [t]).g[0], time=init.time + t)


def simulate(config: SimConfig, basis: StokesBasis | None = None) -> SimTrace:
    """Run to t_end, recording sampled coefficients and running integrals."""
    basis = basis or stokes_basis(config.n_theta, config.n_r)
    if isinstance(config.init, SpectralCoeffs):
        state = config.init.copy()
        if state.g.shape != (config.n_theta + 1, config.n_r):
            raise ValueError("initial coefficients do not match the truncation")
    else:
        state = make_initial(config.init, config.n_theta, config.n_r,
                             seed=config.seed, amplitude=config.amplitude)
    state.time = 0.0
    state.g[0] = state.g[0].real  # row 0 is read as real, from sample 0 on
    eng = _Engine(config, basis)
    dt = config.dt or default_dt(config, eng, state)
    n_steps = max(1, int(np.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / n_steps
    if config.linear and config.forcing is None:
        # an unforced step is exactly decay * g, so the closed form at the
        # step times is the run; its norm only shrinks, so it cannot fail
        keep = np.r_[0:n_steps:config.sample_stride, n_steps]
        return linear_trace(state, basis, config.nu, dt * keep)
    decay = np.exp(-config.nu * eng.lam * dt)
    # Per-step viscous dissipation uses the exact exponential profile of each
    # mode (averaged forward/backward), not the trapezoid rule: the fast
    # modes decay on scales well below any reasonable dt.
    fwd_w = (1.0 - decay**2) / eng.lam
    bwd_w = fwd_w / decay**2

    times, gs, u2s, w2s, viscs, eins, fluxes = [], [], [], [], [], [], []
    u2, w2 = eng.norms(state.g)
    visc = 0.0
    ein = 0.0
    phi, conv = eng.rhs(state.g, 0.0)
    fl = 0.0 if config.linear else eng.flux(state.g, conv)

    def record():
        times.append(state.time)
        gs.append(state.g.copy())
        u2s.append(u2)
        w2s.append(w2)
        viscs.append(visc)
        eins.append(ein)
        fluxes.append(fl)

    record()
    failed = False
    message = ""
    try:
        for i in range(1, n_steps + 1):
            t = state.time
            gnew, u2_new, w2_new = eng.heun(state.g, phi, t, dt, decay, u2)
            visc += 0.5 * float(
                np.sum(eng.wr[:, None] * (np.abs(state.g) ** 2 * fwd_w
                                          + np.abs(gnew) ** 2 * bwd_w)))
            if config.forcing is not None:  # running 2 int <f, u>, trapezoid
                ein += dt * (eng.flux(gnew, config.forcing.at(t + dt))
                             + eng.flux(state.g, config.forcing.at(t)))
            state = SpectralCoeffs(g=gnew, time=t + dt)
            u2, w2 = u2_new, w2_new
            phi, conv = eng.rhs(state.g, state.time)
            fl = 0.0 if config.linear else eng.flux(state.g, conv)
            if i % config.sample_stride == 0 or i == n_steps:
                record()
    except SolverInstability as exc:
        failed = True
        message = str(exc)
        record()

    return SimTrace(
        nu=config.nu,
        times=np.asarray(times),
        g=np.asarray(gs),
        u_norm_sq=np.asarray(u2s),
        w_norm_sq=np.asarray(w2s),
        visc_cum=np.asarray(viscs),
        energy_in=np.asarray(eins),
        flux=np.asarray(fluxes),
        failed=failed,
        message=message,
    )


def linear_trace(init: SpectralCoeffs, basis: StokesBasis, nu: float,
                 times: np.ndarray) -> SimTrace:
    """Closed-form unforced linear trace sampled at the given times: each
    mode decays as exp(-nu lam t) and visc_cum is exact; no energy input
    and no flux."""
    times = np.asarray(times, dtype=float)
    lam = basis.lam[: init.n_theta + 1, : init.n_r]
    wr = _reality_weights(init.n_theta)[:, None]
    t = times[:, None, None]
    g = init.g * np.exp(-nu * t * lam)
    visc = np.sum(wr * np.abs(init.g) ** 2 * (1.0 - np.exp(-2.0 * nu * lam * t)) / lam,
                  axis=(1, 2))
    zero = np.zeros(times.size)
    return SimTrace(nu=nu, times=times, g=g,
                    u_norm_sq=norm_sq_series(g, basis, "velocity"),
                    w_norm_sq=norm_sq_series(g, basis, "vorticity"),
                    visc_cum=visc, energy_in=zero, flux=zero)
