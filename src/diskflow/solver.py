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

import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import StokesBasis, stokes_basis
from .field import (SpectralCoeffs, Transform, block_buffer, live_rows, norm_sq_series,
                    pairing, radial_rule)


class _Schedule:
    """The indices 0, s, 2s, ... and last, for a stride s (0: 0 and last)."""

    def __init__(self, last: int, stride: int):
        self.last, self.every = last, stride or last or 1
        self.count = -(-last // self.every) + 1  # an int: exact past 2**63

    def __contains__(self, i) -> bool:
        return i % self.every == 0 or i == self.last

    def slot(self, i) -> int:
        """The position of i among the indices, or of the next index if i is not one."""
        return -(-i // self.every)

    def indices(self) -> np.ndarray:
        return np.r_[0:self.last:self.every, self.last]


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
    """Sampled history of one run: times, coefficients, and scalar series.

    The series cover every sample, and g the states of the samples in
    _Schedule(n_samples - 1, state_stride): states() and coeffs_at() serve
    these one at a time, and any other, so moments and vv_gap, raise
    ValueError.  A closed-form (unforced linear) trace is given g=None and
    no series, the initial state g0 and its eigenvalues lam, and computes
    each state g0 exp(-nu lam t) when it is read.  states() is every library
    reader's access to them; g itself is built in full, one block at a time,
    on first access, and the first read of any of u_norm_sq, w_norm_sq and
    visc_cum fills all three in one blocked pass."""

    nu: float
    times: np.ndarray
    g: np.ndarray | None      # (held, n_theta+1, n_r) complex, or None in closed form
    u_norm_sq: np.ndarray
    w_norm_sq: np.ndarray
    visc_cum: np.ndarray      # 2 nu * integral of |omega|^2 up to each time
    energy_in: np.ndarray     # 2 * integral of <f, u> up to each time
    flux: np.ndarray          # convective energy flux <u.grad u, u> per sample
    failed: bool = False
    message: str = ""
    g0: np.ndarray | None = None   # closed form: the state at t = 0
    lam: np.ndarray | None = None  # and the eigenvalues of its modes
    state_stride: int = 1          # g holds the samples of its _Schedule

    _lazy = ("g", "u_norm_sq", "w_norm_sq", "visc_cum")  # closed form: built when read

    def __post_init__(self):
        for name in self._lazy:
            if self.__dict__[name] is None:
                del self.__dict__[name]

    @np.errstate(over="ignore")  # nu lam t past a float: exp(-inf) = 0
    def __getattr__(self, name):
        if name not in self._lazy or self.__dict__.get("g0") is None:
            raise AttributeError(name)
        if name == "g":
            g = np.empty((self.n_samples, *self.g0.shape), complex)
            step = block_buffer(self.n_samples, self.g0.shape)[0]
            for i in range(0, self.n_samples, step):
                self.states(slice(i, i + step), out=g[i:i + step])
            self.g = g
            return g
        # the series in one complex and one float block per block of samples
        nu, lam, times = self.nu, self.lam, self.times
        step, buf = block_buffer(times.size, lam.shape)
        self.u_norm_sq, self.w_norm_sq, self.visc_cum = np.empty((3, times.size))
        g = np.empty((min(step, times.size), *lam.shape), complex)
        for i in range(0, times.size, step):
            s = slice(i, i + step)
            gs, f = self.states(s, out=g[: times[s].size]), buf[: times[s].size]
            np.exp(np.multiply(-2.0 * nu * lam, times[s, None, None], out=f), out=f)
            np.divide(np.subtract(1.0, f, out=f), lam, out=f)  # visc_cum's weight
            self.visc_cum[s] = pairing(self.g0, f, buf=buf)[0]
            self.w_norm_sq[s], self.u_norm_sq[s] = pairing(gs, 1.0, 1.0 / lam, buf=buf)
        return self.__dict__[name]

    @property
    def n_samples(self) -> int:
        return self.times.size

    @np.errstate(over="ignore")
    def states(self, s=slice(None), n=slice(None), out=None) -> np.ndarray:
        """The states g[s, n]: a view of the stored ones, or in closed form
        g0[n] exp(-nu lam[n] t) at the sample times t[s], into out if given."""
        if "g" in self.__dict__:
            return self.g[self._slot(s), n]
        lam = self.lam[n]
        t = self.times[s][(..., *(None,) * lam.ndim)]
        return np.multiply(self.g0[n], np.exp(f := np.multiply(-self.nu * t, lam), out=f),
                           out=out)

    def _slot(self, s):
        """Where g holds the states of samples s: s itself when g holds every
        sample, else the slot of the one held sample s in its _Schedule."""
        if (k := self.state_stride) == 1:
            return s
        held = _Schedule(self.n_samples - 1, k)
        if isinstance(s, (int, np.integer)) and (i := range(held.last + 1)[s]) in held:
            return held.slot(i)  # range: an IndexError past either end
        multiples = f"the multiples of {k}" if k else "0"
        raise ValueError(f"sample {s!r} is not held: a trace of state_stride {k} holds the states"
                         f" of samples {multiples} and the last, {held.last}, one at a time")

    def coeffs_at(self, i: int) -> SpectralCoeffs:
        return SpectralCoeffs(g=self.states(i).copy(), time=float(self.times[i]))

    @cached_property
    def moments(self) -> np.ndarray:
        """Time moments H[w, n] = Re(g_n^H diag(c_w) g_n), shape (2,
        n_theta+1, n_r, n_r), with c_0 the trapezoid weights of the samples
        and c_1 those of every second sample (the halved trace): the time
        integral of a squared norm is linear in H.  Formed once per trace,
        one product over the samples per live row and weight, from one reused
        (n_r, S) buffer, the weighted conjugate of a row; the other rows stay
        zero.  A closed-form row is live where g0 is, and its states are
        computed one row at a time into one reused (S, n_r) buffer."""
        c = np.zeros((2, 1, self.n_samples))
        for w, t in enumerate((self.times, self.times[::2])):
            c[w, ..., :: w + 1] = 0.5 * (np.diff(t, prepend=t[0]) + np.diff(t, append=t[-1]))
        nt1, nr = self.states(0).shape
        out = np.zeros((2, nt1, nr, nr))
        buf, gn = np.empty((nr, self.n_samples), complex), None
        for n in live_rows(self.__dict__.get("g", self.g0)):
            gn = self.states(slice(None), n, out=gn)  # (samples, k), reused in closed form
            for w in range(2):
                out[w, n] = (np.multiply(np.conj(gn.T, out=buf), c[w], out=buf) @ gn).real
        return out

    def with_coeffs(self, gnew: np.ndarray) -> "SimTrace":
        """Same sampling and held samples, different states (for truncations)."""
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
        if not np.isfinite(factor := amplitude / scale):
            raise ValueError(f"amplitude={amplitude:g} is too large")
        c.g *= factor
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
        self.lam = basis.lam[: nt + 1, :nr].copy()
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
        # per-n views of tf.stack's rows; perfbench reads them by these names
        self.prof_u, self.prof_g = list(self.tf.rows[:, :2]), list(self.tf.rows[:, 2:])
        self.proj = list(self.tf.proj)

    def norms(self, g: np.ndarray) -> tuple[float, float]:
        w2, u2 = pairing(g, 1.0, 1.0 / self.lam)
        return float(u2), float(w2)

    def convective(self, g: np.ndarray) -> np.ndarray:
        """Projection of u.grad(u), as omega z x u, onto every mode."""
        phys = self.tf.synthesize(g)  # (u^r, u^theta, omega) per node
        u = phys[:, :2]
        u *= phys[:, 2:]
        np.negative(u[:, 1], out=u[:, 1])  # omega z x u = omega (-u^theta, u^r)
        return self.tf.project(u[:, ::-1])

    def rhs(self, g: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        conv = np.zeros_like(g) if self.linear else self.convective(g)
        f = self.forcing.at(t) if self.forcing is not None else 0.0
        return self.lam * (f - conv), conv

    def step_weights(self, nu: float, dt: float) -> tuple[np.ndarray, tuple]:
        """decay = exp(-nu lam dt) and the successive pairing weights of
        |omega|^2, |u|^2 and 2 nu int |omega|^2 over a step on each mode's
        exact profile, forward from a state, (1 - decay^2) / lam, and back
        to it, that over decay^2.  Where the exponent 2 nu lam dt passes 700,
        the backward term would overflow or lose the state: the weight is 0
        and the forward term counts twice."""
        decay = np.exp(-nu * self.lam * dt)
        fwd_w = (1.0 - decay**2) / self.lam
        e = 2.0 * nu * self.lam * dt
        capped = e > 700.0
        return decay, (1.0, 1.0 / self.lam, (1.0 + capped) * (self.lam * fwd_w),
                       np.where(capped, 0.0, np.exp(np.minimum(e, 700.0))))

    def heun(self, g: np.ndarray, phi: np.ndarray, t: float, dt: float, u2: float,
             decay: np.ndarray, weights: tuple) -> tuple[np.ndarray, list]:
        """One exponential-Heun step of length dt from g at time t, where phi
        is rhs(g, t), u2 is |u|^2 of g and decay and weights come from
        step_weights; returns the new state and, from one pairing of it,
        its |omega|^2, |u|^2 and forward and backward dissipation terms.
        Growth is judged against the larger of u2 and |u|^2 of the step
        without convection (u2 itself when unforced)."""
        gbar = decay * (g + dt * phi)
        phi2, _ = self.rhs(gbar, t + dt)
        gnew = decay * g + 0.5 * dt * (decay * phi + phi2)
        gnew[0] = gnew[0].real
        terms = pairing(gnew, *weights)
        ref = u2
        if self.forcing is not None:
            f0, f1 = self.forcing.at(t), self.forcing.at(t + dt)
            glin = decay * g + 0.5 * dt * self.lam * (decay * f0 + f1)
            ref = max(u2, self.norms(glin)[0])
        if not terms[1] <= 100.0 * ref + 1e-300:  # nan too
            raise SolverInstability(
                f"norm grew {np.sqrt(terms[1] / max(ref, 1e-300)):.2f}x in one step "
                f"at t={t:.6g} (dt={dt:.3g})")
        return gnew, terms


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
    phi, _ = eng.rhs(state.g, state.time)
    gnew, _ = eng.heun(state.g, phi, state.time, dt, eng.norms(state.g)[0],
                       *eng.step_weights(config.nu, dt))
    return SpectralCoeffs(g=gnew, time=state.time + dt)


def exact_linear_solution(init: SpectralCoeffs, basis: StokesBasis, nu: float,
                          t: float) -> SpectralCoeffs:
    """Unforced linear (Stokes) solution: every mode decays as exp(-nu lam t)."""
    return SpectralCoeffs(g=linear_trace(init, basis, nu, [t]).states(0), time=init.time + t)


def _step_count(config: SimConfig, dt: float, state_stride: int = 1) -> tuple[int, int]:
    """Steps of at most dt to t_end and the samples of their _Schedule, refused
    if the count is not finite or what simulate holds at state_stride (48 B of
    series per sample and its held states, none in closed form) exceeds memory."""
    if not (dt > 0.0 and np.isfinite(ratio := config.t_end / dt)):
        raise ValueError(f"dt={dt:.6g} takes more steps to t_end={config.t_end:.6g} "
                         f"than a float can count")
    n_steps = max(1, int(np.ceil(ratio - 1e-12)))
    samples = _Schedule(n_steps, config.sample_stride).count
    closed = config.linear and config.forcing is None
    states = 0 if closed else _Schedule(samples - 1, state_stride).count
    size = states * (config.n_theta + 1) * config.n_r * 16 + 48 * samples  # complex, float
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:
        big = ".3g" if n_steps > 1e15 else ""
        raise ValueError(
            f"dt={dt:.6g} takes {n_steps:{big}} steps, whose trace of {samples:{big}} samples "
            f"and {states:{big}} states of {config.n_theta + 1} x {config.n_r} complex "
            f"({size / 2**30:{big or '.1f'}} GiB) exceeds physical memory "
            f"({memory / 2**30:.1f} GiB)")
    return n_steps, samples


@np.errstate(all="ignore")  # an overflow fails the checks below
def simulate(config: SimConfig, basis: StokesBasis | None = None,
             state_stride: int = 1) -> SimTrace:
    """Run to t_end, recording the running integrals of every sample and the
    states of _Schedule(samples - 1, state_stride) into buffers allocated
    once, as _step_count counts them first.  An unforced linear run is
    returned in closed form, which serves every state.  A stepped run whose
    series are not finite, or an unforced one whose energy budget misses by
    more than 1e-3 |u(0)|^2, is returned failed, as is one stopped by
    SolverInstability, which ends at and holds its last accepted state."""
    if state_stride < 0:
        raise ValueError(f"state_stride must be >= 0, got {state_stride}")
    counts = _step_count(config, config.dt, state_stride) if config.dt else None
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
    u2, w2 = eng.norms(state.g)
    if not np.isfinite(u2 + w2):
        culprit = ("the init coefficients are" if isinstance(config.init, SpectralCoeffs)
                   else f"amplitude={config.amplitude:g} is")
        raise ValueError(f"initial |u|^2={u2:g}, |omega|^2={w2:g}: {culprit} too large")
    if not np.isfinite(2.0 * config.nu * (lam_max := float(eng.lam.max()))):
        raise ValueError(f"nu={config.nu:g}: 2 nu lam_max (lam_max={lam_max:.6g}) "
                         f"overflows a float")
    n_steps, samples = counts or _step_count(config, default_dt(config, eng, state),
                                             state_stride)
    dt = config.t_end / n_steps
    sampled = _Schedule(n_steps, config.sample_stride)
    if config.linear and config.forcing is None:
        # an unforced step is exactly decay * g, so the closed form at the
        # step times is the run; its norm only shrinks, so it cannot fail
        return linear_trace(state, basis, config.nu, dt * sampled.indices())
    # Per-step viscous dissipation uses the exact exponential profile of each
    # mode (averaged forward/backward), not the trapezoid rule: the fast
    # modes decay on scales well below any reasonable dt.
    decay, weights = eng.step_weights(config.nu, dt)
    fwd = pairing(state.g, *weights[:3])[2]  # the forward term of state 0
    visc = ein = 0.0
    phi, conv = eng.rhs(state.g, 0.0)
    fl = 0.0 if config.linear else pairing(state.g, 1.0, b=conv)[0]
    holds = _Schedule(samples - 1, state_stride)
    g = np.empty((holds.count, *state.g.shape), complex)
    series = np.empty((6, samples))  # time, |u|^2, |omega|^2, visc_cum, energy_in, flux
    g[0], series[:, 0] = state.g, (state.time, u2, w2, visc, ein, fl)
    kept, failed, message = samples, False, ""
    try:
        for i in range(1, n_steps + 1):
            t = state.time
            gnew, (w2, u2, fwd_new, bwd) = eng.heun(state.g, phi, t, dt, u2, decay, weights)
            visc += 0.5 * float(fwd + bwd)
            fwd = fwd_new
            if config.forcing is not None:  # running 2 int <f, u>, trapezoid
                ein += dt * (pairing(gnew, 1.0, b=config.forcing.at(t + dt))[0]
                             + pairing(state.g, 1.0, b=config.forcing.at(t))[0])
            state = SpectralCoeffs(g=gnew, time=t + dt)
            phi, conv = eng.rhs(state.g, state.time)
            fl = 0.0 if config.linear else pairing(state.g, 1.0, b=conv)[0]
            if i in sampled:
                j = sampled.slot(i)
                series[:, j] = state.time, u2, w2, visc, ein, fl
                if j in holds:
                    g[holds.slot(j)] = state.g
    except SolverInstability as exc:  # the last accepted state closes the trace
        failed, message, kept = True, str(exc), sampled.slot(i - 1) + 1
        series[:, kept - 1] = state.time, u2, w2, visc, ein, fl  # its sample, if not yet
        g[holds.slot(kept - 1)] = state.g  # and its held state
    # unforced, the budget closes to the Heun error; forced, energy_in adds
    # its own trapezoid error.  Either way every series must be finite.
    s, forced = series[:, :kept], config.forcing is not None
    resid = np.abs(s[1] + s[3] - s[1, 0] - s[4]).max()
    if not (failed or np.isfinite(s).all() and (forced or resid <= 1e-3 * s[1, 0])):
        failed, message = True, (
            f"energy budget residual {resid / s[1, 0]:.3g} |u(0)|^2 (limit 1e-3), "
            f"flux up to {np.abs(s[5]).max():.3g}, at dt={dt:.3g} "
            f"(nu lam_max dt={config.nu * lam_max * dt:.3g})")
    return SimTrace(config.nu, series[0, :kept], g[: holds.slot(kept - 1) + 1],
                    *series[1:, :kept], failed=failed, message=message,
                    state_stride=state_stride)


def linear_trace(init: SpectralCoeffs, basis: StokesBasis, nu: float,
                 times: np.ndarray) -> SimTrace:
    """Closed-form unforced linear trace sampled at the given times: each
    mode decays as exp(-nu lam t) and visc_cum is exact; no energy input
    and no flux.  The trace holds init's state and lam, not its states
    (SimTrace.states computes them), and its series u_norm_sq, w_norm_sq
    and visc_cum are filled on first read: a sweep reads none of them and
    never builds them."""
    times = np.asarray(times, dtype=float)
    lam = basis.lam[: init.n_theta + 1, : init.n_r]
    return SimTrace(nu, times, None, None, None, None, *np.zeros((2, times.size)),
                    g0=init.g.copy(), lam=lam)
