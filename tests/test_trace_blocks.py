"""Passes over a sampled trace: one trace plus one block of memory, and the
same bits as the unblocked formulas they replace."""

import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diskflow.basis import stokes_basis
from diskflow.bessel import _BLOCK
from diskflow.diagnostics import TruncationSpec, truncate_trace, vv_gap
from diskflow.field import SpectralCoeffs, _reality_weights, live_rows, norm_sq_series
from diskflow.solver import (SimConfig, SimTrace, _Engine, _step_count, linear_trace,
                             make_initial, simulate)

N = 24  # the sweep-linear point at nu = 0.04: 988 samples, a 9.5 MB trace
NU = 0.04
POINT = dict(nu=NU, t_end=0.5, n_theta=N, n_r=N, init="generic", seed=0)
# one complex block, one float block and numpy's iterator buffers (8192
# values per operand): the most a blocked pass may add to what it returns
ALLOWANCE = 3 * _BLOCK * 16


@pytest.fixture(scope="module")
def bas():
    return stokes_basis(N, N)


@pytest.fixture(scope="module")
def point(bas):
    return simulate(SimConfig(**POINT, linear=True), bas)


def _peak(f):
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _unblocked_trace(init, bas, nu, times):
    """linear_trace as one trace-sized expression per series."""
    lam = bas.lam[: init.n_theta + 1, : init.n_r]
    wr = _reality_weights(init.n_theta)[:, None]
    t = times[:, None, None]
    g = init.g * np.exp(-nu * t * lam)
    visc = np.sum(np.abs(init.g) ** 2 * wr * ((1.0 - np.exp(-2.0 * nu * lam * t)) / lam),
                  axis=(1, 2))
    return (g, norm_sq_series(g, bas, "velocity"), norm_sq_series(g, bas, "vorticity"),
            visc)


def _unblocked_moments(tr):
    """SimTrace.moments as one (2, rows, k, S) product over the live rows."""
    c = np.zeros((2, 1, 1, tr.n_samples))
    for w, t in enumerate((tr.times, tr.times[::2])):
        c[w, ..., :: w + 1] = 0.5 * (np.diff(t, prepend=t[0]) + np.diff(t, append=t[-1]))
    out = np.zeros((2, tr.g.shape[1], tr.g.shape[2], tr.g.shape[2]))
    rows = np.flatnonzero(np.any(tr.g, axis=(0, 2)))
    gl = tr.g[:, rows].swapaxes(0, 1)
    out[:, rows] = (np.conj(gl.swapaxes(1, 2)) * c @ gl).real
    return out


def _unblocked_gap(tr, ref, bas):
    return float(np.sqrt(norm_sq_series(tr.g - ref, bas, "velocity").max()))


def test_trace_passes_allocate_one_trace_plus_one_block(bas, point):
    # The unblocked passes peaked, above their inputs, at 19.1 MB for
    # linear_trace (its 9.5 MB trace and a trace-sized temporary), 14.0 MB
    # for moments, 19.0 MB for vv_gap, and the nonlinear simulate at its
    # trace plus a list of per-sample copies (21.6 MB).
    S, trace_bytes = point.n_samples, point.g.nbytes
    assert S == 988 and trace_bytes > 9e6
    init = make_initial("generic", N, N, seed=0)
    _, peak = _peak(lambda: linear_trace(init, bas, NU, point.times))
    assert peak <= trace_bytes + 4 * S * 8 + ALLOWANCE, peak
    fresh = point.with_coeffs(point.g)  # moments not yet cached
    out, peak = _peak(lambda: fresh.moments)
    # one (2, n_r, S) weighted conjugate (0.76 MB here) and the moments
    assert peak <= 2 * N * S * 16 + out.nbytes + ALLOWANCE, peak
    _, peak = _peak(lambda: vv_gap(point, point.coeffs_at(0), bas))
    assert peak <= S * 8 + ALLOWANCE, peak
    cfg = SimConfig(**POINT)
    _, engine = _peak(lambda: _Engine(cfg, bas))
    tr, peak = _peak(lambda: simulate(cfg, bas))
    assert tr.n_samples == S and not tr.failed
    assert peak <= tr.g.nbytes + 6 * S * 8 + engine + ALLOWANCE, (peak, engine)


@pytest.fixture(scope="module", params=["1", "B-1", "B", "B+1", "988"])
def sizes(request):
    b = _BLOCK // ((N + 1) * N)  # states per block of SimTrace.blocks
    return {"1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "988": 988}[request.param]


def test_blocked_kernels_match_the_unblocked_formulas(bas, sizes):
    init = make_initial("generic", N, N, seed=0)
    times = 0.5 * np.linspace(0.0, 1.0, sizes) ** 2
    tr = linear_trace(init, bas, NU, times)
    whole, rest = divmod(sizes, 27)  # 27 states per block, the last block the rest
    assert [s.stop - s.start for s, _, _ in tr.blocks()] == [27] * whole + [rest] * (rest > 0)
    g, u2, w2, visc = _unblocked_trace(init, bas, NU, times)
    for name, want in (("g", g), ("u_norm_sq", u2), ("w_norm_sq", w2), ("visc_cum", visc)):
        assert np.array_equal(getattr(tr, name), want), name
    assert np.array_equal(tr.moments, _unblocked_moments(tr))
    assert live_rows(tr.g).size == 9  # moments take one row per block
    steady = SpectralCoeffs(g=0.5 * init.g)
    assert vv_gap(tr, steady, bas) == _unblocked_gap(tr, steady.g, bas)
    other = linear_trace(steady, bas, 2.0 * NU, times)
    assert vv_gap(tr, other, bas) == _unblocked_gap(tr, other.g, bas)


@pytest.mark.parametrize("filled", [False, True])
def test_moments_of_no_row_or_every_row_live_match_the_unblocked_product(filled):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, N + 1, N)) + 1j * rng.standard_normal((40, N + 1, N))
    zero = np.zeros(40)
    tr = SimTrace(NU, np.linspace(0.0, 1.0, 40), g * filled, zero, zero, zero, zero, zero)
    assert live_rows(tr.g).size == filled * (N + 1)
    assert tr.moments.any() == filled
    assert np.array_equal(tr.moments, _unblocked_moments(tr))


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 410, 1000])
def test_the_run_fills_exactly_the_states_the_guard_counted(bas, stride, monkeypatch):
    cfg = SimConfig(nu=0.03, t_end=0.41, n_theta=6, n_r=6, dt=0.001, init="generic",
                    seed=3, sample_stride=stride)
    n_steps, states = _step_count(cfg, cfg.dt)
    assert (n_steps, states) == (410, -(-410 // stride) + 1)
    tr = simulate(cfg, bas)
    assert tr.g.shape == (states, 7, 6) and tr.times.size == states
    keep = np.r_[0:n_steps:stride, n_steps]
    np.testing.assert_allclose(tr.times, 0.001 * keep, rtol=1e-12)
    linear = simulate(replace(cfg, linear=True), bas)
    assert linear.n_samples == states
    # a thinned run has the same samples and series, and holds the states
    # of samples 0, s, 2s, ... and the last (0: the first and the last)
    for s in (0, 1, 7, 410):
        thin = simulate(cfg, bas, state_stride=s)
        with monkeypatch.context() as m:  # no memory: the guard names its counts
            m.setattr(os, "sysconf", lambda name: 0)
            with pytest.raises(ValueError) as refused:
                _step_count(cfg, cfg.dt, s)
        counted = re.search(r"of (\d+) samples and (\d+) states", str(refused.value))
        assert counted.groups() == (str(states), str(thin.g.shape[0])), s
        for name in ("times", "u_norm_sq", "w_norm_sq", "visc_cum", "energy_in", "flux"):
            assert np.array_equal(getattr(thin, name), getattr(tr, name)), (s, name)
        held = np.r_[0:states - 1:s or states, states - 1]
        assert np.array_equal(thin.g, tr.g[held]), s
        for i in range(states):
            if i in held:
                assert np.array_equal(thin.coeffs_at(i).g, tr.g[i]), (s, i)
            else:
                with pytest.raises(ValueError, match=f"sample {i} is not held.*stride {s}"):
                    thin.states(i)
    # on an 8 GiB machine, a million steps at n = 64 hold 11 states (0.7 MB)
    # and 48 MB of series at state_stride 10^5, every state (62.0 GiB) at 1,
    # and no state in closed form
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.get)
    big = SimConfig(nu=0.01, t_end=1.0, n_theta=64, n_r=64, dt=1e-6)
    assert _step_count(big, big.dt, 10**5) == (10**6, 10**6 + 1)
    with pytest.raises(ValueError, match=r"of 1000001 samples and 1000001 states of "
                                         r"65 x 64 complex \(62\.0 GiB\) exceeds physical "
                                         r"memory \(8\.0 GiB\)"):
        _step_count(big, big.dt, 1)
    assert _step_count(replace(big, linear=True), big.dt, 1) == (10**6, 10**6 + 1)


def test_readers_of_every_state_refuse_a_thinned_trace(bas):
    cfg = SimConfig(nu=0.03, t_end=0.05, n_theta=6, n_r=6, dt=0.001, init="generic")
    tr = simulate(cfg, bas, state_stride=7)
    with pytest.raises(ValueError, match="sample slice.* is not held"):
        tr.moments
    with pytest.raises(ValueError, match="is not held"):
        vv_gap(tr, tr.coeffs_at(0), bas)
    # a truncation keeps the samples it holds
    cut = truncate_trace(tr, TruncationSpec.square(3), bas)
    assert cut.state_stride == 7 and np.array_equal(cut.states(-1), cut.g[-1])
    with pytest.raises(ValueError, match="sample 1 is not held"):
        cut.coeffs_at(1)
    with pytest.raises(ValueError, match="state_stride must be >= 0"):
        simulate(cfg, bas, state_stride=-1)


def test_a_thinned_run_allocates_its_held_states_and_series(bas):
    # 1001 samples at n = 12: every state would be 2.5 MB, past this bound
    cfg = SimConfig(nu=NU, t_end=0.5, n_theta=12, n_r=12, dt=0.0005, init="generic")
    _, engine = _peak(lambda: _Engine(cfg, bas))
    simulate(cfg, bas, state_stride=0)  # the basis's caches for the run
    for s in (0, 7):
        tr, peak = _peak(lambda: simulate(cfg, bas, state_stride=s))
        S = tr.n_samples
        assert S == 1001 and tr.g.shape[0] == -(-1000 // (s or 1000)) + 1
        bound = tr.g.nbytes + 6 * S * 8 + engine + ALLOWANCE
        assert peak <= bound < S * tr.g[0].nbytes, (s, peak, bound)
