"""The convective kernel works on real radial factors with their phases
applied apart; these checks hold it to the complex formula it replaced."""

import tracemalloc

import numpy as np
import pytest

from diskflow.basis import PHASES, StokesBasis, stokes_basis
from diskflow import solver
from diskflow.field import (FieldSample, SpectralCoeffs, Transform, _gauss_radial, _pairs,
                            build_grid, pairing, project, synthesize)
from diskflow.solver import (SimConfig, _Engine, default_dt, make_initial,
                             nonlinear_coeffs, simulate)


def complex_profiles(basis, n, r, quantity, nr):
    phase = np.array(PHASES[quantity])[:, None, None]
    return phase * basis.profile_matrix(n, r, quantity, k_max=nr)[quantity]


def complex_convective(g, basis, na, r, w):
    """u.grad(u) projected per mode: complex profiles, one einsum per n."""
    nt, nr = g.shape[0] - 1, g.shape[1]

    def synthesize(quantity):
        spec = np.zeros((len(PHASES[quantity]), na // 2 + 1, r.size), dtype=complex)
        for n in range(nt + 1):
            spec[:, n] = np.einsum("k,ckq->cq", g[n],
                                   complex_profiles(basis, n, r, quantity, nr))
        return np.fft.irfft(spec * na, n=na, axis=1)

    u, du = synthesize("velocity"), synthesize("gradient")
    what = np.fft.rfft(np.stack([u[0] * du[0] + u[1] * du[1],
                                 u[0] * du[2] + u[1] * du[3]]), axis=1) / na
    out = np.empty_like(g)
    for n in range(nt + 1):
        proj = np.conj(complex_profiles(basis, n, r, "velocity", nr)) * w
        out[n] = 2.0 * np.pi * np.einsum("cq,ckq->k", what[:, n], proj)
    return out


def full_band_state(n, seed):
    rng = np.random.default_rng(seed)
    g = 0.1 * (rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n)))
    g[0] = g[0].real
    return g


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("state", ["generic", "full-band"])
def test_convective_matches_complex_formula(n, state):
    basis = stokes_basis(n, n)
    g = (make_initial("generic", n, n, seed=3).g if state == "generic"
         else full_band_state(n, seed=n))
    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=n, n_r=n), basis)
    got = nonlinear_coeffs(SpectralCoeffs(g=g), basis)
    want = complex_convective(g, basis, eng.na, eng.r, eng.w)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("linear", [True, False])
def test_only_nonlinear_runs_build_profile_rows(monkeypatch, linear):
    basis = StokesBasis(4, 4)
    calls = []
    orig = basis.profile_matrix

    def spy(n, r, quantity, k_max=None):
        calls.append((n, quantity))
        return orig(n, r, quantity, k_max)

    monkeypatch.setattr(basis, "profile_matrix", spy)
    trace = simulate(SimConfig(nu=0.05, t_end=0.02, n_theta=4, n_r=4, dt=0.01,
                               init="generic", linear=linear), basis)
    assert not trace.failed
    if linear:
        assert calls == []
    else:
        assert {q for _, q in calls} == {"velocity"}


@pytest.mark.parametrize("q", [8, 16, 24])
def test_flux_vanishes_on_underresolved_radial_rules(monkeypatch, q):
    # the engine's own rule takes 58 nodes here; the flux must not lean on it
    monkeypatch.setattr(solver, "radial_rule", lambda r_lo, alpha: _gauss_radial(q, r_lo))
    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=12, n_r=12), stokes_basis(12, 12))
    assert eng.r.size == q
    g = make_initial("generic", 12, 12, seed=3).g
    u2, w2 = eng.norms(g)
    assert abs(pairing(g, 1.0, b=eng.convective(g))[0]) <= 1e-14 * u2 * np.sqrt(w2)


def test_convective_buffers_carry_nothing_between_calls():
    # the engine's sample and spectrum buffers are reused by every call and
    # by default_dt's synthesis; no call may see what an earlier one left
    n = 12
    basis = stokes_basis(n, n)
    cfg = SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n)
    eng = _Engine(cfg, basis)
    eng.convective(full_band_state(n, seed=1))
    default_dt(cfg, eng, SpectralCoeffs(g=full_band_state(n, seed=2)))
    g2 = make_initial("generic", n, n, seed=3).g
    assert np.array_equal(eng.convective(g2), _Engine(cfg, basis).convective(g2))


def test_projection_leaves_the_sample_unchanged():
    basis = stokes_basis(10, 10)
    grid = build_grid(64, 32, 0.0, validate_alpha=float(basis.alpha[:9, :8].max()))
    c = SpectralCoeffs(g=0.3 * full_band_state(8, seed=4)[:, :8])
    sample = synthesize(c, grid, basis, "vorticity")
    before = sample.values.copy()
    back = project(sample, basis, 8, 8)
    assert np.array_equal(sample.values, before)
    assert np.abs(back.g - c.g).max() < 1e-9


def test_projection_reads_the_synthesis_stack_without_grid_temporaries():
    n = 32
    eng = _Engine(SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n), stokes_basis(n, n))
    assert not hasattr(eng.tf, "weighted")
    for views in (eng.proj, eng.prof_u, eng.prof_g):
        assert all(np.shares_memory(eng.tf.stack, v) for v in views)
    g = make_initial("generic", n, n, seed=0).g
    eng.convective(g)  # warm
    tracemalloc.start()
    try:
        eng.convective(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (na, 2, q) sample grid is 211 KB here; numpy's 128 KB ufunc buffer fits
    assert peak <= 256 * 1024


@pytest.mark.parametrize("n", [1, 5, 12, 32])
def test_in_place_kernel_is_the_out_of_place_product_bit_for_bit(n):
    eng = _Engine(SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n), stokes_basis(n, n))
    g = full_band_state(n, seed=n)
    phys = eng.tf.synthesize(g).copy()  # (u^r, u^theta, omega) per node
    prod = np.stack([-(phys[:, 2] * phys[:, 1]), phys[:, 2] * phys[:, 0]], axis=1)
    want = eng.tf.project(prod)
    assert eng.convective(g).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [12, 32])
def test_engine_retains_its_stack_and_three_buffers(n):
    basis = stokes_basis(n, n)
    cfg = SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n)
    _Engine(cfg, basis)  # the radial rule's caches
    tracemalloc.start()
    try:
        eng = _Engine(cfg, basis)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tf = eng.tf
    buffers = tf.stack.nbytes + tf._spec.nbytes + tf._phys.nbytes + tf._rspec.nbytes
    # the small arrays, and a few views per row: no sample or product grid
    small = eng.lam.nbytes + tf._factor.nbytes + eng.r.nbytes + eng.w.nbytes + 1024 * (n + 1)
    assert held <= buffers + small, (held, buffers)


def unfolded_projection(tf, vals, w, quantity):
    """Transform.project term by term: weights on the samples, the kept
    rows copied with their folds, the conjugate phases, then 2 pi."""
    spec = np.fft.rfft(vals * w, axis=0, norm="forward")
    nt, na = tf.nt, tf.na
    what = np.empty((nt + 1, *spec.shape[1:]), dtype=complex)
    for n in range(nt + 1):
        a = n % na
        what[n] = spec[a] if a <= na // 2 else np.conj(spec[na - a])
    what *= np.conj(np.array(PHASES[quantity]))[:, None]
    out = np.matmul(tf.proj, what.reshape(nt + 1, -1, 1)).view(complex)
    return 2.0 * np.pi * out[..., 0]


@pytest.mark.parametrize("n", [1, 5, 12, 32])
def test_folded_projection_matches_the_term_by_term_formula(n):
    eng = _Engine(SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n), stokes_basis(n, n))
    assert eng.nt <= eng.na // 2  # every row is read at its own index
    vals = np.random.default_rng(n).standard_normal((eng.na, 2, eng.r.size))
    before = vals.copy()
    got = eng.tf.project(vals)
    assert np.array_equal(vals, before)
    want = unfolded_projection(eng.tf, vals, eng.w, "velocity")
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_folded_projection_on_an_aliasing_grid_matches_the_formula(basis13):
    # rows 5 and 6 of an 8-angle grid are read as conjugates of rows 3 and 2
    grid = build_grid(32, 8, 0.0)
    vals = np.random.default_rng(5).standard_normal((1, 8, grid.r.size))
    sample = FieldSample(grid=grid, quantity="vorticity", values=vals)
    with pytest.warns(UserWarning, match="projection will alias"):
        got = project(sample, basis13, 6, 4).g
    tf = Transform(basis13, 6, 4, grid.r, grid.w, 8, ("vorticity",))
    assert tf._folds.tolist() == [5, 6]
    want = unfolded_projection(tf, vals.transpose(1, 0, 2), grid.w, "vorticity")
    want[0] = want[0].real
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 5, 12, 32])
@pytest.mark.parametrize("quantities", [("velocity", "vorticity"), ("gradient",)])
def test_synthesis_by_phase_runs_is_the_phased_spectrum_bit_for_bit(n, quantities):
    basis = stokes_basis(n, n)
    eng = _Engine(SimConfig(nu=0.01, t_end=0.2, n_theta=n, n_r=n), basis)
    tf = Transform(basis, n, n, eng.r, eng.w, eng.na, quantities)
    g = full_band_state(n, seed=n)
    phase = np.array(sum((PHASES[q] for q in quantities), ()))[:, None]
    spec = np.zeros((tf.m * eng.na // 2 + 1, phase.size, eng.r.size), dtype=complex)
    spec[: n + 1] = (tf.stack @ _pairs(g)).view(complex).reshape(n + 1, phase.size, -1)
    spec[: n + 1] *= phase
    want = np.fft.irfft(spec, n=tf.m * eng.na, axis=0, norm="forward")[:: tf.m]
    assert np.array_equal(tf.synthesize(g), want)


def test_one_pairing_per_step_matches_three(monkeypatch):
    # the sim-nonlinear run: 175 steps at n = 32
    calls = []
    convective = _Engine.convective
    monkeypatch.setattr(_Engine, "convective",
                        lambda self, g: calls.append(1) or convective(self, g))
    cfg = SimConfig(nu=0.01, t_end=0.2, n_theta=32, n_r=32, init="generic", amplitude=0.1)
    tr = simulate(cfg, stokes_basis(32, 32))
    steps = tr.n_samples - 1
    assert not tr.failed and steps == 175 and len(calls) == 2 * steps + 1
    lam = stokes_basis(32, 32).lam[:33, :32]
    decay = np.exp(-cfg.nu * lam * (cfg.t_end / steps))
    fwd_w = (1.0 - decay**2) / lam
    w2, u2 = np.transpose([pairing(g, 1.0, 1.0 / lam) for g in tr.g])
    fwd, bwd = (np.array([pairing(g, w)[0] for g in gs])
                for gs, w in ((tr.g[:-1], fwd_w), (tr.g[1:], fwd_w / decay**2)))
    visc = np.concatenate([[0.0], np.cumsum(0.5 * (fwd + bwd))])
    for name, want in (("u_norm_sq", u2), ("w_norm_sq", w2), ("visc_cum", visc)):
        got = getattr(tr, name)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name
