import numpy as np
import pytest

from diskflow.basis import stokes_basis
from diskflow.field import SpectralCoeffs, pairing
from diskflow.solver import (ForcingSeries, SimConfig, exact_linear_solution,
                             linear_trace, make_initial, nonlinear_coeffs,
                             simulate, step)


@pytest.fixture(scope="module")
def bas():
    return stokes_basis(10, 10)


def test_presets(bas):
    c = make_initial("radial-1", 2, 6)
    assert c.g[0, 0] == 1.0 and np.count_nonzero(c.g) == 1
    c = make_initial("radial-mix", 0, 10)
    assert np.allclose(c.g[0, :8].real, 1.0 / np.arange(1, 9))
    c = make_initial("generic", 8, 8, seed=5)
    c2 = make_initial("generic", 8, 8, seed=5)
    assert np.array_equal(c.g, c2.g)
    assert np.abs(c.g[0].imag).max() == 0.0
    with pytest.raises(ValueError):
        make_initial("bogus", 2, 2)


def test_exact_linear_solution_values(bas):
    init = make_initial("radial-1", 0, 4)
    out = exact_linear_solution(init, bas, 0.01, 10.0)
    lam = bas.pair(0, 1).lam
    assert out.g[0, 0] == pytest.approx(np.exp(-0.01 * lam * 10.0), rel=1e-12)
    assert exact_linear_solution(init, bas, 0.3, 0.0).g[0, 0] == 1.0


def test_single_step_linear_is_exact_exponential(bas):
    cfg = SimConfig(nu=0.07, t_end=1.0, n_theta=2, n_r=4, linear=True)
    state = make_initial("radial-1", 2, 4)
    out = step(state, cfg, 0.25, bas)
    lam = bas.pair(0, 1).lam
    assert out.g[0, 0] == pytest.approx(np.exp(-0.07 * lam * 0.25), rel=1e-14)


def test_linear_simulation_matches_exact_everywhere(bas):
    cfg = SimConfig(nu=0.05, t_end=2.0, n_theta=2, n_r=6, dt=0.02,
                    init="radial-mix", linear=True)
    tr = simulate(cfg, bas)
    init = make_initial("radial-mix", 2, 6)
    for i in range(0, tr.n_samples, 10):
        ex = exact_linear_solution(init, bas, 0.05, tr.times[i])
        assert np.abs(tr.g[i] - ex.g).max() < 1e-9


def test_vorticity_norm_decays_in_linear_run(bas):
    cfg = SimConfig(nu=0.05, t_end=1.0, n_theta=0, n_r=6, dt=0.01,
                    init="radial-mix", linear=True)
    tr = simulate(cfg, bas)
    assert (np.diff(tr.w_norm_sq) <= 1e-14).all()
    assert tr.w_norm_sq[0] <= np.sum(1.0 / np.arange(1, 7.0) ** 2) + 1e-12


def test_radial_convective_projection_vanishes(bas):
    c = SpectralCoeffs.zeros(4, 6)
    c.g[0, 2] = 1.0
    assert np.abs(nonlinear_coeffs(c, bas)).max() < 1e-8
    c.g[0, :] = [1.0, -0.3, 0.8, 0.1, -0.5, 0.25]
    assert np.abs(nonlinear_coeffs(c, bas)).max() < 1e-8
    zero = SpectralCoeffs.zeros(4, 6)
    assert np.abs(nonlinear_coeffs(zero, bas)).max() == 0.0


def test_energy_flux_of_convection_vanishes(bas, rng):
    from diskflow.solver import _Engine

    cfg = SimConfig(nu=0.05, t_end=1.0, n_theta=6, n_r=6)
    eng = _Engine(cfg, bas)
    g = 0.3 * (rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6)))
    g[0] = g[0].real
    conv = eng.convective(g)
    assert abs(pairing(g, 1.0, b=conv)[0]) < 1e-7


def test_step_never_gains_energy_beyond_tolerance(bas, rng):
    cfg = SimConfig(nu=0.1, t_end=1.0, n_theta=6, n_r=6, dt=0.002,
                    init="generic", seed=11)
    tr = simulate(cfg, bas)
    budget = tr.u_norm_sq + tr.visc_cum
    assert (np.diff(budget) <= 1e-7 * tr.u_norm_sq[0]).all()


def test_radial_initial_data_stays_radial_under_full_dynamics(bas):
    cfg = SimConfig(nu=0.05, t_end=0.5, n_theta=4, n_r=6, dt=0.01,
                    init="radial-mix", linear=False)
    tr = simulate(cfg, bas)
    assert np.abs(tr.g[:, 1:, :]).max() < 1e-8
    lin = simulate(SimConfig(nu=0.05, t_end=0.5, n_theta=4, n_r=6, dt=0.01,
                             init="radial-mix", linear=True), bas)
    assert np.abs(tr.g - lin.g).max() < 1e-7


def test_second_order_convergence(bas):
    init = make_initial("generic", 6, 6, seed=5)

    def endpoint(dt):
        cfg = SimConfig(nu=0.05, t_end=0.25, n_theta=6, n_r=6, dt=dt, init=init)
        return simulate(cfg, bas).g[-1]

    ref = endpoint(0.25 / 512)
    e1 = np.abs(endpoint(0.25 / 32) - ref).max()
    e2 = np.abs(endpoint(0.25 / 64) - ref).max()
    assert 2.5 < e1 / e2 < 6.0


def test_viscous_dissipation_below_initial_energy(bas):
    # with no forcing, 2 nu int |w|^2 can never exceed the starting energy
    cfg = SimConfig(nu=0.08, t_end=2.0, n_theta=6, n_r=6, dt=0.002,
                    init="generic", seed=21)
    tr = simulate(cfg, bas)
    assert tr.visc_cum[-1] <= tr.u_norm_sq[0] * (1 + 1e-6)


def test_truncation_sensitivity_recorded(bas, capsys):
    # refining the truncation must not move the benchmark diagnostics much;
    # recorded for the report, asserted only loosely
    from diskflow.basis import stokes_basis as _sb

    vals = {}
    for res in [(12, 12), (16, 16)]:
        b = _sb(*res)
        cfg = SimConfig(nu=0.1, t_end=0.5, n_theta=res[0], n_r=res[1],
                        dt=0.002, init="generic", seed=3)
        tr = simulate(cfg, b)
        vals[res] = nu_int = 0.1 * np.trapezoid(tr.w_norm_sq, tr.times)
    drift = abs(vals[(16, 16)] - vals[(12, 12)]) / vals[(12, 12)]
    print(f"truncation sensitivity: {drift:.3%}")
    assert drift < 0.05


def test_heat_scaling_invariance(bas):
    # nu * int_0^t |w_nu|^2 equals int_0^{nu t} |w_1|^2 for the linear
    # radial flow; run the viscous case through the solver and compare
    # against the unit-viscosity closed form
    nu, T = 0.05, 2.0
    cfg = SimConfig(nu=nu, t_end=T, n_theta=0, n_r=6, dt=0.002,
                    init="radial-mix", linear=False)
    tr = simulate(cfg, bas)
    lhs = nu * np.trapezoid(tr.w_norm_sq, tr.times)
    init = make_initial("radial-mix", 0, 6)
    tau = nu * tr.times  # the rescaled clock of the unit-viscosity flow
    tr1 = linear_trace(init, bas, 1.0, tau)
    rhs = np.trapezoid(tr1.w_norm_sq, tau)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_forced_linear_mode_against_closed_form(bas):
    # constant forcing f on one mode: g(t) = e^{-nu lam t}(g0 - f/nu) + f/nu
    nu, lam = 0.2, bas.pair(0, 1).lam
    f = np.zeros((1, 2), dtype=complex)
    f[0, 0] = 0.05
    forcing = ForcingSeries(times=np.array([0.0, 10.0]),
                            g=np.array([f, f]))
    cfg = SimConfig(nu=nu, t_end=1.0, n_theta=0, n_r=2, dt=0.0005,
                    init="radial-1", linear=True, forcing=forcing)
    tr = simulate(cfg, bas)
    expected = np.exp(-nu * lam) * (1.0 - 0.05 / nu) + 0.05 / nu
    assert tr.g[-1][0, 0].real == pytest.approx(expected, abs=1e-6)
    assert tr.energy_in[-1] > 0.0


def test_forced_energy_budget_converges_at_second_order(bas):
    # |u(t)|^2 + 2 nu int |w|^2 - |u(0)|^2 - 2 int <f, u> vanishes up to the
    # time-stepping error, which must shrink 4x when dt halves
    rng = np.random.default_rng(7)
    f = 0.01 * (rng.standard_normal((2, 7, 6)) + 1j * rng.standard_normal((2, 7, 6)))
    f[:, 0] = f[:, 0].real
    forcing = ForcingSeries(times=np.array([0.0, 1.0]), g=f)

    def residual(dt):
        cfg = SimConfig(nu=0.05, t_end=0.5, n_theta=6, n_r=6, dt=dt,
                        init="generic", seed=2, forcing=forcing)
        tr = simulate(cfg, bas)
        assert not tr.failed
        budget = tr.u_norm_sq + tr.visc_cum - tr.u_norm_sq[0] - tr.energy_in
        return np.abs(budget).max() / tr.u_norm_sq.max()

    coarse, fine = residual(0.002), residual(0.001)
    assert fine < 5e-3
    assert 3.5 < coarse / fine < 4.5


def test_instability_detection_returns_partial_trace(bas):
    init = SpectralCoeffs.zeros(2, 2)
    init.g[0, 0] = 1e3  # violent data with a huge step
    cfg = SimConfig(nu=1e-6, t_end=10.0, n_theta=2, n_r=2, dt=5.0, init=init,
                    linear=False)
    tr = simulate(cfg, bas)
    if tr.failed:
        assert tr.message
        assert tr.n_samples >= 1
    else:  # if this configuration happens to stay stable, norms must be finite
        assert np.isfinite(tr.u_norm_sq).all()


def test_step_shape_mismatch(bas):
    cfg = SimConfig(nu=0.1, t_end=1.0, n_theta=3, n_r=3)
    with pytest.raises(ValueError):
        step(SpectralCoeffs.zeros(2, 2), cfg, 0.1, bas)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(nu=-1.0, t_end=1.0, n_theta=2, n_r=2)
    with pytest.raises(ValueError):
        SimConfig(nu=0.1, t_end=0.0, n_theta=2, n_r=2)
    with pytest.raises(ValueError):
        SimConfig(nu=0.1, t_end=1.0, n_theta=-1, n_r=2)


def _random_forcing(n_theta, n_r):
    rng = np.random.default_rng(7)
    f = 0.5 * (rng.standard_normal((n_theta + 1, n_r))
               + 1j * rng.standard_normal((n_theta + 1, n_r)))
    return ForcingSeries(times=np.array([0.0, 10.0]), g=np.array([f, f]))


@pytest.mark.parametrize("linear", [True, False])
def test_forced_growth_is_not_flagged_as_instability(bas, linear):
    # the forcing alone multiplies |u|^2 far beyond 100x in the first step;
    # the linear scheme is stable at any dt, the nonlinear run starts at rest
    init = "generic" if linear else SpectralCoeffs.zeros(6, 6)
    cfg = SimConfig(nu=0.05, t_end=0.2, n_theta=6, n_r=6, dt=0.002, init=init,
                    seed=2, linear=linear, forcing=_random_forcing(6, 6))
    tr = simulate(cfg, bas)
    assert not tr.failed, tr.message
    assert tr.n_samples == 101 and np.isfinite(tr.u_norm_sq).all()
    assert tr.u_norm_sq[-1] > 100.0 * max(tr.u_norm_sq[0], 1e-30)


def test_unforced_blow_up_is_flagged_at_the_same_step(bas):
    cfg = SimConfig(nu=0.001, t_end=1.0, n_theta=6, n_r=6, dt=0.05,
                    init="generic", seed=2, amplitude=50.0)
    tr = simulate(cfg, bas)
    assert tr.failed
    assert tr.times[-1] == pytest.approx(0.15)
    assert tr.message.startswith("norm grew") and "t=0.15 " in tr.message
    # the partial trace ends with the last accepted state, kept once
    assert tr.g.shape[0] == tr.times.size == 4
    for series in (tr.u_norm_sq, tr.w_norm_sq, tr.visc_cum, tr.energy_in, tr.flux):
        assert series.shape == tr.times.shape
    assert (np.diff(tr.times) > 0).all()


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("state_stride", [0, 1, 2])
def test_a_failed_run_ends_once_at_its_last_accepted_state(bas, stride, state_stride):
    # the blow-up above fails at step 4: the state after step 3, at t = 0.15,
    # is the last accepted one, a sample at strides 1 and 3 and not at 2
    kw = dict(nu=0.001, t_end=1.0, n_theta=6, n_r=6, dt=0.05, init="generic", seed=2,
              amplitude=50.0)
    tr = simulate(SimConfig(**kw, sample_stride=stride), bas, state_stride=state_stride)
    every = simulate(SimConfig(**kw), bas)
    assert tr.failed and tr.message == every.message and every.n_samples == 4
    keep = np.r_[0:3:stride, 3]
    assert (np.diff(tr.times) > 0).all() and np.array_equal(tr.times, every.times[keep])
    for name in ("u_norm_sq", "w_norm_sq", "visc_cum", "energy_in", "flux"):
        assert np.array_equal(getattr(tr, name), getattr(every, name)[keep]), name
    cfg, state = SimConfig(**kw), make_initial("generic", 6, 6, seed=2, amplitude=50.0)
    for _ in range(3):
        state = step(state, cfg, 0.05, bas)
    assert np.array_equal(tr.states(-1), state.g) and tr.times[-1] == state.time
    assert np.array_equal(tr.coeffs_at(tr.n_samples - 1).g, every.g[-1])


def _complex_row_0_state():
    rng = np.random.default_rng(7)
    return SpectralCoeffs(g=0.1 * (rng.standard_normal((7, 6))
                                   + 1j * rng.standard_normal((7, 6))))


@pytest.mark.parametrize("init, stride, dt", [("generic", 1, None),
                                              ("complex-row-0", 3, 0.001)])
def test_unforced_closed_form_matches_heun_loop(bas, init, stride, dt):
    # an all-zero forcing keeps simulate on its step loop: the reference;
    # 410 % 3 != 0, so the last sample is off the stride
    if init == "complex-row-0":
        init = _complex_row_0_state()
    kw = dict(nu=0.03, t_end=0.41, n_theta=6, n_r=6, init=init, seed=3,
              linear=True, sample_stride=stride, dt=dt)
    zero = ForcingSeries(times=np.array([0.0, 0.41]), g=np.zeros((2, 7, 6)))
    closed = simulate(SimConfig(**kw), bas)
    loop = simulate(SimConfig(**kw, forcing=zero), bas)
    assert closed.n_samples == loop.n_samples > 10
    # the closed form is exp(-nu lam t) at the step times, the loop a
    # running product of per-step factors: equal up to roundoff
    for name in ("times", "g", "u_norm_sq", "w_norm_sq", "visc_cum"):
        np.testing.assert_allclose(getattr(closed, name), getattr(loop, name),
                                   rtol=1e-13, atol=0, err_msg=name)
    assert not closed.energy_in.any() and not closed.flux.any()
    assert not closed.failed


@pytest.mark.parametrize("linear, tol", [(True, 1e-12), (False, 1e-6)])
def test_complex_row_0_is_read_as_real_and_the_budget_closes(bas, linear, tol):
    init = _complex_row_0_state()
    tr = simulate(SimConfig(nu=0.03, t_end=0.41, n_theta=6, n_r=6, dt=0.001,
                            init=init, linear=linear, sample_stride=3), bas)
    assert not tr.failed
    assert not tr.g[:, 0].imag.any()
    assert np.array_equal(tr.g[0, 0], init.g[0].real)
    resid = tr.u_norm_sq + tr.visc_cum - tr.u_norm_sq[0] - tr.energy_in
    assert np.abs(resid).max() / tr.u_norm_sq[0] < tol
