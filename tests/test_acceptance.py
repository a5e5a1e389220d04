"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line (visible with pytest -s); a failed
assert marks the criterion failed.  Stated runtime ceilings are asserted
where the criterion carries one.
"""

import time

import numpy as np
import pytest

from diskflow.basis import stokes_basis, velocity_eval, velocity_gradient_eval
from diskflow.diagnostics import (ScheduleSpec, TruncationSpec,
                                  condition_functional, residual_trace,
                                  truncate, truncate_trace, vv_gap)
from diskflow.field import SpectralCoeffs, norm_l2, radial_rule
from diskflow.solver import SimConfig, linear_trace, make_initial, simulate


def graded_times(T, S, p=3.0):
    return T * np.linspace(0.0, 1.0, S) ** p


def test_acceptance_01_orthonormality():
    t0 = time.perf_counter()
    bas = stokes_basis(13, 13)
    modes = [(n, k) for n in range(13) for k in range(1, 13)]
    alpha_max = max(bas.pair(n, k).alpha for n, k in modes)
    r, w = radial_rule(0.0, alpha_max, 128)
    na = 28
    th = 2 * np.pi * np.arange(na) / na
    V = np.empty((len(modes), na * r.size), dtype=complex)
    for i, (n, k) in enumerate(modes):
        prof = bas.profile_matrix(n, r, "vorticity")["vorticity"][0, k - 1]
        V[i] = (np.exp(1j * n * th)[:, None] * prof[None, :]).ravel()
    W = np.tile(w, na) * (2 * np.pi / na)
    gram = (V * W[None, :]) @ V.conj().T
    dev = np.abs(gram - np.eye(len(modes))).max()
    assert dev < 1e-9

    worst_u = 0.0
    for n, k in modes:
        prof = bas.profile_matrix(n, r, "velocity")["velocity"][:, k - 1, :]
        u2 = 2 * np.pi * float(np.sum(w[None, :] * np.abs(prof) ** 2))
        worst_u = max(worst_u, abs(u2 - 1.0 / bas.pair(n, k).lam))
    assert worst_u < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 01 orthonormality: PASS "
          f"(gram dev {dev:.2e}, H-norm dev {worst_u:.2e}, {elapsed:.1f}s)")


def test_acceptance_02_boundary_and_divergence():
    bas = stokes_basis(13, 13)
    worst_bd = 0.0
    worst_div = 0.0
    thetas = [0.0, 0.7, 2.1, 4.5]
    points = [(0.15, 0.3), (0.5, 1.0), (0.85, 2.6), (0.97, 5.5)]
    for n in range(13):
        for k in range(1, 13):
            p = bas.pair(n, k)
            for th in thetas:
                worst_bd = max(worst_bd,
                               float(np.abs(velocity_eval(p, 1.0, th)).max()))
            for r, th in points:
                G = velocity_gradient_eval(p, r, th)
                worst_div = max(worst_div, abs(G[0, 0] + G[1, 1]))
    assert worst_bd < 1e-10
    assert worst_div < 1e-7
    print(f"ACCEPTANCE 02 boundary/divergence: PASS "
          f"(boundary {worst_bd:.2e}, divergence {worst_div:.2e})")


def test_acceptance_03_lemma_suite(tmp_path):
    import json

    from diskflow.cli import main

    t0 = time.perf_counter()
    out = tmp_path / "verify"
    code = main(["verify", "--lemmas", "all", "--n-max", "50",
                 "--k-max", "50", "--out", str(out)])
    assert code == 0  # every strict inequality passed at 1e-9
    summary = json.loads((out / "summary.json").read_text())
    strict = ["ZeroDifference", "jnkRange", "JRatios", "L2omegaGammaBound",
              "L2omegaGammaBoundGeneral", "SomeL2InnerProductsAreZero",
              "UsefulFunctionBound"]
    for lid in strict:
        assert summary[lid]["passed"] is True, summary[lid]
        assert summary[lid]["worst_margin"] >= -1e-9
    for lid in ["Jnp1Ratios", "Jnm1Ratios", "L2uGammaBoundGeneral"]:
        assert summary[lid]["passed"] is None
        assert np.isfinite(summary[lid]["constant"])
    slope = summary["L2uGammaBoundGeneral"]["slope_median"]
    assert slope == pytest.approx(3.0, abs=0.1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 03 lemma suite: PASS (cubic slope {slope:.3f}, "
          f"C1 {summary['L2uGammaBoundGeneral']['constant']:.3g}, "
          f"{elapsed:.1f}s)")


def test_acceptance_04_exact_solution_oracle():
    bas = stokes_basis(2, 4)
    nu, T = 0.05, 5.0
    cfg = SimConfig(nu=nu, t_end=T, n_theta=0, n_r=4, dt=0.00125,
                    init="radial-1", linear=True)
    tr = simulate(cfg, bas)
    lam = bas.pair(0, 1).lam
    exact = np.exp(-nu * lam * tr.times)
    worst = np.abs(tr.g[:, 0, 0].real - exact).max()
    assert worst < 1e-9

    k1 = condition_functional(tr, "K1", ScheduleSpec(), bas)
    closed = (1.0 - np.exp(-2 * nu * lam * T)) / (2 * lam)
    rel = abs(k1 - closed) / closed
    assert rel < 1e-6
    print(f"ACCEPTANCE 04 exact-solution oracle: PASS "
          f"(trajectory dev {worst:.2e}, K1 rel err {rel:.2e})")


def test_acceptance_05_heat_scaling_invariance():
    bas = stokes_basis(2, 6)
    nu, T = 0.05, 2.0
    cfg = SimConfig(nu=nu, t_end=T, n_theta=0, n_r=6, dt=0.002,
                    init="radial-mix", linear=False)
    tr = simulate(cfg, bas)
    lhs = nu * np.trapezoid(tr.w_norm_sq, tr.times)
    tau = nu * tr.times
    tr1 = linear_trace(make_initial("radial-mix", 0, 6), bas, 1.0, tau)
    rhs = np.trapezoid(tr1.w_norm_sq, tau)
    rel = abs(lhs - rhs) / rhs
    assert rel < 1e-6
    print(f"ACCEPTANCE 05 heat-scaling invariance: PASS (rel dev {rel:.2e})")


def test_acceptance_06_energy_inequality():
    bas = stokes_basis(8, 8)
    cfg = SimConfig(nu=0.1, t_end=1.0, n_theta=8, n_r=8, dt=0.002,
                    init="generic", seed=3)
    tr = simulate(cfg, bas)
    lhs = tr.u_norm_sq[-1] + tr.visc_cum[-1]
    rhs = tr.u_norm_sq[0] * (1.0 + 1e-6)
    assert lhs <= rhs
    budget = tr.u_norm_sq + tr.visc_cum - tr.u_norm_sq[0] - tr.energy_in
    assert np.abs(budget).max() / tr.u_norm_sq[0] <= 1e-6
    flux = float(np.abs(tr.flux).max())
    assert flux < 1e-7
    print(f"ACCEPTANCE 06 energy inequality: PASS "
          f"(defect {(lhs - tr.u_norm_sq[0]) / tr.u_norm_sq[0]:+.2e}, "
          f"max flux {flux:.2e})")


def test_acceptance_07_radial_vanishing_viscosity():
    t0 = time.perf_counter()
    bas = stokes_basis(2, 8)
    nus = [0.1, 0.05, 0.025, 0.0125]
    init = make_initial("radial-mix", 2, 8)
    gaps = []
    for nu in nus:
        cfg = SimConfig(nu=nu, t_end=1.0, n_theta=2, n_r=8, dt=0.005,
                        init="radial-mix", linear=False)
        tr = simulate(cfg, bas)
        gaps.append(vv_gap(tr, init, bas))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    slope = np.polyfit(np.log(nus), np.log(gaps), 1)[0]
    assert slope >= 0.45
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 07 radial vanishing viscosity: PASS "
          f"(slope {slope:.3f}, gaps {['%.4f' % g for g in gaps]}, "
          f"{elapsed:.1f}s)")


def _rough_radial_state(basis, k_max=128):
    k = np.arange(1, k_max + 1, dtype=float)
    g = k / np.sqrt(np.sum(k**2 / basis.lam[0, :k_max]))
    return SpectralCoeffs(g=g[None, :].astype(complex))


def test_acceptance_08_frequency_band_bounds():
    sched = ScheduleSpec()
    bas = stokes_basis(1, 128)
    init = _rough_radial_state(bas)
    nus = [0.1, 0.08, 0.065, 0.053]
    sched.validate_sweep(nus)
    ratio_low, ratio_high = [], []
    for nu in nus:
        tr = linear_trace(init, bas, nu, graded_times(1.0, 4001, 4.0))
        L, M = sched.L(nu), sched.M(nu)
        low = truncate_trace(tr, TruncationSpec.square(L))
        ratio_low.append(
            condition_functional(low, "K2", sched, bas) / (nu * L))
        high = residual_trace(tr, TruncationSpec.square(M))
        ratio_high.append(
            condition_functional(high, "K6", sched, bas) * (nu * M) ** 2)
    spread_low = max(ratio_low) / min(ratio_low)
    spread_high = max(ratio_high) / min(ratio_high)
    assert spread_low <= 3.0
    assert spread_high <= 3.0
    print(f"ACCEPTANCE 08 frequency-band bounds: PASS "
          f"(low-band spread {spread_low:.2f}x, "
          f"high-tail spread {spread_high:.2f}x)")


def test_acceptance_09_decomposition_inequalities():
    sched = ScheduleSpec()
    bas = stokes_basis(8, 8)
    rng = np.random.default_rng(3)
    g = 0.2 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    g[0] = g[0].real
    states = {
        "generic": (SpectralCoeffs(g=g), bas, [0.2, 0.1, 0.05]),
        "radial": (_rough_radial_state(stokes_basis(1, 128)),
                   stokes_basis(1, 128), [0.1, 0.08, 0.065, 0.053]),
    }
    for name, (init, basis, nus) in states.items():
        for nu in nus:
            tr = linear_trace(init, basis, nu, graded_times(1.0, 2001, 4.0))
            L, M = sched.L(nu), sched.M(nu)
            low = truncate_trace(tr, TruncationSpec.square(L))
            high = residual_trace(tr, TruncationSpec.square(M))
            k2 = condition_functional(tr, "K2", sched, basis)
            k2_low = condition_functional(low, "K2", sched, basis)
            n3 = condition_functional(tr, "N3", sched, basis)
            slack2 = 2 * k2_low + 2 * n3 - k2
            assert slack2 >= -1e-9 * max(k2, 1e-30)
            k6 = condition_functional(tr, "K6", sched, basis)
            n7 = condition_functional(tr, "N7", sched, basis)
            k6_low = condition_functional(low, "K6", sched, basis)
            k6_high = condition_functional(high, "K6", sched, basis)
            slack3 = 3 * (n7 + k6_low + k6_high) - k6
            assert slack3 >= -1e-9 * max(k6, 1e-30)
    print("ACCEPTANCE 09 decomposition inequalities: PASS")


def test_acceptance_10_tangential_gradient_scaling():
    bas = stokes_basis(32, 4)
    state = SpectralCoeffs(g=np.ones((33, 4), dtype=complex))

    def layer_norm(N, delta):
        t = truncate(state, TruncationSpec.tangential(N))
        return norm_l2(t, bas, "dtau_utau", delta=delta)

    # local slope where the quadratic bound is tightest, i.e. around the
    # maximizer of value / width^2 resp. value / band^2
    deltas = np.geomspace(0.005, 0.6, 25)
    vals = np.array([layer_norm(16, float(d)) for d in deltas])
    i = int(np.argmax(vals / deltas**2))
    win = (deltas >= deltas[i] / 2) & (deltas <= deltas[i] * 2)
    slope_d = np.polyfit(np.log(deltas[win]), np.log(vals[win]), 1)[0]
    assert slope_d == pytest.approx(2.0, abs=0.15)

    bands = np.arange(2, 33)
    vals_n = np.array([layer_norm(int(N), 0.08) for N in bands])
    j = int(np.argmax(vals_n / bands**2))
    win_n = (bands >= bands[j] / 2) & (bands <= bands[j] * 2)
    slope_n = np.polyfit(np.log(bands[win_n]), np.log(vals_n[win_n]), 1)[0]
    assert slope_n == pytest.approx(2.0, abs=0.15)

    # tangential derivatives of radially symmetric flow vanish identically
    rad = stokes_basis(2, 8)
    tr = linear_trace(make_initial("radial-mix", 0, 8), rad, 0.05,
                      np.linspace(0, 1, 201))
    k4 = condition_functional(tr, "K4", ScheduleSpec(), rad)
    k5 = condition_functional(tr, "K5", ScheduleSpec(), rad)
    assert k4 < 1e-12 and k5 < 1e-12
    print(f"ACCEPTANCE 10 tangential-gradient scaling: PASS "
          f"(delta slope {slope_d:.3f}, band slope {slope_n:.3f}, "
          f"K4 {k4:.1e}, K5 {k5:.1e})")
