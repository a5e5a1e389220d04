"""The convective kernel works on real radial factors with their phases
applied apart; these checks hold it to the complex formula it replaced."""

import numpy as np
import pytest

from diskflow.basis import PHASES, StokesBasis, stokes_basis
from diskflow import solver
from diskflow.field import SpectralCoeffs, _gauss_radial
from diskflow.solver import (SimConfig, _Engine, make_initial, nonlinear_coeffs,
                             simulate)


def complex_profiles(basis, n, r, quantity, nr):
    phase = np.array(PHASES[quantity])[:, None, None]
    return phase * basis.profile_matrix(n, r, quantity, k_max=nr)


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
        assert {q for _, q in calls} == {"velocity", "vorticity"}


@pytest.mark.parametrize("q", [8, 16, 24])
def test_flux_vanishes_on_underresolved_radial_rules(monkeypatch, q):
    # the engine's own rule takes 58 nodes here; the flux must not lean on it
    monkeypatch.setattr(solver, "radial_rule", lambda r_lo, alpha: _gauss_radial(q, r_lo))
    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=12, n_r=12), stokes_basis(12, 12))
    assert eng.r.size == q
    g = make_initial("generic", 12, 12, seed=3).g
    u2, w2 = eng.norms(g)
    assert abs(eng.flux(g, eng.convective(g))) <= 1e-14 * u2 * np.sqrt(w2)
