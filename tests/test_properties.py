"""Property checks of the spectral transform and the convective kernel over
drawn truncations and states."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diskflow.basis import stokes_basis
from diskflow.field import (PolarGrid, SpectralCoeffs, build_grid, project,
                            synthesize)
from diskflow.solver import SimConfig, _Engine

BASIS = stokes_basis(8, 8)
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def draw_state(nt, nr, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((nt + 1, nr)) + 1j * rng.standard_normal((nt + 1, nr))
    g[0] = g[0].real
    return g


truncations = st.tuples(st.integers(0, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))


@CHECKS
@given(truncations, st.integers(0, 3))
def test_project_inverts_synthesize_on_adequate_grids(case, extra):
    nt, nr, seed = case
    grid = build_grid(48, 2 * max(2, nt + 1 + extra), 0.0,
                      validate_alpha=float(BASIS.alpha[: nt + 1, :nr].max()))
    g = draw_state(nt, nr, seed)
    back = project(synthesize(SpectralCoeffs(g=g), grid, BASIS), BASIS, nt, nr).g
    assert np.abs(back - g).max() <= 1e-9 * np.abs(g).max()


@CHECKS
@given(truncations)
def test_engine_transform_matches_field_synthesis(case):
    nt, nr, seed = case
    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=nt, n_r=nr), BASIS)
    grid = PolarGrid(r=eng.r, w=eng.w, n_angular=eng.na, r_lo=0.0)
    c = SpectralCoeffs(g=draw_state(nt, nr, seed))
    phys = eng.tf.synthesize(c.g).transpose(1, 0, 2)
    for part, quantity in ((phys[:2], "velocity"), (phys[2:], "gradient")):
        want = synthesize(c, grid, BASIS, quantity).values
        assert np.abs(part - want).max() <= 1e-13 * np.abs(want).max()


@CHECKS
@given(truncations)
def test_convective_flux_vanishes(case):
    nt, nr, seed = case
    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=nt, n_r=nr), BASIS)
    g = draw_state(nt, nr, seed)
    u2, w2 = eng.norms(g)
    assert abs(eng.flux(g, eng.convective(g))) <= 1e-12 * u2 * np.sqrt(w2)
