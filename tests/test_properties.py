"""Property checks of the spectral transform, the convective kernel, the
truncation masks and the layer quadrature over drawn truncations and states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskflow.basis import stokes_basis
from diskflow.diagnostics import TruncationSpec, _apply_mask, truncate
from diskflow.field import (PolarGrid, SpectralCoeffs, build_grid, norm_l2,
                            project, synthesize)
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
    for part, quantity in ((phys[:2], "velocity"), (phys[2:], "vorticity")):
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


specs = st.one_of(
    st.builds(TruncationSpec.square, st.integers(0, 9)),
    st.builds(TruncationSpec.tangential, st.integers(0, 9)),
    st.builds(TruncationSpec.eigenvalue_threshold, st.floats(0.0, 2000.0)),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda b: TruncationSpec.band(min(b), max(b))),
)


@CHECKS
@given(truncations, specs)
def test_truncation_is_idempotent_and_residual_completes_it(case, spec):
    nt, nr, seed = case
    c = SpectralCoeffs(g=draw_state(nt, nr, seed))
    once = truncate(c, spec, BASIS)
    assert np.array_equal(truncate(once, spec, BASIS).g, once.g)
    assert np.array_equal(once.g + _apply_mask(c.g, spec, keep=False, basis=BASIS), c.g)


@CHECKS
@given(truncations, st.sampled_from(["vorticity", "velocity", "gradient"]))
def test_full_disk_layer_quadrature_matches_parseval(case, quantity):
    # the layer norm at delta = 1 runs on radial_rule's count at its floor
    nt, nr, seed = case
    c = SpectralCoeffs(g=draw_state(nt, nr, seed))
    parseval = norm_l2(c, BASIS, quantity)
    assert norm_l2(c, BASIS, quantity, delta=1.0) == pytest.approx(parseval, rel=1e-12)
