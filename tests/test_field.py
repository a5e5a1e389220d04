import json
import warnings

import numpy as np
import pytest
import scipy.special as sp

from diskflow.basis import stokes_basis
from diskflow.field import (FieldSample, GridError, SpectralCoeffs, build_grid,
                            inner_product, mode_inner_product, norm_l2,
                            norm_sq_series, project, radial_rule, synthesize)
from oracles import trapezoid_radial


@pytest.fixture(scope="module")
def bas():
    return stokes_basis(10, 10)


@pytest.fixture(scope="module")
def disk_grid(bas):
    amax = float(bas.alpha[:9, :8].max())
    return build_grid(64, 32, 0.0, validate_alpha=amax)


def random_coeffs(rng, n_theta=8, n_r=8, scale=0.3):
    g = scale * (rng.standard_normal((n_theta + 1, n_r))
                 + 1j * rng.standard_normal((n_theta + 1, n_r)))
    g[0] = g[0].real
    return SpectralCoeffs(g=g)


def test_grid_mass():
    g = build_grid(32, 64, 0.0)
    assert np.sum(g.w) == pytest.approx(0.5, abs=1e-14)
    g = build_grid(32, 64, 0.9)
    assert np.sum(g.w) == pytest.approx((1 - 0.81) / 2, abs=1e-14)


def test_grid_auto_doubling_resolves_bessel_mass(bas):
    a = bas.pair(0, 1).alpha  # first root of J_1, so J_1(a) = 0
    g = build_grid("auto", 64, 0.0, validate_alpha=a)
    quad = float(np.sum(g.w * sp.jv(0, a * g.r) ** 2))
    assert quad == pytest.approx(0.5 * sp.jv(0, a) ** 2, abs=1e-10)


def test_grid_validation_errors():
    with pytest.raises(GridError):
        build_grid(2, 64, 0.0)
    with pytest.raises(GridError):
        build_grid(32, 7, 0.0)
    with pytest.raises(GridError):
        build_grid(32, 64, 1.0)


def test_single_mode_synthesis_matches_profile(bas, disk_grid):
    c = SpectralCoeffs.zeros(8, 8)
    c.g[0, 0] = 1.0
    s = synthesize(c, disk_grid, bas, "vorticity")
    p = bas.pair(0, 1)
    expected = p.c_signed * sp.jv(0, p.alpha * disk_grid.r)
    for row in s.values[0]:
        assert np.abs(row - expected).max() < 1e-12


def test_zero_coeffs_zero_field(bas, disk_grid):
    c = SpectralCoeffs.zeros(8, 8)
    s = synthesize(c, disk_grid, bas, "vorticity")
    assert np.abs(s.values).max() == 0.0


def test_imaginary_mode_synthesis(bas, disk_grid):
    # g_{1,1} = i adds 2 Re(i * mode) = -2 c J_1(alpha r) sin(theta)
    c = SpectralCoeffs.zeros(8, 8)
    c.g[1, 0] = 1j
    s = synthesize(c, disk_grid, bas, "vorticity")
    p = bas.pair(1, 1)
    rad = p.c_signed * sp.jv(1, p.alpha * disk_grid.r)
    expected = -2.0 * np.sin(disk_grid.theta)[:, None] * rad[None, :]
    assert np.abs(s.values[0] - expected).max() < 1e-12


def test_round_trip_unit_mode(bas, disk_grid):
    c = SpectralCoeffs.zeros(8, 8)
    c.g[2, 2] = 1.0
    back = project(synthesize(c, disk_grid, bas, "vorticity"), bas, 8, 8)
    assert abs(back.g[2, 2] - 1.0) < 1e-9
    back.g[2, 2] = 0.0
    assert np.abs(back.g).max() < 1e-9


def test_projection_linearity(bas, disk_grid):
    c = SpectralCoeffs.zeros(8, 8)
    c.g[0, 0] = 1.0
    c.g[1, 1] = 0.5
    back = project(synthesize(c, disk_grid, bas, "vorticity"), bas, 8, 8)
    assert back.g[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert back.g[1, 1] == pytest.approx(0.5, abs=1e-9)


def test_round_trip_random_band(bas, disk_grid, rng):
    c = random_coeffs(rng)
    back = project(synthesize(c, disk_grid, bas, "vorticity"), bas, 8, 8)
    assert np.abs(back.g - c.g).max() < 1e-9


def test_parseval_consistency(bas, disk_grid, rng):
    for _ in range(100):
        c = random_coeffs(rng)
        coeff_path = norm_l2(c, bas, "vorticity")
        quad_path = norm_l2(synthesize(c, disk_grid, bas, "vorticity"))
        assert quad_path == pytest.approx(coeff_path, rel=1e-8)


def test_velocity_norm_identities(bas):
    c = SpectralCoeffs.zeros(2, 3)
    c.g[0, 0] = 1.0
    assert norm_l2(c, bas, "vorticity") == pytest.approx(1.0, abs=1e-12)
    assert norm_l2(c, bas, "velocity") == pytest.approx(
        1.0 / bas.pair(0, 1).lam, rel=1e-12)
    # gradient Parseval equals the vorticity norm for in-band states
    assert norm_l2(c, bas, "gradient") == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("quantity", ["vorticity", "velocity", "gradient"])
def test_gradient_quadrature_matches_parseval(bas, rng, quantity):
    # full-disk norm via layer quadrature with delta = 1
    c = random_coeffs(rng, 4, 4)
    fast = norm_l2(c, bas, quantity)
    quad = norm_l2(c, bas, quantity, delta=1.0 - 1e-12)
    assert quad == pytest.approx(fast, rel=1e-8)


@pytest.mark.parametrize("quantity", ["vorticity", "velocity", "gradient"])
def test_norm_sq_series_of_stack_matches_norm_l2(bas, rng, quantity):
    states = [random_coeffs(rng, 4, 4) for _ in range(3)]
    stack = np.stack([c.g for c in states])
    disk = norm_sq_series(stack, bas, quantity)
    rule = radial_rule(0.7, float(bas.alpha[:5, :4].max()))
    layer = norm_sq_series(stack, bas, quantity, rule)
    assert disk.shape == layer.shape == (3,)
    for i, c in enumerate(states):
        assert disk[i] == pytest.approx(norm_l2(c, bas, quantity), rel=1e-14)
        assert layer[i] == pytest.approx(
            norm_l2(c, bas, quantity, delta=0.3), rel=1e-14)


def test_zero_mean_of_synthesized_vorticity(bas, disk_grid, rng):
    c = random_coeffs(rng)
    s = synthesize(c, disk_grid, bas, "vorticity")
    mean = (2 * np.pi / disk_grid.n_angular) * float(
        np.sum(disk_grid.w[None, :] * s.values[0]))
    assert abs(mean) < 1e-9


def test_annulus_additivity_and_monotonicity(bas, rng):
    c = random_coeffs(rng, 6, 6)
    full = norm_l2(c, bas, "vorticity")
    layer = norm_l2(c, bas, "vorticity", delta=0.25)
    inner = _norm_on_inner_disk(c, bas, 0.25)
    assert layer + inner == pytest.approx(full, rel=1e-8)
    vals = [norm_l2(c, bas, "vorticity", delta=d)
            for d in [0.05, 0.1, 0.2, 0.4, 0.8]]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def _norm_on_inner_disk(c, bas, delta):
    from numpy.polynomial.legendre import leggauss

    xi, wq = leggauss(512)
    r = 0.5 * (1 - delta) * (xi + 1)
    w = 0.5 * (1 - delta) * wq * r
    return norm_sq_series(c.g, bas, "vorticity", (r, w))


def test_single_mode_layer_mass_bound(bas):
    # an n = 0 coefficient state is the complex mode itself, so its layer
    # mass obeys the single-mode bound directly
    p = bas.pair(0, 3)
    d = 0.9 / np.sqrt(p.lam)
    c = SpectralCoeffs.zeros(4, 4)
    c.g[0, 2] = 1.0
    assert norm_l2(c, bas, "vorticity", delta=d) <= 2 * d + 1e-12
    # the reality convention doubles the mass of an n >= 1 mode
    p = bas.pair(2, 3)
    d = 0.9 / np.sqrt(p.lam)
    c = SpectralCoeffs.zeros(4, 4)
    c.g[2, 2] = 1.0
    val = norm_l2(c, bas, "vorticity", delta=d)
    assert val <= 2 * (2 * d) + 1e-12


def test_velocity_sample_is_discretely_divergence_free(bas, disk_grid, rng):
    # angular derivative taken spectrally from the velocity sample must
    # agree with the synthesized gradient's tangential entry, and the
    # synthesized divergence must vanish
    c = random_coeffs(rng, 6, 6)
    u = synthesize(c, disk_grid, bas, "velocity")
    gsamp = synthesize(c, disk_grid, bas, "gradient")
    div = gsamp.values[0] + gsamp.values[3]
    assert np.abs(div).max() < 1e-7
    na = disk_grid.n_angular
    dth_ut = np.fft.irfft(np.fft.rfft(u.values[1], axis=0)
                          * 1j * np.arange(na // 2 + 1)[:, None], n=na, axis=0)
    d_entry = dth_ut / disk_grid.r[None, :] + u.values[0] / disk_grid.r[None, :]
    assert np.abs(d_entry - gsamp.values[3]).max() < 1e-9


def test_inner_product_cross_modes_on_layer(bas):
    v = mode_inner_product(bas, (1, 1), (2, 1), "vorticity", delta=0.1)
    assert abs(v) < 1e-12
    v = mode_inner_product(bas, (0, 1), (0, 1), "vorticity", delta=1.0)
    assert v.real == pytest.approx(1.0, abs=1e-9)


def test_same_order_layer_inner_product_against_trapezoid(bas):
    pa, pb = bas.pair(0, 1), bas.pair(0, 2)
    got = mode_inner_product(bas, (0, 1), (0, 2), "vorticity", delta=0.05)
    ref = 2 * np.pi * trapezoid_radial(
        lambda r: (pa.c_signed * sp.jv(0, pa.alpha * r)
                   * pb.c_signed * sp.jv(0, pb.alpha * r)), 0.95, 1.0)
    assert got.real == pytest.approx(ref, abs=1e-8)
    assert abs(got.imag) < 1e-15


def test_inner_product_grid_mismatch(bas, disk_grid):
    other = build_grid(32, 32, 0.0)
    a = synthesize(SpectralCoeffs.zeros(2, 2), disk_grid, bas, "vorticity")
    b = synthesize(SpectralCoeffs.zeros(2, 2), other, bas, "vorticity")
    with pytest.raises(GridError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry(bas, disk_grid, rng):
    a = synthesize(random_coeffs(rng, 4, 4), disk_grid, bas, "vorticity")
    b = synthesize(random_coeffs(rng, 4, 4), disk_grid, bas, "vorticity")
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_aliasing_warning(bas):
    grid = build_grid(32, 8, 0.0)
    c = SpectralCoeffs.zeros(6, 2)
    with pytest.warns(UserWarning, match="alias"):
        synthesize(c, grid, bas, "vorticity")


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_aliased_synthesis_is_pointwise(bas, rng, n):
    # rows at and past the Nyquist bin of an 8-angle grid sample exactly
    grid = build_grid(32, 8, 0.0)
    c = SpectralCoeffs.zeros(n, 4)
    c.g[n] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = synthesize(c, grid, bas, "vorticity").values[0]
    radial = c.g[n] @ bas.profile_matrix(n, grid.r, "vorticity", k_max=4)[0]
    want = 2.0 * np.real(np.exp(1j * n * grid.theta)[:, None] * radial[None, :])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_aliased_projection_matches_angular_dft(bas, rng):
    grid = build_grid(32, 8, 0.0)
    vals = rng.standard_normal((1, 8, grid.r.size))
    sample = FieldSample(grid=grid, quantity="vorticity", values=vals)
    with pytest.warns(UserWarning, match="projection will alias"):
        got = project(sample, bas, 6, 4).g
    for n in range(7):
        chat = np.exp(-1j * n * grid.theta) @ vals[0] / 8
        prof = bas.profile_matrix(n, grid.r, "vorticity", k_max=4)[0]
        want = 2.0 * np.pi * prof @ (grid.w * chat)
        if n == 0:
            want = want.real
        assert np.abs(got[n] - want).max() <= 1e-13 * np.abs(want).max()


def test_json_round_trip(rng):
    c = random_coeffs(rng, 3, 4)
    c.time = 1.75
    d = c.to_dict()
    blob = json.dumps(d)
    back = SpectralCoeffs.from_dict(json.loads(blob))
    assert back.time == 1.75
    assert back.n_theta == 3 and back.n_r == 4
    assert np.array_equal(back.g, c.g)


def test_reality_convention_row0(bas, disk_grid, rng):
    c = random_coeffs(rng)
    back = project(synthesize(c, disk_grid, bas, "vorticity"), bas, 8, 8)
    assert np.abs(back.g[0].imag).max() == 0.0


def test_tangential_gradient_norm_requires_layer(bas, rng):
    c = random_coeffs(rng, 4, 4)
    with pytest.raises(ValueError, match="layer width"):
        norm_l2(c, bas, "dtau_utau")
    with pytest.raises(ValueError, match="layer width"):
        norm_l2(c, bas, "dtau_un", delta=1.0)
    assert norm_l2(c, bas, "dtau_utau", delta=0.3) >= 0.0


def test_mode_inner_product_leaves_profile_cache_unchanged(bas):
    before = len(bas._profile_cache)
    for delta in (0.3, 0.07):
        mode_inner_product(bas, (3, 2), (5, 7), "velocity", delta=delta)
        mode_inner_product(bas, (1, 4), (1, 4), "vorticity", delta=delta)
    assert len(bas._profile_cache) == before


def test_radial_rule_cache_is_bounded(bas):
    alpha = float(bas.alpha[:5, :5].max())
    for delta in np.linspace(0.05, 0.95, 300):
        radial_rule(1.0 - float(delta), alpha)
    info = radial_rule.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
