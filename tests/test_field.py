import json
import warnings

import numpy as np
import pytest
import scipy.special as sp

from diskflow.basis import QUANTITIES, StokesBasis, pair_profile, stokes_basis
from diskflow.field import (_MASS_TOL, FieldSample, GridError, SpectralCoeffs,
                            _gauss_radial, _lane_masses, _leggauss, _reality_weights,
                            _resolves, build_grid, gram, inner_product, layer_masses,
                            layer_rule, mode_inner_product, norm_l2, norm_sq_series,
                            pairing, project, radial_rule, synthesize)
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


@pytest.mark.parametrize("degrees", [range(1, 129), range(129, 257), [1024]],
                         ids=["1-128", "129-256", "1024"])
def test_gauss_legendre_rule_is_numpys_bit_for_bit(degrees):
    # 1024 is layer_masses' node cap
    from numpy.polynomial.legendre import leggauss

    for deg in degrees:
        for mine, numpys in zip(_leggauss.__wrapped__(deg), leggauss(deg)):
            assert np.array_equal(mine, numpys), deg


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


def _pairing_by_loops(a, b, w, rows):
    """sum_n wr_n sum_k w Re(conj(a) b), state by state and entry by entry,
    with wr_n 1 on row 0 and 2 on every other row."""
    a, b, w = np.broadcast_arrays(a, b, w)
    out = np.zeros(a.shape[:-2])
    for s in np.ndindex(out.shape):
        for i, n in enumerate(rows):
            for k in range(a.shape[-1]):
                z = complex(a[s + (i, k)]).conjugate() * complex(b[s + (i, k)])
                out[s] += (1.0 if n == 0 else 2.0) * float(w[s + (i, k)]) * z.real
    return out


def test_pairing_matches_a_per_state_double_loop(bas):
    rng = np.random.default_rng(24)
    a, b = (rng.standard_normal((3, 2, 5, 4)) + 1j * rng.standard_normal((3, 2, 5, 4))
            for _ in range(2))
    w = rng.uniform(0.5, 2.0, (5, 4))
    got = pairing(a, w, b=b)[0]
    assert got.shape == (3, 2)
    scale = _pairing_by_loops(np.abs(a), np.abs(b), w, range(5)).max()
    np.testing.assert_allclose(got, _pairing_by_loops(a, b, w, range(5)), rtol=0,
                               atol=1e-14 * scale)
    np.testing.assert_allclose(pairing(b, w, b=a)[0], got, rtol=1e-15)
    # weights 1 and then 1/lam on a = b: |omega|^2 and |u|^2
    lam = bas.lam[:5, :4]
    w2, u2 = pairing(a, 1.0, 1.0 / lam)
    wr = np.where(np.arange(5) == 0, 1.0, 2.0)[:, None]
    np.testing.assert_allclose(u2, np.sum(wr * np.abs(a) ** 2 / lam, axis=(2, 3)),
                               rtol=1e-13)
    np.testing.assert_allclose(u2, _pairing_by_loops(a, a, 1.0 / lam, range(5)), rtol=1e-13)
    np.testing.assert_allclose(w2, _pairing_by_loops(a, a, 1.0, range(5)), rtol=1e-13)


def test_pairing_with_a_gram_weight_is_the_functionals_contraction(bas):
    # condition_functional's sum over live rows of <G_n, H_n>, doubled for
    # n >= 1, with the layer Gram and with the Parseval Gram I
    nt, k, rng = 9, 6, np.random.default_rng(25)
    rule = radial_rule(0.9, float(bas.alpha[: nt + 1, :k].max()))
    for rows in (np.array([0, 2, 3, 7]), np.array([3, 7])):
        shape = (2, rows.size, 8, k)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        moments = (np.conj(x.swapaxes(2, 3)) @ x).real  # like a trace's: positive definite
        flat = moments.reshape(2, rows.size, k * k)
        for gr in (gram(bas, rows, "vorticity", rule, k), np.eye(k)):
            old = np.sum(gr * moments, axis=(2, 3)) @ _reality_weights(nt)[rows]
            got = pairing(flat, gr.reshape(-1, k * k), b=1.0, rows=rows)[0]
            assert got.shape == (2,)
            np.testing.assert_allclose(got, old, rtol=1e-14)
            loops = _pairing_by_loops(flat, 1.0, gr.reshape(-1, k * k), rows)
            np.testing.assert_allclose(got, loops, rtol=1e-14)


@pytest.mark.parametrize("quantity", list(QUANTITIES))
def test_gram_stack_matches_per_row_grams(quantity):
    # the oracle is the per-row Gram 2 pi sum_c (P_c w) P_c^T of profile_matrix
    bas = StokesBasis(8, 8)
    rule = layer_rule(0.3, bas.alpha)
    rows = [0, 2, 3, 7]
    stack = gram(bas, rows, quantity, rule, 6)
    assert stack.shape == (len(rows), 6, 6)
    for n, got in zip(rows, stack):
        prof = bas.profile_matrix(n, rule[0], quantity, k_max=6)[quantity]
        want = 2.0 * np.pi * np.sum((prof * rule[1]) @ prof.swapaxes(1, 2), axis=0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), n


@pytest.mark.parametrize("first, filled", [("gradient", tuple(QUANTITIES)),
                                          ("velocity", tuple(QUANTITIES))])
def test_gram_is_the_same_whichever_pass_filled_the_cache(first, filled):
    # the order of a sweep's kinds must not move its values; every request
    # makes the one gradient pass, which caches all five quantities' stacks
    rule = layer_rule(0.05, stokes_basis(6, 6).alpha)
    warm, cold = StokesBasis(6, 6), StokesBasis(6, 6)
    gram(warm, [1, 2, 4], first, rule, 6)
    assert len(warm._gram_cache) == 5
    for quantity in filled:
        assert np.array_equal(gram(warm, [1, 2, 4], quantity, rule, 6),
                              gram(cold, [1, 2, 4], quantity, rule, 6)), quantity


def test_gram_refuses_an_unknown_quantity():
    # every request makes the gradient pass, which must not stand in for a typo
    bas = StokesBasis(4, 4)
    with pytest.raises(ValueError, match="unknown quantity 'vort'"):
        gram(bas, [1], "vort", layer_rule(0.3, bas.alpha), 4)
    assert len(bas._gram_cache) == 0


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
    radial = c.g[n] @ bas.profile_matrix(n, grid.r, "vorticity", k_max=4)["vorticity"][0]
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
        prof = bas.profile_matrix(n, grid.r, "vorticity", k_max=4)["vorticity"][0]
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


def test_radial_rule_cache_is_bounded(bas):
    alpha = float(bas.alpha[:5, :5].max())
    for delta in np.linspace(0.05, 0.95, 300):
        radial_rule(1.0 - float(delta), alpha)
    info = radial_rule.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256


@pytest.mark.parametrize("n, nodes", [(8, 48), (16, 73), (24, 100), (32, 132)])
def test_engine_rule_has_the_fewest_passing_nodes(n, nodes):
    from diskflow.field import _resolves
    from diskflow.solver import SimConfig, _Engine

    eng = _Engine(SimConfig(nu=1.0, t_end=1.0, n_theta=n, n_r=n), stokes_basis(n, n))
    assert eng.r.size == nodes
    # one node fewer is below the floor of 48 or fails the check
    assert nodes - 1 < 48 or not _resolves(nodes - 1, eng.wavenumber, 0.0)


def _doubling_and_bisection(r_lo, alpha, n_start):
    """The fewest passing count >= n_start as radial_rule found it before it
    predicted the count, and the checks made: doubling from the floor
    brackets the count, bisection narrows the bracket."""
    lo, hi, checks = n_start - 1, n_start, 1
    while not _resolves(hi, alpha, r_lo):
        lo, hi, checks = hi, 2 * hi, checks + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _resolves(mid, alpha, r_lo) else (mid, hi)
        checks += 1
    return hi, checks


def test_radial_rule_matches_doubling_and_bisection(monkeypatch):
    import diskflow.field

    calls, oracle_checks = [], 0
    monkeypatch.setattr(diskflow.field, "_resolves",
                        lambda *a: calls.append(a) or _resolves(*a))
    radial_rule.cache_clear()
    for n_start in (48, 128):
        for r_lo in (0.0, 0.5, 0.9, 0.99):
            # 221.828... is the engine's wavenumber at n_theta = n_r = 32
            for alpha in np.linspace(1.0, 400.0, 21).tolist() + [221.82805658256189]:
                want, checks = _doubling_and_bisection(r_lo, alpha, n_start)
                oracle_checks += checks
                assert radial_rule(r_lo, alpha, n_start)[0].size == want, (r_lo, alpha, n_start)
    # the predicted count saves most of the search's checks
    assert len(calls) < 0.5 * oracle_checks
    radial_rule.cache_clear()


def test_inner_product_scan_validates_one_rule(monkeypatch):
    import diskflow.field
    from diskflow.diagnostics import verify_lemma

    calls = []
    resolves = diskflow.field._resolves
    monkeypatch.setattr(diskflow.field, "_resolves",
                        lambda *a: calls.append(a) or resolves(*a))
    radial_rule.cache_clear()
    rep = verify_lemma("SomeL2InnerProductsAreZero", 30, 30)
    assert rep.passed
    assert len(calls) <= 10


@pytest.mark.parametrize("delta", [0.0, -0.2, float("nan"), 1.5])
def test_mode_inner_product_rejects_bad_layer_widths(bas, delta):
    with pytest.raises(ValueError, match="layer width"):
        mode_inner_product(bas, (3, 2), (5, 7), "velocity", delta=delta)
    with pytest.raises(ValueError, match="layer width"):
        norm_l2(random_coeffs(np.random.default_rng(0)), bas, "velocity", delta=delta)
    with pytest.raises(ValueError, match="layer width"):
        layer_rule(np.array([0.5, delta]), bas.alpha)


def test_layer_rule_gives_every_width_the_widest_layers_count():
    alphas = np.array([20.0, 140.0])
    deltas = np.array([[1.0, 0.05], [0.3, 0.6]])
    q = radial_rule(0.0, 140.0)[0].size
    assert q > radial_rule(1.0 - 0.6, 140.0)[0].size  # the widest sets it
    r, w = layer_rule(deltas, alphas)
    assert r.shape == w.shape == deltas.shape + (q,)
    for i in np.ndindex(deltas.shape):
        ri, wi = _gauss_radial(q, 1.0 - deltas[i])
        assert np.array_equal(r[i], ri) and np.array_equal(w[i], wi)
    for a, b in zip(layer_rule(0.05, alphas), radial_rule(1.0 - 0.05, 140.0)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("r_lo, alpha", [(float("nan"), 10.0), (0.0, float("nan")),
                                         (0.5, float("inf"))])
def test_radial_rule_rejects_non_finite_input_at_once(r_lo, alpha, monkeypatch):
    import diskflow.field

    monkeypatch.setattr(diskflow.field, "_resolves", None)  # any check would fail
    with pytest.raises(GridError, match="finite"):
        radial_rule(r_lo, alpha)


def test_layer_masses_reject_the_thin_layer_count_the_j0_check_passes():
    # at delta = 0.01 the J_0 check of radial_rule passes 4 nodes for the
    # largest alpha of the (24, 24) table, but the 4-node mass of dtau_un at
    # (12, 24) misses its 6-node mass by 6.3e-7 relative
    bas = stokes_basis(24, 24)
    assert _resolves(4, float(bas.alpha.max()), 0.99)
    m4, m6 = _lane_masses(bas, np.array([12, 12]), np.array([24, 24]),
                          np.full(2, 0.01), "dtau_un", np.array([4, 6]))
    assert abs(m4 - m6) > 5e-7 * m6 > _MASS_TOL * m6
    r, w = _gauss_radial(200, 0.99)
    for quantity in QUANTITIES:
        mass, count = layer_masses(bas, 12, 24, 0.01, quantity)
        dens = np.sum(pair_profile(bas.pair(12, 24), r, quantity) ** 2, axis=0)
        assert mass[0] == pytest.approx(2.0 * np.pi * np.dot(w, dens), rel=1e-12, abs=0)
        assert count[0] > 6
