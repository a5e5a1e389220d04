import numpy as np
import pytest
import scipy.special as sp

from diskflow.basis import (PHASES, QUANTITIES, LRUCache, StokesBasis, pair_profile,
                            radial_profiles, stokes_basis, velocity_eval,
                            velocity_gradient_eval, vorticity_eval)
from diskflow.bessel import BesselDomainError
from oracles import bisect_zero, series_jn, trapezoid_radial

SQRT_PI = np.sqrt(np.pi)


def test_pair_constants_against_oracles(basis13):
    p = basis13.pair(0, 1)
    j11 = bisect_zero(lambda x: series_jn(1, x), 3.0, 4.5)
    assert p.alpha == pytest.approx(j11, abs=1e-13)
    assert p.lam == pytest.approx(j11**2, abs=1e-11)
    assert p.beta == pytest.approx(2.404825557695773, abs=1e-13)
    # series oracle for J_0 at the first root of J_1
    j0_at = series_jn(0, j11)
    assert j0_at == pytest.approx(-0.402759395702553, abs=1e-12)
    assert p.c_norm == pytest.approx(1.0 / (SQRT_PI * abs(j0_at)), rel=1e-12)
    assert p.c_norm == pytest.approx(1.4009, abs=1e-4)
    assert np.isnan(p.d_const)


def test_root_equation_and_d_const(basis13):
    for n in [1, 2, 7, 13]:
        for k in [1, 4, 13]:
            p = basis13.pair(n, k)
            resid = p.alpha * sp.jvp(n, p.alpha) - n * sp.jv(n, p.alpha)
            assert abs(resid) < 1e-9
            assert p.d_const == pytest.approx(
                -p.lam * sp.jv(n, p.alpha) / n, rel=1e-10)


def test_eigenvalue_ordering_and_interlacing(basis13):
    for n in range(6):
        for k in range(1, 6):
            p = basis13.pair(n, k)
            assert p.beta < p.alpha < basis13.pair(n, k + 1).beta


def test_vorticity_normalized_positive_at_boundary(basis13):
    for n in [0, 1, 5, 13]:
        for k in [1, 6, 13]:
            val = vorticity_eval(basis13.pair(n, k), 1.0, 0.0)
            assert val.real == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
            assert abs(val.imag) < 1e-15


def test_vorticity_values(basis13):
    p = basis13.pair(3, 2)
    assert vorticity_eval(p, 0.0, 1.3) == 0.0
    p = basis13.pair(1, 1)
    v = vorticity_eval(p, 0.5, np.pi / 2)
    expected = p.c_signed * series_jn(1, p.alpha * 0.5) * 1j
    assert v == pytest.approx(expected, abs=1e-12)


def test_velocity_vanishes_on_boundary(basis13):
    worst = 0.0
    for n in range(0, 13):
        for k in [1, 7, 13]:
            u = velocity_eval(basis13.pair(n, k), 1.0, 0.77)
            worst = max(worst, float(np.abs(u).max()))
    assert worst < 1e-10


def test_velocity_center_values(basis13):
    assert np.abs(velocity_eval(basis13.pair(0, 1), 0.0, 0.3)).max() == 0.0
    assert np.abs(velocity_eval(basis13.pair(4, 2), 0.0, 0.3)).max() == 0.0
    # n = 1 has a finite nonzero limit; it must match nearby values
    p = basis13.pair(1, 1)
    u0 = velocity_eval(p, 0.0, 0.0)
    u_eps = velocity_eval(p, 1e-7, 0.0)
    assert np.abs(u0 - u_eps).max() < 1e-10
    assert np.abs(u0).max() > 1e-3


def test_velocity_against_direct_formula(basis13):
    # direct transcription of the velocity formula, coded independently
    # with scipy Bessel functions
    n, k = 1, 1
    p = basis13.pair(n, k)
    a = p.alpha
    r, th = 0.5, 0.0
    ja = sp.jv(n, a)
    sign = np.sign(ja)
    ur = ((sp.jv(n, a * r) - ja * r**n)
          / (SQRT_PI * a**2 * abs(ja) * r)) * 1j * n * np.exp(1j * n * th) * sign
    ut = ((a * (sp.jv(n + 1, a * r) - sp.jv(n - 1, a * r)) + 2 * n * ja * r**(n - 1))
          / (2 * SQRT_PI * a**2 * abs(ja))) * np.exp(1j * n * th) * sign
    u = velocity_eval(p, r, th)
    assert u[0] == pytest.approx(ur, abs=1e-12)
    assert u[1] == pytest.approx(ut, abs=1e-12)


def test_gradient_divergence_and_curl(basis13, rng):
    for n in [0, 1, 4, 9]:
        for k in [1, 5]:
            p = basis13.pair(n, k)
            for _ in range(3):
                r = float(rng.uniform(0.1, 0.99))
                th = float(rng.uniform(0, 2 * np.pi))
                G = velocity_gradient_eval(p, r, th)
                assert abs(G[0, 0] + G[1, 1]) < 1e-9
                assert abs(G[1, 0] - G[0, 1] - vorticity_eval(p, r, th)) < 1e-9


def test_gradient_against_finite_differences(basis13):
    p = basis13.pair(2, 3)
    r, th, h = 0.7, 0.3, 1e-6
    G = velocity_gradient_eval(p, r, th)
    dur = (velocity_eval(p, r + h, th) - velocity_eval(p, r - h, th)) / (2 * h)
    dth = (velocity_eval(p, r, th + h) - velocity_eval(p, r, th - h)) / (2 * h)
    u = velocity_eval(p, r, th)
    assert G[0, 0] == pytest.approx(dur[0], abs=1e-7)
    assert G[0, 1] == pytest.approx(dth[0] / r - u[1] / r, abs=1e-7)
    assert G[1, 0] == pytest.approx(dur[1], abs=1e-7)
    assert G[1, 1] == pytest.approx(dth[1] / r + u[0] / r, abs=1e-7)


def test_gradient_rejects_center(basis13):
    with pytest.raises(BesselDomainError):
        velocity_gradient_eval(basis13.pair(1, 1), 0.0, 0.0)


def test_eigen_equation_residual(basis13):
    # Laplacian of the mode vorticity via second differences of the radial
    # profile; entirely independent of the library's derivative formulas
    for n, k in [(0, 1), (2, 2), (6, 3)]:
        p = basis13.pair(n, k)
        h = 1e-4
        for r in [0.35, 0.6, 0.85]:
            w = lambda rr: (vorticity_eval(p, rr, 0.0)).real
            d2 = (w(r + h) - 2 * w(r) + w(r - h)) / h**2
            d1 = (w(r + h) - w(r - h)) / (2 * h)
            lap = d2 + d1 / r - n * n / r**2 * w(r)
            assert abs(lap + p.lam * w(r)) < 1e-4 * max(1.0, p.lam)


def test_zero_total_vorticity_mass(basis13):
    # angular symmetry gives zero for n >= 1; for n = 0 the radial integral
    # itself must vanish
    from scipy.integrate import quad

    for k in [1, 4, 9]:
        p = basis13.pair(0, k)
        val, _ = quad(lambda r: r * p.c_signed * sp.jv(0, p.alpha * r),
                      0.0, 1.0, limit=200, epsabs=1e-13)
        assert abs(2 * np.pi * val) < 1e-10


def test_h_norm_identity(basis13):
    # squared L2 norm of the mode velocity is 1/lambda
    from scipy.integrate import quad

    for n, k in [(0, 1), (1, 1), (3, 2), (9, 5)]:
        p = basis13.pair(n, k)
        val, _ = quad(
            lambda r: r * np.sum(np.abs(velocity_eval(p, float(r), 0.0)) ** 2),
            0.0, 1.0, limit=200, epsabs=1e-13)
        assert 2 * np.pi * val == pytest.approx(1.0 / p.lam, abs=1e-9)


def test_vorticity_orthonormality_small_gram(basis13):
    from numpy.polynomial.legendre import leggauss

    xi, wq = leggauss(192)
    r = 0.5 * (xi + 1.0)
    w = 0.5 * wq * r
    na = 16
    th = 2 * np.pi * np.arange(na) / na
    modes = [(n, k) for n in range(5) for k in range(1, 5)]
    vals = []
    for n, k in modes:
        p = basis13.pair(n, k)
        rad = p.c_signed * sp.jv(n, p.alpha * r)
        vals.append(np.exp(1j * n * th)[:, None] * rad[None, :])
    V = np.array([v.ravel() for v in vals])
    W = np.tile(w, na) * (2 * np.pi / na)
    G = (V * W[None, :]) @ V.conj().T
    assert np.abs(G - np.eye(len(modes))).max() < 1e-9


def test_boundary_layer_mass_bound(basis13):
    # squared layer norm of one mode is at most twice the layer width when
    # the width is below the mode scale, and scales cubically for velocity
    deltas = []
    for n, k in [(1, 1), (5, 3), (13, 13)]:
        p = basis13.pair(n, k)
        d = 0.9 / p.alpha
        mass = 2 * np.pi * trapezoid_radial(
            lambda r: (p.c_norm * sp.jv(n, p.alpha * r)) ** 2, 1 - d, 1.0)
        assert mass <= 2 * d + 1e-9
        deltas.append((p, d))
    # velocity layer mass ~ delta^3 (log-log slope 3 +- 0.1)
    p = basis13.pair(6, 2)
    ds = np.geomspace(0.002, 0.02, 6)
    masses = []
    for d in ds:
        # |velocity_eval|^2 summed over components: the phases have modulus 1
        dens = lambda r: np.sum(pair_profile(p, r, "velocity") ** 2, axis=0)
        masses.append(2 * np.pi * trapezoid_radial(dens, 1 - d, 1.0, n=2001))
    slope = np.polyfit(np.log(ds), np.log(masses), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_ratio_bounds_inside_last_oscillation(basis13):
    # |J_n(alpha x)| <= |J_n(alpha)| between the last interior zero and 1
    for n in [0, 2, 8]:
        for k in [1, 5, 13]:
            p = basis13.pair(n, k)
            x = np.linspace(p.beta / p.alpha + 1e-9, 1.0, 400)
            ratio = np.abs(sp.jv(n, p.alpha * x)) / abs(sp.jv(n, p.alpha))
            assert ratio.max() <= 1.0 + 1e-12


def test_table_bounds_checked(basis13):
    with pytest.raises(BesselDomainError):
        basis13.pair(14, 1)
    with pytest.raises(BesselDomainError):
        basis13.pair(0, 14)
    with pytest.raises(BesselDomainError):
        basis13.pair(0, 0)


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_pair_profile_matches_profile_matrix_column(basis13, n, quantity):
    r = np.linspace(0.01, 1.0, 37)
    row = basis13.profile_matrix(n, r, quantity)[quantity]
    for k in range(1, basis13.k_max + 1):
        single = pair_profile(basis13.pair(n, k), r, quantity)
        assert single.shape == (QUANTITIES[quantity], r.size)
        np.testing.assert_allclose(single, row[:, k - 1], rtol=0,
                                   atol=1e-14 * np.abs(row).max())


@pytest.mark.parametrize("n", [0, 4])
@pytest.mark.parametrize("quantity", sorted(PHASES))
def test_radial_profiles_on_per_mode_radii_match_pair_profile(basis13, n, quantity):
    kk = np.arange(1, 6)
    # a different radius grid for every mode, as the layer scans use
    r = np.linspace(0.2, 1.0, 11)[None, :] ** (kk[:, None] / 3.0)
    prof = radial_profiles(n, basis13.alpha[n, kk - 1], basis13.c_signed[n, kk - 1],
                           r, quantity)[quantity]
    assert prof.shape == (QUANTITIES[quantity], kk.size, r.shape[1])
    for i, k in enumerate(kk):
        single = pair_profile(basis13.pair(n, int(k)), r[i], quantity)
        np.testing.assert_allclose(prof[:, i], single, rtol=0,
                                   atol=1e-14 * np.abs(prof).max())


@pytest.mark.parametrize("quantity", sorted(PHASES))
def test_radial_profiles_take_one_order_per_mode(quantity):
    bas = stokes_basis(24, 24)
    orders, kk = np.array([0, 1, 2, 24, 0, 24, 1, 2]), np.array([1, 3, 5, 24, 24, 1, 7, 2])
    r = np.linspace(0.05, 1.0, 40)
    mixed = radial_profiles(orders, bas.alpha[orders, kk - 1], bas.c_signed[orders, kk - 1],
                            r, quantity)[quantity]
    for i, (n, k) in enumerate(zip(orders.tolist(), kk.tolist())):
        single = radial_profiles(n, bas.alpha[n, [k - 1]], bas.c_signed[n, [k - 1]],
                                 r, quantity)[quantity][:, 0]
        np.testing.assert_allclose(mixed[:, i], single, rtol=1e-14,
                                   atol=1e-14 * np.abs(single).max())
    # n = 0 has no radial velocity and no angular derivative, exactly
    if quantity in ("velocity", "dtau_un"):
        assert not mixed[0, orders == 0].any()


@pytest.mark.parametrize("quantity", sorted(PHASES))
def test_profiles_are_real_float64(basis13, quantity):
    r = np.linspace(0.05, 1.0, 9)
    row = basis13.profile_matrix(5, r, quantity, k_max=4)[quantity]
    single = pair_profile(basis13.pair(5, 2), r, quantity)
    assert row.dtype == np.float64 and single.dtype == np.float64
    assert row.shape == (len(PHASES[quantity]), 4, r.size)


@pytest.mark.parametrize("n, k, r, th", [(0, 1, 0.3, 0.4), (1, 2, 0.9, 2.2),
                                         (5, 3, 0.55, 4.1)])
def test_velocity_eval_is_phase_times_real_factor(basis13, n, k, r, th):
    p = basis13.pair(n, k)
    expected = (np.array(PHASES["velocity"]) * pair_profile(p, [r], "velocity")[:, 0]
                * np.exp(1j * n * th))
    np.testing.assert_allclose(velocity_eval(p, r, th), expected, rtol=0, atol=1e-15)


def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(2)
    cache["a"], cache["b"] = 1, 2
    assert cache.get("a") == 1  # "b" is now the least recently used
    cache["c"] = 3
    assert isinstance(cache, dict) and dict(cache) == {"a": 1, "c": 3}
    assert cache.get("b") is None


def test_zero_table_and_basis_caches_are_bounded():
    from diskflow.basis import stokes_basis
    from diskflow.bessel import zero_table

    assert zero_table.cache_info().maxsize == stokes_basis.cache_info().maxsize == 8
    for k in range(1, 10):  # nine distinct sizes
        stokes_basis(2, k)
    assert zero_table.cache_info().currsize == stokes_basis.cache_info().currsize == 8


def test_gram_cache_is_bounded():
    from diskflow.field import gram, radial_rule

    bas = StokesBasis(8, 4)
    bas._gram_cache.maxsize = 3
    rule = radial_rule(0.9, float(bas.alpha.max()))
    stacks = []
    for n in range(6):
        stacks.append(gram(bas, [n], "dtau_un", rule, 4))
        assert gram(bas, [n], "dtau_un", rule, 4) is stacks[-1]  # a hit
    assert len(bas._gram_cache) == 3
    assert gram(bas, [5], "dtau_un", rule, 4) is stacks[5]
    assert gram(bas, [2], "dtau_un", rule, 4) is not stacks[2]  # dropped
    assert len(bas._gram_cache) == 3
