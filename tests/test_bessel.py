import math

import numpy as np
import pytest
import scipy.special as sp

import diskflow.bessel
from diskflow.bessel import (ORDER_MAX, X_MAX, BesselDomainError, ZeroConvergenceError,
                             ZeroTable, bessel_j, bessel_j_prime, bessel_zero,
                             compound_decay, jn_trio, zero_table)
from oracles import bisect_zero, central_diff, jn_block, series_jn, trapezoid_radial


def test_values_at_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j_prime(0, 0.0) == 0.0
    assert bessel_j_prime(1, 0.0) == 0.5


def test_value_at_first_root_of_j0():
    root = bisect_zero(lambda x: series_jn(0, x), 2.0, 3.0)
    assert abs(root - 2.404825557695773) < 1e-14
    assert abs(bessel_j(0, root)) < 1e-12


def test_against_series_oracle():
    # the plain series oracle is itself reliable only before its terms
    # grow large, so keep the comparison inside that window
    for n in [0, 1, 2, 5, 11]:
        for x in [0.05, 0.3, 1.0, 2.7, 6.0]:
            assert bessel_j(n, x) == pytest.approx(series_jn(n, x), abs=1e-13)


def test_against_scipy_wide_range(rng):
    # scaled by the oscillation envelope so accuracy near roots still counts;
    # tolerance allows for scipy's own high-order error (~5e-13)
    for n in [0, 1, 7, 40, 128]:
        x = np.concatenate([rng.uniform(0, 2, 20), rng.uniform(2, 70, 40),
                            rng.uniform(70, 800, 40)])
        mine = bessel_j(n, x)
        ref = sp.jv(n, x)
        env = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * np.maximum(x, 1.0))))
        assert np.max(np.abs(mine - ref) / env) < 2e-12


def test_against_mpmath_spot_checks(rng):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for n in [0, 7, 90]:
        x = np.concatenate([rng.uniform(0.6, 30, 6), rng.uniform(30, 700, 6)])
        mine = bessel_j(n, x)
        ref = np.array([float(mp.besselj(n, mp.mpf(float(v)))) for v in x])
        env = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * np.maximum(x, 1.0))))
        assert np.max(np.abs(mine - ref) / env) < 2e-13


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 64, 128, 400, ORDER_MAX])
def test_trio_against_mpmath_on_every_route(n):
    # at the turning point, above it, and near X_MAX, where a rounded phase
    # x - pi/4 or a reused 1/x would cost digits; mpmath's default precision
    # cap does not reach order ORDER_MAX near X_MAX, so those lanes are left out
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(n)
    x = np.concatenate([n + rng.uniform(0.5, 3.0, 4), n + rng.uniform(3.0, 300.0, 4),
                        rng.uniform(0.5 * X_MAX, X_MAX, 2 if n <= 400 else 0)])
    got = jn_trio(n, x)
    ref = np.array([[float(mp.besselj(o, mp.mpf(float(v)))) for v in x]
                    for o in (n - 1, n, n + 1)])
    env = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * np.maximum(x, 1.0))))
    assert np.max(np.abs(got - ref) / env) < (1e-14 if n <= 128 else 1e-13)


def test_per_lane_orders_match_constant_order_calls(rng):
    # lanes in shuffled order; each reference call holds the largest
    # argument too, so both recurrences start at the same index
    orders = rng.integers(0, 41, 600)
    orders[:20] = 0
    x = np.concatenate([rng.uniform(0.0, 0.5, 40), rng.uniform(0.6, 200.0, 560)])
    rng.shuffle(orders)
    got = jn_trio(orders, x)
    for o in range(41):
        sel = orders == o
        want = jn_trio(o, np.append(x[sel], x.max()))[:, :-1]
        np.testing.assert_allclose(got[:, sel], want, rtol=1e-15, atol=0)
    zero = orders == 0
    assert zero.sum() >= 20 and np.array_equal(got[0, zero], -got[2, zero])


def test_derivative_formula_and_finite_difference():
    val = bessel_j_prime(2, 5.0)
    assert val == pytest.approx(0.5 * (bessel_j(1, 5.0) - bessel_j(3, 5.0)), abs=1e-15)
    fd = central_diff(lambda x: bessel_j(2, x), 5.0)
    assert val == pytest.approx(fd, abs=1e-8)


def test_three_term_recurrence(rng):
    for n in [1, 2, 13, 35, 60]:
        x = rng.uniform(0.05, 200.0, 50)
        blk = jn_block(n + 1, x)
        resid = 2 * n * blk[n] - x * blk[n - 1] - x * blk[n + 1]
        assert np.max(np.abs(resid) / (1.0 + np.abs(x))) < 1e-10


def test_neighbor_derivative_relations(rng):
    # J_{n-1} = (n/x) J_n + J_n' and J_{n+1} = (n/x) J_n - J_n'
    for n in [1, 3, 20]:
        x = rng.uniform(0.1, 150.0, 40)
        blk = jn_block(n + 1, x)
        jp = 0.5 * (blk[n - 1] - blk[n + 1])
        assert np.max(np.abs(blk[n - 1] - (n / x) * blk[n] - jp)) < 1e-10
        assert np.max(np.abs(blk[n + 1] - (n / x) * blk[n] + jp)) < 1e-10


def test_bessel_ode_residual(rng):
    # second derivative from the four-neighbor recurrence, independent of
    # the evaluation path used inside the library
    for n in [0, 1, 6, 25]:
        x = rng.uniform(0.5, 120.0, 30)
        blk = jn_block(n + 2, x)
        jn = blk[n]
        jm2 = blk[abs(n - 2)] * (1.0 if n != 1 else -1.0)
        jpp = 0.25 * (jm2 - 2.0 * blk[n] + blk[n + 2])
        jp = 0.5 * ((blk[n - 1] if n >= 1 else -blk[1]) - blk[n + 1])
        resid = jpp + jp / x + (1.0 - n * n / (x * x)) * jn
        assert np.max(np.abs(resid)) < 1e-11


def test_squared_integral_identity():
    # integral of r J_n(a r)^2 over (0, 1) vs its closed form
    for n, a in [(0, 3.7), (2, 8.1), (5, 14.2)]:
        quad = trapezoid_radial(lambda r: bessel_j(n, a * r) ** 2, 0.0, 1.0)
        closed = 0.5 * (bessel_j(n, a) ** 2
                        - (bessel_j(n - 1, a) if n >= 1 else -bessel_j(1, a))
                        * bessel_j(n + 1, a))
        assert quad == pytest.approx(closed, abs=1e-9)


def test_first_zeros_against_bisection_oracle():
    j01 = bisect_zero(lambda x: series_jn(0, x), 2.0, 3.0)
    j11 = bisect_zero(lambda x: series_jn(1, x), 3.0, 4.5)
    assert bessel_zero(0, 1) == pytest.approx(j01, abs=1e-13)
    assert bessel_zero(1, 1) == pytest.approx(j11, abs=1e-13)
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-13)
    assert bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-13)


def test_zero_table_against_scipy():
    tab = zero_table(40, 40)
    for n in [0, 1, 17, 40]:
        ref = sp.jn_zeros(n, 40)
        assert np.max(np.abs(tab.row(n, 40) - ref)) < 5e-13


def test_zero_seeds_lie_close_to_the_zeros():
    for n in [0, 1, 2, 7, 60, 201]:
        k = np.arange(1, 203)
        seeds = diskflow.bessel._zero_seeds(np.full(k.size, n), k)
        assert np.max(np.abs(seeds - sp.jn_zeros(n, 202))) < 0.011


@pytest.mark.parametrize("shift", [0.5 * np.pi, np.pi])
def test_seed_off_by_a_spacing_raises(monkeypatch, shift):
    # a bracket around the next zero, or around none, fails the sign check
    seeds = diskflow.bessel._zero_seeds
    monkeypatch.setattr(diskflow.bessel, "_zero_seeds", lambda n, k: seeds(n, k) + shift)
    with pytest.raises(ZeroConvergenceError, match="no bracket"):
        ZeroTable(6, 6)


@pytest.mark.parametrize("n_max, k_max, passes", [(8, 8, 5), (129, 128, 9)])
def test_zero_refinement_pass_count(monkeypatch, n_max, k_max, passes):
    # per block one bracket-and-seed pass, a pass per Newton step after the
    # first and one polish pass; (129, 128) with its spare column is two
    # blocks, the second converging a step sooner
    trio, calls = diskflow.bessel.jn_trio, []
    monkeypatch.setattr(diskflow.bessel, "jn_trio",
                        lambda n, x: calls.append(n) or trio(n, x))
    ZeroTable(n_max, k_max)
    assert len(calls) == passes


def test_zero_table_domain_guard():
    # j_{n,k} < pi (n/2 + k) for the spare column k_max + 1 must stay in range
    with pytest.raises(BesselDomainError, match="zeros below"):
        zero_table(3, 10**8)
    with pytest.raises(BesselDomainError, match="zeros below"):
        bessel_zero(0, 3184)
    # (0, 3182) is in range: its spare column lies below pi * 3183 < X_MAX
    last = bessel_zero(0, 3182)
    assert last == pytest.approx(sp.jn_zeros(0, 3182)[-1], abs=1e-9) and last < X_MAX


def test_zeros_are_roots_and_in_range():
    tab = zero_table(30, 30)
    for n in [0, 3, 18, 30]:
        for k in [1, 7, 30]:
            v = tab.zero(n, k)
            assert abs(bessel_j(n, v)) < 1e-12
            assert n + k < v < np.pi * (n / 2 + k)


def test_zero_interlacing_and_monotonicity():
    tab = zero_table(25, 25)
    rows = tab.all_rows()
    assert (np.diff(rows, axis=1) > 0).all()
    assert (rows[1:] > rows[:-1]).all()
    assert (rows[1:, :-1] < rows[:-1, 1:]).all()


def test_consecutive_order_zero_gap_full_range():
    # gap between the same-index zeros of consecutive orders lies in (1, pi/2)
    tab = zero_table(201, 200)
    rows = tab.all_rows()[:202, :200]
    diff = rows[1:] - rows[:-1]
    assert diff.min() > 1.0
    assert diff.max() < 0.5 * np.pi


def test_zero_range_bounds_full_range():
    tab = zero_table(200, 200)
    rows = tab.all_rows()[:201, :200]
    ns = np.arange(201)[:, None]
    ks = np.arange(1, 201)[None, :]
    assert (rows > ns + ks).all()
    assert (rows < np.pi * (ns / 2.0 + ks)).all()


def test_compound_decay_values_and_bounds():
    assert compound_decay(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert compound_decay(0.9, 2.0) == pytest.approx(0.3025, abs=1e-15)
    assert compound_decay(0.5, 1e6) == pytest.approx(math.exp(-0.5), abs=1e-6)
    for alpha in np.linspace(0.05, 0.95, 10):
        x = np.geomspace(1.0, 1e6, 200)
        g = compound_decay(float(alpha), x)
        assert (g >= 1.0 - alpha - 1e-15).all()
        assert (g < math.exp(-alpha)).all()


def test_domain_errors():
    with pytest.raises(BesselDomainError):
        bessel_j(0, -1.0)
    with pytest.raises(BesselDomainError):
        bessel_j(0, 2e4)
    with pytest.raises(BesselDomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(BesselDomainError):
        bessel_zero(0, 0)
    with pytest.raises(BesselDomainError):
        compound_decay(1.5, 2.0)
    with pytest.raises(BesselDomainError):
        compound_decay(0.5, 0.5)
    with pytest.raises(BesselDomainError):
        ZeroTable(2, 2).zero(3, 1)
