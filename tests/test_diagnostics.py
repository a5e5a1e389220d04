from pathlib import Path

import numpy as np
import pytest

from diskflow import field
from diskflow.basis import StokesBasis, stokes_basis
from diskflow.diagnostics import (CONDITION_KINDS, LEMMA_IDS, ScheduleError,
                                  ScheduleSpec, TraceResolutionError,
                                  TruncationSpec, _ratio_rows, _report,
                                  condition_functional, residual_trace, truncate,
                                  truncate_trace, verify_lemma, vv_gap)
from diskflow.field import SpectralCoeffs, _reality_weights, norm_sq_series, radial_rule
from diskflow.solver import linear_trace, make_initial


@pytest.fixture(scope="module")
def bas():
    return stokes_basis(10, 10)


@pytest.fixture(scope="module")
def sched():
    return ScheduleSpec()


def coeffs_arange(n_theta=3, n_r=3):
    g = np.arange(1, (n_theta + 1) * n_r + 1, dtype=complex)
    return SpectralCoeffs(g=g.reshape(n_theta + 1, n_r))


def graded_times(T, S, p=3.0):
    """Time grid concentrated near zero, where stiff modes still live."""
    return T * np.linspace(0.0, 1.0, S) ** p


def test_truncation_square_identity_and_zeroing():
    c = coeffs_arange()
    sq = truncate(c, TruncationSpec.square(3))
    assert np.array_equal(sq.g, c.g)  # support already inside the square
    sq1 = truncate(c, TruncationSpec.square(1))
    keep = [(0, 0), (1, 0)]
    for i in range(4):
        for j in range(3):
            expect = c.g[i, j] if (i, j) in keep else 0.0
            assert sq1.g[i, j] == expect


def test_truncation_tangential_and_idempotence():
    c = coeffs_arange()
    t0 = truncate(c, TruncationSpec.tangential(0))
    assert np.array_equal(t0.g[0], c.g[0])
    assert np.abs(t0.g[1:]).max() == 0.0
    again = truncate(t0, TruncationSpec.tangential(0))
    assert np.array_equal(again.g, t0.g)


def test_truncation_band_is_difference_of_squares():
    c = coeffs_arange()
    band = truncate(c, TruncationSpec.band(1, 2))
    manual = truncate(c, TruncationSpec.square(2)).g - truncate(
        c, TruncationSpec.square(1)).g
    assert np.array_equal(band.g, manual)


def test_eigenvalue_threshold_contains_square(bas):
    # the zero-range bound gives lam < pi^2 ((n+1)/2 + k)^2 <= 4 pi^2 N^2 on
    # the square lattice, so square(N) sits inside that eigenvalue ball
    import scipy.special as sp

    for n in [2, 5, 8]:
        sq = TruncationSpec.square(n).mask(10, 10)
        ball = TruncationSpec.eigenvalue_threshold(
            4.0 * np.pi**2 * n**2).mask(10, 10, bas)
        assert (ball | ~sq).all()
        # direct lattice scan with oracle zeros for the sharp constant
        worst = max(sp.jn_zeros(m + 1, n)[-1] ** 2 / n**2 for m in range(n + 1))
        assert worst < 4.0 * np.pi**2


def test_schedule_defaults_and_validation():
    s = ScheduleSpec()
    assert s.L(0.05) == 5 and s.M(0.05) == 90
    assert s.delta(0.04) == pytest.approx(0.2)
    s.validate_sweep([0.1, 0.05, 0.025, 0.0125])
    with pytest.raises(ScheduleError):
        s.validate_sweep([0.05, 0.1])
    with pytest.raises(ScheduleError):
        s.validate_sweep([])
    with pytest.raises(ScheduleError):
        ScheduleSpec(a=1.5)
    with pytest.raises(ScheduleError):
        ScheduleSpec(b=0.5)


def test_zero_trace_gives_zero_functionals(bas, sched):
    init = SpectralCoeffs.zeros(4, 6)
    tr = linear_trace(init, bas, 0.05, np.linspace(0, 1, 101))
    for kind in CONDITION_KINDS:
        assert condition_functional(tr, kind, sched, bas) == 0.0


def test_no_live_row_gives_zero_without_profile_work(sched, monkeypatch):
    bas = StokesBasis(4, 6)
    tr = linear_trace(SpectralCoeffs.zeros(4, 6), bas, 0.05, np.linspace(0, 1, 101))
    before = field._gram_stacks.cache_info()
    monkeypatch.setattr(field, "radial_profiles", None)  # any call would fail
    assert field.live_rows(tr.g).size == 0
    for kind in CONDITION_KINDS:
        assert condition_functional(tr, kind, sched, bas) == 0.0
    rule = radial_rule(0.8, float(bas.alpha.max()))
    for quantity in ("vorticity", "gradient", "velocity", "dtau_utau", "dtau_un"):
        assert np.array_equal(norm_sq_series(tr.g, bas, quantity, rule),
                              np.zeros(tr.n_samples))
    assert field._gram_stacks.cache_info() == before  # not even a lookup


def test_k1_matches_closed_form(bas, sched):
    nu, T = 0.05, 5.0
    init = make_initial("radial-1", 0, 4)
    tr = linear_trace(init, bas, nu, np.linspace(0, T, 4001))
    lam = bas.pair(0, 1).lam
    expected = (1.0 - np.exp(-2 * nu * lam * T)) / (2 * lam)
    assert condition_functional(tr, "K1", sched, bas) == pytest.approx(
        expected, rel=1e-6)


def test_tangential_gradients_vanish_on_radial_flow(bas, sched):
    init = make_initial("radial-mix", 0, 6)
    tr = linear_trace(init, bas, 0.05, np.linspace(0, 1, 201))
    assert condition_functional(tr, "K4", sched, bas) < 1e-12
    assert condition_functional(tr, "K5", sched, bas) < 1e-12


def test_unknown_kind_and_coarse_trace_rejected(bas, sched):
    init = make_initial("radial-1", 0, 4)
    tr = linear_trace(init, bas, 0.05, np.linspace(0, 5, 201))
    with pytest.raises(ValueError, match="unknown condition kind"):
        condition_functional(tr, "K9", sched, bas)
    coarse = linear_trace(init, bas, 0.5, np.array([0.0, 2.5, 5.0, 7.5, 10.0]))
    with pytest.raises(TraceResolutionError):
        condition_functional(coarse, "K1", sched, bas)


def test_vv_gap_zero_for_identical(bas):
    init = make_initial("radial-mix", 0, 6)
    tr = linear_trace(init, bas, 0.05, np.linspace(0, 1, 51))
    assert vv_gap(tr, tr, bas) == 0.0


def test_vv_gap_closed_form(bas):
    nu, T = 0.05, 5.0
    init = make_initial("radial-1", 0, 4)
    tr = linear_trace(init, bas, nu, np.linspace(0, T, 501))
    lam = bas.pair(0, 1).lam
    expected = (1.0 - np.exp(-nu * lam * T)) / np.sqrt(lam)
    assert vv_gap(tr, init, bas) == pytest.approx(expected, rel=1e-12)


def test_vv_gap_decreases_with_viscosity(bas):
    init = make_initial("radial-mix", 0, 8)
    gaps = []
    for nu in [0.1, 0.05, 0.025, 0.0125]:
        tr = linear_trace(init, bas, nu, np.linspace(0, 1, 201))
        gaps.append(vv_gap(tr, init, bas))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    slope = np.polyfit(np.log([0.1, 0.05, 0.025, 0.0125]), np.log(gaps), 1)[0]
    assert slope >= 0.45


def test_vv_gap_time_mismatch(bas):
    init = make_initial("radial-1", 0, 4)
    a = linear_trace(init, bas, 0.05, np.linspace(0, 1, 11))
    b = linear_trace(init, bas, 0.05, np.linspace(0, 1, 21))
    with pytest.raises(ValueError):
        vv_gap(a, b, bas)


def test_vv_gap_refuses_a_reference_trace_of_another_shape(bas):
    # states of 1 x 1 and 2 x 1 modes would broadcast against each other
    times = np.linspace(0, 1, 11)
    a = linear_trace(make_initial("radial-1", 0, 1), bas, 0.05, times)
    b = linear_trace(make_initial("radial-1", 1, 1), bas, 0.05, times)
    with pytest.raises(ValueError, match="state shape"):
        vv_gap(a, b, bas)


def test_vv_gap_rejects_other_references(bas):
    init = make_initial("radial-1", 0, 4)
    tr = linear_trace(init, bas, 0.05, np.linspace(0, 1, 11))

    class Lookalike:  # the fields vv_gap reads, but not a SimTrace
        times, g = tr.times, tr.g

    for reference in (tr.g, Lookalike()):
        with pytest.raises(TypeError, match="SpectralCoeffs or SimTrace"):
            vv_gap(tr, reference, bas)


def test_triangle_decomposition_of_layer_vorticity(bas, sched):
    # whole <= 2 * low + 2 * residual, every piece computed independently
    rng = np.random.default_rng(3)
    g = 0.2 * (rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8)))
    g[0] = g[0].real
    init = SpectralCoeffs(g=g)
    for nu in [0.1, 0.05]:
        tr = linear_trace(init, bas, nu, graded_times(1.0, 2001))
        L = sched.L(nu)
        low = truncate_trace(tr, TruncationSpec.square(L))
        k2 = condition_functional(tr, "K2", sched, bas)
        k2_low = condition_functional(low, "K2", sched, bas)
        n3 = condition_functional(tr, "N3", sched, bas)
        assert k2 <= 2 * k2_low + 2 * n3 + 1e-9 * max(k2, 1e-30)


def test_three_way_split_of_layer_energy(bas, sched):
    rng = np.random.default_rng(4)
    g = 0.2 * (rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8)))
    g[0] = g[0].real
    init = SpectralCoeffs(g=g)
    nu = 0.2
    tr = linear_trace(init, bas, nu, graded_times(1.0, 2001))
    L, M = sched.L(nu), sched.M(nu)
    low = truncate_trace(tr, TruncationSpec.square(L))
    high = residual_trace(tr, TruncationSpec.square(M))
    k6 = condition_functional(tr, "K6", sched, bas)
    n7 = condition_functional(tr, "N7", sched, bas)
    k6_low = condition_functional(low, "K6", sched, bas)
    k6_high = condition_functional(high, "K6", sched, bas)
    assert k6 <= 3 * (n7 + k6_low + k6_high) + 1e-9 * max(k6, 1e-30)


def test_poincare_chain_constant_reported(bas, sched):
    # (1/nu) |u^M - u^L|^2 on the thin layer against nu |w^M - w^L|^2 on
    # the disk; the ratio is the empirical constant of the chain
    rng = np.random.default_rng(5)
    g = 0.2 * (rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8)))
    g[0] = g[0].real
    init = SpectralCoeffs(g=g)
    consts = []
    for nu in [0.2, 0.1]:
        tr = linear_trace(init, bas, nu, graded_times(1.0, 2001))
        n7 = condition_functional(tr, "N7", sched, bas)
        n1 = condition_functional(tr, "N1", sched, bas)
        if n1 > 0:
            consts.append(n7 / n1)
    assert consts and all(np.isfinite(c) and c >= 0.0 for c in consts)


def test_low_band_layer_vorticity_vanishes_along_sweep(bas, sched):
    # nu int |w^L|^2 over the thin layer must fall to below 1e-3 of its
    # largest value along a geometric viscosity sweep
    init = make_initial("radial-mix", 0, 8)
    vals = []
    for j in range(11):
        nu = 0.1 * 2.0 ** (-j)
        tr = linear_trace(init, bas, nu, graded_times(1.0, 2001))
        L = sched.L(nu)
        low = truncate_trace(tr, TruncationSpec.square(L))
        vals.append(condition_functional(low, "K2", sched, bas))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3 * max(vals)


def test_high_tail_energy_ratio_reported(bas, sched):
    # (1/nu) int |u - u^M|^2 on the thin layer, scaled by (nu M)^2, stays
    # below a sweep-independent constant
    big = stokes_basis(1, 128)
    k = np.arange(1, 129.0)
    g = (k / np.sqrt(np.sum(k**2 / big.lam[0, :128]))).astype(complex)
    init = SpectralCoeffs(g=g[None, :])
    ratios = []
    for nu in [0.1, 0.08, 0.065, 0.053]:
        tr = linear_trace(init, big, nu, graded_times(1.0, 4001, 4.0))
        M = sched.M(nu)
        high = residual_trace(tr, TruncationSpec.square(M))
        val = condition_functional(high, "K6", sched, big)
        ratios.append(val * (nu * M) ** 2)
    assert max(ratios) < 3 * min(r for r in ratios if r > 0)


def test_angular_selection_rule(bas):
    from diskflow.field import mode_inner_product

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        m, n = rng.integers(0, 11, 2)
        if m == n:
            continue
        j, k = rng.integers(1, 11, 2)
        d = float(rng.uniform(0.02, 1.0))
        worst = max(worst, abs(mode_inner_product(
            bas, (int(m), int(j)), (int(n), int(k)), "vorticity", d)))
    assert worst < 1e-12


def test_batched_inner_products_equal_scalar_calls(monkeypatch):
    import diskflow.diagnostics
    from diskflow.diagnostics import _cross_pairs
    from diskflow.field import mode_inner_product

    bas = stokes_basis(30, 30)
    m, j, n, k, delta = _cross_pairs(30, 30)
    both = mode_inner_product(bas, (m, j), (n, k), ("velocity", "vorticity"), delta)
    for q, joint in zip(("velocity", "vorticity"), both):
        batched = mode_inner_product(bas, (m, j), (n, k), q, delta)
        assert np.array_equal(joint, batched)  # one pass gives both, bit for bit
        single = [mode_inner_product(bas, (int(a), int(b)), (int(c), int(d)), q, float(e))
                  for a, b, c, d, e in zip(m, j, n, k, delta)]
        assert all(isinstance(v, complex) for v in single)
        assert np.max(np.abs(batched - np.array(single))) <= 1e-28
    pair = ((3, 2), (5, 4), ("velocity", "vorticity"), 0.3)
    assert mode_inner_product(bas, *pair) == [mode_inner_product(bas, *pair[:2], q, 0.3)
                                              for q in pair[2]]
    with pytest.raises(ValueError, match="a vorticity pass does not give velocity"):
        mode_inner_product(bas, (m, j), (n, k), ("vorticity", "velocity"), delta)
    calls = []
    monkeypatch.setattr(diskflow.diagnostics, "mode_inner_product",
                        lambda *a: calls.append(a) or mode_inner_product(*a))
    assert verify_lemma("SomeL2InnerProductsAreZero", 30, 30, bas).passed
    assert len(calls) == 1


def test_verify_lemma_unknown_id():
    with pytest.raises(ValueError, match="unknown lemma id"):
        verify_lemma("NotALemma", 5, 5)


@pytest.mark.parametrize("lemma", ["ZeroDifference", "jnkRange", "JRatios",
                                   "L2omegaGammaBound",
                                   "L2omegaGammaBoundGeneral",
                                   "SomeL2InnerProductsAreZero",
                                   "UsefulFunctionBound"])
def test_strict_lemmas_pass_small_range(lemma, bas):
    rep = verify_lemma(lemma, 10, 10, basis=bas)
    assert rep.passed is True
    assert rep.worst_margin >= -1e-9


@pytest.mark.parametrize("lemma", ["Jnp1Ratios", "Jnm1Ratios",
                                   "L2uGammaBoundGeneral"])
def test_envelope_lemmas_report_constants(lemma, bas):
    rep = verify_lemma(lemma, 10, 10, basis=bas)
    assert rep.passed is None
    assert rep.constant is not None and np.isfinite(rep.constant)
    rows = list(rep.csv_rows())
    assert rows and {"lemma", "n", "k", "param", "observed", "bound",
                     "margin"} <= set(rows[0])


def test_jratios_worst_at_ignores_roundoff(bas):
    # near x = 1 every ratio is 1 to within roundoff, so the margins of the
    # whole scan tie; a +-1e-15 reshuffle must not move the reported mode
    rep = verify_lemma("JRatios", 10, 10, basis=bas)
    assert (rep.worst_at["n"], rep.worst_at["k"]) == (0, 1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rows = [row[:5] + (row[5] + rng.choice([-1e-15, 1e-15]),) for row in rep.rows]
        again = _report("JRatios", 10, 10, rows)
        assert again.worst_at == rep.worst_at
        assert again.worst_margin == min(row[5] for row in rows)


@pytest.mark.parametrize("lemma, calls", [("JRatios", 10), ("L2omegaGammaBound", None)])
def test_lemma_scans_pass_at_most_a_block_of_lanes_to_the_bessel_kernel(
        lemma, calls, monkeypatch):
    import diskflow.basis
    import diskflow.diagnostics
    from diskflow.bessel import _BLOCK, jn_trio

    basis = stokes_basis(30, 30)
    lanes = []

    def spy(n, x):
        lanes.append(np.size(x))
        return jn_trio(n, x)

    for module in (diskflow.basis, diskflow.diagnostics):
        monkeypatch.setattr(module, "jn_trio", spy)
    _ratio_rows.cache_clear()  # an earlier scan's rows would make no pass
    verify_lemma(lemma, 30, 30, basis)
    assert lanes and max(lanes) <= _BLOCK == 1 << 14
    assert calls is None or len(lanes) == calls


@pytest.mark.parametrize("size", [5, 30])
def test_ratio_scans_sharing_an_x_grid_share_one_pass(size, monkeypatch):
    import diskflow.diagnostics
    from diskflow.bessel import jn_trio
    from diskflow.diagnostics import _BLOCK, _X_SAMPLES

    basis = stokes_basis(size, size)
    calls = []
    monkeypatch.setattr(diskflow.diagnostics, "jn_trio",
                        lambda n, x: calls.append(np.size(x)) or jn_trio(n, x))

    def scan(*lemmas):
        _ratio_rows.cache_clear()
        calls.clear()
        reps = {lemma: verify_lemma(lemma, size, size, basis) for lemma in lemmas}
        # one pass over the whole square, however many scans of the grid ran
        assert len(calls) == -(-(size + 1) * size // (_BLOCK // _X_SAMPLES))
        return reps

    alone = {**scan("JRatios"), **scan("Jnm1Ratios")}
    for both in (scan("JRatios", "Jnm1Ratios"), scan("Jnm1Ratios", "JRatios")):
        for lemma, rep in alone.items():
            other = both[lemma]
            assert other is not rep and other.rows == rep.rows  # tuples of floats
            assert other.worst_at == rep.worst_at and other.worst_margin == rep.worst_margin
            assert other.constant == rep.constant and other.passed == rep.passed


def test_ratio_memo_holds_at_most_two_grids():
    basis = StokesBasis(12, 12)
    _ratio_rows.cache_clear()
    for size in (4, 8, 12):
        for lemma in ("JRatios", "Jnp1Ratios", "Jnm1Ratios"):
            verify_lemma(lemma, size, size, basis)
        assert _ratio_rows.cache_info().currsize == _ratio_rows.cache_info().maxsize == 2
    assert _ratio_rows.cache_info().misses == 6  # one pass per x grid and size
    # the memo hands out the rows, never a report a caller could change
    rep = verify_lemma("JRatios", 12, 12, basis)
    rep.rows.clear()
    rep.worst_at["n"] = -1
    again = verify_lemma("JRatios", 12, 12, basis)
    assert again.rows and again.worst_at["n"] >= 0


def test_median_form_equals_numpy_median_bit_for_bit():
    from diskflow.diagnostics import _median

    rng = np.random.default_rng(5)
    for size in (1, 2, 464, 465):
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
        got, want = _median(v), np.median(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), size


def test_zero_difference_example_values(bas):
    rep = verify_lemma("ZeroDifference", 3, 3)
    d = 3.831705970207512 - 2.404825557695773
    assert 1.0 < d < np.pi / 2
    assert rep.passed
    rep = verify_lemma("jnkRange", 3, 3)
    assert rep.passed


def test_exploratory_cross_term_decay_reported(bas, capsys):
    # same-order cross inner products on a layer, scaled by the index gap;
    # measured and printed only, never asserted against a guessed constant
    from diskflow.field import mode_inner_product

    worst = 0.0
    for n in [0, 2, 5]:
        for j, k in [(1, 3), (2, 6), (1, 8), (4, 9)]:
            for d in [0.1, 0.4, 1.0]:
                v = abs(mode_inner_product(bas, (n, j), (n, k), "vorticity", d))
                worst = max(worst, v * abs(k - j))
    print(f"cross-term envelope |<w_nj, w_nk>| * |k - j| <= {worst:.4f}")
    assert np.isfinite(worst)


def test_exploratory_ratio_bounds_beyond_diagonal(bas, capsys):
    # the neighbor-order ratio bounds are only stated for k <= n; the k > n
    # region is measured and reported without a verdict
    from diskflow.bessel import jn_trio

    cmax = 0.0
    for n in [1, 3, 6]:
        for k in [n + 1, n + 3, 10]:
            a = bas.alpha[n, k - 1]
            b = bas.beta[n, k - 1]
            ja = bas.j_at_alpha[n, k - 1]
            x = np.linspace(b / a + 1e-9, 1.0 - 1e-7, 200)
            ratio = np.abs(jn_trio(n + 1, a * x)[1]) / (abs(ja) * n * (1.0 - x))
            cmax = max(cmax, float(ratio.max()))
    print(f"beyond-diagonal ratio envelope C = {cmax:.4f}")
    assert np.isfinite(cmax)


def _per_mode_layer_mass(basis, n, k, deltas, quantity):
    """Layer masses of one mode, each width on its own Gauss rule."""
    from diskflow.basis import pair_profile
    from diskflow.field import _gauss_radial

    pair = basis.pair(n, k)
    nq = int(max(48, 1.6 * pair.alpha * float(deltas.max()) + 24))
    rules = [_gauss_radial(nq, 1.0 - float(d)) for d in deltas]
    prof = pair_profile(pair, np.concatenate([r for r, _ in rules]), quantity)
    dens = np.sum(prof ** 2, axis=0).reshape(deltas.size, nq)
    return np.array([2.0 * np.pi * float(np.dot(w, d))
                     for (_, w), d in zip(rules, dens)])


def _per_mode_worst(lemma, basis, n, k):
    """(param, observed) of the worst sample of mode (n, k), one Bessel
    evaluation per mode."""
    from diskflow.bessel import jn_trio

    a, b = basis.alpha[n, k - 1], basis.beta[n, k - 1]
    ja, a1 = basis.j_at_alpha[n, k - 1], basis.alpha[n, 0]
    if lemma in ("JRatios", "Jnm1Ratios", "Jnp1Ratios"):
        x_hi = 1.0 - (1e-7 if lemma == "Jnp1Ratios" else 1e-12)
        x = np.linspace(b / a + 1e-9, x_hi, 160)
        if lemma == "Jnp1Ratios":
            v = np.abs(jn_trio(n + 1, a * x)[1]) / (abs(ja) * n * (1.0 - x))
        else:
            v = np.abs(jn_trio(n, a * x)[1 if lemma == "JRatios" else 0] / ja)
        i = int(np.argmax(v))
        return x[i], v[i]
    if lemma == "L2uGammaBoundGeneral":
        deltas = np.geomspace(0.01, 0.25, 8) * (0.5 / a1)
        mass = _per_mode_layer_mass(basis, n, k, deltas, "velocity")
        i = int(np.argmax(mass / deltas**3))
    else:
        deltas = (np.geomspace(1e-4, 1.0, 8) / a if lemma == "L2omegaGammaBound"
                  else np.geomspace(1e-3, 1.0, 8) / (2.0 * np.pi * a1))
        mass = _per_mode_layer_mass(basis, n, k, deltas, "vorticity")
        i = int(np.argmin(2.0 * deltas - mass))
    return deltas[i], mass[i]


@pytest.mark.parametrize("lemma", ["JRatios", "Jnp1Ratios", "Jnm1Ratios",
                                   "L2omegaGammaBound",
                                   "L2omegaGammaBoundGeneral",
                                   "L2uGammaBoundGeneral"])
def test_row_batched_scans_match_per_mode_scans(lemma, bas):
    rep = verify_lemma(lemma, 8, 8, basis=bas)
    square = lemma in ("JRatios", "L2omegaGammaBound")
    modes = {(n, k) for n in range(0 if square else 1, 9)
             for k in range(1, (8 if square else min(n, 8)) + 1)}
    assert {(row[0], row[1]) for row in rep.rows} == modes
    assert len(rep.rows) == len(modes)
    for n, k, param, observed, _, _ in rep.rows:
        ref_param, ref_observed = _per_mode_worst(lemma, bas, n, k)
        assert param == pytest.approx(ref_param, rel=0, abs=1e-12)
        assert observed == pytest.approx(ref_observed, rel=1e-11, abs=0)


def _layer_norms_by_quadrature(g, basis, quantity, delta):
    """Squared norms of the states g[s] over the layer of width delta (the
    whole disk by Parseval for delta=None), summed point by point."""
    nt, nr = g.shape[1] - 1, g.shape[2]
    wr = _reality_weights(nt)
    if delta is None:
        return np.sum(wr[:, None] * np.abs(g) ** 2, axis=(1, 2))
    r, w = radial_rule(1.0 - delta, float(basis.alpha[: nt + 1, :nr].max()))
    out = np.zeros(g.shape[0])
    for n in range(nt + 1):
        vals = g[:, n, :] @ basis.profile_matrix(n, r, quantity, k_max=nr)[quantity]  # (c, s, q)
        out += 2.0 * np.pi * wr[n] * np.sum(w * np.abs(vals) ** 2, axis=(0, 2))
    return out


def test_every_kind_matches_per_sample_quadrature(sched):
    # random full-band state: every row, mode and truncation is populated
    nu, nt = 0.05, 8
    bas = stokes_basis(nt, nt)
    rng = np.random.default_rng(11)
    g0 = rng.standard_normal((nt + 1, nt)) + 1j * rng.standard_normal((nt + 1, nt))
    g0[0] = g0[0].real
    tr = linear_trace(SpectralCoeffs(g=g0), bas, nu, graded_times(1.0, 801))
    L, M = sched.L(nu), sched.M(nu)
    wide, Ld = sched.delta(nu), sched.L(sched.delta(nu))
    # kind: (weight, quantity, layer width, modes kept)
    band = TruncationSpec.band(L, M).mask(nt, nt)
    sq_res = ~TruncationSpec.square(L).mask(nt, nt)
    tan_res = ~TruncationSpec.tangential(L).mask(nt, nt)
    tan_res_d = ~TruncationSpec.tangential(Ld).mask(nt, nt)
    every = np.ones((nt + 1, nt), dtype=bool)
    table = {
        "K1": (nu, "vorticity", None, every), "K2": (nu, "vorticity", nu, every),
        "K3": (nu, "gradient", nu, every), "K4": (nu, "dtau_utau", wide, every),
        "K5": (nu, "dtau_un", wide, every), "K6": (1 / nu, "velocity", nu, every),
        "N1": (nu, "vorticity", None, band), "N2": (nu, "vorticity", None, tan_res),
        "N3": (nu, "vorticity", nu, sq_res), "N4": (nu, "gradient", nu, band),
        "N5": (nu, "dtau_utau", wide, tan_res_d), "N6": (nu, "dtau_un", wide, tan_res_d),
        "N7": (1 / nu, "velocity", nu, band),
    }
    assert set(table) == set(CONDITION_KINDS)
    for kind, (weight, quantity, delta, keep) in table.items():
        g = np.where(keep, tr.g, 0.0)
        series = _layer_norms_by_quadrature(g, bas, quantity, delta)
        expected = weight * np.trapezoid(series, tr.times)
        assert expected > 0.0
        got = condition_functional(tr, kind, sched, bas)
        assert got == pytest.approx(expected, rel=1e-13, abs=0), kind
        if delta is not None:
            rule = radial_rule(1.0 - delta, float(bas.alpha[: nt + 1, :nt].max()))
            np.testing.assert_allclose(norm_sq_series(g, bas, quantity, rule),
                                       series, rtol=1e-13, atol=0)


def test_zero_rows_build_no_profile_rows(sched, monkeypatch):
    nu = 0.05
    bas = StokesBasis(8, 8)  # its own caches: every row it needs is built here
    g0 = np.zeros((9, 8), dtype=complex)
    g0[:3] = 1.0 / np.arange(1, 9)
    tr = linear_trace(SpectralCoeffs(g=g0), bas, nu, graded_times(1.0, 401))
    rows = []
    orig = field.radial_profiles

    def spy(n, *args, **kwargs):
        rows.append(int(np.max(n)))
        return orig(n, *args, **kwargs)

    monkeypatch.setattr(field, "radial_profiles", spy)
    for kind in CONDITION_KINDS:
        condition_functional(tr, kind, sched, bas)
    assert rows and max(rows) == 2


def test_lemma_row_order_survives_a_3_ulp_move_of_the_zeros(monkeypatch):
    from diskflow.bessel import ZeroTable, zero_table

    def scan():
        return {lid: verify_lemma(lid, 30, 30).rows for lid in LEMMA_IDS}

    def clear():
        zero_table.cache_clear()
        stokes_basis.cache_clear()

    before = scan()
    build = ZeroTable._build
    monkeypatch.setattr(ZeroTable, "_build", staticmethod(
        lambda n_max, cols: build(n_max, cols) * (1.0 + 3.0 * 2.0**-52)))
    clear()  # the memos must not hand back the unperturbed tables
    try:
        after = scan()
    finally:
        clear()
    assert before["JRatios"] != after["JRatios"]  # the move reaches the margins
    for lid in LEMMA_IDS:
        assert [r[:2] for r in after[lid]] == [r[:2] for r in before[lid]], lid


def test_trapezoid_functionals_bound_the_exact_time_moments(monkeypatch):
    # an unforced linear trace has exact time moments H_n[k, j] =
    # Re(conj(g_k) g_j) (1 - exp(-nu (lam_k + lam_j) T)) / (nu (lam_k + lam_j));
    # on the benchmark sweep the trapezoid rule lies just above them
    from dataclasses import replace

    from diskflow.solver import SimConfig, simulate

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import SWEEP_CONFIG

    sim, schedule = SWEEP_CONFIG["sim"], ScheduleSpec(**SWEEP_CONFIG["schedule"])
    bas = stokes_basis(sim["n_theta"], sim["n_r"])
    lam = bas.lam  # the whole table: the trace keeps every mode
    for seed in (0, 1):
        for nu in SWEEP_CONFIG["nu_list"]:
            tr = simulate(SimConfig(nu=nu, seed=seed, **sim), bas)
            g0, s = tr.g[0], nu * (lam[:, :, None] + lam[:, None, :])
            h = (np.conj(g0)[:, :, None] * g0[:, None, :]).real
            h *= -np.expm1(-s * tr.times[-1]) / s
            exact = replace(tr)
            exact.moments = np.stack([h, h])
            for kind in CONDITION_KINDS:
                got = condition_functional(tr, kind, schedule, bas)
                want = condition_functional(exact, kind, schedule, bas)
                if want == 0.0:
                    assert got == 0.0, (seed, nu, kind)
                else:
                    assert want <= got <= want * (1.0 + 1e-4), (seed, nu, kind)
