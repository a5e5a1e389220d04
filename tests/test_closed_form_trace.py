"""An unforced linear trace holds its initial state and eigenvalues, not its
states or series: every reader computes the states it needs, with the same
bits as a stored trace, and a sweep point's memory does not grow with
samples x modes.  A sweep point builds no series, reads one sample for its
gap and makes one Gram pass per radial rule."""

import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diskflow.basis import stokes_basis
from diskflow.bessel import _BLOCK
from diskflow.cli import main
from diskflow.diagnostics import CONDITION_KINDS, ScheduleSpec, condition_functional, vv_gap
from diskflow.field import SpectralCoeffs
from diskflow.solver import SimConfig, SimTrace, linear_trace, make_initial, simulate

N = 24  # the sweep-linear point at nu = 0.04
NU = 0.04
POINT = dict(nu=NU, n_theta=N, n_r=N, init="generic", seed=0, linear=True)
# one complex block, one float block and numpy's iterator buffers (8192
# values per operand), as in test_trace_blocks
ALLOWANCE = 3 * _BLOCK * 16
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bas():
    return stokes_basis(N, N)


def _peak(f):
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _sweep_point(bas, cfg, schedule=ScheduleSpec()):
    tr = simulate(cfg, bas)
    values = [condition_functional(tr, kind, schedule, bas) for kind in CONDITION_KINDS]
    return tr, values + [vv_gap(tr, tr.coeffs_at(0), bas)]


def _benchmark_points(monkeypatch):
    """The sweep-linear config's sim settings, schedule and viscosities."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import SWEEP_CONFIG

    return (SWEEP_CONFIG["sim"], ScheduleSpec(**SWEEP_CONFIG["schedule"]),
            SWEEP_CONFIG["nu_list"])


def _stored(tr):
    """The same trace with its states stored, each written as one expression."""
    g = tr.g0 * np.exp(-tr.nu * tr.times[:, None, None] * tr.lam)
    return tr.with_coeffs(g), g


def test_a_sweep_point_does_not_grow_with_samples_times_modes(bas):
    short_cfg, long_cfg = SimConfig(t_end=0.5, **POINT), SimConfig(t_end=2.0, **POINT)
    _sweep_point(bas, short_cfg)  # the Gram stacks and radial rules, cached on the basis
    (short, _), low = _peak(lambda: _sweep_point(bas, short_cfg))
    (long, _), high = _peak(lambda: _sweep_point(bas, long_cfg))
    S, more = short.n_samples, long.n_samples - short.n_samples
    assert (S, long.n_samples) == (988, 3948)
    assert "g" not in short.__dict__ and "g" not in long.__dict__
    # per added sample: the times and five series, and the moments' product
    # over all samples of one row (its states, their weighted conjugate and
    # the exponent), which blocking over samples would reorder.  A stored
    # trace adds a state of (N + 1) * N * 16 B: the stored runs peaked at
    # 10.7 and 41.5 MB, these at 1.5 and 4.5 MB.
    assert high - low <= more * (6 * 8 + N * (16 + 16 + 8)) + ALLOWANCE, (low, high)
    # the full states are built on first access, one block at a time
    g, peak = _peak(lambda: short.g)
    assert g.shape == (S, N + 1, N) and peak <= g.nbytes + ALLOWANCE, peak


def test_a_linear_trace_reads_the_bits_of_its_stored_counterpart(bas):
    lt = simulate(SimConfig(t_end=0.5, **POINT), bas)
    st, g = _stored(lt)
    other = linear_trace(SpectralCoeffs(g=0.5 * lt.g0), bas, 2.0 * NU, lt.times)
    other_st, _ = _stored(other)
    S = lt.n_samples
    assert np.array_equal(lt.moments, st.moments)
    for i in (0, S // 2, -1):
        a, b = lt.coeffs_at(i), st.coeffs_at(i)
        assert np.array_equal(a.g, b.g) and a.time == b.time, i
    steady = SpectralCoeffs(g=0.5 * lt.g0)
    assert vv_gap(lt, steady, bas) == vv_gap(st, steady, bas)
    assert vv_gap(lt, other, bas) == vv_gap(st, other_st, bas)
    assert vv_gap(lt, other_st, bas) == vv_gap(st, other, bas)
    assert "g" not in lt.__dict__ and "g" not in other.__dict__  # nothing built so far
    assert np.array_equal(lt.g, g)
    assert np.array_equal(lt.states(slice(1, 5), 3), g[1:5, 3])


def test_replace_and_with_coeffs_keep_working_on_a_linear_trace():
    from dataclasses import replace

    init = make_initial("generic", 4, 4, seed=1)
    lt = linear_trace(init, stokes_basis(4, 4), 0.1, np.linspace(0.0, 1.0, 7))
    copy = replace(lt)
    assert np.array_equal(copy.g, lt.g) and np.array_equal(copy.u_norm_sq, lt.u_norm_sq)
    zeroed = lt.with_coeffs(np.zeros_like(lt.g))
    assert not zeroed.states().any() and not zeroed.moments.any()
    assert np.array_equal(lt.g[0], init.g)


def test_the_benchmark_sweep_never_builds_the_full_states(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from gates import check_op
    from workloads import cli_args

    def build(self, name):
        if name == "g":
            raise AssertionError("the full states of a closed-form trace were built")
        raise AttributeError(name)

    monkeypatch.setattr(SimTrace, "__getattr__", build)
    with pytest.raises(AssertionError):
        linear_trace(make_initial("radial-1", 1, 2), stokes_basis(1, 2), 0.1, [0.0]).g
    out = tmp_path / "sweep-linear"
    code = main(cli_args("sweep-linear", out, 0))
    # a point that fails is recorded, not raised: its values are nan
    assert json.loads((out / "manifest.json").read_text())["config"]["failures"] == {}
    with open(out / "diagnostics.csv", newline="") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert len(values) == 42 and np.isfinite(values).all()
    check_op("sweep-linear", out, code, 0)


def test_a_sweep_point_makes_one_gram_pass_per_rule_and_no_series(monkeypatch):
    from diskflow import field
    from diskflow.basis import QUANTITIES, StokesBasis, radial_profiles
    from diskflow.field import gram, layer_rule, live_rows

    sim, schedule, nus = _benchmark_points(monkeypatch)
    passes = []

    def counted(*args):
        passes.append(args[-1])
        return radial_profiles(*args)

    monkeypatch.setattr(field, "radial_profiles", counted)
    for nu in nus:
        bas = StokesBasis(sim["n_theta"], sim["n_r"])  # its own Gram cache
        passes.clear()
        tr, _ = _sweep_point(bas, SimConfig(nu=nu, seed=0, **sim), schedule)
        assert passes == ["gradient", "gradient"], (nu, passes)  # the thin and wide rules
        assert not set(tr.__dict__) & {"g", "u_norm_sq", "w_norm_sq", "visc_cum"}
        nt1, nr = tr.g0.shape
        rows = live_rows(tr.moments[0].reshape(nt1, -1))
        for width in (schedule.c * nu, schedule.delta(nu)):
            r, w = layer_rule(width, bas.alpha[:nt1, :nr])
            for q in QUANTITIES:  # each stack as its quantity's own pass builds it
                prof = radial_profiles(np.repeat(rows, nr), bas.alpha[rows, :nr].ravel(),
                                       bas.c_signed[rows, :nr].ravel(), r, q)[q]
                p = prof.reshape(prof.shape[0], rows.size, nr, r.size)
                own = 2.0 * np.pi * np.sum((p * w) @ p.swapaxes(2, 3), axis=0)
                assert np.array_equal(gram(bas, rows, q, (r, w), nr), own), (nu, width, q)
        assert passes == ["gradient", "gradient"]  # every stack was a cache hit


@pytest.mark.parametrize("stride", [1, 7])
def test_the_gap_at_the_last_sample_is_the_blocked_pass(monkeypatch, stride):
    from dataclasses import replace

    sim, _, nus = _benchmark_points(monkeypatch)
    bas = stokes_basis(sim["n_theta"], sim["n_r"])
    for seed in range(4):
        for nu in nus:
            tr = simulate(SimConfig(nu=nu, seed=seed, sample_stride=stride, **sim), bas)
            stored = replace(tr, g=tr.g, g0=None, lam=None)  # states read from g
            assert vv_gap(tr, tr.coeffs_at(0), bas) == vv_gap(stored, tr.coeffs_at(0), bas)


def test_the_gap_against_the_initial_state_reads_one_sample(bas, monkeypatch):
    tr = simulate(SimConfig(t_end=0.5, **POINT), bas)
    states = SimTrace.states

    def one_sample(self, s=slice(None), n=slice(None), out=None):
        if isinstance(s, slice) and len(range(*s.indices(self.n_samples))) > 1:
            raise AssertionError(f"states {s} read")
        return states(self, s, n, out)

    monkeypatch.setattr(SimTrace, "states", one_sample)
    assert vv_gap(tr, tr.coeffs_at(0), bas) > 0.0
    with pytest.raises(AssertionError):  # any other reference takes the blocked pass
        vv_gap(tr, SpectralCoeffs(g=0.5 * tr.g0), bas)
