import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from diskflow.basis import stokes_basis
from diskflow.cli import build_parser, main
from diskflow.diagnostics import CONDITION_KINDS
from diskflow.solver import SimConfig, _Engine, default_dt, make_initial, simulate
from oracles import bisect_zero, series_jn

ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_zeros_first_row_matches_oracle(tmp_path):
    out = tmp_path / "z"
    assert main(["zeros", "--n-max", "1", "--k-max", "1",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "zeros.csv")
    assert rows[0]["n"] == "0" and rows[0]["k"] == "1"
    oracle = bisect_zero(lambda x: series_jn(0, x), 2.0, 3.0)
    assert float(rows[0]["zero"]) == pytest.approx(oracle, abs=1e-12)
    assert (out / "manifest.json").exists()


def test_zeros_empty_table(tmp_path):
    out = tmp_path / "z0"
    assert main(["zeros", "--n-max", "0", "--k-max", "0",
                 "--out", str(out)]) == 0
    text = (out / "zeros.csv").read_text().strip().splitlines()
    assert text == ["n,k,zero"]


def test_zeros_interlacing_row_count(tmp_path):
    out = tmp_path / "z2"
    assert main(["zeros", "--n-max", "2", "--k-max", "2",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "zeros.csv")
    assert len(rows) == 6
    z = {(int(r["n"]), int(r["k"])): float(r["zero"]) for r in rows}
    for n in range(2):
        for k in range(1, 2):
            assert z[(n, k)] < z[(n + 1, k)] < z[(n, k + 1)]


def test_basis_table_columns(tmp_path):
    out = tmp_path / "b"
    assert main(["basis", "--n-max", "1", "--k-max", "2",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "basis.csv")
    assert list(rows[0]) == ["n", "k", "lambda", "alpha", "beta", "c_norm",
                             "d_const"]
    r01 = rows[0]
    assert float(r01["lambda"]) == pytest.approx(float(r01["alpha"]) ** 2)
    assert r01["d_const"] == "nan"
    assert float(rows[2]["d_const"]) != 0.0  # n = 1 rows carry the constant


def test_simulate_writes_trace_and_snapshots(tmp_path):
    cfg = {"nu": 0.05, "t_end": 0.5, "n_theta": 2, "n_r": 4, "dt": 0.01,
           "init": "radial-1", "linear": True, "snapshot_stride": 25}
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = read_csv(out / "trace.csv")
    assert len(rows) == 51
    assert float(rows[0]["w_norm_sq"]) == pytest.approx(1.0)
    snaps = json.loads((out / "snapshots.json").read_text())["snapshots"]
    assert snaps and snaps[0]["n_theta"] == 2 and snaps[0]["n_r"] == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["nu"] == 0.05


def test_simulate_requires_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 2


def _write_sim_config(tmp_path, **over):
    cfg = {"nu": 0.05, "t_end": 0.1, "n_theta": 2, "n_r": 3, "dt": 0.01,
           "init": "radial-1", "linear": True}
    cfg.update(over)
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(json.dumps(cfg))
    return cfgfile


def test_simulate_failed_run_exits_1(tmp_path, capsys):
    cfgfile = _write_sim_config(tmp_path, nu=0.001, t_end=1.0, n_theta=6,
                                n_r=6, dt=0.05, init="generic", seed=2,
                                amplitude=50.0, linear=False)
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    assert "FAILED: norm grew" in capsys.readouterr().out


def test_a_failed_run_snapshots_its_last_accepted_state(tmp_path, capsys):
    # the run of the test above fails at step 4; at snapshot_stride 2 it
    # holds the states of samples 0 and 2 and of the last accepted one, 3
    cfg = dict(nu=0.001, t_end=1.0, n_theta=6, n_r=6, dt=0.05, init="generic", seed=2,
               amplitude=50.0, linear=False)
    cfgfile = _write_sim_config(tmp_path, **cfg, snapshot_stride=2)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 1
    trace = simulate(SimConfig(**cfg))
    assert trace.failed and trace.n_samples == 4
    times = [float(row["time"]) for row in read_csv(out / "trace.csv")]
    assert times == trace.times.tolist()  # one row per sample, none repeated
    snaps = json.loads((out / "snapshots.json").read_text())["snapshots"]
    assert snaps == [trace.coeffs_at(i).to_dict() for i in (0, 2, 3)]


@pytest.mark.parametrize("content", [None, "{not json", '{"n_theta": 2, "n_r": 3}'],
                         ids=["missing", "not-json", "no-re-key"])
def test_unreadable_init_file_exits_2_naming_the_file(tmp_path, capsys, content):
    coeffs = tmp_path / "coeffs.json"
    if content is not None:
        coeffs.write_text(content)
    cfgfile = _write_sim_config(tmp_path, init={"file": "coeffs.json"})
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read init file {coeffs}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_simulate_rejects_non_finite_init_coefficients(tmp_path, capsys, value):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('{"time": 0.0, "n_theta": 2, "n_r": 3, "im": [[0, 0, 0], '
                      f'[0, 0, 0], [0, 0, 0]], "re": [[1, 0, 0], [0, {value}, 0], '
                      '[0, 0, 0]]}')
    cfgfile = _write_sim_config(tmp_path, init={"file": "coeffs.json"})
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read init file {coeffs}" in err and "non-finite" in err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_sweep_rejects_non_finite_init_coefficients(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('{"time": 0.0, "n_theta": 0, "n_r": 2, "re": [[1, 0]], '
                      '"im": [[0, NaN]]}')
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps({**SWEEP, "sim": {**SWEEP["sim"],
                                                    "init": {"file": "coeffs.json"}}}))
    assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read init file {coeffs}" in err and "non-finite" in err
    assert not (tmp_path / "o" / "diagnostics.csv").exists()


@pytest.mark.parametrize("content", [None, "{not json", "5"],
                         ids=["directory", "not-json", "not-an-object"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, content):
    cfgfile = tmp_path / "sim.json"
    if content is None:
        cfgfile.mkdir()  # exists, but cannot be read as a file
    else:
        cfgfile.write_text(content)
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {cfgfile}" in err
    assert "Traceback" not in err


SIM = {"nu": 0.05, "t_end": 0.1, "n_theta": 2, "n_r": 3, "dt": 0.01,
       "init": "radial-1", "linear": True}
SWEEP = {"nu_list": [0.1, 0.05], "kinds": ["K1"],
         "sim": {"t_end": 0.1, "n_theta": 0, "n_r": 2, "dt": 0.01}}

# id: (argv, config written to --config or None, text the message contains)
MALFORMED = {
    "verify-n-max-negative": (["verify", "--n-max", "-1"], None, ">= 1"),
    "verify-JRatios-k-max-0": (
        ["verify", "--lemmas", "JRatios", "--k-max", "0"], None, ">= 1"),
    "verify-Jnp1Ratios-n-max-0": (
        ["verify", "--lemmas", "Jnp1Ratios", "--n-max", "0"], None, ">= 1"),
    "verify-SomeL2-n-max-0": (
        ["verify", "--lemmas", "SomeL2InnerProductsAreZero", "--n-max", "0"],
        None, ">= 1"),
    "verify-ZeroDifference-k-max-0": (
        ["verify", "--lemmas", "ZeroDifference", "--k-max", "0"], None, ">= 1"),
    "verify-unknown-lemma": (
        ["verify", "--lemmas", "NoSuchLemma"], None, "NoSuchLemma"),
    "zeros-k-max-negative": (
        ["zeros", "--n-max", "1", "--k-max", "-1"], None, "nonnegative"),
    "zeros-beyond-argument-range": (
        ["zeros", "--n-max", "3", "--k-max", "100000000"], None, "zeros below"),
    "simulate-dt-negative": (["simulate"], {**SIM, "dt": -0.5}, "dt must be"),
    "simulate-dt-zero": (["simulate"], {**SIM, "dt": 0}, "dt must be"),
    "simulate-sample-stride-0": (
        ["simulate"], {**SIM, "sample_stride": 0}, "sample_stride"),
    "simulate-snapshot-stride-negative": (
        ["simulate"], {**SIM, "snapshot_stride": -1}, "snapshot_stride must be >= 0"),
    "simulate-init-file-not-a-string": (
        ["simulate"], {**SIM, "init": {"file": 5}}, "init must be"),
    "simulate-empty-config": (["simulate"], {}, "'nu' is required"),
    "sweep-unknown-schedule-key": (
        ["sweep"], {**SWEEP, "schedule": {"aa": 0.5}}, "'aa'"),
    # a misspelled key would leave its default in force and exit 0
    "simulate-unknown-key": (
        ["simulate"], {**SIM, "amplitdue": 0.2}, "unknown config key 'amplitdue'"),
    "simulate-unknown-stride-key": (
        ["simulate"], {**SIM, "sampel_stride": 2}, "unknown config key 'sampel_stride'"),
    "sweep-unknown-sim-key": (
        ["sweep"], {**SWEEP, "sim": {**SWEEP["sim"], "linaer": True}},
        "unknown sim key 'linaer'"),
    "sweep-unknown-key": (
        ["sweep"], {**SWEEP, "shedule": {"c": 2.0}}, "unknown config key 'shedule'"),
    "sweep-null-schedule-value": (
        ["sweep"], {**SWEEP, "schedule": {"a": None}}, "'a'"),
    "simulate-t-end-infinite": (
        ["simulate"], {**SIM, "t_end": float("inf")}, "t_end must be finite"),
    "simulate-amplitude-nan": (
        ["simulate"], {**SIM, "init": "generic", "amplitude": float("nan")},
        "amplitude must be finite"),
    "simulate-nu-nan": (["simulate"], {**SIM, "nu": float("nan")}, "nu must be finite"),
    "sweep-threads-0": (["sweep", "--threads", "0"], SWEEP, "--threads"),
    "sweep-sim-nu": (["sweep"], {**SWEEP, "sim": {**SWEEP["sim"], "nu": 0.3}},
                     "nu_list"),
    "sweep-schedule-c-nan": (
        ["sweep"], {**SWEEP, "schedule": {"c": float("nan")}}, "c must be finite"),
    "sweep-schedule-c-infinite": (
        ["sweep"], {**SWEEP, "schedule": {"c": float("inf")}}, "c must be finite"),
    "sweep-schedule-b-nan": (
        ["sweep"], {**SWEEP, "schedule": {"b": float("nan")}}, "b must be finite"),
    "sweep-schedule-b-infinite": (
        ["sweep"], {**SWEEP, "schedule": {"b": float("inf")}}, "b must be finite"),
    # JSON true is a bool, not the number 1
    "simulate-nu-true": (["simulate"], {**SIM, "nu": True}, "'nu' has wrong type: bool"),
    "simulate-n-theta-true": (
        ["simulate"], {**SIM, "n_theta": True}, "'n_theta' has wrong type: bool"),
    "sweep-nu-list-true": (["sweep"], {**SWEEP, "nu_list": [True]}, "nu_list must be"),
    "sweep-schedule-c-true": (
        ["sweep"], {**SWEEP, "schedule": {"c": True}}, "'c' has wrong type: bool"),
    # M(nu) = ceil(nu**-b) past a float: through validate_sweep (K2), through
    # the cutoffs every row reports (K1), and at the default b
    "sweep-M-overflows-in-validation": (
        ["sweep"], {**SWEEP, "kinds": ["K2"], "schedule": {"b": 2000}},
        "ceil(nu**-b) overflows a float at nu=0.05, b=2000.0"),
    "sweep-M-overflows-in-a-row": (
        ["sweep"], {**SWEEP, "schedule": {"b": 2000}},
        "ceil(nu**-b) overflows a float at nu=0.1, b=2000.0"),
    "sweep-M-overflows-at-default-b": (
        ["sweep"], {**SWEEP, "nu_list": [1e-250]}, "overflows a float at nu=1e-250, b=1.5"),
    "sweep-L-overflows": (
        ["sweep"], {**SWEEP, "nu_list": [5e-324], "schedule": {"a": 0.99, "b": 1.01}},
        "ceil(nu**-a) overflows a float at nu=5e-324, a=0.99"),
    # an empty or repeated entry would write no rows, or its rows twice
    "sweep-no-kinds": (["sweep"], {**SWEEP, "kinds": []}, "no condition kind given"),
    "sweep-repeated-kind": (
        ["sweep"], {**SWEEP, "kinds": ["K1", "K1", "gap"]}, "condition kind 'K1' is repeated"),
    "verify-repeated-lemma": (
        ["verify", "--lemmas", "JRatios,JRatios", "--n-max", "3", "--k-max", "3"], None,
        "lemma id 'JRatios' is repeated"),
}


@pytest.mark.parametrize("argv, cfg, reason", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, cfg,
                                               reason):
    if cfg is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(cfgfile)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"diskflow {argv[0]}: ") and err.count("\n") == 1
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option", [
    (command, option) for command in ("zeros", "basis")
    for option in ("--config", "--seed", "--threads")
] + [("simulate", "--threads"), ("verify", "--config"), ("verify", "--threads")])
def test_unread_options_are_rejected(command, option, capsys):
    bounds = ["--n-max", "1", "--k-max", "1"] if command in ("zeros", "basis") else []
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *bounds, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_benchmark_argv_parses(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, cli_args

    for name, spec in WORKLOADS.items():
        args = build_parser().parse_args(cli_args(name, tmp_path / name, 3))
        assert args.command == spec["argv"][0] and args.seed == 3


@pytest.mark.parametrize("linear", [True, False])
def test_trace_beyond_physical_memory_exits_2_before_any_allocation(
        tmp_path, capsys, monkeypatch, linear):
    import diskflow.solver

    def allocates(*args, **kwargs):
        raise AssertionError("built before the trace size was checked")

    # unchecked, the linear run asks for 74.5 GiB of step indices and the
    # nonlinear one steps for hours; here either would stop at the basis
    monkeypatch.setattr(diskflow.solver, "stokes_basis", allocates)
    monkeypatch.setattr(diskflow.solver, "_Engine", allocates)
    cfgfile = _write_sim_config(tmp_path, nu=0.01, t_end=0.01, n_theta=4, n_r=4,
                                dt=1e-12, linear=linear)
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"diskflow simulate: dt=1e-12 takes 1000000000\d steps, whose "
                        r"trace of 1000000000\d samples and " + ("0" if linear else "2")
                        + r" states of 5 x 4 complex \([0-9.]+ GiB\) "
                        r"exceeds physical memory \([0-9.]+ GiB\)", err[0]), err[0]
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_a_run_whose_series_exceed_physical_memory_exits_2_before_any_allocation(
        tmp_path, capsys, monkeypatch):
    import diskflow.solver

    def allocates(*args, **kwargs):
        raise AssertionError("built before the trace size was checked")

    # a state of each sample would just fit in memory, but the run holds two
    # states and six float64 series of every sample, three times memory: a
    # guard that counted states alone would admit it, and numpy's allocation
    # of the series would end it with a MemoryError traceback and exit 1
    monkeypatch.setattr(diskflow.solver, "stokes_basis", allocates)
    monkeypatch.setattr(diskflow.solver, "_Engine", allocates)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cfgfile = _write_sim_config(tmp_path, nu=1, t_end=1, n_theta=0, n_r=1,
                                dt=1 / (memory // 16 - 2), linear=False)
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"diskflow simulate: dt=[0-9.e-]+ takes \d+ steps, whose trace of "
                        r"\d+ samples and 2 states of 1 x 1 complex \([0-9.]+ GiB\) "
                        r"exceeds physical memory \([0-9.]+ GiB\)", err[0]), err[0]
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("case", ["subnormal-dt", "huge-nu", "amplitude-linear",
                                  "amplitude-nonlinear", "init-file", "huge-count"])
def test_an_unrepresentable_run_exits_2_naming_its_cause(tmp_path, capsys, case):
    # t_end / dt overflows to inf, or nu lam overflows for the automatic dt,
    # or the initial |u|^2 overflows: unchecked, the first two raised
    # OverflowError and ZeroDivisionError (exit 1 with a traceback), and the
    # linear run of the third wrote inf and nan to trace.csv and reported ok;
    # a finite count too large to store is printed to 3 digits
    over, named = {
        "subnormal-dt": ({"dt": 1e-320}, r"dt=9\.99989e-321 takes more steps to "
                         r"t_end=0\.1 than a float can count"),
        "huge-nu": ({"nu": 1e308, "dt": None},
                    r"nu=1e\+308: 2 nu lam_max \(lam_max=[0-9.]+\) overflows a float"),
        "huge-count": ({"t_end": 1e300, "dt": 0.001},
                       r"dt=0\.001 takes 1e\+303 steps, whose trace of 1e\+303 samples and "
                       r"0 states of 3 x 3 complex \(4\.47e\+295 GiB\) exceeds physical "
                       r"memory \([0-9.]+ GiB\)"),
        "amplitude-linear": ({"init": "generic", "amplitude": 1e308},
                             r"initial \|u\|\^2=inf, \|omega\|\^2=inf: amplitude=1e\+308 "
                             r"is too large"),
        "amplitude-nonlinear": ({"init": "generic", "amplitude": 1e308, "linear": False,
                                 "dt": None}, r".*: amplitude=1e\+308 is too large"),
        "init-file": ({"init": {"file": "big.json"}},
                      r".*: the init coefficients are too large"),
    }[case]
    big = np.full((3, 3), 1e300).tolist()
    (tmp_path / "big.json").write_text(json.dumps(
        {"time": 0.0, "n_theta": 2, "n_r": 3, "re": big, "im": big}))
    cfgfile = _write_sim_config(tmp_path, **over)
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(r"diskflow simulate: " + named, err[0]), err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("dt, ok", [(1.0, False), (0.5, False), (0.05, False),
                                    (0.01, True), (None, True)])
def test_a_run_whose_energy_budget_does_not_close_exits_1(tmp_path, capsys, dt, ok):
    # nu lam_max dt is 360, 180 and 18 on the failing runs: the first once
    # overflowed the backward dissipation weight and wrote visc_cum = inf,
    # and all three reported ok; at dt = 0.01 the residual is 3.4e-6 |u(0)|^2
    cfgfile = _write_sim_config(tmp_path, nu=1.0, t_end=1.0, n_theta=4, n_r=4, dt=dt,
                                init="generic", linear=False)
    code = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    rows = read_csv(tmp_path / "o" / "trace.csv")
    budget = [float(r["u_norm_sq"]) + float(r["visc_cum"]) - float(rows[0]["u_norm_sq"])
              for r in rows]
    assert np.isfinite(budget).all()
    if ok:
        assert code == 0 and "[ok]" in out
        assert max(map(abs, budget)) <= 1e-3 * float(rows[0]["u_norm_sq"])
    else:
        assert code == 1
        assert re.search(rf"FAILED: energy budget residual [0-9.e+]+ \|u\(0\)\|\^2 "
                         rf"\(limit 1e-3\), flux up to [0-9.e+-]+, at dt={dt:.3g} "
                         rf"\(nu lam_max dt=[0-9.]+\)", out), out


def test_a_decay_past_the_backward_weight_cap_closes_its_budget(tmp_path, capsys):
    # a radial flow has no convective term, so this is a pure decay; at
    # 2 nu lam dt > 700 every mode's backward dissipation weight is capped,
    # and the forward term alone must carry the whole loss
    cfgfile = _write_sim_config(tmp_path, nu=1.0, t_end=25.0, dt=25.0, n_theta=4, n_r=4,
                                init="radial-1", linear=False)
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    assert "[ok]" in capsys.readouterr().out
    rows = read_csv(tmp_path / "o" / "trace.csv")
    assert len(rows) == 2 and float(rows[1]["u_norm_sq"]) < 1e-300
    assert float(rows[1]["visc_cum"]) == float(rows[0]["u_norm_sq"])


BASIS4 = stokes_basis(4, 4)
_wide = st.floats(min_value=5e-324, max_value=1e308)


def _steps(sim: SimConfig) -> float:
    """t_end / dt of simulate's run of sim: inf or nan where it refuses to
    count, above 1e15 where the trace exceeds any memory."""
    if sim.dt is not None:
        return sim.t_end / sim.dt
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            init = make_initial("generic", sim.n_theta, sim.n_r, amplitude=sim.amplitude)
            return sim.t_end / default_dt(sim, _Engine(sim, BASIS4), init)
    except (ValueError, ZeroDivisionError):
        return np.inf


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(nu=_wide, t_end=_wide, amplitude=_wide, linear=st.booleans(),
       n=st.tuples(st.integers(0, 4), st.integers(1, 4)),
       dt=st.one_of(st.none(), _wide, st.integers(1, 1000)))
def test_simulate_at_any_representable_config_exits_cleanly(nu, t_end, amplitude,
                                                            linear, n, dt):
    # an integer dt draw is a step count; a count above 1e3 that simulate
    # would take is skipped, one it refuses is kept
    dt = t_end / dt if type(dt) is int else dt
    cfg = {"nu": nu, "t_end": t_end, "n_theta": n[0], "n_r": n[1], "dt": dt,
           "init": "generic", "amplitude": amplitude, "linear": linear}
    if dt is None or dt > 0.0:
        steps = _steps(SimConfig(**{k: v for k, v in cfg.items() if k != "init"}))
        assume(not steps <= 1e15 or steps <= 1e3)
    with tempfile.TemporaryDirectory() as tmp:
        (cfgfile := Path(tmp) / "sim.json").write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(cfgfile), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2)
        if code == 0:
            rows = read_csv(Path(tmp) / "o" / "trace.csv")
            assert all(np.isfinite(float(v)) for r in rows for v in r.values())


# the exponents a and gamma over their valid range, (0, 1): a draw outside
# it is refused before any point runs (the MALFORMED cases); viscosities and
# the layer constant c, which must be below 1 for a point to run, drawn as
# often there as anywhere
_unit = st.floats(5e-324, 1.0, exclude_max=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(nu_list=st.lists(st.one_of(_unit, _wide), min_size=1, max_size=3, unique=True),
       t_end=_wide, a=_unit, b=st.floats(1.0, 1e308, exclude_min=True),
       gamma=_unit, c=st.one_of(_unit, _wide), n=st.tuples(st.integers(0, 4), st.integers(1, 4)),
       steps=st.one_of(st.none(), st.integers(1, 1000)))
@example(nu_list=[1e-250], t_end=0.1, a=0.5, b=1.5, gamma=0.5, c=1.0, n=(4, 4), steps=None)
def test_sweep_at_any_representable_config_exits_cleanly(nu_list, t_end, a, b, gamma, c, n,
                                                         steps):
    # linear points, in closed form, at dt = t_end / steps or the automatic
    # dt; a draw with a point that would run more than 1e3 automatic steps is
    # skipped, one whose steps simulate refuses is kept
    nu_list = sorted(nu_list, reverse=True)
    sim = {"t_end": t_end, "n_theta": n[0], "n_r": n[1], "init": "generic", "linear": True,
           "dt": None if steps is None else t_end / steps}
    for nu in nu_list if sim["dt"] is None or sim["dt"] > 0.0 else ():
        count = _steps(SimConfig(nu=nu, **{k: v for k, v in sim.items() if k != "init"}))
        assume(not count <= 1e15 or count <= 1e3)
    cfg = {"nu_list": nu_list, "kinds": [*CONDITION_KINDS, "gap"],
           "schedule": {"a": a, "b": b, "gamma": gamma, "c": c}, "sim": sim}
    with tempfile.TemporaryDirectory() as tmp:
        (cfgfile := Path(tmp) / "sweep.json").write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfgfile), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2)
        if (out := Path(tmp) / "o" / "diagnostics.csv").exists():
            rows = read_csv(out)
            assert len(rows) == len(nu_list) * len(cfg["kinds"])
            for r in rows:
                assert r["kind"] in cfg["kinds"]
                for key in ("nu", "value", "L", "M", "delta", "c"):
                    float(r[key])


def test_zero_convergence_failure_exits_3(tmp_path, capsys, monkeypatch):
    import diskflow.cli
    from diskflow.bessel import ZeroConvergenceError

    def stalled(n_max, k_max):
        raise ZeroConvergenceError("zero refinement stalled for order 3")

    monkeypatch.setattr(diskflow.cli, "zero_table", stalled)
    assert main(["zeros", "--n-max", "3", "--k-max", "3",
                 "--out", str(tmp_path / "z")]) == 3
    assert ("diskflow zeros: zero refinement stalled for order 3"
            in capsys.readouterr().err)


def test_unconverged_layer_mass_exits_2_naming_the_lane(tmp_path, capsys, monkeypatch):
    import diskflow.field

    # no two Gauss counts agree to 0, so every lane climbs to the node cap
    monkeypatch.setattr(diskflow.field, "_MASS_TOL", 0.0)
    assert main(["verify", "--lemmas", "L2omegaGammaBound", "--n-max", "2",
                 "--k-max", "2", "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"diskflow verify: layer mass of mode \(\d+, \d+\) at width "
                        r"[0-9.e-]+ not converged at 1024 nodes", err[0])


def test_unwritable_output_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["zeros", "--n-max", "1", "--k-max", "1",
                 "--out", str(blocker / "z")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("diskflow zeros: ") and str(blocker) in err


def test_sweep_values_match_closed_form(tmp_path):
    cfg = {
        "nu_list": [0.1, 0.05, 0.025],
        "kinds": ["K1", "K6", "gap"],
        "schedule": {"a": 0.5, "b": 1.5, "gamma": 0.5, "c": 1.0},
        "sim": {"t_end": 1.0, "n_theta": 0, "n_r": 4, "dt": 0.002,
                "init": "radial-1", "linear": True},
    }
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = read_csv(out / "diagnostics.csv")
    assert len(rows) == 9
    from diskflow.basis import stokes_basis

    lam = stokes_basis(0, 4).pair(0, 1).lam
    for row in rows:
        if row["kind"] == "K1":
            nu = float(row["nu"])
            expected = (1 - np.exp(-2 * nu * lam * 1.0)) / (2 * lam)
            assert float(row["value"]) == pytest.approx(expected, rel=1e-5)
        if row["kind"] == "gap":
            nu = float(row["nu"])
            expected = (1 - np.exp(-nu * lam * 1.0)) / np.sqrt(lam)
            assert float(row["value"]) == pytest.approx(expected, rel=1e-6)


def test_sweep_is_deterministic(tmp_path):
    cfg = {
        "nu_list": [0.1, 0.05],
        "kinds": ["K1", "N3", "gap"],
        "sim": {"t_end": 0.5, "n_theta": 4, "n_r": 4, "dt": 0.005,
                "init": "generic", "seed": 9},
    }
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b


def test_sweep_reads_relative_init_file_next_to_its_config(tmp_path, monkeypatch):
    from diskflow.solver import make_initial

    cfgdir = tmp_path / "cfg"
    cfgdir.mkdir()
    (cfgdir / "coeffs.json").write_text(
        json.dumps(make_initial("generic", 3, 3, seed=4).to_dict()))
    (cfgdir / "sweep.json").write_text(json.dumps({
        "nu_list": [0.1, 0.05], "kinds": ["K1", "K6", "gap"],
        "sim": {"t_end": 0.2, "n_theta": 3, "n_r": 3, "dt": 0.01,
                "init": {"file": "coeffs.json"}, "linear": True},
    }))
    monkeypatch.chdir(cfgdir)
    assert main(["sweep", "--config", "sweep.json", "--out", str(tmp_path / "a")]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(cfgdir / "sweep.json"),
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    assert a == (tmp_path / "b" / "diagnostics.csv").read_bytes()


# command: (argv, config or None) at truncation n
HISTORY = {
    "verify": lambda n: (["verify", "--lemmas", "JRatios,L2omegaGammaBound",
                          "--n-max", str(n), "--k-max", str(n)], None),
    "simulate": lambda n: (["simulate"], {"nu": 0.05, "t_end": 0.05, "n_theta": n,
                                          "n_r": n, "init": "generic"}),
    "sweep": lambda n: (["sweep"], {
        "nu_list": [0.04, 0.02, 0.01], "kinds": ["K1", "K3", "N1", "N4", "N7", "gap"],
        "schedule": {"a": 0.5, "b": 1.5, "gamma": 0.5, "c": 1.0},
        "sim": {"t_end": 0.5, "n_theta": n, "n_r": n, "init": "generic",
                "linear": True}}),
}


@pytest.mark.parametrize("command, n_before", [("verify", 20), ("simulate", 16),
                                               ("sweep", 16)])
def test_outputs_do_not_depend_on_earlier_commands(tmp_path, command, n_before):
    def argv(n, out):
        args, cfg = HISTORY[command](n)
        if cfg is not None:
            cfgfile = tmp_path / f"cfg{n}.json"
            cfgfile.write_text(json.dumps(cfg))
            args = args + ["--config", str(cfgfile)]
        return args + ["--out", str(tmp_path / out)]

    main(argv(n_before, "before"))  # leaves larger tables in this process
    code = main(argv(10, "after"))
    assert code == 0
    fresh = subprocess.run([sys.executable, "-m", "diskflow.cli", *argv(10, "fresh")],
                           capture_output=True, text=True)
    assert fresh.returncode == code, fresh.stderr
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "after").iterdir())
    for name in names:
        assert ((tmp_path / "after" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name


def test_sweep_empty_or_invalid_nu_list(tmp_path):
    for bad in ([], [0.1, 0.2], [-0.1]):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({
            "nu_list": bad, "kinds": ["K1"],
            "sim": {"t_end": 0.1, "n_theta": 0, "n_r": 2, "init": "radial-1",
                    "linear": True}}))
        assert main(["sweep", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 2


def test_sweep_unknown_kind(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({
        "nu_list": [0.1], "kinds": ["K99"],
        "sim": {"t_end": 0.1, "n_theta": 0, "n_r": 2, "init": "radial-1"}}))
    assert main(["sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2


def test_sweep_threads_match_serial(tmp_path):
    cfg = {
        "nu_list": [0.1, 0.05],
        "kinds": ["K1"],
        "sim": {"t_end": 0.25, "n_theta": 0, "n_r": 2, "dt": 0.005,
                "init": "radial-1", "linear": True},
    }
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfgfile), "--threads", "1",
                 "--out", str(tmp_path / "serial")]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--threads", "2",
                 "--out", str(tmp_path / "pool")]) == 0
    assert ((tmp_path / "serial" / "diagnostics.csv").read_bytes()
            == (tmp_path / "pool" / "diagnostics.csv").read_bytes())


def test_sweep_forks_no_more_workers_than_points(tmp_path, monkeypatch):
    import concurrent.futures

    pools = []

    class SerialPool:
        """Records its worker count and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = {"kinds": ["K1"], "sim": {"t_end": 0.25, "n_theta": 0, "n_r": 2, "dt": 0.005,
                                    "init": "radial-1", "linear": True}}
    for name, nu_list in (("two", [0.1, 0.05]), ("one", [0.1])):
        cfgfile = tmp_path / f"{name}.json"
        cfgfile.write_text(json.dumps({**cfg, "nu_list": nu_list}))
        for threads in ("1", "64"):
            assert main(["sweep", "--config", str(cfgfile), "--threads", threads,
                         "--out", str(tmp_path / f"{name}{threads}")]) == 0
        assert ((tmp_path / f"{name}1" / "diagnostics.csv").read_bytes()
                == (tmp_path / f"{name}64" / "diagnostics.csv").read_bytes())
    assert pools == [2]  # the one-point sweep ran in-process


def test_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--lemmas", "ZeroDifference,UsefulFunctionBound",
                 "--n-max", "8", "--k-max", "8", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "lemmas.csv")
    assert {r["lemma"] for r in rows} == {"ZeroDifference",
                                          "UsefulFunctionBound"}
    assert all(float(r["margin"]) >= -1e-9 for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ZeroDifference"]["passed"] is True


def test_csv_float_cells_are_shortest_round_trip_reprs(tmp_path):
    cfgfile = _write_sim_config(tmp_path, n_theta=4, n_r=4, init="generic",
                                linear=False)
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "s")]) == 0
    assert main(["verify", "--n-max", "4", "--k-max", "4",
                 "--out", str(tmp_path / "v")]) == 0
    checked = 0
    for path, int_cols in ((tmp_path / "s" / "trace.csv", ()),
                           (tmp_path / "v" / "lemmas.csv", ("n", "k"))):
        for row in read_csv(path):
            for col, cell in row.items():
                if col in int_cols:
                    assert cell == str(int(cell)), (path.name, col, cell)
                    continue
                try:
                    value = float(cell)
                except ValueError:  # lemma names and envelope bounds
                    continue
                assert cell == repr(value), (path.name, col, cell)
                checked += 1
    assert checked > 500


def test_verify_envelope_only_has_no_verdict(tmp_path):
    out = tmp_path / "ve"
    code = main(["verify", "--lemmas", "Jnp1Ratios", "--n-max", "6",
                 "--k-max", "6", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["Jnp1Ratios"]["passed"] is None
    assert summary["Jnp1Ratios"]["constant"] > 0


def test_verify_unknown_lemma(tmp_path, capsys):
    assert main(["verify", "--lemmas", "NoSuchLemma",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "ZeroDifference" in err  # lists valid ids


def test_rerun_from_manifest_reproduces_output(tmp_path):
    cfg = {"nu": 0.1, "t_end": 0.25, "n_theta": 2, "n_r": 3, "dt": 0.005,
           "init": "generic", "seed": 4, "snapshot_stride": 10}
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg2file = tmp_path / "sim2.json"
    cfg2file.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg2file), "--out", str(out2)]) == 0
    assert ((out1 / "trace.csv").read_bytes()
            == (out2 / "trace.csv").read_bytes())
    assert ((out1 / "snapshots.json").read_bytes()
            == (out2 / "snapshots.json").read_bytes())


def test_seeded_sweep_reruns_from_manifest(tmp_path):
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps({
        "nu_list": [0.1, 0.05], "kinds": ["K1", "N3", "gap"],
        "sim": {"t_end": 0.25, "n_theta": 3, "n_r": 3, "dt": 0.005,
                "init": "generic"}}))
    out1 = tmp_path / "run1"
    assert main(["sweep", "--config", str(cfgfile), "--seed", "2",
                 "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["sim"]["seed"] == 2
    assert "seed" not in manifest["config"]
    cfg2file = tmp_path / "sweep2.json"
    cfg2file.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "run2"
    assert main(["sweep", "--config", str(cfg2file), "--out", str(out2)]) == 0
    out0 = tmp_path / "seed0"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out0)]) == 0
    seeded = (out1 / "diagnostics.csv").read_bytes()
    assert seeded == (out2 / "diagnostics.csv").read_bytes()
    assert seeded != (out0 / "diagnostics.csv").read_bytes()


def test_readme_sim_config_with_null_dt_reruns_from_manifest(tmp_path):
    cfg = {"nu": 0.05, "t_end": 1.0, "n_theta": 8, "n_r": 8, "dt": None,
           "init": "radial-1", "linear": False, "seed": 0, "amplitude": 0.1,
           "sample_stride": 1, "snapshot_stride": 50}
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["dt"] is None
    cfg2file = tmp_path / "sim2.json"
    cfg2file.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg2file), "--out", str(out2)]) == 0
    assert ((out1 / "trace.csv").read_bytes()
            == (out2 / "trace.csv").read_bytes())


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "diskflow.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_leaves_the_process_pool_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskflow.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
