import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskflow.cli import build_parser, main
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
    "simulate-init-file-not-a-string": (
        ["simulate"], {**SIM, "init": {"file": 5}}, "init must be"),
    "simulate-empty-config": (["simulate"], {}, "'nu' is required"),
    "sweep-unknown-schedule-key": (
        ["sweep"], {**SWEEP, "schedule": {"aa": 0.5}}, "'aa'"),
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
