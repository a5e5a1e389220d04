"""The benchmark's traced run wraps package names from outside; renaming one
of them must fail here, not only in the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def run_traced(tmp_path, name, cli_args):
    spans = tmp_path / f"{name}.spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), "--", *cli_args,
         "--out", str(tmp_path / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]  # [name, t0, t1, parent, info]


def names(spans):
    return {span[0] for span in spans}


def test_traced_cli_records_every_layer_span(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"nu": 0.05, "t_end": 0.02, "n_theta": 6,
                               "n_r": 6, "dt": 0.01, "init": "generic",
                               "linear": False}))
    sim = run_traced(tmp_path, "sim", ["simulate", "--config", str(cfg)])
    assert {"solver.convective", "basis.profile_matrix"} <= names(sim)
    # one profile row per angular index, each from one Bessel pass
    rows = [i for i, span in enumerate(sim) if span[0] == "basis.profile_matrix"]
    assert len(rows) == 6 + 1
    for i in rows:
        assert [s[0] for s in sim if s[3] == i] == ["bessel.jn_trio"]
    verify = run_traced(tmp_path, "verify", [
        "verify", "--lemmas", "SomeL2InnerProductsAreZero,L2omegaGammaBound",
        "--n-max", "6", "--k-max", "6"])
    assert {"field.mode_inner_product", "diagnostics.verify_lemma"} <= names(verify)


def test_traced_sweep_counts_every_functional_and_gap(tmp_path):
    # the sweep imports its layers at call time; they must still be the wrappers
    kinds = ["K1", "K2", "N1", "N7"]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "nu_list": [0.05, 0.025], "kinds": kinds + ["gap"],
        "schedule": {"a": 0.5, "b": 1.5, "gamma": 0.5, "c": 1.0},
        "sim": {"t_end": 0.2, "dt": 0.001, "n_theta": 6, "n_r": 6, "init": "generic",
                "linear": True}}))
    sweep = run_traced(tmp_path, "sweep", ["sweep", "--config", str(cfg)])
    counts = [s[0] for s in sweep]
    assert counts.count("diagnostics.condition_functional") == 2 * len(kinds)
    assert counts.count("diagnostics.vv_gap") == 2
    assert counts.count("solver.simulate") == 2 and counts.count("cli.cmd") == 1
    with open(tmp_path / "sweep" / "diagnostics.csv") as fh:
        assert "nan" not in fh.read()
