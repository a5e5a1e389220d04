"""``import diskflow`` loads no layer, and a command only the layers it runs.

Each case runs in a fresh interpreter, because an import made by another
test would hide a load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the names the package bound eagerly, by the layer that defines them
EXPORTS = {
    "bessel": ["BesselDomainError", "ZeroConvergenceError", "bessel_j", "bessel_j_prime",
               "bessel_zero", "compound_decay", "zero_table"],
    "basis": ["EigenPair", "StokesBasis", "stokes_basis", "velocity_eval",
              "velocity_gradient_eval", "vorticity_eval"],
    "field": ["FieldSample", "PolarGrid", "SpectralCoeffs", "build_grid", "inner_product",
              "mode_inner_product", "norm_l2", "project", "synthesize"],
    "solver": ["ForcingSeries", "SimConfig", "SimTrace", "SolverInstability",
               "exact_linear_solution", "linear_trace", "make_initial", "nonlinear_coeffs",
               "simulate", "step"],
    "diagnostics": ["CONDITION_KINDS", "LEMMA_IDS", "LemmaReport", "ScheduleSpec",
                    "TruncationSpec", "condition_functional", "residual_trace", "truncate",
                    "truncate_trace", "verify_lemma", "vv_gap"],
}


def loaded_after(code: str) -> list[str]:
    """The diskflow modules, and numpy.ma if it is loaded, once code has run
    in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = 'import sys\nprint(sorted(m for m in sys.modules if m.startswith("diskflow") or m == "numpy.ma"))'
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def run_cli(argv) -> str:
    return f"from diskflow.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_package_import_loads_no_layer():
    assert loaded_after("import diskflow") == ["diskflow"]


def test_basis_import_loads_bessel_and_basis_only():
    assert loaded_after("import diskflow.basis") == [
        "diskflow", "diskflow.basis", "diskflow.bessel"]


def test_simulate_never_loads_diagnostics(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"nu": 0.05, "t_end": 0.02, "n_theta": 6, "n_r": 6,
                               "dt": 0.01, "init": "generic", "linear": False}))
    mods = loaded_after(run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]))
    assert "diskflow.solver" in mods and "diskflow.diagnostics" not in mods
    # numpy.ma adds about 1.7 MB to the command's peak RSS (np.unique, np.median)
    assert "numpy.ma" not in mods
    assert (tmp_path / "o" / "trace.csv").exists()


def test_verify_never_loads_solver(tmp_path):
    mods = loaded_after(run_cli(["verify", "--lemmas", "ZeroDifference", "--n-max", 3,
                                 "--k-max", 3, "--out", tmp_path / "o"]))
    assert "diskflow.diagnostics" in mods and "diskflow.solver" not in mods
    assert (tmp_path / "o" / "lemmas.csv").exists()


def test_velocity_layer_scan_never_loads_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma, about 9 ms of a verify command
    mods = loaded_after(run_cli(["verify", "--lemmas", "L2uGammaBoundGeneral", "--n-max", 5,
                                 "--k-max", 5, "--out", tmp_path / "o"]))
    assert "diskflow.diagnostics" in mods and "numpy.ma" not in mods
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["L2uGammaBoundGeneral"]["slope_median"] > 0.0


def test_every_export_and_layer_resolves_both_ways():
    code = f"""
import importlib
import diskflow
exports = {EXPORTS!r}
assert sorted(diskflow.__all__) == sorted([*exports, *sum(exports.values(), [])])
for layer, names in exports.items():
    for name in names:
        scope = {{}}
        exec(f"from diskflow import {{name}} as value", scope)
        home = importlib.import_module("diskflow." + layer)
        assert scope["value"] is getattr(diskflow, name) is getattr(home, name), name
        assert name in dir(diskflow), name
    scope = {{}}
    exec(f"from diskflow import {{layer}} as value", scope)
    assert scope["value"] is getattr(diskflow, layer) is home, layer
"""
    assert loaded_after(code) == ["diskflow"] + sorted(f"diskflow.{m}" for m in EXPORTS)


def test_unknown_name_raises_attribute_error():
    import diskflow

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        diskflow.no_such_name
    with pytest.raises(ImportError):
        from diskflow import cli_main  # noqa: F401
