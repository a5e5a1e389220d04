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


def loaded_after(code: str) -> tuple[list[str], list[str]]:
    """The diskflow modules, and the numpy subpackages beyond those that
    ``import numpy`` loads, once code has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = """
def subpackages(mods):
    return {".".join(m.split(".")[:2]) for m in mods if m.startswith("numpy.")}
print((sorted(m for m in sys.modules if m.startswith("diskflow")),
       sorted(subpackages(sys.modules) - subpackages(BASE))))"""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, numpy\nBASE = set(sys.modules)\n{code}\n{probe}"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def run_cli(argv) -> str:
    return f"from diskflow.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_package_import_loads_no_layer():
    assert loaded_after("import diskflow") == (["diskflow"], [])


def test_basis_import_loads_bessel_and_basis_only():
    assert loaded_after("import diskflow.basis") == (
        ["diskflow", "diskflow.basis", "diskflow.bessel"], [])


def simulate_loads(tmp_path, init: str) -> tuple[list[str], list[str]]:
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"nu": 0.05, "t_end": 0.02, "n_theta": 6, "n_r": 6,
                               "dt": 0.01, "init": init, "linear": False}))
    loads = loaded_after(run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]))
    assert (tmp_path / "o" / "trace.csv").exists()
    return loads


# numpy.fft serves the convective kernel, numpy.random the generic initial
# state and the cross inner products' random modes; the Gauss-Legendre rule
# lives in field, so no command loads numpy.polynomial
def test_simulate_never_loads_diagnostics(tmp_path):
    mods, loaded = simulate_loads(tmp_path, "generic")
    assert "diskflow.solver" in mods and "diskflow.diagnostics" not in mods
    # numpy.ma adds about 1.7 MB to the command's peak RSS (np.unique, np.median)
    assert "numpy.ma" not in loaded
    assert loaded == ["numpy.fft", "numpy.random"]


def test_radial_simulate_loads_numpy_fft_only(tmp_path):
    assert simulate_loads(tmp_path, "radial-1")[1] == ["numpy.fft"]


def test_linear_sweep_loads_numpy_random_only(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "nu_list": [0.04, 0.02], "kinds": ["K1", "N5", "gap"],
        "schedule": {"a": 0.5, "b": 1.5, "gamma": 0.5, "c": 1.0},
        "sim": {"t_end": 0.05, "n_theta": 6, "n_r": 6, "init": "generic", "linear": True}}))
    mods, loaded = loaded_after(run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o"]))
    assert "diskflow.diagnostics" in mods and loaded == ["numpy.random"]
    assert (tmp_path / "o" / "diagnostics.csv").exists()


def test_verify_never_loads_solver(tmp_path):
    mods, loaded = loaded_after(run_cli(["verify", "--lemmas", "ZeroDifference", "--n-max", 3,
                                         "--k-max", 3, "--out", tmp_path / "o"]))
    assert "diskflow.diagnostics" in mods and "diskflow.solver" not in mods
    assert loaded == []
    assert (tmp_path / "o" / "lemmas.csv").exists()


def test_every_lemma_loads_numpy_random_only(tmp_path):
    # SomeL2InnerProductsAreZero draws its random modes
    mods, loaded = loaded_after(run_cli(["verify", "--lemmas", "all", "--n-max", 3,
                                         "--k-max", 3, "--out", tmp_path / "o"]))
    assert "diskflow.solver" not in mods and loaded == ["numpy.random"]


def test_velocity_layer_scan_never_loads_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma, about 9 ms of a verify command
    mods, loaded = loaded_after(run_cli(["verify", "--lemmas", "L2uGammaBoundGeneral",
                                         "--n-max", 5, "--k-max", 5, "--out", tmp_path / "o"]))
    assert "diskflow.diagnostics" in mods and "numpy.ma" not in loaded
    assert loaded == []
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
    assert loaded_after(code)[0] == ["diskflow"] + sorted(f"diskflow.{m}" for m in EXPORTS)


def test_unknown_name_raises_attribute_error():
    import diskflow

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        diskflow.no_such_name
    with pytest.raises(ImportError):
        from diskflow import cli_main  # noqa: F401
