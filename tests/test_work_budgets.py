"""Work budgets: each benchmark workload, run through ``cli.main`` in a fresh
process, does no more Bessel, profile, radial-rule and convective work than
its pinned count, and its traced memory peaks no higher than its bound.

The counts are deterministic, unlike the timings, so a change that adds a
pass fails here.  A fresh process matters: ``radial_rule``, ``_leggauss``
and the zero table are cached across the tests of one process.  A change
that lowers a count lowers its bound here too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Run as a script: wraps the counted names in every diskflow module that
# holds them, runs one workload at program seed 0 under tracemalloc (started
# after the imports and a full collection) and prints the counts and the peak as JSON.
PROBE = """
import gc, json, sys, tracemalloc
from pathlib import Path

import numpy as np

import diskflow.basis, diskflow.bessel, diskflow.cli, diskflow.diagnostics
import diskflow.field, diskflow.solver
from workloads import cli_args

counts = dict.fromkeys(("jn_trio", "jn_trio_lanes", "radial_profiles", "_resolves",
                        "convective"), 0)

def counted(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if name == "jn_trio":
            counts["jn_trio_lanes"] += int(np.size(args[1]))
        return fn(*args, **kwargs)
    return wrapper

for module, name in ((diskflow.bessel, "jn_trio"), (diskflow.basis, "radial_profiles"),
                     (diskflow.field, "_resolves")):
    orig = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "diskflow" and getattr(mod, name, None) is orig:
            setattr(mod, name, counted(name, orig))
engine = diskflow.solver._Engine
engine.convective = counted("convective", engine.convective)
outdir = Path(sys.argv[2]) / sys.argv[1]
outdir.mkdir()
# empty the collector's generations: the run's cyclic garbage (argparse's
# parser) is then freed at the same point whatever the imports allocated
gc.collect()
tracemalloc.start()
code = diskflow.cli.main(cli_args(sys.argv[1], outdir, 0))
print(json.dumps({"exit": code, **counts, "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
"""

# The work each workload does, and the most tracemalloc peak in MB this
# probe read for it in 22 runs.  The reading moves by up to 6 KB from run to
# run, with the allocator's layout, so a peak may pass it by PEAK_SPREAD_MB.
BUDGETS = {
    "sim-nonlinear": dict(jn_trio=41, jn_trio_lanes=148_569, radial_profiles=33,
                          _resolves=2, convective=351, peak_mb=5.804),
    "sweep-linear": dict(jn_trio=18, jn_trio_lanes=67_658, radial_profiles=6,
                         _resolves=6, convective=0, peak_mb=3.764),
    "verify-lemmas": dict(jn_trio=42, jn_trio_lanes=495_490, radial_profiles=19,
                          _resolves=2, convective=0, peak_mb=5.624),
}
PEAK_SPREAD_MB = 0.01


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_a_workload_does_no_more_work_than_its_budget(tmp_path, workload):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run([sys.executable, "-c", PROBE, workload, str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got.pop("exit") == 0
    bounds = {**BUDGETS[workload], "peak_mb": BUDGETS[workload]["peak_mb"] + PEAK_SPREAD_MB}
    over = {k: (got[k], bound) for k, bound in bounds.items() if got[k] > bound}
    assert not over, over
