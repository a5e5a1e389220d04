"""Each benchmark workload, run once in-process at program seed 0, must pass
the benchmark's correctness gate: outputs within rtol 1e-9 of the stored
reference outputs, and the trace invariants."""

from pathlib import Path

import pytest

from diskflow.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["sim-nonlinear", "sweep-linear", "verify-lemmas"])
def test_workload_outputs_pass_the_reference_gate(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from gates import check_op
    from workloads import WORKLOADS, cli_args

    assert workload in WORKLOADS
    out = tmp_path / workload
    code = main(cli_args(workload, out, 0))
    check_op(workload, out, code, 0)
