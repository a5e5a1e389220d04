"""Cold set-up of one workload in a fresh interpreter.

Usage: ``python3 setup_probe.py WORKLOAD``

Imports ``diskflow`` and builds what the workload needs before its first
unit of work: the zero table and Stokes basis at its truncation, plus the
solver engine for ``sim-nonlinear``.  The driver times the whole process.
"""

from __future__ import annotations

import sys

from workloads import WORKLOADS


def main(workload: str) -> int:
    from diskflow.basis import stokes_basis

    spec = WORKLOADS[workload]
    basis = stokes_basis(*spec["truncation"])
    if spec["engine"]:
        from diskflow.solver import SimConfig, _Engine

        cfg = {k: v for k, v in spec["config"].items() if k != "snapshot_stride"}
        _Engine(SimConfig(**cfg), basis)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WORKLOADS:
        print(f"usage: setup_probe.py {{{','.join(WORKLOADS)}}}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
