"""Write the reference outputs the correctness gate compares against.

Usage: ``python3 perfbench/record_reference.py``

Runs every workload once per program seed (once for ``verify-lemmas``,
whose outputs do not depend on the seed) and stores the gzipped outputs
under ``perfbench/reference/``.  The stored files are the outputs of the
commit that introduced the benchmark.  Re-record only when a change
deliberately alters the outputs and says why; re-recording to make a
failing change pass defeats the gate.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

from run import RECORD_DIR, run_child
from workloads import PROGRAM_SEEDS, WORKLOADS, cli_args, reference_dir


def main() -> int:
    RECORD_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=RECORD_DIR))
    try:
        for workload, spec in WORKLOADS.items():
            seeds = PROGRAM_SEEDS if spec["seeded"] else PROGRAM_SEEDS[:1]
            for seed in seeds:
                outdir = tmp / f"{workload}-{seed}"
                argv = [sys.executable, "-m", "diskflow.cli"] + cli_args(
                    workload, outdir, seed)
                code = run_child(argv, tmp, tmp / "record.log")["exit"]
                if code != 0:
                    print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                    return 1
                dest = reference_dir(workload, seed)
                dest.mkdir(parents=True, exist_ok=True)
                for name in spec["outputs"]:
                    data = (outdir / name).read_bytes()
                    with open(dest / f"{name}.gz", "wb") as raw, \
                            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                        gz.write(data)
                print(f"recorded {dest}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
