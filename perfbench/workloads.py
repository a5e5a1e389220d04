"""Workload definitions shared by run.py, the set-up probe and the
reference recorder.

Each workload is one ``diskflow`` CLI command with fixed inputs.  The only
input that varies between ops is the program seed, which reaches the CLI as
``--seed`` and is drawn from ``PROGRAM_SEEDS``; the reference outputs of
every program seed are stored under ``reference/``.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Program seeds an op may use.  The benchmark seed only chooses the order in
# which they are visited, so every run covers the same mix of inputs.
PROGRAM_SEEDS = (0, 1, 2, 3)

SIM_CONFIG = {
    # "dt" is left out on purpose: the CLI rejects "dt": null (exit 2), so
    # leaving the key out is the only way to ask for the automatic step.
    "nu": 0.01, "t_end": 0.2, "n_theta": 32, "n_r": 32, "init": "generic",
    "amplitude": 0.1, "linear": False, "sample_stride": 1,
    "snapshot_stride": 50,
}

SWEEP_CONFIG = {
    "nu_list": [0.04, 0.02, 0.01],
    "kinds": ["K1", "K2", "K3", "K4", "K5", "K6",
              "N1", "N2", "N3", "N4", "N5", "N6", "N7", "gap"],
    "schedule": {"a": 0.5, "b": 1.5, "gamma": 0.5, "c": 1.0},
    "sim": {"t_end": 0.5, "n_theta": 24, "n_r": 24, "init": "generic",
            "linear": True},
}

VERIFY_N = 30
LEMMA_IDS = ("ZeroDifference", "jnkRange", "JRatios", "Jnp1Ratios",
             "Jnm1Ratios", "L2omegaGammaBound", "L2omegaGammaBoundGeneral",
             "L2uGammaBoundGeneral", "SomeL2InnerProductsAreZero",
             "UsefulFunctionBound")

WORKLOADS = {
    "sim-nonlinear": {
        "config": SIM_CONFIG,
        "argv": ["simulate"],
        "outputs": ["trace.csv", "snapshots.json"],
        "truncation": (32, 32),
        "engine": True,
        "seeded": True,
    },
    "sweep-linear": {
        "config": SWEEP_CONFIG,
        "argv": ["sweep", "--threads", "1"],
        "outputs": ["diagnostics.csv"],
        "truncation": (24, 24),
        "engine": False,
        "seeded": True,
    },
    "verify-lemmas": {
        "config": None,
        "argv": ["verify", "--lemmas", "all", "--n-max", str(VERIFY_N),
                 "--k-max", str(VERIFY_N)],
        "outputs": ["lemmas.csv", "summary.json"],
        "truncation": (VERIFY_N, VERIFY_N),
        "engine": False,
        # verify draws its random layer widths from a fixed internal RNG, so
        # the seed is passed but changes no output.
        "seeded": False,
    },
}


def cli_args(workload: str, outdir: Path, program_seed: int) -> list[str]:
    """Arguments after ``diskflow`` for one op; writes the config file."""
    spec = WORKLOADS[workload]
    args = list(spec["argv"]) + ["--out", str(outdir),
                                 "--seed", str(program_seed)]
    if spec["config"] is not None:
        cfg = outdir.parent / f"{outdir.name}.config.json"
        cfg.write_text(json.dumps(spec["config"], indent=1))
        args += ["--config", str(cfg)]
    return args


def reference_dir(workload: str, program_seed: int) -> Path:
    """Stored outputs for one op input; verify has a single one."""
    if not WORKLOADS[workload]["seeded"]:
        return REFERENCE_DIR / workload
    return REFERENCE_DIR / workload / f"seed{program_seed}"
