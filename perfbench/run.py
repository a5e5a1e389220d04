"""diskflow benchmark driver.

Usage::

    python3 perfbench/run.py --workload sim-nonlinear --seed 1 --seconds 35 --trace 0

Runs one ``diskflow`` CLI command at a time, each in a fresh interpreter
(the zero-table, basis and radial-rule caches are per process, so every
user pays for them on every command), for ``--seconds`` seconds, checks
every op's outputs against the stored reference outputs and prints the
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced ops with ops run under ``traced_cli.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object.

Each child runs pinned to the CPU that is quietest when it starts, with the
driver on the same CPU.  While a child runs, the driver times a small fixed
speed probe there every ``SPEED_PERIOD_S``; the times it reports are wall
times corrected by the probe to a reference core speed (see ``speed``).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from gates import GateMiss, check_op
from workloads import LEMMA_IDS, PROGRAM_SEEDS, SWEEP_CONFIG, WORKLOADS, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_DIR = ROOT / ".perfbench_runs"

SETUP_EVERY = 2         # one timed set-up probe per this many ops (untraced)
MIN_OPS = 4             # ops per run even when --seconds runs out first
OP_TIMEOUT_S = 30.0     # a child still running after this is killed and fails
# BLAS/OpenMP pools are pinned to one thread: the commands are single-process
# and numpy's FFT and einsum paths do not use them, so a pool only adds noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORK_UNITS = {"sim-nonlinear": "Heun steps", "sweep-linear": "values written",
              "verify-lemmas": "lemmas.csv rows"}

# Host-speed correction.  Other tenants' work on the same physical core slows
# a CPU by up to ~1.8x, in stretches of seconds to minutes, and the two CPUs
# of the development machine slow independently.  The speed probe slows with
# them, but more: across ops, a command's wall time went as the probe's time
# to the power 0.6-0.85, hence the exponent (see README.md).
SPEED_PERIOD_S = 0.1     # probe interval while a child runs
SPEED_EXPONENT = 0.75
SPEED_REF_S = 1.4e-3     # probe time on an unloaded core of the development machine

SWEEP_FUNCTIONALS = (len(SWEEP_CONFIG["kinds"]) - 1) * len(SWEEP_CONFIG["nu_list"])
SWEEP_GAPS = len(SWEEP_CONFIG["nu_list"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class SpeedProbe:
    """A fixed mix of interpreter work and small FFTs, like the commands'."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.vec = rng.random(256)
        self.grid = rng.random((64, 64))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            acc += float((self.vec * 1.0001 + 0.5).sum())
            for j in range(20):
                acc += j * 0.5
        for _ in range(10):
            np.fft.irfft2(np.fft.rfft2(self.grid), s=self.grid.shape)
        return time.perf_counter() - t0


PROBE = SpeedProbe()
CPUS = sorted(os.sched_getaffinity(0))


def speed(probe_times: list[float]) -> float:
    """Mean speed of the CPU over the probes, relative to an unloaded core.

    A command's rate of work goes as ``(SPEED_REF_S / probe) ** SPEED_EXPONENT``;
    averaged over probes evenly spaced in time, a wall time times this
    factor is the time the command would take at the reference speed.
    """
    return statistics.fmean((SPEED_REF_S / t) ** SPEED_EXPONENT
                            for t in probe_times)


def quietest_cpu(cpus: list[int]) -> int:
    """Pin the driver, and so the next child, to the CPU on which the speed
    probe runs fastest now; return it."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(PROBE() for _ in range(3))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "threads_pinned": 1,
            "cpus": len(CPUS)}


def run_child(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one process to completion on the quietest CPU, timing the speed
    probe on that CPU before it starts and every SPEED_PERIOD_S while it runs.

    Returns the CPU, wall s, exit code, peak RSS MB (the child's own
    ``ru_maxrss``), the probe's median time, the CPU's mean speed and the
    corrected time: wall s times that speed.
    """
    cpu = quietest_cpu(CPUS)
    probes = [PROBE()]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SPEED_PERIOD_S)[0]:
                    if time.perf_counter() - t0 > OP_TIMEOUT_S:
                        proc.kill()
                    probes.append(PROBE())
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(exited)
        except BaseException:  # never leave the child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    factor = speed(probes)
    return {"cpu": cpu, "wall_s": wall, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "probe_s": statistics.median(probes), "speed": factor,
            "time_s": wall * factor}


def setup_probe(workload: str, tmp: Path) -> dict:
    """One cold set-up in a fresh process (see run_child)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload]
    child = run_child(argv, tmp, tmp / "setup.log")
    if child["exit"] != 0:
        raise RuntimeError(f"set-up probe exited {child['exit']}: "
                           + (tmp / "setup.log").read_text()[-2000:])
    return child


def layer_metrics(doc: dict, output_bytes: int) -> tuple[dict, dict]:
    """Per-layer (value, unit) of one traced op from its spans, and the
    call counts the cross-checks need."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    calls_bessel = [False] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
        if name == "bessel.jn_trio":
            while parent >= 0:
                calls_bessel[parent] = True
                parent = spans[parent][3]
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    lemma_s = dict.fromkeys(LEMMA_IDS, 0.0)
    hits = steps = max_nodes = 0
    conv_cost = {"flops": 0.0, "bytes": 0.0}
    for i, (name, t0, t1, _, info) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["s"] += t1 - t0
        a["self_s"] += t1 - t0 - child[i]
        if name == "basis.profile_matrix" and not calls_bessel[i]:
            hits += 1
        elif name == "field.radial_rule":
            max_nodes = max(max_nodes, info["nodes"])
        elif name == "solver.convective":
            conv_cost = info
        elif name == "solver.simulate":
            steps += info["steps"]
        elif name == "diagnostics.verify_lemma":
            lemma_s[info["lemma"]] += t1 - t0
    conv = agg["solver.convective"]
    prof = agg["basis.profile_matrix"]
    out = {
        "bessel.zero_table.s": (agg["bessel.zero_table"]["s"], "s"),
        "bessel.jn_trio.calls": (agg["bessel.jn_trio"]["calls"], "count"),
        "bessel.jn_trio.self_s": (agg["bessel.jn_trio"]["self_s"], "s"),
        "basis.StokesBasis.s": (agg["basis.StokesBasis"]["s"], "s"),
        "basis.profile_matrix.calls": (prof["calls"], "count"),
        "basis.profile_matrix.self_s": (prof["self_s"], "s"),
        "basis.profile_matrix.hit_ratio": (hits / max(prof["calls"], 1), "ratio"),
        "basis.profile_cache_mb": (doc["profile_cache_bytes"] / 2**20, "MB"),
        "field.radial_rule.calls": (agg["field.radial_rule"]["calls"], "count"),
        "field.radial_rule.self_s": (agg["field.radial_rule"]["self_s"], "s"),
        "field.radial_rule.max_nodes": (max_nodes, "count"),
        "field.mode_inner_product.calls":
            (agg["field.mode_inner_product"]["calls"], "count"),
        "field.mode_inner_product.self_s":
            (agg["field.mode_inner_product"]["self_s"], "s"),
        "solver.engine_build.s": (agg["solver.engine_build"]["s"], "s"),
        "solver.default_dt.s": (agg["solver.default_dt"]["s"], "s"),
        "solver.convective.calls": (conv["calls"], "count"),
        "solver.convective.self_s": (conv["self_s"], "s"),
        "solver.convective.ms_per_call":
            (1e3 * conv["self_s"] / max(conv["calls"], 1), "ms"),
        "solver.convective.flops_computed": (conv_cost["flops"], "flop"),
        "solver.convective.bytes_computed": (conv_cost["bytes"], "B"),
        "solver.steps": (steps, "count"),
        "solver.simulate.self_s": (agg["solver.simulate"]["self_s"], "s"),
        "diagnostics.condition_functional.calls":
            (agg["diagnostics.condition_functional"]["calls"], "count"),
        "diagnostics.condition_functional.self_s":
            (agg["diagnostics.condition_functional"]["self_s"], "s"),
        "diagnostics.vv_gap.s": (agg["diagnostics.vv_gap"]["s"], "s"),
        **{f"diagnostics.verify_lemma.{lid}.s": (s, "s")
           for lid, s in lemma_s.items()},
        "cli.cmd.self_s": (agg["cli.cmd"]["self_s"], "s"),
        "cli.output_bytes": (output_bytes, "B"),
    }
    counts = {"vv_gap": agg["diagnostics.vv_gap"]["calls"],
              "verify_lemma": agg["diagnostics.verify_lemma"]["calls"]}
    return out, counts


def check_counts(workload: str, m: dict, counts: dict) -> None:
    """Exact call counts that prove the wrappers saw every call."""
    m = {name: value for name, (value, _) in m.items()}
    conv, steps = m["solver.convective.calls"], m["solver.steps"]
    want_conv = 2 * steps + 1 if workload == "sim-nonlinear" else 0
    if conv != want_conv or (workload == "sim-nonlinear" and steps < 1):
        raise GateMiss(f"trace counts: {conv} convective calls for {steps} steps")
    if workload == "sweep-linear" and (
            m["diagnostics.condition_functional.calls"] != SWEEP_FUNCTIONALS
            or counts["vv_gap"] != SWEEP_GAPS):
        raise GateMiss(f"trace counts: {m['diagnostics.condition_functional.calls']}"
                       f" condition_functional, {counts['vv_gap']} vv_gap calls")
    if workload == "verify-lemmas" and counts["verify_lemma"] != len(LEMMA_IDS):
        raise GateMiss(f"trace counts: {counts['verify_lemma']} verify_lemma calls")


def run_op(workload: str, tmp: Path, i: int, program_seed: int,
           traced: bool) -> dict:
    outdir = tmp / f"op{i}"
    spans = tmp / f"op{i}.spans.json"
    args = cli_args(workload, outdir, program_seed)
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--"] + args
    else:
        argv = [sys.executable, "-m", "diskflow.cli"] + args
    op = {"seed": program_seed, "traced": traced,
          **run_child(argv, tmp, tmp / "op.log"), "error": ""}
    try:
        op.update(check_op(workload, outdir, op["exit"], program_seed))
        if traced:
            out_bytes = sum(p.stat().st_size for p in outdir.iterdir())
            op["layers"], counts = layer_metrics(json.loads(spans.read_text()),
                                                 out_bytes)
            check_counts(workload, op["layers"], counts)
    except Exception as exc:  # any malformed output fails this op only
        log = (tmp / "op.log").read_text()[-500:].strip()
        op["error"] = f"{type(exc).__name__}: {exc}" + (f" | {log}" if log else "")
    shutil.rmtree(outdir, ignore_errors=True)
    return op


def run_ops(workload: str, tmp: Path, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Set-up probes and ops, in turn, for the given time.

    Without tracing, a set-up probe runs before every SETUP_EVERY-th op, so
    the probes sample the whole run rather than one moment of it.  The
    first probe, untimed, fills the bytecode and file caches.  The seed
    fixes the order in which the program seeds are visited; with tracing,
    ops alternate untraced/traced starting untraced.
    """
    order = list(PROGRAM_SEEDS)
    random.Random(seed).shuffle(order)
    setup, ops = [], []
    if not trace:
        setup_probe(workload, tmp)
    t_start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t_start < seconds:
        i = len(ops)
        if not trace and i % SETUP_EVERY == 0:
            setup.append(setup_probe(workload, tmp))
            t_start += setup[-1]["wall_s"]  # --seconds counts op time only
        ops.append(run_op(workload, tmp, i, order[i % len(order)],
                          trace and i % 2 == 1))
    return setup, ops


def end_to_end(setup: list[dict], ops: list[dict]) -> dict:
    """Every time here is corrected for host speed (see ``speed``)."""
    good = [op for op in ops if not op["error"]]
    return {
        "setup_s": (statistics.median(p["time_s"] for p in setup), "s"),
        "op_p50_s": (statistics.median(op["time_s"] for op in ops), "s"),
        "work_per_s": (sum(op["units"] for op in good)
                       / sum(op["time_s"] for op in ops), "1/s"),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in ops), "MB"),
    }


def per_layer(ops: list[dict]) -> dict:
    """Medians over the traced ops that passed; zeros if none did."""
    traced = [op["layers"] for op in ops if op["traced"] and not op["error"]]
    names = layer_metrics({"spans": [], "profile_cache_bytes": 0}, 0)[0]
    m = {name: (statistics.median(t[name][0] for t in traced) if traced else 0,
                unit) for name, (_, unit) in names.items()}
    traced_times = [op["time_s"] for op in ops if op["traced"]]
    plain_times = [op["time_s"] for op in ops if not op["traced"]]
    m["trace.overhead_s"] = (statistics.median(traced_times)
                             - statistics.median(plain_times), "s")
    return m


def report(workload: str, seed: int, trace: bool, env: dict,
           setup: list[float], ops: list[dict], metrics: dict) -> None:
    failed = [op for op in ops if op["error"]]
    print(f"# diskflow benchmark: workload {workload}, seed {seed}, "
          f"trace {int(trace)}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    n_traced = sum(op["traced"] for op in ops)
    print(f"# {len(setup)} set-up probes; {len(ops)} ops ({n_traced} traced); "
          f"work unit: {WORK_UNITS[workload]}")
    slow = [1.0 / op["speed"] for op in ops]
    print(f"# uncorrected medians: op wall "
          f"{statistics.median(op['wall_s'] for op in ops):.4g} s, set-up wall "
          + (f"{statistics.median(p['wall_s'] for p in setup):.4g} s"
             if setup else "-")
          + f"; host slow-down over ops {min(slow):.3g}"
          f"-{max(slow):.3g}x, median {statistics.median(slow):.3g}x")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"{'fail_frac':52s} {len(failed) / len(ops):14.6g} "
          f"({len(failed)}/{len(ops)} ops failed)")
    resid = [op["energy_residual_rel"] for op in ops if "energy_residual_rel" in op]
    if resid:
        print(f"{'energy_residual_rel':52s} {max(resid):14.6g} (max over ops)")
    for op in failed:
        print(f"# FAILED op (seed {op['seed']}, exit {op['exit']}): {op['error']}")
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "machine": env, "setup_s": setup, "ops": ops,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (RECORD_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "diskflow" / "cli.py").is_file():
        print(f"perfbench: no diskflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = machine()
    RECORD_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RECORD_DIR))
    try:
        setup, ops = run_ops(args.workload, tmp, args.seed, args.seconds,
                             bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = (per_layer(ops) if args.trace
               else end_to_end(setup, ops))
    report(args.workload, args.seed, bool(args.trace), env, setup, ops, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
