"""Command-line entry point: tables, simulations, sweeps, verification.

``main`` creates the output directory, runs one command, writes a
manifest.json echoing the command's fully resolved configuration next to
its outputs, and maps errors to exit codes.  All CSV/JSON output is
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
# each command imports the layers it runs; bessel serves EXIT_CODES
from .bessel import ZeroConvergenceError, zero_table

if TYPE_CHECKING:
    from .diagnostics import ScheduleSpec
    from .solver import SimConfig

# Exit codes: 0 success, 1 a failed simulation or strict inequality, and one
# per failure class: 2 invalid arguments, config or input file (also a sweep
# with no successful point), 3 a Bessel zero that did not converge, 4 an
# output that could not be written.
EXIT_CODES = {ValueError: 2, ZeroConvergenceError: 3, OSError: 4}


class ConfigError(ValueError):
    pass


def _write_csv(path: Path, header, rows) -> None:
    # csv writes str(x), which is repr(float(x)) for every float64
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config")
    p = Path(args.config)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"cannot read config file {p}: not a JSON object")
    return cfg


def _expect(cfg: dict, key: str, types, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"config key {key!r} is required")
        return default
    val = cfg[key]
    # exact types: a JSON true is a bool, which isinstance counts as an int
    if type(val) not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"config key {key!r} has wrong type: {type(val).__name__}")
    return val


def _check_entries(items, valid, what: str) -> None:
    """Refuse an unknown entry, lest a misspelled key run its default, and a
    repeated one, which would run and write its rows twice."""
    items = list(items)
    if unknown := [x for x in items if x not in valid]:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; valid: {', '.join(valid)}")
    if repeated := [x for i, x in enumerate(items) if x in items[:i]]:
        raise ConfigError(f"{what} {repeated[0]!r} is repeated")


def _with_seed(cfg: dict, seed: int | None) -> dict:
    """cfg with "seed" resolved: the --seed override, else its own, else 0."""
    return {**cfg, "seed": int(seed if seed is not None
                               else _expect(cfg, "seed", int, 0))}


def _resolve_init(spec, base: Path):
    """A preset name, or the coefficients of {"file": path}; a relative
    path is read from the config file's directory."""
    from .field import SpectralCoeffs

    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        p = base / spec["file"]
        try:
            return SpectralCoeffs.from_dict(json.loads(p.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read init file {p}: "
                              f"{type(exc).__name__}: {exc}") from exc
    raise ConfigError("init must be a preset name or {'file': path}")


def _sim_config(cfg: dict, base: Path, where: str = "config", extra=()) -> SimConfig:
    from .solver import SimConfig

    _check_entries(cfg, ("nu", "t_end", "n_theta", "n_r", "dt", "init", "linear", "seed",
                         "amplitude", "sample_stride", *extra), f"{where} key")
    init = _resolve_init(_expect(cfg, "init", (str, dict), "radial-1"), base)
    dt = _expect(cfg, "dt", (int, float, type(None)), None)  # null: automatic
    return SimConfig(
        nu=float(_expect(cfg, "nu", (int, float), required=True)),
        t_end=float(_expect(cfg, "t_end", (int, float), required=True)),
        n_theta=int(_expect(cfg, "n_theta", int, required=True)),
        n_r=int(_expect(cfg, "n_r", int, required=True)),
        dt=float(dt) if dt is not None else None,
        init=init,
        linear=bool(_expect(cfg, "linear", bool, False)),
        seed=int(_expect(cfg, "seed", int, 0)),
        amplitude=float(_expect(cfg, "amplitude", (int, float), 0.1)),
        sample_stride=int(_expect(cfg, "sample_stride", int, 1)),
    )


def cmd_zeros(args, outdir: Path) -> tuple[int, dict]:
    n_max, k_max = args.n_max, args.k_max
    if n_max < 0 or k_max < 0:
        raise ConfigError("bounds must be nonnegative")
    tab = zero_table(n_max, k_max) if k_max >= 1 else None  # no zeros, no table
    rows = [(n, k, tab.zero(n, k)) for n in range(n_max + 1) for k in range(1, k_max + 1)]
    _write_csv(outdir / "zeros.csv", ("n", "k", "zero"), rows)
    print(f"wrote {outdir / 'zeros.csv'} ({len(rows)} rows)")
    return 0, {"n_max": n_max, "k_max": k_max}


def cmd_basis(args, outdir: Path) -> tuple[int, dict]:
    from .basis import StokesBasis

    bas = StokesBasis(args.n_max, args.k_max)
    rows = []
    for n in range(args.n_max + 1):
        for k in range(1, args.k_max + 1):
            p = bas.pair(n, k)
            rows.append((n, k, p.lam, p.alpha, p.beta, p.c_norm, p.d_const))
    _write_csv(outdir / "basis.csv",
               ("n", "k", "lambda", "alpha", "beta", "c_norm", "d_const"), rows)
    print(f"wrote {outdir / 'basis.csv'} ({len(rows)} rows)")
    return 0, {"n_max": args.n_max, "k_max": args.k_max}


def cmd_simulate(args, outdir: Path) -> tuple[int, dict]:
    from .solver import _Schedule, simulate

    cfg = _with_seed(_load_config(args), args.seed)
    sim = _sim_config(cfg, Path(args.config).parent, extra=("snapshot_stride",))
    snap_stride = int(_expect(cfg, "snapshot_stride", int, 0))
    if snap_stride < 0:
        raise ConfigError(f"snapshot_stride must be >= 0, got {snap_stride}")
    trace = simulate(sim, state_stride=snap_stride)  # holds the snapshots' states only
    rows = zip(trace.times, trace.u_norm_sq, trace.w_norm_sq, trace.visc_cum,
               trace.energy_in, trace.flux)
    _write_csv(outdir / "trace.csv",
               ("time", "u_norm_sq", "w_norm_sq", "visc_cum", "energy_in", "flux"), rows)
    held = _Schedule(trace.n_samples - 1, snap_stride).indices() if snap_stride else ()
    snaps = [trace.coeffs_at(i).to_dict() for i in held]
    (outdir / "snapshots.json").write_text(
        json.dumps({"snapshots": snaps}, sort_keys=True) + "\n")
    status = "FAILED: " + trace.message if trace.failed else "ok"
    print(f"wrote {outdir / 'trace.csv'} ({trace.n_samples} samples) [{status}]")
    return (1 if trace.failed else 0), cfg


def _sweep_point(sim: SimConfig, schedule: ScheduleSpec, kinds: list) -> dict:
    """Evaluate one viscosity of a sweep, in a worker process if the sweep has several."""
    from .basis import stokes_basis
    from .diagnostics import condition_functional, vv_gap
    from .solver import simulate

    basis = stokes_basis(sim.n_theta, sim.n_r)
    out = {"nu": sim.nu, "values": {}, "error": ""}
    try:
        trace = simulate(sim, basis)
        if trace.failed:
            raise RuntimeError(trace.message)
        for kind in kinds:
            if kind == "gap":  # sample 0 of the trace is the initial state
                out["values"][kind] = vv_gap(trace, trace.coeffs_at(0), basis)
            else:
                out["values"][kind] = condition_functional(
                    trace, kind, schedule, basis)
    except Exception as exc:  # per-point failures recorded, sweep continues
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_sweep(args, outdir: Path) -> tuple[int, dict]:
    from .diagnostics import CONDITION_KINDS, ScheduleSpec

    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    cfg = _load_config(args)
    # a manifest's config also holds the failures, and must rerun
    _check_entries(cfg, ("nu_list", "kinds", "schedule", "sim", "failures"), "config key")
    nu_list = _expect(cfg, "nu_list", list, required=True)
    if not nu_list or any(type(v) not in (int, float) or v <= 0 for v in nu_list):
        raise ConfigError("nu_list must be a nonempty list of positive numbers")
    if any(b >= a for a, b in zip(nu_list, nu_list[1:])):
        raise ConfigError("nu_list must be strictly decreasing")
    kinds = _expect(cfg, "kinds", list, required=True)
    if not kinds:
        raise ConfigError("no condition kind given")
    _check_entries(kinds, CONDITION_KINDS + ("gap",), "condition kind")
    sched_cfg = _expect(cfg, "schedule", dict, {})
    _check_entries(sched_cfg, ScheduleSpec.__dataclass_fields__, "schedule key")
    schedule = ScheduleSpec(**{k: float(_expect(sched_cfg, k, (int, float)))
                               for k in sched_cfg})
    if len(nu_list) >= 2 and set(kinds) - {"gap", "K1"}:
        schedule.validate_sweep(nu_list)
    sim_cfg = _with_seed(_expect(cfg, "sim", dict, required=True), args.seed)
    if "nu" in sim_cfg:
        raise ConfigError("config key 'sim.nu' is not read: a sweep takes its "
                          "viscosities from nu_list")

    sim = _sim_config({**sim_cfg, "nu": nu_list[0]}, Path(args.config).parent, "sim")
    sims = [replace(sim, nu=float(nu)) for nu in nu_list]
    # every row reports its point's cutoffs: resolved, or refused, before any point runs
    cutoffs = [(schedule.L(s.nu), schedule.M(s.nu), schedule.delta(s.nu)) for s in sims]
    # a fork pool starts all its workers at the first submit: one per point at most
    if (workers := min(args.threads, len(sims))) > 1:
        # imported here: at module level it adds ~15 ms to every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, sims, [schedule] * len(sims),
                                    [kinds] * len(sims)))
    else:
        results = [_sweep_point(s, schedule, kinds) for s in sims]

    rows = []
    failures = {}
    for res, (L, M, delta) in zip(results, cutoffs):
        nu = res["nu"]
        if res["error"]:
            failures[repr(nu)] = res["error"]
        for kind in kinds:
            val = res["values"].get(kind, float("nan"))
            rows.append((nu, kind, val, L, M, delta, schedule.c))
    _write_csv(outdir / "diagnostics.csv",
               ("nu", "kind", "value", "L", "M", "delta", "c"), rows)
    n_ok = len(results) - len(failures)
    print(f"wrote {outdir / 'diagnostics.csv'} ({n_ok}/{len(results)} points ok)")
    return (0 if n_ok else 2), {**cfg, "sim": sim_cfg, "failures": failures,
                                "schedule": schedule.__dict__}


def cmd_verify(args, outdir: Path) -> tuple[int, dict]:
    from .diagnostics import LEMMA_IDS, verify_lemma

    ids = LEMMA_IDS if args.lemmas == "all" else tuple(args.lemmas.split(","))
    _check_entries(ids, LEMMA_IDS, "lemma id")
    rows = []
    summary = {}
    for lid in ids:
        rep = verify_lemma(lid, args.n_max, args.k_max)
        rows.extend((rep.lemma, *row) for row in rep.rows)
        summary[lid] = {
            "passed": rep.passed,
            "worst_margin": rep.worst_margin,
            "constant": rep.constant,
            **rep.extra,
        }
        verdict = {True: "pass", False: "FAIL", None: "report"}[rep.passed]
        cinfo = f" C={rep.constant:.4g}" if rep.constant is not None else ""
        print(f"{lid:28s} {verdict:7s} worst margin {rep.worst_margin:+.3e}{cinfo}")
    _write_csv(outdir / "lemmas.csv",
               ("lemma", "n", "k", "param", "observed", "bound", "margin"), rows)
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    failed = any(s["passed"] is False for s in summary.values())
    return int(failed), {"lemmas": list(ids), "n_max": args.n_max, "k_max": args.k_max}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskflow",
        description="Spectral flow solver and boundary-layer diagnostics "
                    "on the unit disk")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(fn=fn)
        return p

    def bounds(p, default=None):
        for flag in ("--n-max", "--k-max"):
            p.add_argument(flag, type=int, default=default, required=default is None)

    def config(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="seed override")

    bounds(command("zeros", cmd_zeros, "tabulate positive zeros of J_n"))
    bounds(command("basis", cmd_basis, "tabulate eigenvalues and mode constants"))
    config(command("simulate", cmd_simulate, "run one simulation from a config"))
    p = command("sweep", cmd_sweep, "run a viscosity sweep from a config")
    config(p)
    p.add_argument("--threads", type=int, default=1, help="worker count")
    p = command("verify", cmd_verify, "run the inequality verification suite")
    p.add_argument("--lemmas", default="all",
                   help="comma-separated lemma ids or 'all'")
    bounds(p, 50)
    p.add_argument("--seed", type=int,
                   help="accepted for a uniform command line; the scans use "
                        "a fixed internal RNG, so it changes no output")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        code, config = args.fn(args, outdir)
        doc = {"command": args.command, "config": config, "version": __version__}
        (outdir / "manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except tuple(EXIT_CODES) as exc:
        print(f"diskflow {args.command}: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return code


if __name__ == "__main__":
    sys.exit(main())
