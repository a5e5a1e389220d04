"""Correctness gate: every op's outputs against the stored reference outputs.

Numbers match when ``|a - b| <= RTOL * |b| + ATOL * scale``, where ``scale``
is the largest magnitude in the reference column (CSV), snapshot (arrays)
or document (JSON).  Strings, integers held as indices and
the shape of every file must match exactly.  On top of the comparison the
gate checks physics invariants of ``trace.csv`` and the sweep manifest.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import reference_dir

RTOL = 1e-9
ATOL = 1e-12
EXPECTED_EXIT = 0
# max_i |u_norm_sq + visc_cum - u0 - energy_in| / u0; the reference outputs
# give 1.3e-10 to 7.6e-10 over the program seeds.
ENERGY_RESIDUAL_MAX = 1e-8
# max_i |flux| / (u0 * sqrt(w0)); the convective flux vanishes up to roundoff
# (the reference outputs give about 5e-17).
FLUX_REL_MAX = 1e-10


class GateMiss(Exception):
    """An output differs from the reference or breaks an invariant."""


def read_reference(path: Path) -> str:
    with gzip.open(str(path) + ".gz", "rt") as fh:
        return fh.read()


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= RTOL * abs(b) + ATOL * scale


def _as_float(s: str):
    try:
        return float(s)
    except ValueError:
        return None


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def compare_csv(name: str, got: str, ref: str, key_cols: int = 0,
                skip: tuple[str, ...] = ()) -> None:
    """Compare two CSV texts cell by cell, except the columns in ``skip``.

    With ``key_cols`` > 0 rows are matched by their first ``key_cols``
    columns, so a reordering of rows with tied sort keys is not a miss.
    """
    gh, grows = _rows(got)
    rh, rrows = _rows(ref)
    if gh != rh:
        raise GateMiss(f"{name}: header {gh} != {rh}")
    if len(grows) != len(rrows):
        raise GateMiss(f"{name}: {len(grows)} rows, reference has {len(rrows)}")
    if key_cols:
        def key(row):
            return tuple(row[:key_cols - 1]) + (round(float(row[key_cols - 1]), 9),)
        gmap = {key(r): r for r in grows}
        if len(gmap) != len(grows):
            raise GateMiss(f"{name}: duplicate row keys")
        try:
            grows = [gmap[key(r)] for r in rrows]
        except KeyError as exc:
            raise GateMiss(f"{name}: row {exc.args[0]} missing") from None
    scales = []
    for c in range(len(rh)):
        vals = [_as_float(r[c]) for r in rrows]
        nums = [abs(v) for v in vals if v is not None and math.isfinite(v)]
        scales.append(max(nums, default=0.0))
    for i, (g, r) in enumerate(zip(grows, rrows)):
        for c, (gv, rv) in enumerate(zip(g, r)):
            if gv == rv or rh[c] in skip:
                continue
            a, b = _as_float(gv), _as_float(rv)
            if a is None or b is None or not _close(a, b, scales[c]):
                raise GateMiss(f"{name}: row {i} column {rh[c]!r}: {gv} != {rv}")


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, float) and math.isfinite(doc):
        yield abs(doc)


def compare_json(name: str, got, ref, scale: float | None = None,
                 path: str = "") -> None:
    if scale is None:
        scale = max(_numbers(ref), default=0.0)
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise GateMiss(f"{name}{path}: keys differ")
        for k in ref:
            compare_json(name, got[k], ref[k], scale, f"{path}.{k}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise GateMiss(f"{name}{path}: lengths differ")
        for i, (g, r) in enumerate(zip(got, ref)):
            compare_json(name, g, r, scale, f"{path}[{i}]")
    elif isinstance(ref, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if not _close(float(got), ref, scale):
            raise GateMiss(f"{name}{path}: {got!r} != {ref!r}")
    elif got != ref or type(got) is not type(ref):
        raise GateMiss(f"{name}{path}: {got!r} != {ref!r}")


def compare_snapshots(got: dict, ref: dict) -> None:
    gs, rs = got["snapshots"], ref["snapshots"]
    if len(gs) != len(rs):
        raise GateMiss(f"snapshots.json: {len(gs)} snapshots, reference has {len(rs)}")
    for i, (g, r) in enumerate(zip(gs, rs)):
        if (g["n_theta"], g["n_r"]) != (r["n_theta"], r["n_r"]):
            raise GateMiss(f"snapshots.json[{i}]: truncation differs")
        if not _close(g["time"], r["time"], abs(r["time"])):
            raise GateMiss(f"snapshots.json[{i}]: time {g['time']} != {r['time']}")
        ga = np.array(g["re"]) + 1j * np.array(g["im"])
        ra = np.array(r["re"]) + 1j * np.array(r["im"])
        if ga.shape != ra.shape:
            raise GateMiss(f"snapshots.json[{i}]: shape {ga.shape} != {ra.shape}")
        tol = RTOL * np.abs(ra) + ATOL * float(np.abs(ra).max())
        if not (np.abs(ga - ra) <= tol).all():
            raise GateMiss(f"snapshots.json[{i}]: coefficients differ")


def trace_invariants(text: str) -> dict:
    """Energy-budget residual and relative flux of a trace.csv."""
    header, rows = _rows(text)
    a = np.array(rows, dtype=float)
    col = {h: a[:, i] for i, h in enumerate(header)}
    u0, w0 = col["u_norm_sq"][0], col["w_norm_sq"][0]
    budget = col["u_norm_sq"] + col["visc_cum"] - u0 - col["energy_in"]
    return {"energy_residual_rel": float(np.abs(budget).max() / u0),
            "flux_rel": float(np.abs(col["flux"]).max() / (u0 * math.sqrt(w0))),
            "steps": len(rows) - 1}


def check_op(workload: str, outdir: Path, exit_code: int,
             program_seed: int) -> dict:
    """Raise GateMiss unless the op's outputs pass; return its facts.

    The facts hold ``units`` (the workload's unit of work done by the op)
    and, for simulations, the trace invariants.
    """
    if exit_code != EXPECTED_EXIT:
        raise GateMiss(f"exit code {exit_code}, expected {EXPECTED_EXIT}")
    ref = reference_dir(workload, program_seed)

    def read(name):
        p = outdir / name
        if not p.exists():
            raise GateMiss(f"{name} missing")
        return p.read_text()

    if workload == "sim-nonlinear":
        trace = read("trace.csv")
        # flux is roundoff noise around 0: it is gated by FLUX_REL_MAX below,
        # since any reordering of the convective sums changes every digit.
        compare_csv("trace.csv", trace, read_reference(ref / "trace.csv"),
                    skip=("flux",))
        compare_snapshots(json.loads(read("snapshots.json")),
                          json.loads(read_reference(ref / "snapshots.json")))
        facts = trace_invariants(trace)
        if not facts["energy_residual_rel"] <= ENERGY_RESIDUAL_MAX:
            raise GateMiss(f"energy residual {facts['energy_residual_rel']:.3g}"
                           f" > {ENERGY_RESIDUAL_MAX:g}")
        if not facts["flux_rel"] <= FLUX_REL_MAX:
            raise GateMiss(f"relative flux {facts['flux_rel']:.3g} > {FLUX_REL_MAX:g}")
        facts["units"] = facts["steps"]
        return facts
    if workload == "sweep-linear":
        diag = read("diagnostics.csv")
        compare_csv("diagnostics.csv", diag, read_reference(ref / "diagnostics.csv"))
        failures = json.loads(read("manifest.json"))["config"].get("failures")
        if failures != {}:
            raise GateMiss(f"sweep failures: {failures}")
        _, rows = _rows(diag)
        return {"units": sum(1 for r in rows if math.isfinite(float(r[2])))}
    if workload == "verify-lemmas":
        lemmas = read("lemmas.csv")
        compare_csv("lemmas.csv", lemmas, read_reference(ref / "lemmas.csv"),
                    key_cols=4)
        compare_json("summary.json", json.loads(read("summary.json")),
                     json.loads(read_reference(ref / "summary.json")))
        return {"units": len(_rows(lemmas)[1])}
    raise ValueError(f"unknown workload {workload!r}")
