"""Run one ``diskflow`` CLI command with spans around each layer's entry points.

Usage: ``python3 traced_cli.py SPANS.json -- <diskflow arguments>``

The wrappers are installed from outside the package: every loaded
``diskflow`` module that holds a traced function under its name gets the
wrapper, and traced methods are replaced on their class.  Spans stay in
memory and are written to SPANS.json when the command returns, as
``{"spans": [[name, start_s, end_s, parent_index, info], ...], ...}``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import diskflow
import diskflow.basis
import diskflow.bessel
import diskflow.cli
import diskflow.diagnostics
import diskflow.field
import diskflow.solver

SPANS: list = []
_STACK: list[int] = []
_BASES: list = []


def _span(name, fn, info=None):
    """Wrap fn so each call records a span; info(args, result) adds facts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        parent = _STACK[-1] if _STACK else -1
        SPANS.append([name, time.perf_counter(), None, parent, None])
        _STACK.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            _STACK.pop()
            SPANS[idx][2] = time.perf_counter()
        if info is not None:
            SPANS[idx][4] = info(args, result)
        return result
    return wrapper


def _patch_function(module, attr, name, info=None):
    """Replace module.attr in every diskflow module that imported it."""
    orig = getattr(module, attr)
    wrapped = _span(name, orig, info)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "diskflow" and getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def _patch_method(cls, attr, name, info=None):
    setattr(cls, attr, _span(name, getattr(cls, attr), info))


def _convective_cost(args, _result):
    """Computed flops and bytes of one convective call from array sizes.

    Synthesis and projection are complex multiply-adds over every
    (component, n, k, q); a real FFT of length na is taken as
    2.5 na log2 na flops.  Bytes are those of the arrays the call reads and
    writes once each, so cache misses are not counted.
    """
    eng = args[0]
    nt1, nr, na, nq = eng.nt + 1, eng.nr, eng.na, eng.r.size
    macs = (6 + 2) * nt1 * nr * nq          # 6 synthesis + 2 projection comps
    ffts = (6 + 2) * nq                      # 6 inverse, 2 forward transforms
    flops = 8 * macs + ffts * 2.5 * na * np.log2(na) + 6 * na * nq
    profiles = sum(a.nbytes for a in eng.prof_u + eng.prof_g + eng.proj)
    spectra = 16 * (6 + 2) * (na // 2 + 1) * nq
    physical = 8 * (6 + 2) * na * nq
    return {"flops": float(flops),
            "bytes": float(profiles + spectra + physical)}


def _simulate_info(args, trace):
    config = args[0]
    if config.sample_stride != 1:
        raise ValueError("step count needs sample_stride == 1")
    return {"steps": int(trace.n_samples - 1)}


def _basis_init(orig):
    @functools.wraps(orig)
    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        _BASES.append(self)
    return init


def install() -> None:
    bessel, basis, field = diskflow.bessel, diskflow.basis, diskflow.field
    solver, diag, cli = diskflow.solver, diskflow.diagnostics, diskflow.cli
    _patch_function(bessel, "zero_table", "bessel.zero_table")
    _patch_function(bessel, "jn_trio", "bessel.jn_trio")
    basis.StokesBasis.__init__ = _basis_init(basis.StokesBasis.__init__)
    _patch_method(basis.StokesBasis, "__init__", "basis.StokesBasis")
    _patch_method(basis.StokesBasis, "profile_matrix", "basis.profile_matrix")
    _patch_function(field, "radial_rule", "field.radial_rule",
                    lambda a, res: {"nodes": int(res[0].size)})
    _patch_function(field, "mode_inner_product", "field.mode_inner_product")
    _patch_method(solver._Engine, "__init__", "solver.engine_build")
    _patch_method(solver._Engine, "convective", "solver.convective",
                  _convective_cost)
    _patch_function(solver, "default_dt", "solver.default_dt")
    _patch_function(solver, "simulate", "solver.simulate", _simulate_info)
    _patch_function(diag, "condition_functional",
                    "diagnostics.condition_functional")
    _patch_function(diag, "vv_gap", "diagnostics.vv_gap")
    _patch_function(diag, "verify_lemma", "diagnostics.verify_lemma",
                    lambda a, rep: {"lemma": rep.lemma})
    for cmd in ("cmd_zeros", "cmd_basis", "cmd_simulate", "cmd_sweep",
                "cmd_verify"):
        _patch_function(cli, cmd, "cli.cmd")


def profile_cache_bytes() -> int:
    """Bytes of the arrays every StokesBasis instance holds in dict caches."""
    total = 0
    for bas in _BASES:
        for val in vars(bas).values():
            if isinstance(val, dict):
                total += sum(v.nbytes for v in val.values()
                             if isinstance(v, np.ndarray))
    return total


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    install()
    try:
        return diskflow.cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump({"spans": SPANS,
                       "profile_cache_bytes": profile_cache_bytes()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
