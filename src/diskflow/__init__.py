"""Spectral flow solver and boundary-layer diagnostics on the unit disk.

The layer modules and the names they export load on first access (PEP 562),
so ``import diskflow`` loads no layer and a command only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bessel": ("BesselDomainError", "ZeroConvergenceError", "bessel_j", "bessel_j_prime",
               "bessel_zero", "compound_decay", "zero_table"),
    "basis": ("EigenPair", "StokesBasis", "stokes_basis", "velocity_eval",
              "velocity_gradient_eval", "vorticity_eval"),
    "field": ("FieldSample", "PolarGrid", "SpectralCoeffs", "build_grid", "inner_product",
              "mode_inner_product", "norm_l2", "project", "synthesize"),
    "solver": ("ForcingSeries", "SimConfig", "SimTrace", "SolverInstability",
               "exact_linear_solution", "linear_trace", "make_initial", "nonlinear_coeffs",
               "simulate", "step"),
    "diagnostics": ("CONDITION_KINDS", "LEMMA_IDS", "LemmaReport", "ScheduleSpec",
                    "TruncationSpec", "condition_functional", "residual_trace", "truncate",
                    "truncate_trace", "verify_lemma", "vv_gap"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
# a star import gives what the eager package bound: every name and layer
__all__ = [*_LAYER_OF, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
