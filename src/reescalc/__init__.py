"""Exact closures and Rees-algebra graded data for modules in free
modules over a two-variable polynomial ring.

The public names below are loaded on first use (PEP 562), so importing
the package, or one submodule such as reescalc.cli, runs only the
modules that are actually needed.
"""

import importlib

_EXPORTS = {
    "analysis": ("br_coefficients", "br_corollary_check", "buchsbaum_check",
                 "direct_sum_buchsbaum", "indecomposability_check",
                 "scaled_buchsbaum_check", "theorem12_check"),
    "closures": ("ClosureOptions", "ClosureResult", "check_integral_equation",
                 "integral_closure_module", "is_reduction",
                 "ratliff_rush_module"),
    "context": ("RingContext",),
    "errors": ("ContextMismatchError", "DeadlineExceeded", "InputError",
               "ParseError", "RankMismatchError", "ReescalcError",
               "SoundnessAlert", "UnstableChainError"),
    "groebner": ("SubmoduleData", "contains", "equal", "groebner_basis",
                 "intersect", "member"),
    "poly": ("Polynomial", "parse_poly"),
    "rees": ("INFINITE", "ModuleEmbedding", "colength", "direct_sum",
             "fitting_ideal", "is_parameter_module", "maximal_ideal",
             "min_gens", "ord_ideal", "scale_by_ideal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "1.0.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
