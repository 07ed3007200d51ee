"""Euclidean designs supported by hyperoctahedral orbits, in exact arithmetic.

Constructs weighted unions of the orbits of e1+...+ek under coordinate
permutations and sign flips, classifies their maximum strength with exact
closed forms, verifies them against a definition-level monomial oracle,
solves the weight/radius feasibility systems, and certifies tightness
against the Fisher-type size bound.

The public names below are loaded lazily (PEP 562): ``import hyperoct`` imports
no submodule, and the first use of a name imports the submodule that defines it.
"""

import importlib

# each submodule and the public names it defines
_EXPORTS = {
    "harmonic": ("BasisElement", "CriterionBasis", "criterion_basis", "embed", "full_basis", "fully_even_subset"),
    "moments": ("first_failure", "max_strength_oracle", "monomial_residual", "sphere_monomial_average", "verify_strength"),
    "numeric": ("as_rational", "binomial", "double_factorial", "format_rational"),
    "orbit": ("ConfigError", "DesignConfig", "Layer", "OrbitSizeError", "make_config", "orbit_size"),
    "poly": ("GegenbauerPoly", "Polynomial", "building_block_g", "gegenbauer"),
    "solver": (
        "DegenerateRadiusSystem", "FeasibilityResult", "five_design_possible", "seven_design_possible",
        "solve_radius_Q", "solve_t5", "solve_t7", "tau", "tau_table",
    ),
    "strength": (
        "StrengthReport", "classify", "g_function", "layer_sum_f42", "layer_sum_f63", "layer_sum_f82",
        "layer_sum_f84", "property_g",
    ),
    "tight": ("FisherBound", "fisher_bound", "is_tight", "tight_5_3d", "tight_7_3d", "tight_7_4d", "tightness_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
