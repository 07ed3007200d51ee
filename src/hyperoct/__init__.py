"""Euclidean designs supported by hyperoctahedral orbits, in exact arithmetic.

Constructs weighted unions of the orbits of e1+...+ek under coordinate
permutations and sign flips, classifies their maximum strength with exact
closed forms, verifies them against a definition-level monomial oracle,
solves the weight/radius feasibility systems, and certifies tightness
against the Fisher-type size bound.
"""

from .harmonic import (
    BasisElement,
    CriterionBasis,
    criterion_basis,
    embed,
    full_basis,
    fully_even_subset,
)
from .moments import (
    first_failure,
    max_strength_oracle,
    monomial_residual,
    sphere_monomial_average,
    verify_strength,
)
from .numeric import as_rational, binomial, double_factorial, format_rational
from .orbit import (
    ConfigError,
    DesignConfig,
    Layer,
    OrbitSizeError,
    make_config,
    orbit_size,
)
from .poly import GegenbauerPoly, Polynomial, building_block_g, gegenbauer
from .solver import (
    DegenerateRadiusSystem,
    FeasibilityResult,
    five_design_possible,
    seven_design_possible,
    solve_radius_Q,
    solve_t5,
    solve_t7,
    tau,
    tau_table,
)
from .strength import (
    StrengthReport,
    classify,
    g_function,
    layer_sum_f42,
    layer_sum_f63,
    layer_sum_f82,
    layer_sum_f84,
    orbit_sum,
    property_g,
)
from .tight import (
    FisherBound,
    fisher_bound,
    is_tight,
    tight_5_3d,
    tight_7_3d,
    tight_7_4d,
    tightness_certificate,
)

__version__ = "0.1.0"
