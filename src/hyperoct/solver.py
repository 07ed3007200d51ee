"""Feasibility decisions and explicit weight/radius solutions.

Given a dimension, a set of orbit indices, and squared radii, decides
whether positive layer weights exist making the union a 5- or 7-design,
and returns a normalized solution when they do.  Sign tests decide
feasibility (p for strength 5, the G form for strength 7); the weights
and the 7-design radius identity are read off the defining equations of
``strength.classify`` itself, from the kernel of their orbit-sum columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .numeric import as_rational
from .orbit import DesignConfig, Layer, orbit_index
from .strength import g_function, layer_sum_f42, layer_sum_f63, p_value

_ONE = Fraction(1)


class DegenerateRadiusSystem(ValueError):
    """The radius identity cannot determine the requested unknown."""


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    reason: str
    solution: DesignConfig | None = None

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "reason": self.reason,
            "solution": self.solution.to_json_dict() if self.solution else None,
        }


def _radius_map(J: Sequence[int], r_squared) -> dict[int, Fraction]:
    J = sorted(set(J))
    given = {orbit_index(k): as_rational(v) for k, v in (r_squared or {}).items()}
    unknown = set(given) - set(J)
    if unknown:
        raise ValueError(f"radius given for k not in J: {sorted(unknown)}")
    full = {k: given.get(k, _ONE) for k in J}
    if any(v <= 0 for v in full.values()):
        raise ValueError("squared radii must be positive")
    return full


def _validate(n: int, J: Sequence[int]) -> list[int]:
    if n < 3:
        raise ValueError("need n >= 3")
    ks = sorted({orbit_index(k) for k in J})
    if not ks:
        raise ValueError("J must be nonempty")
    if ks[0] < 1 or ks[-1] > n:
        raise ValueError(f"J={ks} is not a subset of 1..{n}")
    return ks


def _config(n: int, ks: list[int], r2: dict[int, Fraction], weights: Sequence[Fraction]) -> DesignConfig:
    """The layers of ks with the given weights, scaled so the smallest-k weight is 1."""
    layers = tuple(
        Layer(k=k, r_squared=r2[k], weight=w / weights[0]) for k, w in zip(ks, weights)
    )
    return DesignConfig(n=n, layers=layers)


def _f42_row(n: int, ks: list[int], r2: dict[int, Fraction]) -> list[Fraction]:
    """Each layer's unit-weight term of the f42_s0 equation: (r^2/k)^2 L42(n, k)."""
    return [(r2[k] / k) ** 2 * layer_sum_f42(n, k) for k in ks]


# -- 5-designs --------------------------------------------------------


def solve_t5(n: int, J, r_squared: Mapping | None = None) -> FeasibilityResult:
    """Weight family making the union a 5-design, for one or two orbits.

    A single orbit works exactly when its index sits at the balance point
    (n+2)/3; a pair works exactly when the indices straddle it, in which
    case the unique weight ratio is returned normalized to w = 1 on the
    smaller index.
    """
    ks = _validate(n, J)
    if len(ks) > 2:
        raise ValueError("closed-form 5-design solving covers |J| <= 2")
    r2 = _radius_map(ks, r_squared)
    if len(ks) == 1:
        k = ks[0]
        if p_value(n, k) == 0:
            return FeasibilityResult(True, "t5:single-orbit-balanced", _config(n, ks, r2, [_ONE]))
        return FeasibilityResult(False, "t5:single-orbit-off-balance")
    b1, b2 = _f42_row(n, ks, r2)
    if b1 > 0 > b2:
        return FeasibilityResult(True, "t5:pair-straddles-balance", _config(n, ks, r2, [b2, -b1]))
    return FeasibilityResult(False, "t5:pair-no-straddle")


def five_design_possible(n: int, J) -> bool:
    """Whether some positive weights make the union a 5-design (any radii).

    The single defining equation has one coefficient per layer whose sign
    is independent of radii and weights, so solvability means either every
    coefficient vanishes (single balanced orbit) or mixed signs occur.
    """
    return _five_design_rule(n, _validate(n, J))


def _five_design_rule(n: int, ks: Sequence[int]) -> bool:
    ps = [p_value(n, k) for k in ks]
    if len(ks) == 1:
        return ps[0] == 0
    return any(p > 0 for p in ps) and any(p < 0 for p in ps)


# -- 7-designs --------------------------------------------------------


def _triple_kernel(n: int, ks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Kernel c of two 7-design equations over a sorted triple, and the third's coefficients.

    With v_k = w_k (r_k^2)^3 / k^3, the f42_s1 and f63_s0 equations of
    ``classify`` read sum v_k a_k = 0 and sum v_k b_k = 0 in the integer
    columns a_k = k L42(n, k) and b_k = L63(n, k).  Their solutions are the
    multiples of c = a x b, so w_k is proportional to c_k k^3 / (r_k^2)^3, and
    f42_s0 becomes the radius identity sum c_k a_k / r_k^2 = 0.
    """
    a = [k * layer_sum_f42(n, k) for k in ks]
    b = [layer_sum_f63(n, k) for k in ks]
    c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    return c, [ck * ak for ck, ak in zip(c, a)]


def solve_radius_Q(n: int, ks, known: Mapping) -> Fraction | None:
    """Third squared radius making the radius identity hold, if positive.

    The identity is the f42_s0 equation of ``classify`` with the weights of
    the f42_s1/f63_s0 kernel substituted (see ``_triple_kernel``).
    `known` maps two of the three sorted indices to their squared radii.
    Returns None when the forced value is not positive; raises
    DegenerateRadiusSystem when the unknown's coefficient vanishes.
    """
    ks = _validate(n, ks)
    if len(ks) != 3:
        raise ValueError("ks must be three distinct indices in 1..n")
    r2 = _radius_map(ks, known)
    missing = [k for k in ks if k not in known]
    if len(missing) != 1:
        raise ValueError("exactly two of the three indices must have known radii")
    m = ks.index(missing[0])
    coeffs = _triple_kernel(n, ks)[1]
    if coeffs[m] == 0:
        raise DegenerateRadiusSystem(
            f"coefficient of 1/r^2 for k={missing[0]} vanishes; the identity cannot determine it"
        )
    rhs = sum(coeffs[i] / r2[k] for i, k in enumerate(ks) if i != m)
    y = -rhs / coeffs[m]
    if y <= 0:
        return None
    return 1 / y


def _sign_pattern(n: int, ks: Sequence[int]) -> bool:
    """Whether G12 > 0, G23 > 0 and G13 < 0 for a sorted triple.

    Every triple 7-design needs this pattern: it is the condition that the
    kernel vector of ``_triple_kernel`` has one strict sign, so that its
    weights are positive (the tests check this for n <= 40).  At a balanced
    middle index (3 k2 = n + 2) G12 and G23 are positive, so it reduces to
    G13 < 0.
    """
    k1, k2, k3 = ks
    return g_function(n, k1, k2) > 0 and g_function(n, k2, k3) > 0 and g_function(n, k1, k3) < 0


_TRIPLE_REASONS = {
    1: "t7:triple-common-radius",
    2: "t7:triple-two-radii-balanced-middle",
    3: "t7:triple-three-radii",
}


def solve_t7(n: int, J, r_squared: Mapping | None = None) -> FeasibilityResult:
    """Weight family making the union a 7-design, for up to three orbits.

    Radii must be supplied for every index in J (default: all 1).  A pair
    needs equal radii and a vanishing G value; its weights zero the f42
    equation, as in ``solve_t5``.  A triple needs the G sign pattern, and
    with two distinct radii also matching outer radii around a balanced
    middle index; its weights come from the kernel of the f42_s1 and f63_s0
    equations, and the remaining f42_s0 equation is the 1/r^2 radius
    identity, which holds by itself on one radius or on two such radii.
    """
    ks = _validate(n, J)
    if len(ks) > 3:
        raise ValueError("closed-form 7-design solving covers |J| <= 3")
    r2 = _radius_map(ks, r_squared)
    if len(ks) == 1:
        return FeasibilityResult(False, "t7:single-orbit")
    if len(ks) == 2:
        k1, k2 = ks
        if r2[k1] != r2[k2]:
            return FeasibilityResult(False, "t7:pair-radii-differ")
        if g_function(n, k1, k2) != 0:
            return FeasibilityResult(False, "t7:pair-nonzero-g")
        b1, b2 = _f42_row(n, ks, r2)
        return FeasibilityResult(True, "t7:pair-equal-radius-zero-g", _config(n, ks, r2, [b2, -b1]))

    k1, k2, k3 = ks
    distinct = len({r2[k] for k in ks})
    if distinct == 2:
        if r2[k1] != r2[k3]:
            return FeasibilityResult(False, "t7:triple-two-radii-wrong-pairing")
        if 3 * k2 != n + 2:
            return FeasibilityResult(False, "t7:triple-two-radii-middle-not-balanced")
    if not _sign_pattern(n, ks):
        return FeasibilityResult(False, "t7:triple-sign-pattern-fails")
    c, coeffs = _triple_kernel(n, ks)
    if sum(q / r2[k] for q, k in zip(coeffs, ks)) != 0:
        return FeasibilityResult(False, "t7:triple-radius-identity-fails")
    weights = [ck * k**3 / r2[k] ** 3 for ck, k in zip(c, ks)]
    return FeasibilityResult(True, _TRIPLE_REASONS[distinct], _config(n, ks, r2, weights))


def seven_design_possible(n: int, J, p: int) -> bool:
    """Whether some radii with exactly p distinct values and positive weights
    make the union a 7-design.

    A triple needs the G sign pattern for every p, and for p = 2 also its
    middle index at the balance point 3 k2 = n + 2.  Given the pattern,
    three distinct radii exist iff the middle index is off the balance
    point: there the middle coefficient of the radius identity vanishes
    and the coefficients sum to zero, so the identity forces the outer
    radii to coincide, collapsing the spectrum to two values.
    """
    ks = _validate(n, J)
    if not 1 <= p <= len(ks):
        raise ValueError("need 1 <= p <= |J|")
    return _seven_design_rule(n, ks, p)


def _seven_design_rule(n: int, ks: Sequence[int], p: int) -> bool:
    j = len(ks)
    if j == 1:
        return False
    if j == 2:
        return p == 1 and g_function(n, ks[0], ks[1]) == 0
    if j == 3:
        balanced = 3 * ks[1] == n + 2
        if (p == 2 and not balanced) or (p == 3 and balanced):
            return False
        return _sign_pattern(n, ks)
    raise ValueError("no closed-form criterion for |J| >= 4")


# -- maximum strength over all index sets ------------------------------


def tau(n: int, p: int, j: int) -> int:
    """Maximum strength over all unions of j orbits on p concentric spheres."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= p <= j <= 3:
        raise ValueError("need 1 <= p <= j <= 3")
    if j > n:
        raise ValueError("cannot pick j distinct orbit indices in 1..n")
    # the subsets are valid sorted index tuples by construction, so the rules run unvalidated
    subsets = list(itertools.combinations(range(1, n + 1), j))
    if any(_seven_design_rule(n, J, p) for J in subsets):
        return 7
    if any(_five_design_rule(n, J) for J in subsets):
        return 5
    return 3


def tau_table(n: int) -> dict[tuple[int, int], int]:
    """All tau(p, j) values for 1 <= p <= j <= min(3, n)."""
    table = {}
    for j in range(1, min(3, n) + 1):
        for p in range(1, j + 1):
            table[(p, j)] = tau(n, p, j)
    return table
