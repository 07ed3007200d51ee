"""Feasibility decisions and explicit weight/radius solutions.

Given a dimension, a set of orbit indices, and squared radii, decides
whether positive layer weights exist making the union a 5- or 7-design,
and returns a normalized solution when they do.  Everything is decided
by exact sign tests and exact linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .numeric import as_rational, binomial
from .orbit import DesignConfig, Layer
from .strength import g_function, layer_sum_f42, p_value

_ZERO = Fraction(0)
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
    given = {int(k): as_rational(v) for k, v in (r_squared or {}).items()}
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
    ks = sorted(set(J))
    if not ks:
        raise ValueError("J must be nonempty")
    if ks[0] < 1 or ks[-1] > n:
        raise ValueError(f"J={ks} is not a subset of 1..{n}")
    return ks


def _u_to_weight(n: int, k: int, u: Fraction) -> Fraction:
    """Invert u_k = w_k * 2^(k+1) * C(n-1, k-1) / k^3."""
    return u * k**3 / (2 ** (k + 1) * binomial(n - 1, k - 1))


def _weight_from_normalized_u(n: int, ks: list[int], us: list[Fraction], r2: dict[int, Fraction]) -> DesignConfig:
    """Scale the u-vector so the smallest-k weight is 1 and build the config."""
    w0 = _u_to_weight(n, ks[0], us[0])
    layers = tuple(
        Layer(k=k, r_squared=r2[k], weight=_u_to_weight(n, k, u) / w0)
        for k, u in zip(ks, us)
    )
    return DesignConfig(n=n, layers=layers)


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
            cfg = DesignConfig(n=n, layers=(Layer(k=k, r_squared=r2[k], weight=_ONE),))
            return FeasibilityResult(True, "t5:single-orbit-balanced", cfg)
        return FeasibilityResult(False, "t5:single-orbit-off-balance")
    k1, k2 = ks
    b1 = (r2[k1] / k1) ** 2 * layer_sum_f42(n, k1)
    b2 = (r2[k2] / k2) ** 2 * layer_sum_f42(n, k2)
    if b1 > 0 > b2:
        w2 = -b1 / b2
        cfg = DesignConfig(
            n=n,
            layers=(
                Layer(k=k1, r_squared=r2[k1], weight=_ONE),
                Layer(k=k2, r_squared=r2[k2], weight=w2),
            ),
        )
        return FeasibilityResult(True, "t5:pair-straddles-balance", cfg)
    return FeasibilityResult(False, "t5:pair-no-straddle")


def five_design_possible(n: int, J) -> bool:
    """Whether some positive weights make the union a 5-design (any radii).

    The single defining equation has one coefficient per layer whose sign
    is independent of radii and weights, so solvability means either every
    coefficient vanishes (single balanced orbit) or mixed signs occur.
    """
    ks = _validate(n, J)
    ps = [p_value(n, k) for k in ks]
    if len(ks) == 1:
        return ps[0] == 0
    return any(p > 0 for p in ps) and any(p < 0 for p in ps)


# -- 7-designs --------------------------------------------------------


def _q_coefficients(n: int, ks: Sequence[int]) -> list[int]:
    """Cyclic coefficients of the 1/r^2 radius identity for a sorted triple."""
    k = list(ks)
    coeffs = []
    for i in range(3):
        k_next, k_prev = k[(i + 1) % 3], k[(i + 2) % 3]
        coeffs.append(
            k[i] * (n + 2 - 3 * k[i]) * (k_next - k_prev) * g_function(n, k_next, k_prev)
        )
    return coeffs


def solve_radius_Q(n: int, ks, known: Mapping) -> Fraction | None:
    """Third squared radius making the radius identity hold, if positive.

    `known` maps two of the three sorted indices to their squared radii.
    Returns None when the forced value is not positive; raises
    DegenerateRadiusSystem when the unknown's coefficient vanishes.
    """
    ks = sorted(set(ks))
    if len(ks) != 3 or ks[0] < 1 or ks[-1] > n:
        raise ValueError("ks must be three distinct indices in 1..n")
    known = {int(k): as_rational(v) for k, v in known.items()}
    missing = [k for k in ks if k not in known]
    if len(missing) != 1 or set(known) - set(ks):
        raise ValueError("exactly two of the three indices must have known radii")
    m = ks.index(missing[0])
    coeffs = _q_coefficients(n, ks)
    if coeffs[m] == 0:
        raise DegenerateRadiusSystem(
            f"coefficient of 1/r^2 for k={missing[0]} vanishes; the identity cannot determine it"
        )
    rhs = _ZERO
    for i, k in enumerate(ks):
        if i != m:
            rhs += Fraction(coeffs[i]) / known[k]
    y = -rhs / coeffs[m]
    if y <= 0:
        return None
    return 1 / y


def _sign_pattern(n: int, ks: Sequence[int]) -> tuple[int, int, int] | None:
    """(G12, G13, G23) of a sorted triple if G12 > 0, G23 > 0 and G13 < 0, else None.

    Every triple 7-design needs this pattern.  At a balanced middle index
    (3 k2 = n + 2) G12 and G23 are positive, so it reduces to G13 < 0.
    """
    k1, k2, k3 = ks
    g12 = g_function(n, k1, k2)
    if g12 <= 0:
        return None
    g23 = g_function(n, k2, k3)
    if g23 <= 0:
        return None
    g13 = g_function(n, k1, k3)
    return (g12, g13, g23) if g13 < 0 else None


def _triple_weights(n: int, ks: list[int], r2: dict[int, Fraction], g: tuple[int, int, int]) -> DesignConfig:
    """Weights for a feasible sorted triple via the exact ratio formulas."""
    k1, k2, k3 = ks
    g12, g13, g23 = g
    u1 = _ONE
    u2 = Fraction(k1 - k3, k3 - k2) * Fraction(g13, g23) * (r2[k1] / r2[k2]) ** 3 * u1
    u3 = Fraction(k2 - k1, k3 - k2) * Fraction(g12, g23) * (r2[k1] / r2[k3]) ** 3 * u1
    return _weight_from_normalized_u(n, ks, [u1, u2, u3], r2)


def solve_t7(n: int, J, r_squared: Mapping | None = None) -> FeasibilityResult:
    """Weight family making the union a 7-design, for up to three orbits.

    Radii must be supplied for every index in J (default: all 1).  A pair
    needs equal radii and a vanishing G value; a triple needs the G sign
    pattern plus, depending on how many distinct radii appear, either
    nothing more, a balanced middle index with matching outer radii, or
    the exact 1/r^2 radius identity.
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
        u1 = _ONE
        u2 = -u1 * p_value(n, k1) / p_value(n, k2)
        cfg = _weight_from_normalized_u(n, ks, [u1, u2], r2)
        return FeasibilityResult(True, "t7:pair-equal-radius-zero-g", cfg)

    k1, k2, k3 = ks
    g = _sign_pattern(n, ks)
    distinct = len({r2[k] for k in ks})
    if distinct == 1:
        if g:
            return FeasibilityResult(
                True, "t7:triple-common-radius", _triple_weights(n, ks, r2, g)
            )
        return FeasibilityResult(False, "t7:triple-sign-pattern-fails")
    if distinct == 2:
        if r2[k1] != r2[k3]:
            return FeasibilityResult(False, "t7:triple-two-radii-wrong-pairing")
        if 3 * k2 != n + 2:
            return FeasibilityResult(False, "t7:triple-two-radii-middle-not-balanced")
        if not g:
            return FeasibilityResult(False, "t7:triple-sign-pattern-fails")
        return FeasibilityResult(
            True, "t7:triple-two-radii-balanced-middle", _triple_weights(n, ks, r2, g)
        )
    if not g:
        return FeasibilityResult(False, "t7:triple-sign-pattern-fails")
    coeffs = _q_coefficients(n, ks)
    q_residual = sum(Fraction(c) / r2[k] for c, k in zip(coeffs, ks))
    if q_residual != 0:
        return FeasibilityResult(False, "t7:triple-radius-identity-fails")
    return FeasibilityResult(
        True, "t7:triple-three-radii", _triple_weights(n, ks, r2, g)
    )


def seven_design_possible(n: int, J, p: int) -> bool:
    """Whether some radii with exactly p distinct values and positive weights
    make the union a 7-design.

    A triple needs the G sign pattern for every p, and for p = 2 also its
    middle index at the balance point 3 k2 = n + 2.  Given the pattern,
    three distinct radii exist iff the middle index is off the balance
    point: at the balance point the
    radius identity forces the outer radii to coincide (the cyclic
    coefficients sum to zero), collapsing the spectrum to two values.
    """
    ks = _validate(n, J)
    j = len(ks)
    if not 1 <= p <= j:
        raise ValueError("need 1 <= p <= |J|")
    if j == 1:
        return False
    if j == 2:
        return p == 1 and g_function(n, ks[0], ks[1]) == 0
    if j == 3:
        balanced = 3 * ks[1] == n + 2
        if (p == 2 and not balanced) or (p == 3 and balanced):
            return False
        return _sign_pattern(n, ks) is not None
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
    subsets = list(itertools.combinations(range(1, n + 1), j))
    if any(seven_design_possible(n, J, p) for J in subsets):
        return 7
    if any(five_design_possible(n, J) for J in subsets):
        return 5
    return 3


def tau_table(n: int) -> dict[tuple[int, int], int]:
    """All tau(p, j) values for 1 <= p <= j <= min(3, n)."""
    table = {}
    for j in range(1, min(3, n) + 1):
        for p in range(1, j + 1):
            table[(p, j)] = tau(n, p, j)
    return table
