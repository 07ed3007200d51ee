"""Feasibility decisions and explicit weight/radius solutions.

Given a dimension, a set of orbit indices, and squared radii, decides
whether positive layer weights exist making the union a 5- or 7-design,
and returns a normalized solution when they do.  Every answer is read off
the defining equations of ``strength.classify`` themselves, through one
pair of integer columns (``_columns``) with the positive factor of each
index divided out: the signs of the columns and of their kernel decide
feasibility, and the kernel gives the weights, with that factor
multiplied back in, and the 7-design radius identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .numeric import as_rational, fraction_sum
from .orbit import DesignConfig, Layer, orbit_index
from .strength import _EQUATIONS, _reduced_sum, property_g

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


# -- the defining equations as integer columns ---------------------------


def _columns(n: int, ks: Sequence[int]) -> tuple[list[int], list[int]]:
    """The integer columns a_k = 2k(n+2-3k) and b_k of the f42 and f63 classify equations.

    They are k L42(n, k) and L63(n, k) with the positive factor 2^k C(n-1, k-1)
    of each index and a positive constant of each column divided out
    (``strength._reduced_sum``): polynomials in n and k, small for any k.  With
    u_k = w_k (r_k^2)^2 2^k C(n-1, k-1) / k^3 and v_k = u_k r_k^2, both positive,
    the f42_s0, f42_s1 and f63_s0 equations read sum u_k a_k = 0, sum v_k a_k = 0
    and sum v_k b_k = 0.  Every feasibility rule is unchanged under these scales.
    """
    f42, f63 = _EQUATIONS["f42"][0], _EQUATIONS["f63"][0]
    return [k * _reduced_sum(f42, n, k) for k in ks], [_reduced_sum(f63, n, k) for k in ks]


def _triple_kernel(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c = a x b over a triple: the solutions v of sum v_k a_k = sum v_k b_k = 0 are its multiples.

    As c is orthogonal to a, the remaining f42_s0 equation, sum u_k a_k = 0
    with u_k = v_k / r_k^2, becomes the radius identity sum c_k a_k / r_k^2 = 0,
    whose coefficients sum to 0.
    """
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _weights(n: int, ks: Sequence[int], r2: dict[int, Fraction], x: Sequence[int], power: int) -> list[Fraction]:
    """The weights w_k = x_k k^3 / (2^k C(n-1, k-1) (r_k^2)^power) of a solution x = u
    (power 2) or x = v (power 3) of the column equations."""
    return [xk * k**3 / (2**k * math.comb(n - 1, k - 1) * r2[k] ** power) for xk, k in zip(x, ks)]


# -- 5-designs --------------------------------------------------------


def solve_t5(n: int, J, r_squared: Mapping | None = None) -> FeasibilityResult:
    """Weight family making the union a 5-design, for one or two orbits.

    A single orbit works exactly when its column a_k vanishes, at the
    balance point 3k = n + 2; a pair works exactly when its two a_k have
    opposite signs, in which case the unique weight ratio is returned
    normalized to w = 1 on the smaller index.
    """
    ks = _validate(n, J)
    if len(ks) > 2:
        raise ValueError("closed-form 5-design solving covers |J| <= 2")
    r2 = _radius_map(ks, r_squared)
    a = _columns(n, ks)[0]
    feasible = _five_design_rule(a)
    if len(ks) == 1:
        if feasible:
            return FeasibilityResult(True, "t5:single-orbit-balanced", _config(n, ks, r2, [_ONE]))
        return FeasibilityResult(False, "t5:single-orbit-off-balance")
    if feasible:
        return FeasibilityResult(True, "t5:pair-straddles-balance", _config(n, ks, r2, _weights(n, ks, r2, (-a[1], a[0]), 2)))
    return FeasibilityResult(False, "t5:pair-no-straddle")


def five_design_possible(n: int, J) -> bool:
    """Whether some positive weights make the union a 5-design (any radii).

    The single defining equation is sum u_k a_k = 0 over positive u_k, so it
    is solvable iff every a_k vanishes (a single balanced orbit) or the a_k
    take both signs.
    """
    return _five_design_rule(_columns(n, _validate(n, J))[0])


def _five_design_rule(a: Sequence[int]) -> bool:
    return min(a) < 0 < max(a) or not any(a)


# -- 7-designs --------------------------------------------------------


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
    a, b = _columns(n, ks)
    coeffs = [ck * ak for ck, ak in zip(_triple_kernel(a, b), a)]
    if coeffs[m] == 0:
        raise DegenerateRadiusSystem(
            f"coefficient of 1/r^2 for k={missing[0]} vanishes; the identity cannot determine it"
        )
    rhs = fraction_sum((coeffs[i] * r2[k].denominator, r2[k].numerator) for i, k in enumerate(ks) if i != m)
    y = -rhs / coeffs[m]
    if y <= 0:
        return None
    return 1 / y


_TRIPLE_REASONS = {
    1: "t7:triple-common-radius",
    2: "t7:triple-two-radii-balanced-middle",
    3: "t7:triple-three-radii",
}


def solve_t7(n: int, J, r_squared: Mapping | None = None) -> FeasibilityResult:
    """Weight family making the union a 7-design, for up to three orbits.

    Radii must be supplied for every index in J (default: all 1).  A pair
    needs equal radii and the column condition of ``seven_design_possible``.
    A triple needs that condition, and with two distinct radii also matching
    outer radii around a middle index with a_k = 0; its weights come
    from c = a x b, and the remaining f42_s0 equation is the 1/r^2
    radius identity, which holds by itself on one radius or on two such radii.
    """
    ks = _validate(n, J)
    if len(ks) > 3:
        raise ValueError("closed-form 7-design solving covers |J| <= 3")
    r2 = _radius_map(ks, r_squared)
    if len(ks) == 1:
        return FeasibilityResult(False, "t7:single-orbit")
    a, b = _columns(n, ks)
    if len(ks) == 2:
        if r2[ks[0]] != r2[ks[1]]:
            return FeasibilityResult(False, "t7:pair-radii-differ")
        if not _seven_design_rule(a, b, 1):
            return FeasibilityResult(False, "t7:pair-nonzero-g")
        return FeasibilityResult(True, "t7:pair-equal-radius-zero-g", _config(n, ks, r2, _weights(n, ks, r2, (-a[1], a[0]), 3)))

    k1, k2, k3 = ks
    distinct = len({r2[k] for k in ks})
    if distinct == 2:
        if r2[k1] != r2[k3]:
            return FeasibilityResult(False, "t7:triple-two-radii-wrong-pairing")
        if a[1] != 0:
            return FeasibilityResult(False, "t7:triple-two-radii-middle-not-balanced")
    if not _seven_design_rule(a, b, 1):
        return FeasibilityResult(False, "t7:triple-sign-pattern-fails")
    c = _triple_kernel(a, b)
    if fraction_sum((ck * ak * r2[k].denominator, r2[k].numerator) for ck, ak, k in zip(c, a, ks)) != 0:
        return FeasibilityResult(False, "t7:triple-radius-identity-fails")
    return FeasibilityResult(True, _TRIPLE_REASONS[distinct], _config(n, ks, r2, _weights(n, ks, r2, c, 3)))


def seven_design_possible(n: int, J, p: int) -> bool:
    """Whether some radii with exactly p distinct values and positive weights
    make the union a 7-design.

    The f42_s1 and f63_s0 equations need a positive solution v of the
    columns (see ``_columns``).  For a pair that means opposite-signed a_k
    and parallel columns, a1 b2 = a2 b1; the f42_s0 equation then asks for
    one radius.  For a triple it means that c = a x b has one strict sign.
    The radius identity sum c_k a_k / r_k^2 = 0 then holds on one radius for
    any triple.  Two radii need the coefficient of the odd one out to vanish,
    which happens only at a middle index with a_k = 0, and then force the
    outer radii to coincide; so three distinct radii exist iff the middle
    a_k is nonzero.
    """
    ks = _validate(n, J)
    if not 1 <= p <= len(ks):
        raise ValueError("need 1 <= p <= |J|")
    if len(ks) > 3:
        raise ValueError("no closed-form criterion for |J| >= 4")
    return _seven_design_rule(*_columns(n, ks), p)


def _seven_design_rule(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    if len(a) == 3:
        if p > 1 and (a[1] == 0) != (p == 2):
            return False
        c = _triple_kernel(a, b)
        return min(c) > 0 or max(c) < 0
    return len(a) == 2 and p == 1 and a[0] * a[1] < 0 and a[0] * b[1] == a[1] * b[0]


# -- maximum strength over all index sets ------------------------------


def _check_scan(n: int) -> None:
    if n < 3:
        raise ValueError("need n >= 3")
    if n > sys.maxsize:
        raise ValueError(f"need n <= {sys.maxsize} for the linear property-G scan, got n={n}")


def _candidates(n: int, with_pair: bool = True) -> list[tuple[int, ...]]:
    """The index sets that decide every tau(p, j) for n >= 3 (see ``tau``); the
    first property-G pair, whose O(n) scan only j = 2 reads, when with_pair is set."""
    m = min(max((n + 2) // 3, 2), n - 1)
    sets = [(1, n), (1, 2, n), (1, m, n)]
    if n % 3 == 1:
        sets.append((m,))
        if m > 2:
            sets.append((1, m - 1, n))
    pair = property_g(n) if with_pair else None
    if pair is not None:
        sets.append(pair)
    return sets


def tau(n: int, p: int, j: int) -> int:
    """Maximum strength over all unions of j orbits on p concentric spheres.

    The feasibility rules are applied to the few index sets of ``_candidates``
    instead of all C(n, j) of them; the tests prove for every n that these
    sets decide each answer:

    - a single orbit is never a 7-design, and is a 5-design iff a_k = 0, that is
      3k = n + 2, which is a candidate when n = 1 (mod 3);
    - a_1 > 0 > a_n, so (1, n) and (1, 2, n) are always 5-designs;
    - a pair is a 7-design iff p = 1 and G = 0, as a1 b2 - a2 b1 is a positive
      multiple of (k1 - k2) G, so the first property-G pair decides j = 2;
    - a triple on two radii needs a zero middle a_k, so n = 1 (mod 3); with
      m = floor((n+2)/3), (1, m, n) is a 7-design at p = 1 and, when n = 1
      (mod 3), at p = 2, and (1, m', n) at p = 3, where m' = m - 1 when
      n = 1 (mod 3) and m' = m otherwise, for every n >= 5.
    """
    if not 1 <= p <= j <= 3:
        raise ValueError("need 1 <= p <= j <= 3")
    _check_scan(n)
    return _tau([_columns(n, ks) for ks in _candidates(n, with_pair=j == 2)], p, j)


def _tau(columns: list[tuple[list[int], list[int]]], p: int, j: int) -> int:
    """tau(p, j) from the columns of the candidate index sets, taking those of size j."""
    sized = [(a, b) for a, b in columns if len(a) == j]
    if any(_seven_design_rule(a, b, p) for a, b in sized):
        return 7
    if any(_five_design_rule(a) for a, _ in sized):
        return 5
    return 3


def tau_table(n: int) -> dict[tuple[int, int], int]:
    """All tau(p, j) values for 1 <= p <= j <= 3."""
    _check_scan(n)
    columns = [_columns(n, ks) for ks in _candidates(n)]
    return {(p, j): _tau(columns, p, j) for j in range(1, 4) for p in range(1, j + 1)}
