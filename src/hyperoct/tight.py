"""Fisher-type size bounds and the three tight design families.

The lower bound counts homogeneous polynomial dimensions per sphere; a
design meeting it exactly is tight.  Constructors return the weighted
orbit unions that achieve the bound in dimensions 3 and 4: each family
fixes its radii, and ``solver`` gives its weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .numeric import _Frozen, as_rational, binomial, integer
from .orbit import DesignConfig, Layer, OrbitSizeError

if TYPE_CHECKING:
    from .solver import FeasibilityResult


def hom_dimension(n: int, s: int) -> int:
    """dim of homogeneous degree-s polynomials; 0 for negative s."""
    if s < 0:
        return 0
    return binomial(s + n - 1, n - 1)


class FisherBound(_Frozen):
    __slots__ = ("n", "p", "t", "value", "per_k")
    n: int
    p: int
    t: int
    value: int
    per_k: tuple[int, ...]

    def __init__(self, n: int, p: int, t: int, value: int, per_k: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "per_k", per_k)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "t": self.t, "value": self.value, "per_k": list(self.per_k)}


def fisher_bound(n: int, p: int, t: int) -> FisherBound:
    """Minimum size of an antipodal t-design on p concentric spheres."""
    n, p, t = integer(n, "dimension n"), integer(p, "p"), integer(t, "t")
    if n < 2 or p < 1 or t < 0:
        raise ValueError("need n >= 2, p >= 1, t >= 0")
    per_k = []
    for k in range(1, p + 1):
        per_k.append(
            hom_dimension(n, t // 2 + 2 - 2 * k) + hom_dimension(n, (t - 1) // 2 + 2 - 2 * k)
        )
    return FisherBound(n=n, p=p, t=t, value=sum(per_k), per_k=tuple(per_k))


# -- the three constructors ------------------------------------------


def _parameters(r_squared, rho_squared, weight) -> tuple[Fraction, Fraction, Fraction]:
    """The family parameters as rationals, checked before any constructor divides by them."""
    r2, rho2, w = as_rational(r_squared), as_rational(rho_squared), as_rational(weight)
    if r2 <= 0 or rho2 <= 0:
        raise ValueError(f"squared radii must be positive, got r2={r2}, rho2={rho2}")
    return r2, rho2, w


def _scaled(result: FeasibilityResult, w: Fraction) -> DesignConfig:
    """The solved configuration, whose first weight is 1, with every weight times w."""
    cfg = result.solution
    return DesignConfig(n=cfg.n, layers=tuple(Layer(layer.k, layer.r_squared, layer.weight * w) for layer in cfg.layers))


def tight_5_3d(r_squared, rho_squared, weight=1) -> DesignConfig:
    """Octahedron plus cube in R^3; tight 14-point 5-design when the radii differ."""
    from . import solver

    r2, rho2, w = _parameters(r_squared, rho_squared, weight)
    return _scaled(solver.solve_t5(3, (1, 3), {1: r2, 3: rho2}), w)


def tight_7_3d(r_squared, rho_squared, weight=1) -> DesignConfig:
    """Octahedron, cuboctahedron, and cube in R^3; tight 26-point 7-design
    when the two parameters differ (the three radii are then distinct)."""
    from . import solver

    r2, rho2, w = _parameters(r_squared, rho_squared, weight)
    t = (3 * r2 + 2 * rho2) / 5
    return _scaled(solver.solve_t7(3, (1, 2, 3), {1: r2, 2: t * r2 / rho2, 3: t}), w)


def tight_7_4d(r_squared, rho_squared, weight=1) -> DesignConfig:
    """Minimal vectors of the checkerboard lattice and of its dual in R^4;
    tight 48-point 7-design when the radii differ."""
    from . import solver

    r2, rho2, w = _parameters(r_squared, rho_squared, weight)
    return _scaled(solver.solve_t7(4, (1, 2, 4), {1: r2, 2: rho2, 4: r2}), w)


# -- tightness verdicts ----------------------------------------------

# the oracle cross-check's degree, past the largest strength (7) that classify reports
_CROSS_CHECK_T = 9


def is_tight(cfg: DesignConfig) -> bool:
    """Whether the configuration meets the size bound at its strength (see ``tightness_certificate``)."""
    return tightness_certificate(cfg)["tight"]


def tightness_certificate(cfg: DesignConfig) -> dict:
    """Machine-checkable certificate: config, strength report, bound, verdict.

    The strength is cross-checked against the oracle to degree 9 whenever every
    layer's orbit is within the enumeration caps; ``oracle_check`` records that
    it ran, or the ``OrbitSizeError`` message that kept it from running.
    """
    # imported as modules: a relative import of a name costs about three times as much per call
    from . import moments, strength

    report = strength.classify(cfg)
    try:
        oracle_t = moments.max_strength_oracle(cfg, t_max=_CROSS_CHECK_T)
    except OrbitSizeError as exc:
        oracle_check = {"ran": False, "reason": str(exc)}
    else:
        if oracle_t != report.strength:
            raise AssertionError(
                f"classifier strength {report.strength} disagrees with oracle {oracle_t}"
            )
        oracle_check = {"ran": True, "t_max": _CROSS_CHECK_T}
    p, size = cfg.p, cfg.size
    bound = fisher_bound(cfg.n, p, report.strength)
    return {
        "config": cfg.to_json_dict(),
        "strength_report": report.to_json_dict(),
        "size": size,
        "distinct_radii": p,
        "fisher_bound": bound.to_json_dict(),
        "antipodal": True,
        "tight": size == bound.value,
        "oracle_check": oracle_check,
    }
