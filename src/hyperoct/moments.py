"""Ground-truth verification of the design property from first principles.

Sphere averages of monomials have an exact rational closed form, and
weighted sums over orbit layers are computed by evaluating the monomial at
orbit points.  Checking every monomial of total degree <= t is equivalent
to the defining property of a Euclidean t-design because monomials span
the polynomial space.

Every layer is a complete hyperoctahedral orbit, so the orbit-sum kernel
uses its sign-flip and permutation symmetry: an odd exponent gives 0, and
an all-even monomial takes the same value at every sign flip of a point,
so it is evaluated at one point per sign class, the 0/1 point of each of
the C(n, k) supports (see ``_orbit_monomial_sum``).  The scan tests one
monomial per permutation class (see ``first_failure``).  No counting
formula is used, which keeps this oracle independent of the closed forms
in ``strength``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .numeric import as_rational, double_factorial
from .orbit import DesignConfig, check_orbit, orbit_size

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sphere_monomial_average(n: int, exponents: Sequence[int], r_squared) -> Fraction:
    """Average of x^alpha over the sphere of squared radius r_squared.

    Zero if any exponent is odd; otherwise
    (r^2)^(|alpha|/2) * prod (a_i - 1)!! / prod_{j<|alpha|/2} (n + 2j).
    A squared radius that is not positive raises ValueError.
    """
    if n < 2:
        raise ValueError("sphere averages need n >= 2")
    if len(exponents) != n:
        raise ValueError("monomial has wrong number of variables")
    r_squared = as_rational(r_squared)
    if r_squared <= 0:
        raise ValueError("squared radius must be positive")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    if any(e % 2 for e in exponents):
        return _ZERO
    total = sum(exponents)
    half = total // 2
    numerator = 1
    for e in exponents:
        numerator *= double_factorial(e - 1)
    denominator = 1
    for j in range(half):
        denominator *= n + 2 * j
    return r_squared**half * Fraction(numerator, denominator)


@lru_cache(maxsize=200_000)
def _orbit_monomial_sum(n: int, k: int, exponents: tuple[int, ...]) -> int:
    """Sum of x^alpha over the unscaled orbit points.

    Flipping the sign of a coordinate with an odd exponent maps the orbit
    onto itself and negates x^alpha, so the sum is 0.  Otherwise the sum
    is invariant under permuting the exponents and is evaluated once per
    partition.  The orbit is checked against the caps before either step.
    """
    check_orbit(n, k)
    if any(e % 2 for e in exponents):
        return 0
    return _orbit_partition_sum(n, k, tuple(sorted(e for e in exponents if e)))


@lru_cache(maxsize=4096)
def _orbit_partition_sum(n: int, k: int, parts: tuple[int, ...]) -> int:
    """Sum of prod_i x_i^parts[i] over the unscaled orbit points, for even parts.

    Every part is even, so the 2^k sign flips of a point give the same value:
    the sum is 2^k times the sum over the sign classes, evaluated at the 0/1
    point of each of the C(n, k) supports.
    """
    total = 0
    for support in itertools.combinations(range(n), k):
        point = [0] * n
        for idx in support:
            point[idx] = 1
        total += math.prod(map(pow, point, parts))
    return 2**k * total


def monomial_residual(cfg: DesignConfig, exponents: Sequence[int]) -> Fraction:
    """Weighted design sum minus sphere-average side for one monomial.

    Odd total degree is exactly zero on both sides (the configuration is
    antipodal and odd monomials average to zero), so enumeration is
    skipped in that case.  An odd exponent in an even total makes the
    sphere side zero, so only the orbit sums are taken.
    """
    exponents = tuple(exponents)
    if len(exponents) != cfg.n:
        raise ValueError("monomial has wrong number of variables")
    if min(exponents) < 0:
        raise ValueError("exponents must be non-negative")
    degree = sum(exponents)
    if degree % 2:
        return _ZERO
    half = degree // 2
    left = _ZERO
    for layer in cfg.layers:
        orbit_sum = _orbit_monomial_sum(cfg.n, layer.k, exponents)
        if orbit_sum:
            left += layer.weight * (layer.r_squared / layer.k) ** half * orbit_sum
    if any(e % 2 for e in exponents):
        return left
    # the sphere average scales as (r^2)^half, so one unit-sphere average serves every layer
    mass = sum((layer.weight * orbit_size(cfg.n, layer.k) * layer.r_squared**half for layer in cfg.layers), _ZERO)
    return left - mass * sphere_monomial_average(cfg.n, exponents, _ONE)


def monomials_of_degree(n: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples on n variables with the given total degree."""
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exponents = [0] * n
        for idx in combo:
            exponents[idx] += 1
        yield tuple(exponents)


class OracleFailure(NamedTuple):
    degree: int
    exponents: tuple[int, ...]
    residual: Fraction


def _partitions(total: int, parts: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into at most `parts` parts of at most `largest`, in
    decreasing lexicographic order."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def first_failure(cfg: DesignConfig, t_max: int) -> OracleFailure | None:
    """First monomial of degree <= t_max, in ``monomials_of_degree`` order, whose
    residual is nonzero.

    Degrees are scanned in increasing order; odd degrees cannot fail for
    antipodal configurations and are skipped.  Every layer is a complete
    orbit, so a residual is the same for every permutation of the exponents,
    and each even degree tests one monomial per partition l1 >= ... >= lm of
    it: (l1, ..., lm, 0, ..., 0), the first monomial of its permutation class.
    The partitions are taken in decreasing lexicographic order, the order of
    those first monomials.  Every layer's orbit is checked against the caps
    before the scan.
    """
    if t_max < 0:
        raise ValueError(f"strength must be non-negative, got {t_max}")
    for layer in cfg.layers:
        check_orbit(cfg.n, layer.k)
    for degree in range(2, t_max + 1, 2):
        for parts in _partitions(degree, cfg.n, degree):
            exponents = parts + (0,) * (cfg.n - len(parts))
            residual = monomial_residual(cfg, exponents)
            if residual != 0:
                return OracleFailure(degree, exponents, residual)
    return None


def verify_strength(cfg: DesignConfig, t: int) -> bool:
    """Definition-level check that cfg is a Euclidean t-design."""
    return first_failure(cfg, t) is None


def max_strength_oracle(cfg: DesignConfig, t_max: int = 11) -> int:
    """Largest t <= t_max passing verify_strength; t_max means 'at least'."""
    failure = first_failure(cfg, t_max)
    if failure is None:
        return t_max
    return failure.degree - 1
