"""Ground-truth verification of the design property from first principles.

Sphere averages of monomials have an exact rational closed form, and
weighted sums over orbit layers are computed from the orbits' symmetry,
at no orbit point.  Checking every monomial of total degree <= t is
equivalent to the defining property of a Euclidean t-design because
monomials span the polynomial space.

Every layer is a complete hyperoctahedral orbit, so the orbit-sum kernel
uses its sign-flip and permutation symmetry: an odd exponent gives 0, and
an all-even monomial takes the same value at every sign flip of a point,
so it is 2^k times its sum over the 0/1 points with k ones.  That sum is
taken by a recurrence over the coordinates, evaluating each coordinate's
factor at 0 and at 1, in O(n k) integer steps (see ``_orbit_monomial_sum``).
The scan tests one monomial per permutation class (see ``first_failure``),
reading each even degree's partitions from a bounded cache,
``_partitions``, only when it reaches that degree; its key caps the part
count at the degree, so it holds the same few tables at every n.
The orbit sums use no binomial and no counting formula.  The one count
read is the orbit size |O| = 2^k C(n, k), returned by ``orbit.check_orbit``,
for the sphere side of a residual; ``strength`` calls neither it nor this
module, which keeps the oracle independent of its closed forms.
Both sides of a residual are read at the partition of the exponents, their
sorted nonzero entries.  A layer adds w (r^2)^h times a weight- and
radius-free residual that depends only on n, k and the partition, so that
layer residual is kept in a bounded cache, ``_layer_residual``: the orbit
check, the orbit sum and the sphere average are taken only on a miss.  The
scaled layer residuals are summed in integers and reduced once (see
``monomial_residual``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .numeric import _ZERO, as_rational, dimension, double_factorial, fraction_sum, integer
from .orbit import DesignConfig, check_orbit


def _unit_sphere_average(n: int, exponents: Sequence[int]) -> tuple[int, int]:
    """Average of x^alpha over the unit sphere, for even exponents, as an
    unreduced pair prod (a_i - 1)!! and prod_{j<|alpha|/2} (n + 2j)."""
    return (
        math.prod(double_factorial(e - 1) for e in exponents),
        math.prod(range(n, n + sum(exponents), 2)),
    )


def sphere_monomial_average(n: int, exponents: Sequence[int], r_squared) -> Fraction:
    """Average of x^alpha over the sphere of squared radius r_squared.

    Zero if any exponent is odd; otherwise
    (r^2)^(|alpha|/2) * prod (a_i - 1)!! / prod_{j<|alpha|/2} (n + 2j).
    A squared radius that is not positive, or an exponent total that is not an int, raises ValueError.
    """
    if len(exponents) != dimension(n, 2):
        raise ValueError("monomial has wrong number of variables")
    degree = integer(sum(exponents), "exponent total")
    r_squared = as_rational(r_squared)
    if r_squared <= 0:
        raise ValueError("squared radius must be positive")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    if any(e % 2 for e in exponents):
        return _ZERO
    return r_squared ** (degree // 2) * Fraction(*_unit_sphere_average(n, exponents))


def _orbit_monomial_sum(n: int, k: int, exponents: tuple[int, ...]) -> int:
    """Sum of x^alpha over the unscaled orbit points, whose caps the caller checks.

    Flipping the sign of a coordinate with an odd exponent maps the orbit
    onto itself and negates x^alpha, so the sum is 0.  Otherwise the 2^k sign
    flips of a point give the same value: the sum is 2^k times the sum over
    the 0/1 points with k ones.  That sum of products is regrouped one
    coordinate at a time, evaluating each coordinate's factor at 0 and at 1,
    in O(n k) integer steps.  Missing trailing exponents are 0; permuting the
    exponents leaves the sum unchanged.  More exponents than n raise ValueError.
    """
    if len(exponents) > n:
        raise ValueError(f"monomial has {len(exponents)} exponents, more than n={n}")
    if any(e % 2 for e in exponents):
        return 0
    # ones[j]: the sum over the 0/1 assignments with j ones to the coordinates seen so far
    ones = [1] + [0] * k
    for e in exponents + (0,) * (n - len(exponents)):
        # a coordinate's factor x^e is 1 at x = 1 and 0**e at x = 0
        at_0 = 0**e
        for j in range(k, 0, -1):
            ones[j] = ones[j] * at_0 + ones[j - 1]
        ones[0] *= at_0
    return 2**k * ones[k]


# Sized to hold every key at n <= 6 to degree 10 (1,108), the certify class of requests
# (the certify workload reaches 270), with room for an oracle-large job list (178).  By the
# orbit caps (n <= 3,162, k <= 19, |O| <= 10^6) both ints of an entry stay below 2^80 to
# degree 10, and an entry, key included, takes about 250 bytes: at most about 0.5 MB.
@lru_cache(maxsize=2048)
def _layer_residual(n: int, k: int, parts: tuple[int, ...]) -> tuple[int, int]:
    """One layer's residual for the monomial x^parts at unit weight and unit squared
    radius, as an unreduced pair (S sd - |O| k^h sn, k^h sd): S the orbit sum, |O| the
    orbit size, sn/sd the unit-sphere average and h half the degree.

    parts is a partition (the sorted nonzero exponents), so the key depends on n, k and
    the partition only.  The orbit is checked against the caps first, once, by
    ``check_orbit``, which also gives |O|; an odd part gives (0, 1), as both sides vanish.
    """
    size = check_orbit(n, k)
    s = _orbit_monomial_sum(n, k, parts)
    for e in parts:
        if e % 2:
            return 0, 1
    half = sum(parts) // 2
    sn, sd = _unit_sphere_average(n, parts)
    return s * sd - size * k**half * sn, k**half * sd


def monomial_residual(cfg: DesignConfig, exponents: Sequence[int]) -> Fraction:
    """Weighted design sum minus sphere-average side for one monomial.

    Odd total degree is exactly zero on both sides (the configuration is
    antipodal and odd monomials average to zero), so 0 is returned without
    any orbit sum.  Otherwise each layer's part of the residual is w (r^2)^h
    times its weight- and radius-free residual, which depends only on n, k and
    the partition of the exponents and is read from the bounded cache
    ``_layer_residual``: the orbit check, the orbit sum and the unit-sphere
    average are taken only on a miss.  Every layer's entry is read before the
    sum, so an orbit over the caps raises ``OrbitSizeError`` even when an odd
    exponent makes both sides zero.  The exponent total passes ``numeric.integer``
    first; a bool exponent, an exact 0 or 1, is accepted (see the README).
    """
    ordered = sorted(exponents)
    degree = integer(sum(ordered), "exponent total")
    if len(ordered) != cfg.n:
        raise ValueError("monomial has wrong number of variables")
    if ordered[0] < 0:
        raise ValueError("exponents must be non-negative")
    if degree % 2:
        return _ZERO
    n, half = cfg.n, degree // 2
    parts = tuple(ordered[ordered.count(0):])
    # w (r^2)^half num/den with r^2 = p/q and w = a/b is a p^half num / (b q^half den)
    pairs = []
    for layer in cfg.layers:
        num, den = _layer_residual(n, layer.k, parts)
        if num:
            p, q = layer.r_squared.as_integer_ratio()
            a, b = layer.weight.as_integer_ratio()
            pairs.append((a * p**half * num, b * q**half * den))
    return fraction_sum(pairs)


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


@lru_cache(maxsize=256)
def _partitions(total: int, parts: int, largest: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of total into at most `parts` parts of at most `largest`, in
    decreasing lexicographic order.

    Callers pass parts and largest at most total (more would change no
    partition), so the key depends only on the degree and not on n; the
    recursion keeps that form and reads the smaller tables from this cache.
    """
    if total == 0:
        return ((),)
    if parts == 0:
        return ()
    return tuple(
        (first, *rest)
        for first in range(largest, 0, -1)
        for rest in _partitions(total - first, min(parts - 1, total - first), min(first, total - first))
    )


def first_failure(cfg: DesignConfig, t_max: int) -> OracleFailure | None:
    """First monomial of degree <= t_max, in ``monomials_of_degree`` order, whose
    residual is nonzero.

    Degrees are scanned in increasing order; odd degrees cannot fail for
    antipodal configurations and are skipped.  Every layer is a complete
    orbit, so a residual is the same for every permutation of the exponents,
    and each even degree tests one monomial per partition l1 >= ... >= lm of
    it: (l1, ..., lm, 0, ..., 0), the first monomial of its permutation class.
    The partitions are taken in decreasing lexicographic order, the order of
    those first monomials, from the memoized table ``_partitions(degree,
    min(n, degree), degree)``: more parts than the degree change no partition,
    so the key and the cache's size depend on the degree and not on n, and a
    degree's table is built only when the scan reaches it.  Every layer's
    orbit is checked against the caps before the scan, for every t_max, by
    reading its ``_layer_residual`` entry for x1^2, the scan's first lookup:
    a miss runs ``check_orbit``, and a hit was checked when it was stored.  A
    t_max that is not an int (see ``numeric.integer``) raises ValueError.
    """
    if integer(t_max, "t_max") < 0:
        raise ValueError(f"strength must be non-negative, got {t_max}")
    n = cfg.n
    for layer in cfg.layers:
        _layer_residual(n, layer.k, (2,))
    for degree in range(2, t_max + 1, 2):
        for parts in _partitions(degree, min(n, degree), degree):
            exponents = parts + (0,) * (n - len(parts))
            residual = monomial_residual(cfg, exponents)
            if residual:
                return OracleFailure(degree, exponents, residual)
    return None


def verify_strength(cfg: DesignConfig, t: int) -> bool:
    """Definition-level check that cfg is a Euclidean t-design; a t that is not an
    int (see ``numeric.integer``) raises ValueError."""
    return first_failure(cfg, integer(t, "t")) is None


def max_strength_oracle(cfg: DesignConfig, t_max: int = 11) -> int:
    """Largest t <= t_max passing verify_strength; t_max means 'at least'."""
    failure = first_failure(cfg, t_max)
    if failure is None:
        return t_max
    return failure.degree - 1
