"""Independent answers for the benchmark's correctness gate.

Nothing here imports ``hyperoct``.  Every configuration the benchmark
builds is a weighted union of complete hyperoctahedral orbits, so the
residual of a monomial x^alpha depends only on the multiset of its
exponents and vanishes when any exponent is odd.  Checking one monomial
per partition of d/2 therefore decides the design property at degree d,
and the orbit sum of such a monomial has a counting formula: with m
nonzero (even) exponents it is 2^k * C(n-m, k-m) over the unscaled orbit
of e1+...+ek.  This shares no code with the library's hand-derived
closed forms or with its enumeration oracle.

A layer is a ``(k, r_squared, weight)`` triple of int, Fraction, Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


def orbit_size(n: int, k: int) -> int:
    return 2**k * comb(n, k)


def partitions(total: int, max_parts: int, largest: int | None = None):
    """Partitions of ``total`` into at most ``max_parts`` positive parts."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


def _odd_double_factorial(m: int) -> int:
    return prod(range(m, 0, -2))


def residual(n: int, layers, parts: tuple[int, ...]) -> Fraction:
    """Design sum minus sphere-average side for x1^(2 p1) * x2^(2 p2) * ..."""
    half = sum(parts)
    m = len(parts)
    moment = Fraction(
        prod(_odd_double_factorial(2 * p - 1) for p in parts),
        prod(n + 2 * j for j in range(half)),
    )
    total = Fraction(0)
    for k, r2, w in layers:
        orbit_sum = 2**k * comb(n - m, k - m) if m <= k else 0
        total += w * (Fraction(r2, k) ** half * orbit_sum - orbit_size(n, k) * r2**half * moment)
    return total


def strength(n: int, layers) -> int:
    """Largest odd t with every residual of degree <= t zero, capped at 9."""
    for half in range(1, 5):
        if any(residual(n, layers, parts) for parts in partitions(half, n)):
            return 2 * half - 1
    return 9


def pair_weight(n: int, k1: int, r1, k2: int, r2) -> Fraction | None:
    """Weight of layer k2 (layer k1 has weight 1) cancelling degree 4, if positive.

    The degree-4 invariants modulo |x|^4 are one-dimensional, so cancelling
    the x1^4 residual cancels every degree-4 residual.
    """
    c1 = residual(n, [(k1, r1, 1)], (2,))
    c2 = residual(n, [(k2, r2, 1)], (2,))
    if c2 == 0 or c1 * c2 >= 0:
        return None
    return -c1 / c2


def g_form(n: int, k1: int, k2: int) -> int:
    """The paper's G form; a pair on one sphere can be a 7-design only where it vanishes."""
    return (n + 2 - 3 * k1) * (n + 2 - 3 * k2) + 6 * (k1 - 1) * (k2 - 1) + 2 * (n - 1)


def property_g_witness(n: int) -> tuple[int, int] | None:
    """First (k1 <= k2) in lexicographic order with G = 0."""
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            if g_form(n, k1, k2) == 0:
                return (k1, k2)
    return None


def antipodal_fisher_bound(n: int, p: int, t: int) -> int:
    """Minimum size of an antipodal t-design (t odd) on p concentric spheres.

    With t = 2e + 1 each sphere contributes twice the dimension of the
    homogeneous polynomials of degree e + 2 - 2i (Delsarte-Seidel).
    """
    if t % 2 == 0:
        raise ValueError("the antipodal bound is stated for odd t")
    e = t // 2
    return sum(2 * comb(e + 2 - 2 * i + n - 1, n - 1) for i in range(1, p + 1) if e + 2 - 2 * i >= 0)
