"""Exact integer and rational primitives shared by every other module.

All certified quantities are Python ints or ``fractions.Fraction`` values;
nothing in the certification path ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range arguments give 0.

    The orbit-sum rule relies on terms like C(n-m, k-m) vanishing
    silently when k < m, so no argument validation happens here.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def double_factorial(m: int) -> int:
    """m!! for m >= -1, with (-1)!! = 1 (the empty product)."""
    if m < -1:
        raise ValueError(f"double factorial undefined for m={m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def as_rational(value: int | str | Fraction) -> Fraction:
    """The one conversion of a caller's exact value: a Fraction comes back unchanged,
    an int or a rational string ('p/q', or an exact decimal such as '0.5') is converted.

    A malformed string or a zero denominator raises ValueError.  Any other type, bool
    and float included, raises TypeError: a float is a binary approximation, and a bool
    is an int only by inheritance.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of the fractions num/den of (num, den) int pairs, added in integers over a
    running lcm of the denominators and reduced once, where a term-by-term Fraction
    sum reduces every partial sum.  A denominator that is not positive raises ValueError.
    """
    total, common = 0, 1
    for num, den in pairs:
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        g = math.gcd(common, den)
        total, common = total * (den // g) + num * (common // g), common // g * den
    return Fraction(total, common)


def format_rational(value: Fraction | int) -> str:
    """Canonical 'p/q' text form (plain 'p' when the denominator is 1)."""
    return str(as_rational(value))
