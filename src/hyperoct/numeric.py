"""Exact integer and rational primitives, and the integer and dimension gates, shared by every other module.

All certified quantities are Python ints or ``fractions.Fraction`` values;
nothing in the certification path ever touches floating point.  Every other
module imports this one, so it also holds ``_Frozen``, the base of the
package's immutable record types.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

_ZERO = Fraction(0)
_ONE = Fraction(1)


def integer(value, name: str) -> int:
    """value itself if it is an int; any other type, bool included, raises ValueError.  The one
    type test of every public integer argument, run before its range test and any cache read."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def dimension(n, least: int) -> int:
    """n itself if it is an int of at least ``least``: the one gate of every public dimension.
    A smaller n raises ValueError, and so does any other type (see ``integer``)."""
    if integer(n, "dimension n") < least:
        raise ValueError(f"need n >= {least}")
    return n


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range arguments give 0.

    The orbit-sum rule relies on terms like C(n-m, k-m) vanishing
    silently when k < m, so no argument validation happens here.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def double_factorial(m: int) -> int:
    """m!! for an int m >= -1, with (-1)!! = 1 (the empty product)."""
    if integer(m, "m") < -1:
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
    sum reduces every partial sum.  A zero total returns Fraction(0) without reducing.
    A denominator that is not positive raises ValueError.
    """
    total, common = 0, 1
    for num, den in pairs:
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        g = math.gcd(common, den)
        total, common = total * (den // g) + num * (common // g), common // g * den
    return Fraction(total, common) if total else _ZERO


def format_rational(value: Fraction | int) -> str:
    """Canonical 'p/q' text form (plain 'p' when the denominator is 1)."""
    return str(as_rational(value))


class _Frozen:
    """Base of the package's immutable records, whose fields are the subclass's ``__slots__``.

    Each subclass's ``__init__`` stores every field with ``object.__setattr__``, after
    checking its arguments in ``Layer``, ``DesignConfig`` and ``Polynomial``; then
    assigning or deleting a field raises AttributeError.  Equality (same class only),
    hash, repr, pickling and ``match`` follow the field tuple, so two records are equal,
    and hash equal, when their fields are.  It imports nothing, so a CLI child that
    builds records pays for no class generation and no import of ``inspect``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
