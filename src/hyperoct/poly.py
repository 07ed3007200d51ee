"""Sparse multivariate polynomials with exact rational coefficients.

Variables are 1-indexed (x1..xn).  A monomial is stored as a tuple of
(variable, exponent) pairs sorted by variable, zero exponents omitted.
Also provides the integer form in which harmonic bases are multiplied,
the one-variable Gegenbauer (ultraspherical) family and the homogeneous
building blocks used to assemble harmonic bases.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping

from .numeric import _ONE, _ZERO, _Frozen, as_rational, dimension, integer

Monomial = tuple[tuple[int, int], ...]


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_from_map(exps: Mapping[int, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return _mono_from_map(exps)


class Polynomial(_Frozen):
    """Immutable sparse polynomial over Fraction coefficients: a ``_Frozen`` record with its
    own repr, and its own hash, as the field tuple's hash fails on the ``terms`` dict."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if integer(nvars, "nvars") < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = as_rational(coeff)
            if coeff == 0:
                continue
            for v, e in mono:
                if not 1 <= v <= nvars:
                    raise ValueError(f"variable x{v} out of range 1..{nvars}")
                if e <= 0:
                    raise ValueError("stored exponents must be positive")
            clean[mono] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int) -> "Polynomial":
        return cls(nvars, {(): value})

    # -- ring operations ---------------------------------------------

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live on different variable counts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        self._check_same_vars(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc[mono] = acc.get(mono, _ZERO) + coeff
        return Polynomial(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = as_rational(other)
            return Polynomial(self.nvars, {m: c * scalar for m, c in self.terms.items()})
        self._check_same_vars(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                acc[mono] = acc.get(mono, _ZERO) + c1 * c2
        return Polynomial(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers not supported")
        result = Polynomial.constant(1, self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def rename_variables(self, mapping: Mapping[int, int], nvars: int) -> "Polynomial":
        """Relabel variables via an injective map old -> new index."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("variable mapping must be injective")
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exps = {}
            for v, e in mono:
                if v not in mapping:
                    raise ValueError(f"variable x{v} missing from mapping")
                exps[mapping[v]] = e
            acc[_mono_from_map(exps)] = coeff
        return Polynomial(nvars, acc)

    # -- rendering ---------------------------------------------------

    def canonical_str(self) -> str:
        """Graded-lex rendering (degree descending, then lex on exponents)."""
        if not self.terms:
            return "0"

        # no sparse monomial is a prefix of another of its degree: this is the dense order
        def sort_key(mono: Monomial):
            return (-mono_degree(mono), [(v, -e) for v, e in mono])

        pieces = []
        for mono in sorted(self.terms, key=sort_key):
            coeff = self.terms[mono]
            num, den = coeff.numerator, coeff.denominator
            pieces.append("-" if num < 0 else "+")
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            body = "*".join([f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono])
            if not body:
                pieces.append(mag)
            elif mag == "1":
                pieces.append(body)
            else:
                pieces.append(f"{mag}*{body}")
        return "".join(pieces).removeprefix("+")

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.canonical_str()})"


# -- integer form -----------------------------------------------------

# a polynomial as (d, {dense exponent tuple: integer numerator}); each coefficient is numerator/d
_IntegerForm = tuple[int, dict[tuple[int, ...], int]]


def _integer_product(a: _IntegerForm, b: _IntegerForm) -> _IntegerForm:
    (den_a, terms_a), (den_b, terms_b) = a, b
    acc: dict[tuple[int, ...], int] = {}
    for exps_a, c_a in terms_a.items():
        for exps_b, c_b in terms_b.items():
            exps = tuple(map(operator.add, exps_a, exps_b))
            acc[exps] = acc.get(exps, 0) + c_a * c_b
    return den_a * den_b, {exps: c for exps, c in acc.items() if c}


def _sparse_monomial(exps: tuple[int, ...]) -> Monomial:
    return tuple((v, e) for v, e in enumerate(exps, start=1) if e)


def _to_polynomial(form: _IntegerForm, nvars: int, monomial=_sparse_monomial) -> Polynomial:
    """The Polynomial of an integer form; monomial turns a dense exponent tuple into a Monomial."""
    den, terms = form
    return Polynomial(nvars, {monomial(exps): Fraction(c, den) for exps, c in terms.items()})


# -- Gegenbauer (ultraspherical) polynomials -------------------------


class GegenbauerPoly(_Frozen):
    """One-variable Gegenbauer polynomial in the monomial basis.

    coefficients[i] is the coefficient of x^i; parity forces every other
    entry to vanish.
    """

    __slots__ = ("degree", "alpha", "coefficients")
    degree: int
    alpha: Fraction
    coefficients: tuple[Fraction, ...]

    def __init__(self, degree: int, alpha: Fraction, coefficients: tuple[Fraction, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "coefficients", coefficients)


def gegenbauer(s: int, alpha: Fraction) -> GegenbauerPoly:
    """Degree-s Gegenbauer polynomial, scaled as by the Rodrigues formula
    (-1)^s / (2^s s!) (1-x^2)^(1/2-alpha) d^s/dx^s (1-x^2)^(alpha+s-1/2).

    Its leading coefficient is (s+2 alpha)_s / (2^s s!), with (x)_s the rising
    factorial x(x+1)...(x+s-1).  The differential equation
    (1-x^2) y'' - (2 alpha+1) x y' + s(s+2 alpha) y = 0 (Szego, Orthogonal
    Polynomials, 4.7) ties each coefficient to the one two degrees above:
    a_j = a_(j+2) (j+2)(j+1) / ((j-s)(j+s+2 alpha)), and j+s+2 alpha > 0 for
    j <= s-2 and alpha > -1.  Coefficients of the other parity stay 0.
    """
    alpha = as_rational(alpha)
    if integer(s, "degree") < 0:
        raise ValueError("degree must be non-negative")
    if alpha <= -1:
        raise ValueError("Gegenbauer parameter must exceed -1")
    coeffs = [_ZERO] * (s + 1)
    coeffs[s] = math.prod((s + 2 * alpha + i for i in range(s)), start=_ONE) / (2**s * math.factorial(s))
    for j in range(s - 2, -1, -2):
        coeffs[j] = coeffs[j + 2] * (j + 2) * (j + 1) / ((j - s) * (j + s + 2 * alpha))
    return GegenbauerPoly(degree=s, alpha=alpha, coefficients=tuple(coeffs))


def _block_form(k: int, m_k: int, m_k1: int, n: int) -> _IntegerForm:
    """building_block_g(k, m_k, m_k1, n) in integer form, over the lcm of its Gegenbauer denominators.

    With d = m_k - m_k1, x = x_{k+1} and Gegenbauer coefficients c_i, the block is
    c_d x^d + r^2 (c_(d-2) x^(d-2) + r^2 (...)), each factor r^2 one integer product.
    """
    if not 0 <= k <= n - 3:
        raise ValueError(f"index k={k} out of range 0..{n - 3}")
    if not 0 <= m_k1 <= m_k:
        raise ValueError("need 0 <= m_(k+1) <= m_k")
    d = m_k - m_k1
    coeffs = gegenbauer(d, Fraction(2 * m_k1 + n - k - 2, 2)).coefficients
    den = math.lcm(*(c.denominator for c in coeffs))
    # the block lives on variables x_{k+1}..x_n, dense positions k..n-1
    r2 = (1, {tuple(2 * (v == u) for v in range(n)): 1 for u in range(k, n)})
    terms: dict[tuple[int, ...], int] = {}
    for i in range(d % 2, d + 1, 2):
        terms = _integer_product((1, terms), r2)[1]
        x_i = tuple(i * (v == k) for v in range(n))
        terms[x_i] = terms.get(x_i, 0) + coeffs[i].numerator * (den // coeffs[i].denominator)
    return den, terms


def building_block_g(k: int, m_k: int, m_k1: int, n: int) -> Polynomial:
    """Homogeneous block r^(m_k-m_k1) * P(x_{k+1}/r) on variables x_{k+1}..x_n.

    Here r^2 = x_{k+1}^2 + ... + x_n^2 and P is the Gegenbauer polynomial
    of degree m_k - m_k1 with parameter m_k1 + (n-k-2)/2.  Parity of the
    Gegenbauer coefficients guarantees only even powers of r^2 occur, so
    the result is a genuine polynomial, homogeneous of degree m_k - m_k1.
    """
    k, m_k, m_k1 = integer(k, "block index k"), integer(m_k, "m_k"), integer(m_k1, "m_k1")
    return _to_polynomial(_block_form(k, m_k, m_k1, dimension(n, 0)), n)
