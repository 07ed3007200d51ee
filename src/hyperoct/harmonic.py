"""Harmonic polynomial bases on R^n.

Builds the full Gegenbauer-product basis of the homogeneous harmonic
polynomials of degree s, its fully even subset (every variable appears
with even exponents only), and the fixed small criterion bases for
degrees 2, 4, 6, 8 whose coordinate embeddings span the fully even
harmonic subspace.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from .numeric import _ONE, _Frozen, binomial, dimension, integer
from .poly import Polynomial, _block_form, _integer_product, _IntegerForm, _sparse_monomial, _to_polynomial

MAX_N = 6
MAX_S = 8


class BasisElement(_Frozen):
    """One product-basis element: index (m0, ..., m_{n-2}, mu) and its polynomial."""

    __slots__ = ("index", "poly")
    index: tuple[int, ...]
    poly: Polynomial

    def __init__(self, index: tuple[int, ...], poly: Polynomial):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "poly", poly)

    @property
    def m_values(self) -> tuple[int, ...]:
        return self.index[:-1]

    @property
    def mu(self) -> int:
        return self.index[-1]


def _real_imag_powers(m: int, mu: int, n: int) -> _IntegerForm:
    """Re (mu = 1) or Im (mu = 2) part of (x_{n-1} + i x_n)^m on n variables, in integer form.

    Its term x_{n-1}^(m-j) x_n^j is i^j C(m, j): real for even j, imaginary for odd j.
    """
    return 1, {
        (0,) * (n - 2) + (m - j, j): (-1) ** (j // 2) * binomial(m, j) for j in range(mu - 1, m + 1, 2)
    }


def _chain_products(
    ms: tuple[int, ...], prefix: _IntegerForm, last: int, block
) -> Iterator[tuple[tuple[int, ...], _IntegerForm]]:
    """Each chain (*ms, ..., m_last) with ms[-1] >= ... >= m_last >= 0, in decreasing
    lex order, with prefix times its blocks block(k, m_k, m_{k+1}) for k >= len(ms) - 1.

    Only the products along the current path are alive at any time.
    """
    k = len(ms) - 1
    if k == last:
        yield ms, prefix
        return
    for m_next in range(ms[-1], -1, -1):
        yield from _chain_products((*ms, m_next), _integer_product(prefix, block(k, ms[-1], m_next)), last, block)


def full_basis(n: int, s: int) -> list[BasisElement]:
    """The Gegenbauer product basis of the degree-s harmonics on n variables.

    Each element is indexed by s = m0 >= m1 >= ... >= m_{n-2} >= 0 and
    mu in {1, 2} with mu <= m_{n-2} + 1; it is the product of the radial
    blocks for consecutive (m_k, m_{k+1}) pairs and the real or imaginary
    part of (x_{n-1} + i x_n)^(m_{n-2}).  Elements come in decreasing lex
    order of (m1, ..., m_{n-2}), then by mu.

    A depth-first walk over the chains builds each distinct block once and
    carries the product of the blocks G_0(s, m1) ... G_{j-1}(m_{j-1}, m_j)
    chosen so far down to every chain that shares them.  Blocks and products
    are taken in the integer form of ``poly``, one common denominator over
    integer coefficients, and each finished element becomes a Polynomial once.
    """
    dimension(n, 3)
    if integer(s, "degree s") < 1:
        raise ValueError("need s >= 1")
    if n > MAX_N or s > MAX_S:
        raise ValueError(f"full basis capped at n <= {MAX_N}, s <= {MAX_S}")
    block = functools.cache(lambda k, m, m_next: _block_form(k, m, m_next, n))
    tail_part = functools.cache(lambda tail, mu: _real_imag_powers(tail, mu, n))
    # one tuple per monomial, shared by every element that has it
    monomial = functools.cache(_sparse_monomial)
    elements = []
    for ms, prefix in _chain_products((s,), (1, {(0,) * n: 1}), n - 2, block):
        tail = ms[-1]
        for mu in range(1, min(2, tail + 1) + 1):
            poly = _to_polynomial(_integer_product(prefix, tail_part(tail, mu)), n, monomial)
            elements.append(BasisElement(index=(*ms, mu), poly=poly))
    return elements


def fully_even_subset(basis: Sequence[BasisElement]) -> list[BasisElement]:
    """Elements with every m_i even and mu = 1; a basis of the fully even part."""
    return [
        element
        for element in basis
        if element.mu == 1 and all(m % 2 == 0 for m in element.m_values)
    ]


def embed(f: Polynomial, g: Sequence[int], n: int) -> Polynomial:
    """Rename variable i of f to g[i-1]; g must be strictly increasing."""
    dimension(n, 0)
    g = [integer(target, "embedding map entry") for target in g]
    if len(g) != f.nvars:
        raise ValueError("embedding map must cover every variable of f")
    if any(a >= b for a, b in zip(g, g[1:])):
        raise ValueError("embedding map must be strictly increasing")
    if g and (g[0] < 1 or g[-1] > n):
        raise ValueError(f"embedding map range must lie within 1..{n}")
    return f.rename_variables({i + 1: target for i, target in enumerate(g)}, n)


# -- the fixed criterion polynomials ---------------------------------


def _symmetric(nvars: int, table: dict[tuple[int, ...], int]) -> Polynomial:
    """The symmetric polynomial sum c m_lambda over the table's partitions lambda: each
    coefficient c on every distinct arrangement of lambda's parts over the nvars variables."""
    return Polynomial(nvars, {
        _sparse_monomial(exps): c
        for parts, c in table.items()
        for exps in dict.fromkeys(itertools.permutations(parts + (0,) * (nvars - len(parts))))
    })


def criterion_f42() -> Polynomial:
    """Re((x1 + i x2)^4)."""
    return _to_polynomial(_real_imag_powers(4, 1, 2), 2)


def criterion_f62() -> Polynomial:
    """Re((x1 + i x2)^6)."""
    return _to_polynomial(_real_imag_powers(6, 1, 2), 2)


def criterion_f63() -> Polynomial:
    return _symmetric(3, {(6,): 2, (4, 2): -15, (2, 2, 2): 180})


def criterion_f82() -> Polynomial:
    """Re((x1 + i x2)^8)."""
    return _to_polynomial(_real_imag_powers(8, 1, 2), 2)


def criterion_f831() -> Polynomial:
    return Polynomial(3, {
        ((1, 8),): 1,
        ((2, 8),): -1,
        ((1, 2), (2, 6)): 14,
        ((2, 6), (3, 2)): 14,
        ((1, 6), (2, 2)): -14,
        ((1, 6), (3, 2)): -14,
        ((1, 4), (2, 2), (3, 2)): 210,
        ((1, 2), (2, 4), (3, 2)): -210,
    })


def criterion_f832() -> Polynomial:
    """criterion_f831 with x2 and x3 swapped."""
    return criterion_f831().rename_variables({1: 1, 2: 3, 3: 2}, 3)


def criterion_f84() -> Polynomial:
    return _symmetric(4, {(8,): 3, (6, 2): -28, (4, 2, 2): 210, (2, 2, 2, 2): -3780})


# seeds per degree: (number of variables, constructor), in display order
_CRITERION_SEEDS: dict[int, tuple[tuple[int, object], ...]] = {
    4: ((2, criterion_f42),),
    6: ((2, criterion_f62), (3, criterion_f63)),
    8: ((2, criterion_f82), (3, criterion_f831), (3, criterion_f832), (4, criterion_f84)),
}


class CriterionBasis(_Frozen):
    """Coordinate-embedded copies of the fixed degree-s seed polynomials."""

    __slots__ = ("n", "s", "elements")
    n: int
    s: int
    elements: tuple[Polynomial, ...]

    def __init__(self, n: int, s: int, elements: tuple[Polynomial, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)


def criterion_basis(n: int, s: int) -> CriterionBasis:
    """Basis of the fully even harmonics of degree s in {2, 4, 6, 8}.

    Degree 2 is the set x_i^2 - x_n^2; higher degrees embed the fixed
    seed polynomials along every strictly increasing coordinate map.
    For n = 3 the four-variable seed has no embeddings and drops out,
    matching the vanishing C(n, 4) term in the dimension count.
    """
    if dimension(n, 3) > MAX_N:
        raise ValueError(f"criterion basis capped at n <= {MAX_N}")
    if integer(s, "degree s") == 2:
        elements = tuple(
            Polynomial(n, {((i, 2),): _ONE, ((n, 2),): -_ONE}) for i in range(1, n)
        )
        return CriterionBasis(n=n, s=2, elements=elements)
    if s not in _CRITERION_SEEDS:
        raise ValueError("criterion bases exist for s in {2, 4, 6, 8}")
    elements = []
    for j, builder in _CRITERION_SEEDS[s]:
        seed = builder()
        for g in itertools.combinations(range(1, n + 1), j):
            elements.append(embed(seed, g, n))
    return CriterionBasis(n=n, s=s, elements=tuple(elements))
