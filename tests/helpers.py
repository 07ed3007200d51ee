"""Shared test oracles and frozen reference data.

Everything here is deliberately independent of the closed forms it is
used to check: layer sums come from point enumeration, sphere averages
from a gamma-function identity, and feasibility from raw linear systems.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from hyperoct.harmonic import BasisElement, criterion_basis, embed, full_basis
from hyperoct.moments import OracleFailure, first_failure, monomial_residual, monomials_of_degree, sphere_monomial_average
from hyperoct.numeric import binomial, double_factorial
from hyperoct.orbit import DesignConfig, OrbitSizeError, check_orbit, make_config, orbit_size, orbit_tuples
from hyperoct.poly import Polynomial, building_block_g, gegenbauer, mono_degree
from hyperoct.solver import (
    _five_design_rule, _seven_design_rule, five_design_possible, seven_design_possible, solve_radius_Q, solve_t5,
    solve_t7, tau, tau_table,
)
from hyperoct.strength import (
    _EQUATIONS, classify, g_function, layer_sum_f42, layer_sum_f63, layer_sum_f82, layer_sum_f84, property_g,
)
from hyperoct.tight import fisher_bound, tight_7_4d

# The published list of integers up to 100 whose G form has a zero.
PROPERTY_G_LE_100 = [
    1, 2, 5, 8, 10, 11, 14, 16, 17, 20, 23, 26, 28, 29, 31, 32, 35, 38,
    41, 44, 46, 47, 50, 52, 53, 56, 59, 61, 62, 64, 65, 68, 71, 73, 74,
    76, 77, 80, 82, 83, 86, 89, 91, 92, 94, 95, 98, 100,
]


@lru_cache(maxsize=None)
def enumerated_layer_sum(poly: Polynomial, n: int, k: int) -> Fraction:
    """Sum of a polynomial over the unscaled orbit points, by brute force.

    Memoized: the result does not depend on any radius, and the raw
    feasibility systems ask for the same (poly, n, k) thousands of times.
    """
    full = embed(poly, tuple(range(1, poly.nvars + 1)), n)
    total = Fraction(0)
    for pt in orbit_tuples(n, k):
        total += evaluate(full, pt)
    return total


@lru_cache(maxsize=None)
def cube_points_with_support(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Points of {-1, 0, 1}^n with exactly k nonzero coordinates, by filtering the cube."""
    return tuple(pt for pt in itertools.product((-1, 0, 1), repeat=n) if n - pt.count(0) == k)


def enumerated_monomial_sum(n: int, k: int, exponents) -> int:
    """Sum of x^alpha over the unscaled orbit points, by brute force."""
    return sum(math.prod(c**e for c, e in zip(pt, exponents)) for pt in cube_points_with_support(n, k))


def sphere_average_gamma_oracle(n: int, exponents, r_squared) -> Fraction:
    """Independent sphere average via the gamma-function surface integral."""
    import sympy

    if any(e % 2 for e in exponents):
        return Fraction(0)
    total = sum(exponents)
    expr = sympy.gamma(sympy.Rational(n, 2))
    for e in exponents:
        expr *= sympy.gamma(sympy.Rational(e + 1, 2))
    expr /= sympy.pi ** sympy.Rational(n, 2)
    expr /= sympy.gamma(sympy.Rational(n + total, 2))
    assert expr.is_Rational
    return Fraction(r_squared) ** (total // 2) * Fraction(int(expr.p), int(expr.q))


# -- the orbit-sum rule, one binomial per support size --------------------------


def support_sums(poly: Polynomial) -> dict[int, Fraction | int]:
    """Coefficient totals of poly's all-even terms, keyed by their number of variables."""
    sums: dict[int, Fraction] = {}
    for mono, coeff in poly.terms.items():
        if all(e % 2 == 0 for _, e in mono):
            sums[len(mono)] = sums.get(len(mono), 0) + coeff
    return {m: int(c) if c.denominator == 1 else c for m, c in sums.items()}


def grouped_sum(sums: dict[int, Fraction | int], n: int, k: int):
    """2^k sum c_m C(n-m, k-m) over the support sums c_m: one binomial per m."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 2**k * sum(c * binomial(n - m, k - m) for m, c in sums.items())


def orbit_sum(poly: Polynomial, n: int, k: int) -> Fraction:
    """Sum of poly over the unscaled orbit I^n_k, term by term.

    A monomial whose m nonzero exponents are all even is 1 at the 2^k C(n-m, k-m)
    points whose support covers its variables and 0 elsewhere; one with an odd
    exponent sums to 0, as flipping that coordinate's sign maps the orbit onto
    itself and negates it.  Only the exponents matter, not which variables carry them.
    """
    if poly.nvars > n:
        raise ValueError(f"polynomial on {poly.nvars} variables has no orbit sum in dimension n={n}")
    return Fraction(grouped_sum(support_sums(poly), n, k))


# -- the residuals summed term by term in Fractions -----------------------
#
# classify and the oracle sum each residual in integers and reduce it once;
# these are the formulas they replaced, one Fraction per term, as references.


def reference_classify_residuals(cfg: DesignConfig) -> dict[str, Fraction]:
    """``classify``'s residuals as sums of w (r^2/k)^scale (r^2)^power G over the
    layers, in Fractions, G the layer's criterion orbit sum."""
    residuals = {}
    for sums, scale, eq_ids in _EQUATIONS.values():
        if max(sums) > cfg.n:
            continue
        terms = [
            (layer.weight * (layer.r_squared / layer.k) ** scale * grouped_sum(sums, cfg.n, layer.k), layer.r_squared)
            for layer in cfg.layers
        ]
        for power, eq in enumerate(eq_ids):
            residuals[eq] = sum((term * r2**power for term, r2 in terms), Fraction(0))
    return residuals


@lru_cache(maxsize=None)
def _unit_sphere_average(n: int, parts: tuple[int, ...]) -> Fraction:
    return sphere_average_gamma_oracle(n, parts + (0,) * (n - len(parts)), 1)


def reference_monomial_residual(cfg: DesignConfig, exponents) -> Fraction:
    """``monomial_residual`` as sum w (r^2/k)^h S - sum w |O| (r^2)^h A over the
    layers, h half the degree, S the orbit sum by brute force and A the unit-sphere
    average by the gamma-function identity."""
    half = sum(exponents) // 2
    average = _unit_sphere_average(cfg.n, tuple(sorted(e for e in exponents if e)))
    return sum(
        (
            layer.weight * (layer.r_squared / layer.k) ** half * enumerated_monomial_sum(cfg.n, layer.k, exponents)
            - layer.weight * orbit_size(cfg.n, layer.k) * layer.r_squared**half * average
            for layer in cfg.layers
        ),
        Fraction(0),
    )


# -- exact linear algebra and an explicit point-set residual -------------
#
# Only tests use these, so they live here and not in the library: one
# Gauss-Jordan (rref), the nullspace and rank built on it, positive null
# vectors by Fourier-Motzkin elimination, and the defining residual of an
# explicit rational point set, independent of the orbit machinery.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over the rationals on the first ncols columns: (reduced rows, pivot columns)."""
    matrix = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        inv = 1 / matrix[top][col]
        matrix[top] = [v * inv for v in matrix[top]]
        for r in range(len(matrix)):
            if r != top and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[top])]
        pivots.append(col)
    return matrix, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace over the rationals."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for free_col in (c for c in range(ncols) if c not in pivots):
        vec = [_ZERO] * ncols
        vec[free_col] = _ONE
        for row, pivot_col in zip(reduced, pivots):
            vec[pivot_col] = -row[free_col]
        basis.append(vec)
    return basis


def _fourier_motzkin(constraints: list[tuple[list[Fraction], Fraction]], nvars: int) -> list[Fraction] | None:
    """Witness for a system of linear inequalities sum(c*x) >= b, or None."""
    if nvars == 0:
        return [] if all(b <= 0 for _, b in constraints) else None
    t = nvars - 1
    lowers: list[tuple[list[Fraction], Fraction]] = []
    uppers: list[tuple[list[Fraction], Fraction]] = []
    rest: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, b in constraints:
        a = coeffs[t]
        reduced = [c / a for c in coeffs[:t]] if a else list(coeffs[:t])
        if a == 0:
            rest.append((reduced, b))
        elif a > 0:
            lowers.append((reduced, b / a))
        else:
            uppers.append((reduced, b / a))
    projected = list(rest)
    for lc, lb in lowers:
        for uc, ub in uppers:
            projected.append(([l - u for l, u in zip(lc, uc)], lb - ub))
    sub = _fourier_motzkin(projected, t)
    if sub is None:
        return None
    lower_vals = [lb - sum(c * x for c, x in zip(lc, sub)) for lc, lb in lowers]
    upper_vals = [ub - sum(c * x for c, x in zip(uc, sub)) for uc, ub in uppers]
    if lower_vals and upper_vals:
        value = (max(lower_vals) + min(upper_vals)) / 2
    elif lower_vals:
        value = max(lower_vals)
    elif upper_vals:
        value = min(upper_vals)
    else:
        value = _ZERO
    return sub + [value]


def positive_nullvector(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Fraction] | None:
    """Strictly positive x with (rows) x = 0, or None if none exists.

    Scaling makes strict positivity equivalent to x >= 1 componentwise,
    which is decided exactly by Fourier-Motzkin elimination on the
    nullspace coordinates.
    """
    rows = [list(row) for row in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required when no rows are given")
        ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    if not basis:
        return None
    constraints = []
    for j in range(ncols):
        constraints.append(([vec[j] for vec in basis], _ONE))
    lam = _fourier_motzkin(constraints, len(basis))
    if lam is None:
        return None
    x = [sum(l * vec[j] for l, vec in zip(lam, basis)) for j in range(ncols)]
    assert all(v > 0 for v in x)
    return x


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def rank_of_polynomials(polys: Sequence[Polynomial]) -> int:
    """Rank of the coefficient matrix of a family of polynomials."""
    monomials = sorted({mono for p in polys for mono in p.terms})
    index = {mono: i for i, mono in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monomials)
        for mono, coeff in p.terms.items():
            row[index[mono]] = coeff
        rows.append(row)
    return matrix_rank(rows)


def residual_rational_points(
    n: int,
    weighted_points: Sequence[tuple[Sequence, object]],
    f: Polynomial,
) -> Fraction:
    """Residual of the defining equation for an explicit rational point set.

    Independent of the orbit machinery; usable whenever every coordinate
    is rational (for orbit layers that means r^2/k a perfect square).
    """
    if f.nvars != n:
        raise ValueError("polynomial variable count mismatch")
    points = [([Fraction(c) for c in coords], Fraction(w)) for coords, w in weighted_points]
    left = _ZERO
    groups: dict[Fraction, Fraction] = {}
    for coords, weight in points:
        left += weight * evaluate(f, coords)
        r2 = sum((c * c for c in coords), _ZERO)
        if r2 == 0:
            raise ValueError("points must avoid the origin")
        groups[r2] = groups.get(r2, _ZERO) + weight
    right = _ZERO
    for r2, w_total in groups.items():
        avg = _ZERO
        for mono, coeff in f.terms.items():
            exponents = [0] * n
            for v, e in mono:
                exponents[v - 1] = e
            avg += coeff * sphere_monomial_average(n, exponents, r2)
        right += w_total * avg
    return left - right


# -- polynomial, orbit and design references --------------------------------
#
# Only tests use these, so they live here and not in the library: evaluation,
# total degree and Laplacian of a polynomial, the design residual of any
# polynomial through the monomial oracle, the harmonic dimension counts, the
# size of an orbit union, the tiling of {-1, 0, 1}^n by the orbits, and the q
# form that pairs with ``p_value`` in the 5-design identities.


def evaluate(poly: Polynomial, point: Sequence) -> Fraction:
    """Value of poly at a point given by one coordinate per variable."""
    if len(point) != poly.nvars:
        raise ValueError(f"point has {len(point)} coordinates, polynomial has {poly.nvars} variables")
    values = [Fraction(x) for x in point]
    total = _ZERO
    for mono, coeff in poly.terms.items():
        prod = coeff
        for v, e in mono:
            prod *= values[v - 1] ** e
        total += prod
    return total


def degree(poly: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((mono_degree(mono) for mono in poly.terms), default=-1)


def laplacian(poly: Polynomial) -> Polynomial:
    """Sum of second partials over all variables."""
    acc: dict = {}
    for mono, coeff in poly.terms.items():
        for v, e in mono:
            if e < 2:
                continue
            exps = dict(mono)
            exps[v] = e - 2
            new = tuple(sorted((u, d) for u, d in exps.items() if d))
            acc[new] = acc.get(new, _ZERO) + coeff * e * (e - 1)
    return Polynomial(poly.nvars, acc)


def design_residual(cfg: DesignConfig, f: Polynomial) -> Fraction:
    """Residual of the defining equation for an arbitrary polynomial."""
    if f.nvars != cfg.n:
        raise ValueError(f"polynomial has {f.nvars} variables, configuration has n={cfg.n}")
    total = _ZERO
    for mono, coeff in f.terms.items():
        exponents = [0] * cfg.n
        for v, e in mono:
            exponents[v - 1] = e
        total += coeff * monomial_residual(cfg, tuple(exponents))
    return total


def _descending_chains(s: int, length: int):
    """All tuples (m1, ..., m_length) with s >= m1 >= ... >= m_length >= 0."""
    if length == 0:
        yield ()
        return
    for first in range(s, -1, -1):
        for rest in _descending_chains(first, length - 1):
            yield (first, *rest)


def squared_radius_polynomial(first_var: int, nvars: int) -> Polynomial:
    """x_first^2 + ... + x_nvars^2."""
    return Polynomial(nvars, {((v, 2),): _ONE for v in range(first_var, nvars + 1)})


def reference_building_block_g(k: int, m_k: int, m_k1: int, n: int) -> Polynomial:
    """``building_block_g`` in Fraction ``Polynomial`` arithmetic: the sum over the Gegenbauer
    coefficients c_i of c_i x_{k+1}^i (r^2)^((d-i)/2), with r^2 = x_{k+1}^2 + ... + x_n^2."""
    d = m_k - m_k1
    geg = gegenbauer(d, Fraction(m_k1) + Fraction(n - k - 2, 2))
    r2 = squared_radius_polynomial(k + 1, n)
    result = Polynomial(n)
    for i, c in enumerate(geg.coefficients):
        if c == 0:
            continue
        part = Polynomial(n, {((k + 1, i),): c}) if i else Polynomial.constant(c, n)
        result = result + part * r2 ** ((d - i) // 2)
    return result


def _reference_tail(m: int, mu: int, n: int) -> Polynomial:
    """Re (mu = 1) or Im (mu = 2) part of (x_{n-1} + i x_n)^m, by m complex multiplications."""
    a, b = (Polynomial(n, {((v, 1),): _ONE}) for v in (n - 1, n))
    re, im = Polynomial.constant(1, n), Polynomial(n)
    for _ in range(m):
        re, im = re * a - im * b, re * b + im * a
    return re if mu == 1 else im


def reference_full_basis(n: int, s: int) -> list[BasisElement]:
    """``full_basis`` element by element: each product rebuilt from its blocks in Fractions."""
    elements = []
    for chain in _descending_chains(s, n - 2):
        ms = (s, *chain)
        tail = ms[-1]
        for mu in range(1, min(2, tail + 1) + 1):
            poly = _reference_tail(tail, mu, n)
            for k in range(n - 2):
                poly = poly * reference_building_block_g(k, ms[k], ms[k + 1], n)
            elements.append(BasisElement(index=(*ms, mu), poly=poly))
    return elements


def harm_dimension(n: int, s: int) -> int:
    """dim of homogeneous harmonic polynomials of degree s on n variables."""
    return binomial(n + s - 1, n - 1) - binomial(n + s - 3, n - 1)


def fully_even_dimension(n: int, s: int) -> int:
    """dim of the fully even harmonic subspace (s even)."""
    if s % 2:
        raise ValueError("fully even harmonics exist only for even degree")
    return binomial(n + s // 2 - 2, n - 2)


def orbit_union_size(n: int, J) -> int:
    J = set(J)
    if not J <= set(range(1, n + 1)):
        raise ValueError(f"J={sorted(J)} is not a subset of 1..{n}")
    return sum(orbit_size(n, k) for k in J)


def partition_check(n: int) -> bool:
    """Whether the origin plus all n orbits tile {-1,0,1}^n exactly."""
    if not 1 <= n <= 12:
        raise ValueError("partition check supported for 1 <= n <= 12")
    seen: set[tuple[int, ...]] = {(0,) * n}
    for k in range(1, n + 1):
        for coords in orbit_tuples(n, k):
            if coords in seen:
                return False
            seen.add(coords)
    return len(seen) == 3**n


def q_value(n: int, k: int) -> Fraction:
    return 3 * (
        1
        - Fraction(15 * (k - 1), n - 1)
        + Fraction(30 * (k - 1) * (k - 2), (n - 1) * (n - 2))
    )


# -- raw feasibility: positive weights for the defining linear systems --


def raw_t5_matrix(n: int, ks, r2: dict[int, Fraction]) -> list[list[Fraction]]:
    """One row: the degree-4 criterion sums per layer, from enumeration."""
    from hyperoct.harmonic import criterion_f42

    f42 = criterion_f42()
    return [
        [
            (r2[k] / k) ** 2 * enumerated_layer_sum(f42, n, k)
            for k in ks
        ]
    ]


def raw_t7_matrix(n: int, ks, r2: dict[int, Fraction]) -> list[list[Fraction]]:
    """Three rows: degree-4 sums with radius powers 0 and 1, degree-6 sums."""
    from hyperoct.harmonic import criterion_f42, criterion_f63

    f42, f63 = criterion_f42(), criterion_f63()
    s42 = {k: enumerated_layer_sum(f42, n, k) for k in ks}
    s63 = {k: enumerated_layer_sum(f63, n, k) for k in ks}
    return [
        [(r2[k] / k) ** 2 * s42[k] for k in ks],
        [r2[k] * (r2[k] / k) ** 2 * s42[k] for k in ks],
        [(r2[k] / k) ** 3 * s63[k] for k in ks],
    ]


def raw_positive_weights_exist(matrix) -> bool:
    return positive_nullvector(matrix) is not None


# -- the P- and G-form solution of the 5- and 7-design equations ---------------
#
# The paper's hand-derived formulas, written in the p values, the G quadratic
# form and a rescaled weight space u_k = w_k 2^(k+1) C(n-1, k-1) / k^3.  The
# solver reads the same answers off the integer columns of the classify
# equations instead; these are the reference it is checked against.


def p_value(n: int, k: int) -> Fraction:
    """k * (1 - 3(k-1)/(n-1)); sign tells which side of (n+2)/3 k lies on."""
    return k * (1 - Fraction(3 * (k - 1), n - 1))


def p_form_five_design_possible(n: int, ks: Sequence[int]) -> bool:
    """One orbit at the balance point (p = 0), or p values of both signs."""
    ps = [p_value(n, k) for k in ks]
    if len(ks) == 1:
        return ps[0] == 0
    return any(p > 0 for p in ps) and any(p < 0 for p in ps)


def g_form_sign_pattern(n: int, ks: Sequence[int]) -> bool:
    """Whether G12 > 0, G23 > 0 and G13 < 0 for a sorted triple."""
    k1, k2, k3 = ks
    return g_function(n, k1, k2) > 0 and g_function(n, k2, k3) > 0 and g_function(n, k1, k3) < 0


def g_form_seven_design_possible(n: int, ks: Sequence[int], p: int) -> bool:
    """A pair needs G = 0 on one radius.  A triple needs the G sign pattern,
    and its middle index at the balance point 3 k2 = n + 2 for p = 2 and off
    it for p = 3."""
    if len(ks) == 1:
        return False
    if len(ks) == 2:
        return p == 1 and g_function(n, *ks) == 0
    balanced = 3 * ks[1] == n + 2
    if (p == 2 and not balanced) or (p == 3 and balanced):
        return False
    return g_form_sign_pattern(n, ks)


def _u_to_weight(n: int, k: int, u: Fraction) -> Fraction:
    """Invert u_k = w_k * 2^(k+1) * C(n-1, k-1) / k^3."""
    return u * k**3 / (2 ** (k + 1) * binomial(n - 1, k - 1))


def g_form_q_coefficients(n: int, ks: Sequence[int]) -> list[int]:
    """Cyclic coefficients k (n+2-3k) (k' - k'') G(k', k'') of the 1/r^2 radius identity, sorted triple."""
    k = list(ks)
    coeffs = []
    for i in range(3):
        k_next, k_prev = k[(i + 1) % 3], k[(i + 2) % 3]
        coeffs.append(
            k[i] * (n + 2 - 3 * k[i]) * (k_next - k_prev) * g_function(n, k_next, k_prev)
        )
    return coeffs


def g_form_weights(n: int, ks: Sequence[int], r2: dict[int, Fraction]) -> list[Fraction]:
    """Weights of a 7-design on a G-zero pair (equal radii) or a feasible sorted triple, w = 1 at the smallest k."""
    if len(ks) == 2:
        us = [_ONE, -p_value(n, ks[0]) / p_value(n, ks[1])]
    else:
        k1, k2, k3 = ks
        r2 = {k: Fraction(v) for k, v in r2.items()}
        g12, g13, g23 = g_function(n, k1, k2), g_function(n, k1, k3), g_function(n, k2, k3)
        us = [
            _ONE,
            Fraction(k1 - k3, k3 - k2) * Fraction(g13, g23) * (r2[k1] / r2[k2]) ** 3,
            Fraction(k2 - k1, k3 - k2) * Fraction(g12, g23) * (r2[k1] / r2[k3]) ** 3,
        ]
    w0 = _u_to_weight(n, ks[0], us[0])
    return [_u_to_weight(n, k, u) / w0 for k, u in zip(ks, us)]


# -- the exhaustive searches that tau_table, property_g and first_failure replace --


def reference_tau_table(n: int) -> dict[tuple[int, int], int]:
    """tau(p, j) from the feasibility rules on every j-subset of 1..n: C(n, 3) triples per p at j = 3.

    The rules read classify's own full-scale columns k L42(n, k) and L63(n, k),
    not the solver's reduced ones.
    """
    a = [k * layer_sum_f42(n, k) for k in range(1, n + 1)]
    b = [layer_sum_f63(n, k) for k in range(1, n + 1)]
    table = {}
    for j in range(1, 4):
        subsets = list(zip(itertools.combinations(a, j), itertools.combinations(b, j)))
        for p in range(1, j + 1):
            if any(_seven_design_rule(x, y, p) for x, y in subsets):
                table[(p, j)] = 7
            elif any(_five_design_rule(x) for x, _ in subsets):
                table[(p, j)] = 5
            else:
                table[(p, j)] = 3
    return table


def reference_property_g(n: int) -> tuple[int, int] | None:
    """The first pair k1 <= k2 with G = 0, trying every pair in order."""
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            if g_function(n, k1, k2) == 0:
                return (k1, k2)
    return None


def reference_first_failure(cfg: DesignConfig, t_max: int) -> OracleFailure | None:
    """``moments.first_failure`` by a scan of every monomial of each even degree,
    C(n+d-1, d) of them at degree d, instead of one per partition."""
    if t_max < 0:
        raise ValueError(f"strength must be non-negative, got {t_max}")
    for layer in cfg.layers:
        check_orbit(cfg.n, layer.k)
    for degree in range(2, t_max + 1, 2):
        for exponents in monomials_of_degree(cfg.n, degree):
            residual = monomial_residual(cfg, exponents)
            if residual != 0:
                return OracleFailure(degree, exponents, residual)
    return None


# -- integer polynomials known only through their values ------------------------


def polynomial_coefficients(f, degree: int, start: int) -> list[Fraction]:
    """Coefficients, lowest first, of f, a polynomial of degree <= degree on the integers >= start.

    Interpolated from f at start .. start + degree, which fixes such a polynomial,
    and checked at two more points, which a wrong degree bound would fail.
    """
    xs = range(start, start + degree + 1)
    reduced, _ = rref([[x**i for i in range(degree + 1)] + [f(x)] for x in xs], degree + 1)
    coeffs = [row[-1] for row in reduced]
    for x in range(start + degree + 1, start + degree + 3):
        assert sum(c * x**i for i, c in enumerate(coeffs)) == f(x), (x, coeffs)
    return coeffs


def sign_from(f, degree: int, start: int) -> int:
    """The strict sign (1 or -1) of f at every integer x >= start, or 0 if f vanishes or changes sign there.

    f is a polynomial of degree <= degree on those integers.  Every root lies
    below Cauchy's bound 1 + max |c_i / c_top|, so past it f has the sign of
    c_top; each integer from start up to the bound is evaluated.
    """
    coeffs = polynomial_coefficients(f, degree, start)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return 0
    top = coeffs[-1]
    bound = 1 + max((abs(c / top) for c in coeffs[:-1]), default=0)
    sign = 1 if top > 0 else -1
    return sign if all(f(x) * sign > 0 for x in range(start, math.floor(bound) + 1)) else 0


def vanishes_identically(f, degrees: Sequence[int], starts: Sequence[int]) -> bool:
    """Whether f, a polynomial of degree <= degrees[i] in its i-th argument, is 0.

    Such a polynomial that vanishes on a grid of degrees[i] + 1 values per
    argument is zero, by induction on the number of arguments.
    """
    grid = [range(s, s + d + 1) for s, d in zip(starts, degrees)]
    return all(f(*x) == 0 for x in itertools.product(*grid))


# -- the tight families with their printed weights ------------------------


def printed_tight_family(family: str, r_squared, rho_squared, weight) -> DesignConfig:
    """The 5-3d, 7-3d or 7-4d family member with the weights written out by hand;
    the constructors in ``tight`` take them from the solver instead."""
    r2, rho2, w = Fraction(r_squared), Fraction(rho_squared), Fraction(weight)
    if family == "5-3d":
        return make_config(3, [(1, r2, w), (3, rho2, Fraction(9, 8) * r2**2 / rho2**2 * w)])
    if family == "7-3d":
        t = 3 * r2 + 2 * rho2
        return make_config(3, [
            (1, r2, w),
            (2, t / 5 * r2 / rho2, 100 * rho2**3 / t**3 * w),
            (3, t / 5, Fraction(675, 8) * r2**3 / t**3 * w),
        ])
    return make_config(4, [(1, r2, w), (2, rho2, r2**3 / rho2**3 * w), (4, r2, w)])


# -- malformed configuration files ---------------------------------------

# Each entry maps the text the error message must contain (it names the bad field)
# to a JSON value that DesignConfig.from_json_dict has to reject.
MALFORMED_CONFIGS = {
    "layers[0].weight: expected": {"n": 3, "layers": [{"k": 1, "r_squared": "1", "weight": 0.5}]},
    "layers[0].r_squared: expected": {"n": 3, "layers": [{"k": 1, "r_squared": "1/0", "weight": "1"}]},
    "layers: expected a list": {"n": 3, "layers": {"k": 1, "r_squared": "1", "weight": "1"}},
    "configuration: expected a JSON object": [{"k": 1, "r_squared": "1", "weight": "1"}],
    "layers[0].k: expected an integer": {"n": 3, "layers": [{"k": 1.7, "r_squared": "1", "weight": "1"}]},
    "n: expected an integer": {"n": 3.9, "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]},
    "unknown key 'wieght'": {"n": 3, "layers": [{"k": 1, "r_squared": "1", "weight": "1", "wieght": "2"}]},
}


# -- randomized configurations shared by the acceptance suite ----------

R2_CHOICES = (Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(9))


def random_configs(count: int = 200, seed: int = 12345) -> list[DesignConfig]:
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        n = rng.randint(3, 6)
        jsize = rng.randint(1, min(4, n))
        J = rng.sample(range(1, n + 1), jsize)
        layers = [
            (k, rng.choice(R2_CHOICES), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for k in J
        ]
        configs.append(make_config(n, layers))
    return configs


# -- the published strength tables -------------------------------------
#
# Entries are the printed strings: digits plus optional S (spherical,
# achieved by a constant-weight single-sphere configuration) or T (the
# achieving design is tight).  Sizes are the printed |X(J)| row.

PAPER_TABLE_N3 = {
    (1,): {"size": 6, 1: "3S"},
    (2,): {"size": 12, 1: "3S"},
    (3,): {"size": 8, 1: "3S"},
    (1, 2): {"size": 18, 1: "5", 2: "5"},
    (1, 3): {"size": 14, 1: "5", 2: "5T"},
    (2, 3): {"size": 20, 1: "3", 2: "3"},
    (1, 2, 3): {"size": 26, 1: "7", 2: "5", 3: "7T"},
}

PAPER_TABLE_N4 = {
    (1,): {"size": 8, 1: "3S"},
    (2,): {"size": 24, 1: "5S"},
    (3,): {"size": 32, 1: "3S"},
    (4,): {"size": 16, 1: "3S"},
    (1, 2): {"size": 32, 1: "3", 2: "3"},
    (1, 3): {"size": 40, 1: "5", 2: "5"},
    (1, 4): {"size": 24, 1: "5S", 2: "5"},
    (2, 3): {"size": 56, 1: "3", 2: "3"},
    (2, 4): {"size": 40, 1: "3", 2: "3"},
    (3, 4): {"size": 48, 1: "3", 2: "3"},
    (1, 2, 3): {"size": 64, 1: "7", 2: "7", 3: "5"},
    (1, 2, 4): {"size": 48, 1: "7", 2: "7T", 3: "5"},
    (1, 3, 4): {"size": 56, 1: "5", 2: "5", 3: "5"},
    (2, 3, 4): {"size": 72, 1: "5", 2: "5", 3: "5"},
    (1, 2, 3, 4): {"size": 80, 1: "5", 2: "7", 3: "7"},
}

# Cells of the printed n=4 table that contradict the definition of a
# Euclidean t-design, mapped to the correct strength.  The printed table
# stays verbatim; each entry is proved from the definition by
# test_contested_cells_machine_evidence.
PAPER_TABLE_N4_ERRATA = {
    # The degree-4 harmonic criterion sums to (0, -48, -64) over the unscaled
    # orbits k = 2, 3, 4; a layer of radius r scales its sum by (r^2/k)^2 > 0,
    # so any radii and positive weights leave the total negative: no 5-design.
    ((2, 3, 4), 1): 3,
    ((2, 3, 4), 2): 3,  # the same negative sums rule out 5 for two radii
    ((2, 3, 4), 3): 3,  # and for three radii
    # One sphere with weights (11/4, 7/3, 9/16, 2) on k = 1..4 passes every
    # monomial of degree <= 7; degree-8 sums are positive, so 9 is impossible.
    ((1, 2, 3, 4), 1): 7,
}

# For each erratum, a configuration on exactly p radii that reaches the
# corrected strength.
PAPER_TABLE_N4_ERRATA_WITNESSES = {
    ((2, 3, 4), 1): make_config(4, [(2, 1, 1), (3, 1, 1), (4, 1, 1)]),
    ((2, 3, 4), 2): make_config(4, [(2, 1, 1), (3, 2, 1), (4, 2, 1)]),
    ((2, 3, 4), 3): make_config(4, [(2, 1, 1), (3, 2, 1), (4, 3, 1)]),
    ((1, 2, 3, 4), 1): make_config(
        4,
        [
            (1, 1, Fraction(11, 4)),
            (2, 1, Fraction(7, 3)),
            (3, 1, Fraction(9, 16)),
            (4, 1, 2),
        ],
    ),
}


def seven_design_rows(n: int, J, r2: dict[int, Fraction]) -> list[list[Fraction]]:
    """The three degree <= 7 defining equations, one column per layer, from the closed forms."""
    return [
        [(r2[k] / k) ** 2 * layer_sum_f42(n, k) for k in J],
        [r2[k] * (r2[k] / k) ** 2 * layer_sum_f42(n, k) for k in J],
        [(r2[k] / k) ** 3 * layer_sum_f63(n, k) for k in J],
    ]


def computed_strength_entry(n: int, J: tuple[int, ...], p: int) -> int:
    """Maximum strength for the index set J with exactly p distinct radii.

    Index sets of size <= 3 are decided by the closed-form clauses; for
    larger sets a 7-design is searched over a radius grid by solving the
    three defining equations exactly for positive weights (any hit is
    confirmed by the classifier), and 5 falls back to the sign rule.
    """
    from hyperoct.solver import five_design_possible, seven_design_possible
    from hyperoct.strength import classify

    j = len(J)
    assert p <= j
    if j <= 3:
        t7 = seven_design_possible(n, J, p)
    else:
        t7 = False
        for values in itertools.product(R2_CHOICES, repeat=j):
            if len(set(values)) != p:
                continue
            r2 = dict(zip(J, values))
            weights = positive_nullvector(seven_design_rows(n, J, r2))
            if weights is not None:
                cfg = make_config(n, [(k, r2[k], w) for k, w in zip(J, weights)])
                assert classify(cfg).strength == 7
                t7 = True
                break
    if t7:
        return 7
    if five_design_possible(n, J):
        return 5
    return 3


def uniform_spherical_strength(n: int, J) -> int:
    """Strength of the constant-weight, common-radius configuration."""
    from hyperoct.strength import classify

    cfg = make_config(n, [(k, 1, 1) for k in J])
    return classify(cfg).strength


# -- the classify / oracle golden file ----------------------------------------
#
# One line per configuration of a fixed, seeded set: the configuration, its
# classify JSON and the first_failure(cfg, 9) witness (or the OrbitSizeError
# that refuses it).  `PYTHONPATH=src python tests/helpers.py` rewrites the file;
# test_strength.py::test_classify_and_oracle_match_golden_file compares against it.

STRENGTH_GOLDEN = Path(__file__).parent / "data" / "strength_golden.txt"


def three_digit_layers(rng: random.Random, ks) -> list[tuple[int, Fraction, Fraction]]:
    """Layers on ks with random squared radii and weights at 3-digit denominators."""
    return [(k, Fraction(rng.randint(1, 999), rng.randint(100, 999)), Fraction(rng.randint(1, 999), rng.randint(100, 999))) for k in ks]


def strength_golden_configs() -> list[DesignConfig]:
    from hyperoct.solver import solve_t5, solve_t7
    from hyperoct.tight import tight_5_3d, tight_7_3d, tight_7_4d

    configs = random_configs(40, seed=2018) + list(PAPER_TABLE_N4_ERRATA_WITNESSES.values())
    for n in range(3, 15):
        for k1 in range(1, n + 1):
            for k2 in range(k1 + 1, n + 1):
                if g_function(n, k1, k2) == 0:
                    configs += [solve_t7(n, (k1, k2), {k1: r2, k2: r2}).solution for r2 in (1, Fraction(7, 3))]
    configs += [solve_t5(n, (1, n), {1: 2, n: Fraction(1, 3)}).solution for n in range(3, 9)]
    for family in (tight_5_3d, tight_7_3d, tight_7_4d):
        configs += [family(1, 2), family(Fraction(3, 4), Fraction(8, 3), Fraction(2, 7))]
    rng = random.Random(2018)
    for n in (7, 9, 12, 16, 40):
        configs += [make_config(n, three_digit_layers(rng, rng.sample(range(1, n + 1), size))) for size in (1, 3, 5)]
    return configs


def _golden_witness(cfg: DesignConfig) -> str:
    try:
        failure = first_failure(cfg, 9)
    except OrbitSizeError as exc:
        return f"OrbitSizeError: {exc}"
    if failure is None:
        return "none"
    return f"degree={failure.degree} exponents={','.join(map(str, failure.exponents))} residual={failure.residual}"


def strength_golden_text() -> str:
    from hyperoct.strength import classify

    return "".join(
        f"{json.dumps(cfg.to_json_dict(), separators=(',', ':'))}\t"
        f"{json.dumps(classify(cfg).to_json_dict(), separators=(',', ':'))}\t{_golden_witness(cfg)}\n"
        for cfg in strength_golden_configs()
    )


# -- the CLI output corpus -----------------------------------------------------
#
# One line per fixed argv: the argv, the exit code and the sha256 of stdout and of
# stderr, from an in-process run of cli.main.  Config files are written to a temporary
# directory that the argv and the output name as {dir}.  An argv that argparse itself
# rejects records only its exit code, as argparse's wording changes across Python
# versions.  `PYTHONPATH=src python tests/helpers.py` rewrites the file;
# test_cli.py::test_cli_output_matches_golden_file compares against it.

CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def _config_text(n: int, *layers: tuple[int, str, str]) -> str:
    return json.dumps({"n": n, "layers": [{"k": k, "r_squared": r2, "weight": w} for k, r2, w in layers]})


def cli_golden_config_files() -> dict[str, str]:
    """The text of every config file the corpus reads, by file name."""
    from hyperoct.tight import tight_5_3d, tight_7_3d, tight_7_4d

    files = {
        "tight_5_3d.json": tight_5_3d(1, 2).to_json(),
        "tight_5_3d_scaled.json": tight_5_3d("5/8", "7/3", "2/9").to_json(),
        "tight_7_3d.json": tight_7_3d(1, 2).to_json(),
        "tight_7_4d.json": tight_7_4d("3/4", "8/3", "2/7").to_json(),
        "single_3_2.json": _config_text(3, (2, "1", "1")),
        "single_4_2.json": _config_text(4, (2, "1", "1")),
        "pair_8_1_4.json": _config_text(8, (1, "1", "1"), (4, "1", "1")),
        "pair_5_1_3.json": _config_text(5, (1, "7/3", "1"), (3, "7/3", "5/2")),
        "union_6.json": _config_text(6, (1, "2", "1/3"), (3, "5/7", "4"), (6, "1", "9/11")),
        "union_9.json": _config_text(9, (2, "3", "1"), (5, "1/2", "2"), (9, "4", "1/5")),
        "over_cap_20.json": _config_text(20, (10, "1", "1")),
        "hostile_nested.json": "[" * 100_000,
        "hostile_n_1e20.json": _config_text(10**20, (1, "1", "1")),
        "hostile_k_1e20.json": _config_text(10**20, (10**20, "1", "1")),
        "hostile_n_1e5.json": _config_text(10**5, (1, "1", "1")),
        "hostile_n_5000_digits.json": '{"n": ' + "1" * 5000 + ', "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}',
        "not_json.json": "{n: 3}",
        "empty.json": "",
    }
    for i, field in enumerate(sorted(MALFORMED_CONFIGS)):
        files[f"malformed_{i}.json"] = json.dumps(MALFORMED_CONFIGS[field])
    return files


def cli_golden_argvs() -> list[list[str]]:
    """The corpus's argv, each without --pretty; every one also runs with it."""
    argvs = []
    for n in range(3, 7):
        for k in range(1, n + 1):
            argvs += [["orbit", "--n", str(n), "--k", str(k)], ["orbit", "--n", str(n), "--k", str(k), "--count-only"]]
    argvs += [["orbit", "--n", "3", "--k", k] for k in ("0", "-1", "4", "x")]
    argvs += [["orbit", "--n", "25", "--k", "12"], ["orbit", "--n", str(10**20), "--k", str(10**20), "--count-only"]]
    argvs += [["orbit", "--n", str(10**5), "--k", "1"], ["orbit", "--n", "100", "--k", "50", "--count-only"]]
    for n, p, t in itertools.product((3, 4, 5, 8), (1, 2, 3), (5, 7)):
        argvs.append(["fisher", "--n", str(n), "--p", str(p), "--t", str(t)])
    argvs += [["fisher", "--n", n, "--p", p, "--t", t] for n, p, t in (
        ("3", "2", "4"), ("3", "1", "0"), ("3", "0", "5"), ("-1", "1", "5"), ("4000", "2", "4000"),
        ("4001", "2", "5"), ("3", "4001", "5"), ("3", "2", "4001"), (str(10**6), "1", str(10**6)),
        ("3", str(10**9), "5"), ("3", "2", "x"),
    )]
    argvs += [["property-g"]] + [["property-g", "--max", m] for m in ("0", "1", "10", "100", "1000", "-5", "4001", str(10**6), "ten")]
    argvs += [["tau", "--n", str(n)] for n in (*range(3, 14), 100, 1000, 10**7, 10**7 + 1, 2, 10**12, 10**20)]
    argvs.append(["tau", "--n", "3.5"])
    for n, J, r2 in (
        (3, "1", None), (3, "1,3", None), (3, "1,3", "1=1,3=1"), (3, "1,3", "1=2,3=1/3"), (4, "2", None),
        (4, "1,2", None), (4, "2,3", None), (5, "1,5", "1=5/7,5=3"), (6, "3", None), (6, "1,6", None),
        (7, "3", None), (8, "1,8", "1=1/2"), (10, "1,4", None), (40, "1,14", "14=9/4"),
        (10000, "1,5000", None), (3, "1,2,3", None), (3, "0,1", None), (3, "1,4", None),
        (3, "1,3", "2=1"), (3, "1,3", "1=-1"), (3, "1,3", "1=0"),
    ):
        argvs.append(["solve", "--n", str(n), "--J", J, "--t", "5", *(["--r2", r2] if r2 else [])])
    for n, J, r2 in (
        (3, "1", None), (5, "1,3", None), (5, "1,3", "1=7/3,3=7/3"), (5, "1,3", "1=1,3=2"), (8, "1,4", None),
        (8, "2,8", "2=3,8=3"), (10, "2,7", None), (11, "1,5", None), (6, "1,2", None), (3, "1,2,3", None),
        (3, "1,2,3", "1=1,2=3/5,3=3/5"), (3, "1,2,3", "1=1,2=2,3=1"), (3, "1,2,3", "1=2,2=1,3=1"),
        (4, "1,2,4", "1=3/4,2=8/3,4=3/4"), (4, "1,2,4", "1=1,2=1,4=2"), (4, "1,2,3", None), (7, "1,3,7", None),
        (7, "1,3,7", "1=2,3=5,7=2"), (10, "1,3,10", "1=1,3=2,10=3"), (10, "1,4,10", "1=1,4=2,10=3"),
        (13, "1,5,13", None), (3, "1,2,3,4", None), (4, "1,2,3,4", None), (3, "1,3", "1=1,3=-2"),
    ):
        argvs.append(["solve", "--n", str(n), "--J", J, "--t", "7", *(["--r2", r2] if r2 else [])])
    argvs += [
        ["solve", "--n", "3", "--J", "1,3", "--t", "6"],
        ["solve", "--n", "3", "--J", "1;3", "--t", "5"],
        ["solve", "--n", "3", "--J", "1,3", "--t", "5", "--r2", "1=1,3=x/y"],
        ["solve", "--n", "5", "--J", "1,2", "--t", "5", "--r2", "1=1,2=1,2=3"],
        ["solve", "--n", "5", "--J", "1,2", "--t", "5", "--r2", "1:1"],
        ["solve", "--n", "5", "--J", "1,2", "--t", "5", "--r2", "a=1"],
    ]
    for family in ("5-3d", "7-3d", "7-4d"):
        for r2, rho2, w in (("1", "2", None), ("1", "1", None), ("3/4", "8/3", "2/7"), ("5", "1/3", "-1"), ("1", "0", None)):
            argvs.append(["tight", "--family", family, "--r2", r2, "--rho2", rho2, *(["--w", w] if w else [])])
    argvs += [
        ["tight", "--family", "5-3d", "--r2", "1..2", "--rho2", "2"],
        ["tight", "--family", "9-3d", "--r2", "1", "--rho2", "2"],
        ["tight", "--family", "7-3d", "--r2", "-1", "--rho2", "2"],
    ]
    for n in (3, 4, 5):
        for s in range(1, 5):
            argvs += [["basis", "--n", str(n), "--s", str(s)], ["basis", "--n", str(n), "--s", str(s), "--fully-even"]]
    argvs += [["basis", "--n", "5", "--s", "6"], ["basis", "--n", "6", "--s", "4", "--fully-even"]]
    for n in range(3, 7):
        argvs += [["basis", "--n", str(n), "--s", str(s), "--criterion"] for s in (2, 4, 6, 8)]
    argvs += [["basis", "--n", n, "--s", s, *flags] for n, s, flags in (
        ("3", "3", ["--criterion"]), ("7", "4", ["--criterion"]), ("1000", "8", ["--criterion"]), ("2", "2", []),
        ("7", "2", []), ("3", "9", []), ("3", "0", []), ("3", "2", ["--criterion", "--fully-even"]),
    )]
    for name in cli_golden_config_files():
        path = f"{{dir}}/{name}"
        # a refused file fails the same way at every t
        ts = ("3",) if name.startswith(("hostile", "malformed", "not_json", "empty")) else ("3", "5", "7", "9")
        argvs += [["classify", "--config", path]] + [["verify", "--config", path, "--t", t] for t in ts]
    argvs += [
        ["verify", "--config", "{dir}/tight_5_3d.json", "--t", "-3"],
        ["verify", "--config", "{dir}/tight_5_3d.json", "--t", "0"],
        ["verify", "--config", "{dir}/missing.json", "--t", "3"],
        ["classify", "--config", "{dir}"],
        ["verify", "--config", "{dir}/tight_5_3d.json"],
        ["classify"],
        [],
        ["frobnicate"],
    ]
    return argvs


def cli_golden_line(argv: list[str], directory: str) -> str:
    """The corpus line of one argv, run in process on the config files in directory."""
    from hyperoct.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", directory) for arg in argv])
    except SystemExit as exc:
        return f"{shlex.join(argv)}\t{exc.code}\targparse\targparse\n"
    digests = [hashlib.sha256(stream.getvalue().replace(directory, "{dir}").encode()).hexdigest() for stream in (out, err)]
    return f"{shlex.join(argv)}\t{code}\t{digests[0]}\t{digests[1]}\n"


def cli_golden_lines() -> list[str]:
    """Every corpus line, each argv plain and then with --pretty."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in cli_golden_config_files().items():
            Path(directory, name).write_text(text)
        return [cli_golden_line(pretty + argv, directory) for argv in cli_golden_argvs() for pretty in ([], ["--pretty"])]


# -- the solver output corpus ----------------------------------------------------
#
# One line per call: solve_t5 on every J with |J| <= 2 and solve_t7 on every J with
# |J| <= 3 at n = 3..9, each on one common radius and on one seeded radius map; for
# each triple, solve_radius_Q on the seeded radii of its first two indices and, when
# it gives a radius, solve_t7 on those three radii; then tau_table at n = 3..300,
# 10^6 and 10^7.  `PYTHONPATH=src python tests/helpers.py` rewrites the file;
# test_solver.py::test_solver_answers_match_golden_file compares against it.

SOLVER_GOLDEN = Path(__file__).parent / "data" / "solver_golden.txt"


def solver_golden_text() -> str:
    from hyperoct.solver import DegenerateRadiusSystem, solve_radius_Q, solve_t5, solve_t7, tau_table

    def line(name: str, n: int, J: tuple[int, ...], radii: dict, answer) -> str:
        args = " ".join(f"{k}={r2}" for k, r2 in radii.items())
        if hasattr(answer, "to_json_dict"):
            answer = json.dumps(answer.to_json_dict(), separators=(",", ":"))
        return f"{name} n={n} J={','.join(map(str, J))} {args}\t{answer}\n"

    rng = random.Random(2034)
    seeded = {k: Fraction(rng.randint(1, 999), rng.randint(100, 999)) for k in range(1, 10)}
    lines = []
    for n in range(3, 10):
        for size in (1, 2, 3):
            for J in itertools.combinations(range(1, n + 1), size):
                for radii in ({k: Fraction(7, 3) for k in J}, {k: seeded[k] for k in J}):
                    if size <= 2:
                        lines.append(line("solve_t5", n, J, radii, solve_t5(n, J, radii)))
                    lines.append(line("solve_t7", n, J, radii, solve_t7(n, J, radii)))
                if size == 3:
                    known = {k: seeded[k] for k in J[:2]}
                    try:
                        r3 = solve_radius_Q(n, J, known)
                    except DegenerateRadiusSystem as exc:
                        lines.append(line("solve_radius_Q", n, J, known, f"DegenerateRadiusSystem: {exc}"))
                        continue
                    lines.append(line("solve_radius_Q", n, J, known, r3))
                    if r3 is not None:
                        radii = {**known, J[2]: r3}
                        lines.append(line("solve_t7", n, J, radii, solve_t7(n, J, radii)))
    for n in (*range(3, 301), 10**6, 10**7):
        lines.append(f"tau_table n={n}\t{' '.join(f'{p},{j}={v}' for (p, j), v in tau_table(n).items())}\n")
    return "".join(lines)


# -- the same answer cold and warm ----------------------------------------------


def clear_caches() -> None:
    """Clear every lru_cache of every loaded hyperoct module, found by its cache_clear."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hyperoct."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# Public entries with a cache under them or a dimension gate of their own, each with
# the arguments that follow n, and dimensions both normal and hostile.
PROBE_ENTRIES = (
    (solve_t5, ([1, 2],)),
    (solve_t7, ([1, 2],)),
    (five_design_possible, ([1, 2],)),
    (seven_design_possible, ([1, 2], 1)),
    (solve_radius_Q, ([1, 2, 3], {1: 1, 2: 2})),
    (tau, (1, 2)),
    (tau_table, ()),
    (layer_sum_f42, (1,)),
    (layer_sum_f63, (1,)),
    (layer_sum_f82, (1,)),
    (layer_sum_f84, (1,)),
    (g_function, (1, 2)),
    (property_g, ()),
    (orbit_size, (1,)),
    (make_config, ([(1, 1, 1)],)),
    (fisher_bound, (1, 5)),
)
PROBE_DIMENSIONS = (5, 5.0, True, 4, 7, 10**7, Fraction(5), 2, 0, -1)


# A tight 48-point 7-design in R^4 (the oracle's warm history scans it to degree 9), and
# exponent tuples whose total hashes like the int 2 of a cached layer residual.
PROBE_CONFIG = tight_7_4d(1, 2, 1)
PROBE_EXPONENTS = ((2.0, 0, 0, 0), (Fraction(2), 0, 0, 0), (2, 0, 0, 0))


def _warm_history() -> None:
    """A fixed run of calls that leaves solver columns at n = 4, 5 and 7, classify's orbit
    sums at n = 5 and the oracle's layer residuals of ``PROBE_CONFIG``."""
    tau_table(5)
    solve_t7(5, [1, 2])
    tau_table(7)
    classify(make_config(5, [(1, 1, 1), (3, 2, Fraction(1, 2))]))
    tau_table(4)
    first_failure(PROBE_CONFIG, 9)


def _outcome(entry, args) -> tuple:
    """("value", the value), or the exception's type and message."""
    try:
        return "value", entry(*args)
    except Exception as exc:
        return type(exc), str(exc)


def cold_warm_differences() -> list[str]:
    """Every probe call whose value, or exception type and message, differs between a
    cold start (all caches cleared) and a start after ``_warm_history``; runs without pytest."""
    calls = [(entry, (n, *args)) for entry, args in PROBE_ENTRIES for n in PROBE_DIMENSIONS]
    calls += [(monomial_residual, (PROBE_CONFIG, exponents)) for exponents in PROBE_EXPONENTS]
    differences = []
    for entry, args in calls:
        clear_caches()
        cold = _outcome(entry, args)
        clear_caches()
        _warm_history()
        warm = _outcome(entry, args)
        if cold != warm:
            differences.append(f"{entry.__name__}{args!r}: cold {cold!r}, warm {warm!r}")
    clear_caches()
    return differences


# One call per integer argument of the public API, and per monomial exponent, each valid
# with v = 2 and called with values that are not ints.  The signature walk in test_strength
# covers every named parameter; this probe adds embed's map entries and the exponents.
INTEGER_PROBE = {
    "tau(5, v, 2)": lambda v: tau(5, v, 2),
    "tau(5, 1, v)": lambda v: tau(5, 1, v),
    "seven_design_possible(5, [1, 3], v)": lambda v: seven_design_possible(5, [1, 3], v),
    "fisher_bound(5, v, 5)": lambda v: fisher_bound(5, v, 5),
    "fisher_bound(5, 1, v)": lambda v: fisher_bound(5, 1, v),
    "full_basis(3, v)": lambda v: full_basis(3, v),
    "criterion_basis(3, v)": lambda v: criterion_basis(3, v),
    "gegenbauer(v, 1)": lambda v: gegenbauer(v, 1),
    "building_block_g(v, 2, 0, 5)": lambda v: building_block_g(v, 2, 0, 5),
    "building_block_g(0, v, 0, 5)": lambda v: building_block_g(0, v, 0, 5),
    "building_block_g(0, 2, v, 5)": lambda v: building_block_g(0, 2, v, 5),
    "embed(x1^2, (v,), 5)": lambda v: embed(Polynomial(1, {((1, 2),): 1}), (v,), 5),
    "Polynomial(v, {})": lambda v: Polynomial(v, {}),
    "double_factorial(v)": double_factorial,
    "monomial_residual(tight_7_4d(1, 2, 1), (v, v, 0, 0))": lambda v: monomial_residual(PROBE_CONFIG, (v, v, 0, 0)),
    "sphere_monomial_average(4, (v, v, 0, 0), 1)": lambda v: sphere_monomial_average(4, (v, v, 0, 0), 1),
    "first_failure(tight_7_4d(1, 2, 1), v)": lambda v: first_failure(PROBE_CONFIG, v),
    "g_function(5, v, 3)": lambda v: g_function(5, v, 3),
}
NOT_INTS = (2.0, Fraction(2), True)


def integer_probe() -> list[str]:
    """Every ``INTEGER_PROBE`` call with a value of ``NOT_INTS`` that does not raise
    ValueError, with what it did instead; runs without pytest."""
    accepted = []
    for label, call in INTEGER_PROBE.items():
        for v in NOT_INTS:
            kind, detail = _outcome(call, (v,))
            if kind == "value" or not issubclass(kind, ValueError):
                accepted.append(f"{label} with v={v!r}: {kind!r} {detail!r}")
    return accepted


if __name__ == "__main__":
    STRENGTH_GOLDEN.write_text(strength_golden_text())
    CLI_GOLDEN.write_text("".join(cli_golden_lines()))
    SOLVER_GOLDEN.write_text(solver_golden_text())
