from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import evaluate, laplacian, reference_building_block_g
from hyperoct.harmonic import criterion_f42, criterion_f63
from hyperoct.poly import (
    Polynomial,
    building_block_g,
    gegenbauer,
    mono_degree,
)


def x(i, n):
    return Polynomial(n, {((i, 1),): 1})


def degrees(p):
    return {mono_degree(mono) for mono in p.terms}


class TestEvaluate:
    def test_pair_criterion_at_ones(self):
        assert evaluate(criterion_f42(), [1, 1]) == -4

    def test_pair_criterion_single_term(self):
        assert evaluate(criterion_f42(), [1, 0]) == 1

    def test_triple_criterion_at_ones(self):
        # direct expansion: 2*3 - 15*6 + 180 = 96
        assert evaluate(criterion_f63(), [1, 1, 1]) == 96

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(criterion_f42(), [1, 2, 3])

    def test_rational_point(self):
        p = x(1, 2) ** 2 - x(2, 2) ** 2
        assert evaluate(p, [Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 36)


class TestLaplacian:
    def test_difference_of_squares(self):
        p = x(1, 2) ** 2 - x(2, 2) ** 2
        assert not laplacian(p).terms

    def test_pair_criterion_is_harmonic(self):
        assert not laplacian(criterion_f42()).terms

    def test_power_rule(self):
        p = x(1, 1) ** 4
        assert laplacian(p) == 12 * x(1, 1) ** 2


def small_polys(nvars=3, max_degree=3):
    monos = st.dictionaries(
        st.integers(min_value=1, max_value=nvars),
        st.integers(min_value=1, max_value=max_degree),
        max_size=nvars,
    )
    coeffs = st.fractions(min_value=-5, max_value=5)
    term = st.tuples(monos, coeffs).map(lambda t: Polynomial(nvars, {tuple(sorted(t[0].items())): t[1]}))
    return st.lists(term, max_size=5).map(lambda terms: sum(terms, Polynomial(nvars)))


@settings(max_examples=60)
@given(small_polys(), small_polys(), st.fractions(min_value=-4, max_value=4), st.fractions(min_value=-4, max_value=4))
def test_laplacian_is_linear(p, q, a, b):
    combined = laplacian(a * p + b * q)
    assert combined == a * laplacian(p) + b * laplacian(q)


class TestGegenbauer:
    def test_degree_zero_is_constant(self):
        g = gegenbauer(0, Fraction(3, 2))
        assert g.coefficients == (Fraction(1),)

    def test_degree_one_is_odd(self):
        g = gegenbauer(1, Fraction(1, 2))
        assert g.coefficients[0] == 0 and g.coefficients[1] != 0

    def test_legendre_quadratic(self):
        g = gegenbauer(2, Fraction(1, 2))
        c = g.coefficients[2] / 3
        assert g.coefficients == (-c, Fraction(0), 3 * c) and c != 0

    def test_parity(self):
        for s in range(11):
            for twice_alpha in range(1, 10):
                g = gegenbauer(s, Fraction(twice_alpha, 2))
                assert all(c == 0 for i, c in enumerate(g.coefficients) if (i - s) % 2)

    def test_root_count_on_interval(self):
        import sympy

        x = sympy.Symbol("x")
        for s in range(1, 11):
            for twice_alpha in range(1, 10):
                g = gegenbauer(s, Fraction(twice_alpha, 2))
                coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(g.coefficients)]
                assert sympy.Poly(coeffs, x).count_roots(-1, 1) == s

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            gegenbauer(2, Fraction(-3, 2))
        with pytest.raises(ValueError, match="degree must be non-negative"):
            gegenbauer(-1, 1)

    def test_matches_rodrigues_formula(self):
        # the scale of every coefficient, not only the shape, feeds the rendered bases
        import sympy

        x = sympy.Symbol("x")
        half = sympy.Rational(1, 2)
        for s in range(7):
            for twice_alpha in (-1, 0, 1, 3, 6):
                a = sympy.Rational(twice_alpha, 2)
                rodrigues = (
                    (-1) ** s / (2**s * sympy.factorial(s)) * (1 - x**2) ** (half - a)
                    * sympy.diff((1 - x**2) ** (a + s - half), x, s)
                )
                expected = sympy.Poly(sympy.cancel(sympy.simplify(rodrigues)), x).all_coeffs()[::-1]
                got = [sympy.Rational(c.numerator, c.denominator) for c in gegenbauer(s, Fraction(twice_alpha, 2)).coefficients]
                assert got == expected + [0] * (s + 1 - len(expected))


class TestBuildingBlock:
    def test_equal_indices_give_constant(self):
        g = building_block_g(0, 3, 3, 5)
        assert set(g.terms) == {()}

    def test_difference_one_gives_single_variable(self):
        g = building_block_g(1, 2, 1, 5)
        assert set(g.terms) == {((2, 1),)}

    def test_difference_two_is_homogeneous_quadratic(self):
        g = building_block_g(0, 2, 0, 4)
        assert degrees(g) == {2}

    def test_trailing_variables_even_exponents(self):
        for n in range(3, 7):
            for k in range(n - 2):
                for m1 in range(9):
                    for m0 in range(m1, 9):
                        g = building_block_g(k, m0, m1, n)
                        assert g == reference_building_block_g(k, m0, m1, n), (k, m0, m1, n)
                        assert degrees(g) == {m0 - m1}
                        for mono in g.terms:
                            for v, e in mono:
                                if v >= k + 2:
                                    assert e % 2 == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            building_block_g(3, 2, 1, 5)  # k > n-3
        with pytest.raises(ValueError):
            building_block_g(0, 1, 2, 5)  # m_k < m_{k+1}


class TestRendering:
    def test_graded_lex_order(self):
        p = 2 * x(2, 2) + x(1, 2) ** 2 * x(2, 2) ** 2 - 3
        assert p.canonical_str() == "x1^2*x2^2+2*x2-3"
        q = x(1, 3) ** 2 * x(2, 3) + x(1, 3) * x(2, 3) ** 2 + x(3, 3) ** 3
        assert q.canonical_str() == "x1^2*x2+x1*x2^2+x3^3"

    def test_zero(self):
        assert Polynomial(2).canonical_str() == "0"

    def test_pair_criterion(self):
        assert criterion_f42().canonical_str() == "x1^4-6*x1^2*x2^2+x2^4"


class TestArithmetic:
    def test_power(self):
        p = x(1, 2) + x(2, 2)
        assert (p**2) == x(1, 2) ** 2 + 2 * x(1, 2) * x(2, 2) + x(2, 2) ** 2

    def test_mixed_nvars_rejected(self):
        with pytest.raises(ValueError):
            x(1, 2) + x(1, 3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative powers"):
            x(1, 2) ** -1

    @pytest.mark.parametrize("nvars, terms, message", [
        (-1, {}, "nvars must be non-negative"),
        (2, {((3, 2),): 1}, r"variable x3 out of range 1\.\.2"),
        (2, {((0, 2),): 1}, r"variable x0 out of range 1\.\.2"),
        (2, {((1, 0),): 1}, "stored exponents must be positive"),
        (2, {((1, -2),): 1}, "stored exponents must be positive"),
    ])
    def test_malformed_polynomial_rejected(self, nvars, terms, message):
        with pytest.raises(ValueError, match=message):
            Polynomial(nvars, terms)

    def test_rename_needs_an_injective_map_of_every_variable(self):
        with pytest.raises(ValueError, match="must be injective"):
            criterion_f42().rename_variables({1: 2, 2: 2}, 4)
        with pytest.raises(ValueError, match="variable x2 missing from mapping"):
            criterion_f42().rename_variables({1: 3}, 4)

    def test_scalar_ops(self):
        p = Fraction(1, 2) * x(1, 1) - 1
        assert evaluate(p, [4]) == 1

    def test_rename(self):
        p = criterion_f42().rename_variables({1: 2, 2: 4}, 4)
        assert evaluate(p, [0, 1, 0, 1]) == -4
