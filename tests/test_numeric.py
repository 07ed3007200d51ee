import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import matrix_rank, nullspace, rref
from hyperoct.moments import sphere_monomial_average
from hyperoct.numeric import as_rational, binomial, double_factorial, format_rational, fraction_sum
from hyperoct.orbit import make_config
from hyperoct.poly import Polynomial, gegenbauer
from hyperoct.solver import solve_radius_Q, solve_t5
from hyperoct.tight import tight_5_3d


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 3) == 20
    assert binomial(6, 3) == math.factorial(6) // (math.factorial(3) ** 2)


def test_binomial_out_of_range_is_zero():
    assert binomial(2, 3) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 0) == 0
    assert binomial(-3, -4) == 0


def test_binomial_pascal_identity():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_vandermonde_convolution():
    # C(n+s/2-2, n-2) = sum_j C(s/2-2, j-2) C(n, j) for even s
    for s in range(4, 13, 2):
        for n in range(3, 21):
            lhs = binomial(n + s // 2 - 2, n - 2)
            rhs = sum(binomial(s // 2 - 2, j - 2) * binomial(n, j) for j in range(2, s // 2 + 1))
            assert lhs == rhs, (n, s)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


@given(st.integers(min_value=-1, max_value=40))
def test_double_factorial_matches_iterated_product(m):
    expected = 1
    for value in range(m, 1, -2):
        expected *= value
    assert double_factorial(m) == expected


@given(st.fractions())
def test_rational_text_round_trip(q):
    assert as_rational(format_rational(q)) == q


def test_as_rational_accepts_common_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("5/8") == Fraction(5, 8)
    assert as_rational(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_rational(0.5)


# every entry point that takes an exact value from a caller, fed through one argument
RATIONAL_ENTRY_POINTS = {
    "as_rational": as_rational,
    "make_config-r_squared": lambda v: make_config(3, [(1, v, 1)]),
    "make_config-weight": lambda v: make_config(3, [(1, 1, v)]),
    "solve_t5-radius": lambda v: solve_t5(3, [1, 3], {1: v}),
    "solve_radius_Q-known": lambda v: solve_radius_Q(3, (1, 2, 3), {1: v, 2: 2}),
    "tight_5_3d-r_squared": lambda v: tight_5_3d(v, 2),
    "tight_5_3d-rho_squared": lambda v: tight_5_3d(1, v),
    "tight_5_3d-weight": lambda v: tight_5_3d(1, 2, v),
    "Polynomial-coefficient": lambda v: Polynomial(1, {((1, 1),): v}),
    "gegenbauer-alpha": lambda v: gegenbauer(2, v),
    "sphere_monomial_average-r_squared": lambda v: sphere_monomial_average(3, (2, 0, 0), v),
}


@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRY_POINTS))
@pytest.mark.parametrize(
    "value, error",
    # a bool is an int only by inheritance and 0.5 a binary approximation; "1/0" must not leak ZeroDivisionError
    [(True, TypeError), (0.5, TypeError), ("1/0", ValueError), ("x", ValueError)],
)
def test_inexact_or_malformed_rationals_are_refused(entry, value, error):
    with pytest.raises(error):
        RATIONAL_ENTRY_POINTS[entry](value)


def test_a_fraction_passes_the_gate_unchanged():
    q = Fraction(3, 7)
    assert as_rational(q) is q
    assert Polynomial(1, {((1, 1),): q}).terms[((1, 1),)] is q


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    # low-rank products plus all-zero rows, so pivots get skipped
    rank = rng.randint(0, min(nrows, ncols))
    left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum((row[i] * right[i][j] for i in range(rank)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]
    for i in rng.sample(range(nrows), rng.randint(0, nrows)):
        rows[i] = [Fraction(0)] * ncols
    return rows


def test_rref_rank_plus_nullity_is_ncols():
    rng = random.Random(2024)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols)
        reduced, pivots = rref(rows, ncols)
        basis = nullspace(rows, ncols)
        assert len(pivots) + len(basis) == ncols
        assert matrix_rank(rows) == len(pivots)
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        # reduced echelon form: unit pivots, zero elsewhere in pivot columns, zero rows below
        assert pivots == sorted(pivots)
        for r, col in enumerate(pivots):
            assert [row[col] for row in reduced] == [Fraction(int(i == r)) for i in range(nrows)]
        assert all(v == 0 for row in reduced[len(pivots):] for v in row)


def test_rref_empty_and_zero_matrices():
    assert rref([], 0) == ([], [])
    assert rref([], 3) == ([], [])
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert matrix_rank([]) == 0
    zeros = [[0, 0, 0], [0, 0, 0]]
    assert rref(zeros, 3) == (zeros, [])
    assert matrix_rank(zeros) == 0
    assert len(nullspace(zeros, 3)) == 3


def test_fraction_sum_of_nothing_is_zero():
    assert fraction_sum([]) == 0 and type(fraction_sum([])) is Fraction


def test_fraction_sum_equals_the_fraction_sum_reduced():
    rng = random.Random(18)
    for _ in range(300):
        pairs = [(rng.randint(-10**6, 10**6), rng.choice((1, 2, 6, rng.randint(1, 10**4)))) for _ in range(rng.randint(1, 12))]
        total = fraction_sum(pairs)
        assert total == sum((Fraction(num, den) for num, den in pairs), Fraction(0))
        assert math.gcd(total.numerator, total.denominator) == 1 and total.denominator > 0
    assert fraction_sum([(1, 6), (1, 3), (1, 2)]) == 1


@pytest.mark.parametrize("den", [0, -3])
def test_fraction_sum_refuses_a_denominator_that_is_not_positive(den):
    with pytest.raises(ValueError, match="denominator must be positive"):
        fraction_sum([(1, 2), (1, den)])
