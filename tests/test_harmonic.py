import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    degree,
    fully_even_dimension,
    harm_dimension,
    laplacian,
    matrix_rank,
    rank_of_polynomials,
    reference_full_basis,
)
from hyperoct import harmonic
from hyperoct.harmonic import (
    criterion_basis,
    criterion_f42,
    criterion_f62,
    criterion_f63,
    criterion_f82,
    criterion_f831,
    criterion_f832,
    criterion_f84,
    embed,
    full_basis,
    fully_even_subset,
)
from hyperoct.moments import monomials_of_degree
from hyperoct.numeric import binomial
from hyperoct.poly import Polynomial, mono_degree


def is_fully_even(poly):
    return all(e % 2 == 0 for mono in poly.terms for _, e in mono)


# sha256 of "[index] canonical_str\n" per element, as the element-by-element product loop
# (helpers.reference_full_basis) renders them; that loop takes seconds on these two
PINNED_BASIS_DIGESTS = {
    (5, 8): "e3bf596f890364187461ce0edb0f3d6730c8bb723040c2f8fa950534e58e10d3",
    (6, 8): "db34f3fa8a1762dedf3c1e60490e191bb99a32b3125380495b26074b49ac57f7",
}


@pytest.fixture(scope="module")
def largest_bases():
    return {key: full_basis(*key) for key in PINNED_BASIS_DIGESTS}


class TestFullBasis:
    def test_counts_match_dimension(self):
        assert len(full_basis(3, 2)) == 5
        assert len(full_basis(3, 1)) == 3
        assert len(full_basis(4, 4)) == 25

    def test_cardinality_chain(self):
        for n in range(3, 7):
            for s in range(1, 9):
                lhs = 2 * binomial(n + s - 3, n - 2) + binomial(n + s - 3, n - 3)
                assert lhs == harm_dimension(n, s)

    def test_matches_reference_product_loop(self):
        for n in range(3, 7):
            for s in range(1, 9):
                if (n, s) not in PINNED_BASIS_DIGESTS:
                    assert full_basis(n, s) == reference_full_basis(n, s), (n, s)

    def test_largest_bases_match_pinned_renderings(self, largest_bases):
        for key, basis in largest_bases.items():
            text = "".join(f"{list(el.index)} {el.poly.canonical_str()}\n" for el in basis)
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BASIS_DIGESTS[key], key

    def test_builds_each_block_once(self, monkeypatch):
        # 825 elements of 4 blocks each, from 144 distinct (k, m_k, m_(k+1))
        calls = Counter()
        build = harmonic._block_form

        def counted(k, m_k, m_k1, n):
            calls[k, m_k, m_k1] += 1
            return build(k, m_k, m_k1, n)

        monkeypatch.setattr(harmonic, "_block_form", counted)
        full_basis(6, 8)
        assert len(calls) == 144 and sum(calls.values()) == 144

    def test_elements_are_harmonic_homogeneous(self, largest_bases):
        bases = {(n, s): full_basis(n, s) for n, s in [(3, 4), (4, 3), (4, 6), (5, 4)]}
        for (n, s), basis in {**bases, **largest_bases}.items():
            for el in basis:
                assert not laplacian(el.poly).terms, (n, s, el.index)
                assert {mono_degree(mono) for mono in el.poly.terms} == {s}

    def test_index_constraints(self):
        for el in full_basis(4, 5):
            ms = el.m_values
            assert ms[0] == 5
            assert all(a >= b for a, b in zip(ms, ms[1:]))
            assert 1 <= el.mu <= min(2, ms[-1] + 1)

    def test_linear_independence_small(self):
        for n, s in [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4)]:
            polys = [el.poly for el in full_basis(n, s)]
            assert rank_of_polynomials(polys) == len(polys)

    def test_caps(self):
        with pytest.raises(ValueError):
            full_basis(7, 2)
        with pytest.raises(ValueError):
            full_basis(3, 9)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            full_basis(2, 2)
        with pytest.raises(ValueError):
            full_basis(3, 0)


class TestFullyEven:
    def test_counts(self):
        assert len(fully_even_subset(full_basis(3, 2))) == 2
        assert len(fully_even_subset(full_basis(4, 4))) == 6
        assert len(fully_even_subset(full_basis(3, 8))) == 5

    def test_count_formula(self):
        for n in range(3, 6):
            for s in (2, 4, 6, 8):
                subset = fully_even_subset(full_basis(n, s))
                assert len(subset) == fully_even_dimension(n, s)
                assert all(is_fully_even(el.poly) for el in subset)

    def test_index_characterization(self):
        for el in full_basis(4, 4):
            expected = el.mu == 1 and all(m % 2 == 0 for m in el.m_values)
            assert is_fully_even(el.poly) == expected


class TestCriterionBasis:
    def test_degree_two(self):
        basis = criterion_basis(3, 2)
        assert len(basis) == 2
        x1, x2, x3 = (Polynomial(3, {((i, 1),): 1}) for i in (1, 2, 3))
        assert basis.elements == (x1**2 - x3**2, x2**2 - x3**2)

    def test_degree_four_count(self):
        assert len(criterion_basis(4, 4)) == 6

    def test_degree_eight_count(self):
        assert len(criterion_basis(4, 8)) == 6 + 8 + 1

    def test_three_dimensional_degree_eight_drops_four_variable_seed(self):
        basis = criterion_basis(3, 8)
        assert len(basis) == 5 == fully_even_dimension(3, 8)

    def test_all_harmonic_and_independent(self):
        for n in range(3, 7):
            for s in (2, 4, 6, 8):
                basis = criterion_basis(n, s)
                assert len(basis) == fully_even_dimension(n, s)
                for p in basis.elements:
                    assert not laplacian(p).terms
                    assert is_fully_even(p)
                    assert {mono_degree(mono) for mono in p.terms} == {s}
                assert rank_of_polynomials(list(basis.elements)) == len(basis)

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            criterion_basis(4, 10)

    def test_rejects_a_dimension_below_three(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            criterion_basis(2, 4)


class TestSkewSymmetry:
    def test_swap_negates(self):
        # polynomials that are skew under a transposition sum to zero on
        # any fully symmetric set; verify the polynomial identity itself
        cases = [
            (criterion_f62(), {1: 2, 2: 1}, 2),
            (criterion_f831(), {1: 2, 2: 1, 3: 3}, 3),
            (criterion_f832(), {1: 3, 2: 2, 3: 1}, 3),
        ]
        for poly, swap, nv in cases:
            assert poly.rename_variables(swap, nv) == -poly


class TestEmbed:
    def test_identity(self):
        f = criterion_f42()
        assert embed(f, (1, 2), 2) == f

    def test_renaming(self):
        f = embed(criterion_f42(), (2, 4), 4)
        x2, x4 = Polynomial(4, {((2, 1),): 1}), Polynomial(4, {((4, 1),): 1})
        assert f == x2**4 - 6 * x2**2 * x4**2 + x4**4

    def test_harmonicity_preserved(self):
        f = embed(criterion_f63(), (1, 3, 4), 4)
        assert not laplacian(f).terms

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            embed(criterion_f42(), (2, 2), 4)
        with pytest.raises(ValueError):
            embed(criterion_f42(), (3, 1), 4)
        with pytest.raises(ValueError):
            embed(criterion_f42(), (1, 5), 4)

    def test_a_map_of_the_wrong_length_rejected(self):
        for g in [(1,), (1, 2, 3)]:
            with pytest.raises(ValueError, match="must cover every variable"):
                embed(criterion_f42(), g, 4)


def test_matrix_rank_basics():
    assert matrix_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert matrix_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2


GOLDEN_RENDERINGS = {
    ("f42",): "x1^4-6*x1^2*x2^2+x2^4",
    ("f62",): "x1^6-15*x1^4*x2^2+15*x1^2*x2^4-x2^6",
    ("f63",): "2*x1^6-15*x1^4*x2^2-15*x1^4*x3^2-15*x1^2*x2^4+180*x1^2*x2^2*x3^2"
    "-15*x1^2*x3^4+2*x2^6-15*x2^4*x3^2-15*x2^2*x3^4+2*x3^6",
    ("f82",): "x1^8-28*x1^6*x2^2+70*x1^4*x2^4-28*x1^2*x2^6+x2^8",
}


def test_canonical_renderings_are_stable():
    builders = {"f42": criterion_f42, "f62": criterion_f62, "f63": criterion_f63, "f82": criterion_f82}
    for (name,), expected in GOLDEN_RENDERINGS.items():
        assert builders[name]().canonical_str() == expected


def test_four_variable_seed_structure():
    f = criterion_f84()
    assert f.nvars == 4 and degree(f) == 8 and len(f.terms) == 4 + 12 + 12 + 1
    assert f.terms[((1, 2), (2, 2), (3, 2), (4, 2))] == -3780


def test_criterion_bases_match_golden_file():
    from pathlib import Path

    golden = (Path(__file__).parent / "data" / "criterion_bases_golden.txt").read_text()
    lines = []
    for n in (3, 4):
        for s in (2, 4, 6, 8):
            for i, poly in enumerate(criterion_basis(n, s).elements):
                lines.append(f"n={n} s={s} [{i}] {poly.canonical_str()}")
    assert "\n".join(lines) + "\n" == golden


def _random_partition(rng, degree: int, parts: int) -> tuple[int, ...]:
    """A random partition of degree into at most `parts` parts, in decreasing order."""
    cuts = sorted(rng.randint(0, degree) for _ in range(parts - 1))
    return tuple(sorted(filter(None, (b - a for a, b in zip([0, *cuts], [*cuts, degree]))), reverse=True))


def test_symmetric_puts_each_coefficient_on_every_arrangement():
    # brute force over every exponent tuple: its coefficient is the table's entry for its
    # sorted nonzero exponents, or 0 when the table has none
    rng = random.Random(30)
    for _ in range(60):
        v, d = rng.randint(1, 5), rng.choice((2, 4, 6, 8, 10))
        table = {_random_partition(rng, d, v): rng.randint(-50, 50) or 1 for _ in range(rng.randint(1, 4))}
        poly = harmonic._symmetric(v, table)
        assert poly.nvars == v
        for exps in monomials_of_degree(v, d):
            mono = tuple((i, e) for i, e in enumerate(exps, start=1) if e)
            want = table.get(tuple(sorted(filter(None, exps), reverse=True)), 0)
            assert poly.terms.get(mono, 0) == want, (v, table, exps)
