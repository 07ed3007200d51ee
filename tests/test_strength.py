import json
import random
from fractions import Fraction

import pytest

from helpers import (
    PAPER_TABLE_N4_ERRATA_WITNESSES,
    STRENGTH_GOLDEN,
    design_residual,
    enumerated_layer_sum,
    enumerated_monomial_sum,
    random_configs,
    reference_classify_residuals,
    reference_property_g,
    squared_radius_polynomial,
    strength_golden_text,
)
from hyperoct.harmonic import criterion_f42, criterion_f63, criterion_f82, criterion_f84, embed
from hyperoct.moments import monomials_of_degree
from hyperoct.numeric import binomial
from hyperoct.orbit import make_config
from hyperoct.poly import Polynomial
from hyperoct.solver import solve_t7
from hyperoct.strength import (
    classify,
    g_function,
    layer_sum_f42,
    layer_sum_f63,
    layer_sum_f82,
    layer_sum_f84,
    orbit_sum,
    property_g,
)


class TestGFunction:
    def test_direct_values(self):
        assert g_function(5, 1, 3) == 0
        assert g_function(10, 2, 7) == 0
        assert g_function(4, 1, 3) == -3

    def test_first_and_last(self):
        for n in range(3, 25):
            assert g_function(n, 1, n) == -2 * (n - 1) * (n - 2)

    def test_symmetry(self):
        for n in range(3, 12):
            for k1 in range(1, n + 1):
                for k2 in range(1, n + 1):
                    assert g_function(n, k1, k2) == g_function(n, k2, k1)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            g_function(4, 0, 2)
        with pytest.raises(ValueError):
            g_function(4, 1, 5)
        # a float index would be read as a point between two orbits (13.5 here)
        with pytest.raises(ValueError, match="orbit index must be an int"):
            g_function(5, 1.5, 2)
        with pytest.raises(ValueError, match="orbit index must be an int"):
            g_function(5, 1, True)


class TestPropertyG:
    def test_known_witnesses(self):
        assert property_g(8) == (1, 4)
        assert property_g(9) is None
        assert property_g(136) == (4, 49)

    def test_witnesses_are_zeros(self):
        for n in (1, 2, 5, 11, 50, 100):
            k1, k2 = property_g(n)
            assert g_function(n, k1, k2) == 0

    def test_matches_reference_pair_loop(self):
        for n in range(1, 301):
            assert property_g(n) == reference_property_g(n), n

    def test_multiples_of_three_never_qualify(self):
        for n in range(3, 100, 3):
            assert property_g(n) is None


class TestLayerSums:
    def test_frozen_values(self):
        assert layer_sum_f42(3, 1) == 4
        assert layer_sum_f42(3, 3) == -32
        assert layer_sum_f63(3, 1) == 12
        assert layer_sum_f63(4, 2) == -288
        assert layer_sum_f63(3, 3) == 768
        assert layer_sum_f82(3, 1) == 4
        assert layer_sum_f84(4, 1) == 24

    def test_balanced_index_zeroes_the_pair_sum(self):
        for n in (4, 7, 10, 13):
            assert layer_sum_f42(n, (n + 2) // 3) == 0

    def test_closed_forms_match_enumeration(self):
        f42, f63, f82, f84 = criterion_f42(), criterion_f63(), criterion_f82(), criterion_f84()
        for n in range(3, 9):
            for k in range(1, n + 1):
                assert layer_sum_f42(n, k) == enumerated_layer_sum(f42, n, k), (n, k)
                assert layer_sum_f63(n, k) == enumerated_layer_sum(f63, n, k), (n, k)
                assert layer_sum_f82(n, k) == enumerated_layer_sum(f82, n, k), (n, k)
                if n >= 4:
                    assert layer_sum_f84(n, k) == enumerated_layer_sum(f84, n, k), (n, k)

    def test_four_variable_sum_fit_from_enumeration(self):
        # fit 2^k [a C(n-1,k-1) + b C(n-2,k-2) + c C(n-3,k-3) + d C(n-4,k-4)]
        # on the n=4 column, then verify the fit on held-out dimensions
        f84 = criterion_f84()
        rows, rhs = [], []
        for k in range(1, 5):
            rows.append([Fraction(binomial(3, k - 1)), Fraction(binomial(2, k - 2)),
                         Fraction(binomial(1, k - 3)), Fraction(binomial(0, k - 4))])
            rhs.append(enumerated_layer_sum(f84, 4, k) / Fraction(2**k))
        # triangular solve by elimination
        import copy

        matrix = [row + [b] for row, b in zip(copy.deepcopy(rows), rhs)]
        ncols = 4
        for col in range(ncols):
            pivot = next(r for r in range(col, 4) if matrix[r][col] != 0)
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            inv = 1 / matrix[col][col]
            matrix[col] = [v * inv for v in matrix[col]]
            for r in range(4):
                if r != col and matrix[r][col] != 0:
                    f = matrix[r][col]
                    matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[col])]
        fitted = [matrix[r][4] for r in range(4)]
        assert fitted == [12, -336, 2520, -3780]
        for n in range(5, 9):  # held-out dimensions
            for k in range(1, n + 1):
                predicted = 2**k * sum(
                    int(c) * binomial(n - 1 - i, k - 1 - i) for i, c in enumerate(fitted)
                )
                assert predicted == enumerated_layer_sum(f84, n, k), (n, k)

    def test_pair_degree_eight_sum_positive(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert layer_sum_f82(n, k) > 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            layer_sum_f42(3, 4)
        with pytest.raises(ValueError):
            layer_sum_f84(3, 2)


class TestOrbitSumRule:
    # the hand-derived closed forms this rule replaced: 2^k * sum_m c_m C(n-m, k-m),
    # c_m the coefficient total of the criterion's all-even terms on m variables
    HAND_DERIVED = {
        "f42": (criterion_f42, layer_sum_f42, {1: 2, 2: -6}),
        "f63": (criterion_f63, layer_sum_f63, {1: 6, 2: -90, 3: 180}),
        "f82": (criterion_f82, layer_sum_f82, {1: 2, 2: 14}),
        "f84": (criterion_f84, layer_sum_f84, {1: 12, 2: -336, 3: 2520, 4: -3780}),
    }

    def test_every_monomial_matches_enumeration(self):
        for n in range(1, 7):
            for degree in range(0, 9, 2):
                for exps in monomials_of_degree(n, degree):
                    mono = tuple((v + 1, e) for v, e in enumerate(exps) if e)
                    poly = Polynomial(n, {mono: 1})
                    for k in range(1, n + 1):
                        assert orbit_sum(poly, n, k) == enumerated_monomial_sum(n, k, exps), (n, k, exps)

    def test_criterion_coefficients_by_support_size(self):
        for name, (criterion, _, expected) in self.HAND_DERIVED.items():
            by_support: dict[int, Fraction] = {}
            for mono, coeff in criterion().terms.items():
                if all(e % 2 == 0 for _, e in mono):
                    by_support[len(mono)] = by_support.get(len(mono), 0) + coeff
            assert by_support == expected, name

    def test_layer_sums_equal_hand_derived_closed_forms(self):
        for name, (_, layer_sum, coeffs) in self.HAND_DERIVED.items():
            for n in range(4 if name == "f84" else 1, 16):
                for k in range(1, n + 1):
                    closed = 2**k * sum(c * binomial(n - m, k - m) for m, c in coeffs.items())
                    assert layer_sum(n, k) == closed, (name, n, k)
                    assert type(layer_sum(n, k)) is int

    def test_rational_coefficients_and_odd_terms(self):
        poly = Polynomial(3, {((1, 2),): Fraction(1, 3), ((1, 1), (2, 1)): 5, ((2, 2), (3, 2)): Fraction(-1, 2)})
        for n in range(3, 7):
            for k in range(1, n + 1):
                expected = Fraction(enumerated_monomial_sum(n, k, (2,) + (0,) * (n - 1)), 3) - Fraction(
                    enumerated_monomial_sum(n, k, (0, 2, 2) + (0,) * (n - 3)), 2
                )
                assert orbit_sum(poly, n, k) == expected, (n, k)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            orbit_sum(criterion_f42(), 3, 0)
        with pytest.raises(ValueError):
            orbit_sum(criterion_f42(), 3, 4)
        # otherwise summed as if its variables were among the first n (2 and 24 here)
        with pytest.raises(ValueError, match="5 variables"):
            orbit_sum(Polynomial(5, {((5, 2),): 1}), 3, 1)
        with pytest.raises(ValueError, match="4 variables"):
            orbit_sum(criterion_f84(), 3, 1)


class TestClassify:
    def test_single_balanced_orbit(self):
        cfg = make_config(7, [(3, Fraction(5, 2), Fraction(4, 3))])
        assert classify(cfg).strength == 5

    def test_dual_lattice_union(self):
        cfg = make_config(4, [(1, 1, 1), (2, 4, Fraction(1, 64)), (4, 1, 1)])
        assert classify(cfg).strength == 7

    def test_cuboctahedron(self):
        cfg = make_config(3, [(2, 2, 5)])
        assert classify(cfg).strength == 3

    def test_residual_names_for_three_dimensions(self):
        report = classify(make_config(3, [(1, 1, 1)]))
        assert set(report.residuals) == {"f42_s0", "f42_s1", "f42_s2", "f63_s0", "f63_s1", "f82"}
        assert report.residuals["f42_s0"] == 4

    def test_residual_names_include_f84_for_higher_dimensions(self):
        report = classify(make_config(4, [(1, 1, 1)]))
        assert "f84" in report.residuals

    def test_nine_design_obstruction_always_reported(self):
        result = solve_t7(3, {1, 2, 3}, {1: 1, 2: 2, 3: Fraction(3, 4)})
        report = classify(result.solution)
        assert report.strength == 7
        assert report.residuals[report.nine_design_obstruction] != 0
        assert report.residuals["f82"] > 0

    def test_report_json_round_trip(self):
        report = classify(make_config(3, [(1, 1, 1)]))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["strength"] == 3
        assert data["method"] == "closed-form"
        assert data["residuals"]["f42_s0"] == "4"


class TestClassifierMatchesDefinition:
    def test_residuals_equal_design_residuals_of_criteria(self):
        # the classifier's equations are exactly the defining residuals of
        # the embedded criterion polynomials times radius powers
        cfg = make_config(4, [(1, 2, Fraction(3, 5)), (3, Fraction(1, 2), 2)])
        report = classify(cfg)
        r2poly = squared_radius_polynomial(1, 4)
        f42 = embed(criterion_f42(), (1, 2), 4)
        f63 = embed(criterion_f63(), (1, 2, 3), 4)
        f82 = embed(criterion_f82(), (1, 2), 4)
        f84 = criterion_f84()
        assert design_residual(cfg, f42) == report.residuals["f42_s0"]
        assert design_residual(cfg, r2poly * f42) == report.residuals["f42_s1"]
        assert design_residual(cfg, r2poly * r2poly * f42) == report.residuals["f42_s2"]
        assert design_residual(cfg, f63) == report.residuals["f63_s0"]
        assert design_residual(cfg, r2poly * f63) == report.residuals["f63_s1"]
        assert design_residual(cfg, f82) == report.residuals["f82"]
        assert design_residual(cfg, f84) == report.residuals["f84"]


def _wide_config(n: int, seed: int):
    """Every k = 1..n a layer, r^2 and w drawn at 3-digit denominators: the r^2
    denominators are distinct over each run of 900 layers, and no two layers share
    both, so the residual denominators grow as far as they can."""
    rng = random.Random(seed)
    r2_dens = rng.sample(range(100, 1000), 900)
    pairs, layers = set(), []
    for k in range(1, n + 1):
        q = r2_dens[(k - 1) % 900]
        b = rng.randint(100, 999)
        while (q, b) in pairs:
            b = rng.randint(100, 999)
        pairs.add((q, b))
        layers.append((k, Fraction(rng.randint(1, 999), q), Fraction(rng.randint(1, 999), b)))
    return make_config(n, layers)


class TestIntegerResiduals:
    """classify sums each residual in integers and reduces it once; every residual
    equals the term-by-term Fraction sum it replaced."""

    @staticmethod
    def _assert_reference(cfg):
        residuals = classify(cfg).residuals
        assert list(residuals.items()) == list(reference_classify_residuals(cfg).items())
        assert all(type(v) is Fraction for v in residuals.values())

    def test_random_errata_and_property_g_configs(self):
        designs = [
            solve_t7(n, (k1, k2), {k1: 1, k2: 1}).solution
            for n in range(3, 15)
            for k1 in range(1, n + 1)
            for k2 in range(k1 + 1, n + 1)
            if g_function(n, k1, k2) == 0
        ]
        assert len(designs) == 8 and all(classify(d).strength == 7 for d in designs)
        for cfg in [*random_configs(), *PAPER_TABLE_N4_ERRATA_WITNESSES.values(), *designs]:
            self._assert_reference(cfg)

    @pytest.mark.parametrize("n", [40, 200, 1000])
    def test_wide_configs_at_distinct_denominators(self, n):
        self._assert_reference(_wide_config(n, seed=n))


def test_classify_and_oracle_match_golden_file():
    # the file was written by helpers.strength_golden_text() before classify and the
    # oracle summed their residuals in integers
    assert strength_golden_text() == STRENGTH_GOLDEN.read_text()
