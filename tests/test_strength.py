import inspect
import json
import random
from fractions import Fraction

import pytest

import hyperoct
from helpers import (
    PAPER_TABLE_N4_ERRATA_WITNESSES,
    STRENGTH_GOLDEN,
    design_residual,
    enumerated_layer_sum,
    enumerated_monomial_sum,
    grouped_sum,
    orbit_sum,
    p_value,
    random_configs,
    reference_classify_residuals,
    reference_property_g,
    squared_radius_polynomial,
    strength_golden_text,
    support_sums,
    vanishes_identically,
)
from hyperoct.harmonic import criterion_f42, criterion_f63, criterion_f82, criterion_f84, embed
from hyperoct.moments import monomials_of_degree
from hyperoct.numeric import binomial
from hyperoct.orbit import Layer, make_config
from hyperoct.poly import Polynomial
from hyperoct.solver import solve_t5, solve_t7
from hyperoct import strength
from hyperoct.strength import (
    _EQUATIONS,
    _criterion_sums,
    _reduced_sum,
    classify,
    g_function,
    layer_sum_f42,
    layer_sum_f63,
    layer_sum_f82,
    layer_sum_f84,
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

    def test_accepts_every_witness_property_g_returns(self):
        # both entries of the n = 10^7 witness are above orbit.INDEX_CAP; G forms no 2^k,
        # so its gate is 1 <= k <= n alone
        n = 10**7
        assert property_g(n) == (516040, 3796994)
        assert g_function(n, *property_g(n)) == 0
        for k1, k2 in ((True, 3796994), (516040.0, 3796994), (0, 3796994), (516040, n + 1)):
            with pytest.raises(ValueError):
                g_function(n, k1, k2)


class TestPropertyG:
    def test_known_witnesses(self):
        assert property_g(8) == (1, 4)
        assert property_g(9) is None
        assert property_g(136) == (4, 49)

    def test_witnesses_are_zeros(self):
        for n in (1, 2, 5, 11, 50, 100):
            k1, k2 = property_g(n)
            assert g_function(n, k1, k2) == 0

    def test_a_dimension_below_one_is_refused(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            property_g(0)

    def test_matches_reference_pair_loop(self):
        for n in range(1, 301):
            assert property_g(n) == reference_property_g(n), n

    def test_the_diagonal_has_no_zero(self):
        """G(n, k, k) = (n+2-3k)^2 + 6(k-1)^2 + 2(n-1) > 0 for n >= 2: property_g's test
        k1 <= k2 may read k1 < k2.  It may not be dropped: G(4, 2, 0) = 0 is a zero at no
        index, and n = 4 has no pair."""
        def diff(n, k):
            return g_function(n, k, k) - (n + 2 - 3 * k) ** 2 - 6 * (k - 1) ** 2 - 2 * (n - 1)

        assert vanishes_identically(diff, (2, 2), (4, 1))
        assert (4 + 2 - 3 * 2) * (4 + 2 - 3 * 0) + 6 * (2 - 1) * (0 - 1) + 2 * (4 - 1) == 0
        assert property_g(4) is None and reference_property_g(4) is None

    # the n mod 3 law is checked against property_g up to here; the proofs hold for every n
    LAW_CHECKED_TO = 3000

    def test_g_is_a_product_plus_a_constant(self):
        """15 G(n, k1, k2) = XY + 6(n-1)(n+4), with X = 15 k1 - 3n - 12 and Y = 15 k2 - 3n - 12.

        Both sides have degree 2 in n and 1 in each index, so agreeing on a
        3 x 2 x 2 grid makes them equal for every n, k1, k2.
        """
        def diff(n, k1, k2):
            x, y = 15 * k1 - 3 * n - 12, 15 * k2 - 3 * n - 12
            return 15 * g_function(n, k1, k2) - x * y - 6 * (n - 1) * (n + 4)

        assert vanishes_identically(diff, (2, 1, 1), (3, 1, 1))

    def test_n_2_mod_3_pairs_the_first_orbit(self):
        """G(n, 1, k) = (n-1)(n+4-3k): for n = 2 (mod 3) its zero k = (n+4)/3 is an
        orbit index, and property_g, which tries k1 = 1 first, returns (1, (n+4)/3)."""
        assert vanishes_identically(lambda n, k: g_function(n, 1, k) - (n - 1) * (n + 4 - 3 * k), (2, 1), (3, 1))
        for n in range(2, self.LAW_CHECKED_TO, 3):
            assert property_g(n) == (1, (n + 4) // 3), n

    def test_multiples_of_three_never_qualify(self):
        """For n = 3m, X = 3(5 k1 - 3m - 4) and Y are multiples of 3, so 9 divides XY, while
        (n-1)(n+4) = 9(m^2 + m) - 4 makes 6(n-1)(n+4) = 3 (mod 9): 15 G = XY + 6(n-1)(n+4)
        is never 0, and property_g(n) is None."""
        assert vanishes_identically(lambda m: (3 * m - 1) * (3 * m + 4) - 9 * (m * m + m) + 4, (2,), (1,))
        assert 6 * -4 % 9 == 3
        for n in range(3, self.LAW_CHECKED_TO, 3):
            assert property_g(n) is None, n


class TestLayerSums:
    @pytest.mark.parametrize("eq, criterion", [
        ("f42", criterion_f42), ("f63", criterion_f63), ("f82", criterion_f82), ("f84", criterion_f84),
    ])
    def test_support_sum_tables_are_those_of_the_criteria(self, eq, criterion):
        # strength writes the tables out as literals, so its import builds no polynomial
        assert _EQUATIONS[eq][0] == support_sums(criterion())

    def test_criterion_sums_are_the_grouped_sums_of_the_table(self):
        # classify's cached orbit sums per (n, k), in table order; a cached entry is shared
        # by every caller, so it must be an immutable tuple of ints
        for n in range(1, 41):
            for k in range(1, n + 1):
                sums = _criterion_sums(n, k)
                assert type(sums) is tuple and all(type(g) is int for g in sums), (n, k)
                assert sums == tuple(grouped_sum(row, n, k) for row, _, _ in _EQUATIONS.values()), (n, k)

    def test_a_warm_classify_computes_no_binomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"binomial{args} called")

        cfg = make_config(7, [(1, 2, 3), (4, Fraction(1, 3), Fraction(5, 7)), (7, 1, 1)])
        report = classify(cfg)
        monkeypatch.setattr(strength, "binomial", refuse)
        assert classify(cfg) == report

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

    def test_pair_degree_eight_sum_positive_for_every_n(self):
        """layer_sum_f82(n, k) = sum_m c_m 2^k C(n-m, k-m) over its support sums c_m (the
        orbit-sum rule, tested above).  Every c_m is positive, every count is >= 0, and the
        m = 1 count 2^k C(n-1, k-1) is positive for 1 <= k <= n, so the sum is positive for
        every n and every orbit: with positive weights no union is a 9-design."""
        sums = _EQUATIONS["f82"][0]  # {1: 2, 2: 14}
        assert 1 in sums and all(c > 0 for c in sums.values())

    def test_pair_sum_has_the_sign_of_p_for_every_n(self):
        """_reduced_sum(f42, n, k) = 2(n + 2 - 3k) for every n >= 2, k >= 1.  The f42 table
        has M = 2, so each term c_m (k-1)_(m-1) (n-m)_(2-m) has degree m - 1 <= 1 in k and
        2 - m <= 1 in n, as has the right side: agreement on a 3 x 3 grid proves it.  So
        solver's column a_k = k _reduced_sum = 2k(n + 2 - 3k) for every n, and as
        layer_sum_f42 is _reduced_sum times the positive 2^k C(n-1, k-1) / (n-1),
        sign(layer_sum_f42) = sign(n + 2 - 3k) = sign(p_value), as p_value (n-1) = k(n + 2 - 3k)."""
        sums = _EQUATIONS["f42"][0]
        assert max(sums) == 2
        assert vanishes_identically(lambda n, k: _reduced_sum(sums, n, k) - 2 * (n + 2 - 3 * k), (2, 2), (2, 1))
        assert vanishes_identically(lambda n, k: p_value(n, k) * (n - 1) - k * (n + 2 - 3 * k), (1, 2), (2, 1))
        for n in range(2, 41):
            for k in range(1, n + 1):
                assert layer_sum_f42(n, k) * (n - 1) == 2 ** (k + 1) * binomial(n - 1, k - 1) * (n + 2 - 3 * k), (n, k)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="need 1 <= k <= n, got k=4, n=3"):
            layer_sum_f42(3, 4)
        with pytest.raises(ValueError, match="n >= 4"):
            layer_sum_f84(3, 2)

    # Every public callable with an integer parameter, by a call that is valid as written.
    INTEGER_NAMES = {"n", "k", "k1", "k2", "p", "t", "j", "t_max", "s", "m", "m_k", "m_k1", "nvars"}
    VALID_CALLS = {
        "DesignConfig": {"n": 5, "layers": (Layer(1, 1, 1),)},
        "Layer": {"k": 1, "r_squared": 1, "weight": 1},
        "Polynomial": {"nvars": 2},
        "building_block_g": {"k": 0, "m_k": 2, "m_k1": 0, "n": 5},
        "criterion_basis": {"n": 5, "s": 4},
        "double_factorial": {"m": 5},
        "embed": {"f": Polynomial(1, {((1, 2),): 1}), "g": (2,), "n": 5},
        "first_failure": {"cfg": make_config(3, [(1, 1, 1)]), "t_max": 5},
        "fisher_bound": {"n": 5, "p": 1, "t": 5},
        "five_design_possible": {"n": 5, "J": (1, 2)},
        "full_basis": {"n": 5, "s": 2},
        "g_function": {"n": 5, "k1": 1, "k2": 2},
        "gegenbauer": {"s": 2, "alpha": 1},
        "layer_sum_f42": {"n": 5, "k": 1},
        "layer_sum_f63": {"n": 5, "k": 1},
        "layer_sum_f82": {"n": 5, "k": 1},
        "layer_sum_f84": {"n": 5, "k": 1},
        "make_config": {"n": 5, "layers": [(1, 1, 1)]},
        "max_strength_oracle": {"cfg": make_config(3, [(1, 1, 1)]), "t_max": 5},
        "orbit_size": {"n": 5, "k": 1},
        "property_g": {"n": 5},
        "seven_design_possible": {"n": 5, "J": (1, 2), "p": 1},
        "solve_radius_Q": {"n": 5, "ks": (1, 2, 3), "known": {1: 1, 2: 2}},
        "solve_t5": {"n": 5, "J": (1, 2)},
        "solve_t7": {"n": 5, "J": (1, 2)},
        "sphere_monomial_average": {"n": 5, "exponents": (2, 0, 0, 0, 0), "r_squared": 1},
        "tau": {"n": 5, "p": 1, "j": 2},
        "tau_table": {"n": 5},
        "verify_strength": {"cfg": make_config(3, [(1, 1, 1)]), "t": 5},
    }
    UNGATED = {
        "binomial": "its documented convention takes any arguments unchecked, out of range giving 0",
        "CriterionBasis": "a result record, which stores its fields unchecked (README)",
        "FisherBound": "a result record, which stores its fields unchecked (README)",
    }

    @pytest.mark.parametrize("value", [
        5.0, True, "5", pytest.param(Fraction(5), id="Fraction(5)"), 2.0, pytest.param(Fraction(2), id="Fraction(2)"),
    ])
    def test_a_dimension_that_is_not_an_int_is_refused(self, value):
        # one rule, numeric.integer, for every integer parameter of the public API, run before
        # any range test or cache: warm or cold, the same call gets the same answer
        discovered = {
            (name, param) for name in hyperoct.__all__
            if not (isinstance(entry := getattr(hyperoct, name), type) and issubclass(entry, BaseException))
            for param in inspect.signature(entry).parameters if param in self.INTEGER_NAMES
        }
        tabled = {(name, param) for name, call in self.VALID_CALLS.items() for param in call if param in self.INTEGER_NAMES}
        assert {(name, param) for name, param in discovered if name not in self.UNGATED} == tabled
        for name, call in self.VALID_CALLS.items():
            entry = getattr(hyperoct, name)
            entry(**call)
            for param in self.INTEGER_NAMES & set(call):
                match = "dimension n must be an int" if param == "n" else "must be an int"
                with pytest.raises(ValueError, match=match):
                    entry(**{**call, param: value})


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

    @pytest.mark.parametrize("n", [200, 1000])
    def test_many_layers_at_shared_denominators(self, n):
        # 60 layers whose r^2 and w share a few small denominators, so the layer
        # denominators b (k q)^4 have large common factors
        rng = random.Random(n)
        layers = [
            (k, Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 6))), Fraction(rng.randint(1, 30), rng.choice((1, 4, 9))))
            for k in sorted(rng.sample(range(1, n + 1), 60))
        ]
        self._assert_reference(make_config(n, layers))

    @pytest.mark.parametrize("n", [200, 1000])
    def test_exact_zero_residuals(self, n):
        # solved 5- and 7-designs: their defining residuals are exactly 0, and the verdict
        # and the obstruction read the integer totals.  On one common radius every f42 and
        # f63 residual is a multiple of a zero one, so f82 is the obstruction
        m = (n + 2) // 3
        cases = [
            (solve_t5(n, (1, n), {1: Fraction(7, 3), n: Fraction(2, 9)}).solution, 5, "f42_s1"),
            (solve_t7(n, (1, m, n), {1: Fraction(5, 4), m: Fraction(5, 4), n: Fraction(5, 4)}).solution, 7, "f82"),
        ]
        if n % 3 == 1:
            # the balanced orbit zeroes every f42 residual
            cases.append((make_config(n, [(m, Fraction(3, 7), Fraction(11, 2))]), 5, "f63_s0"))
        for cfg, expected, obstruction in cases:
            self._assert_reference(cfg)
            report = classify(cfg)
            assert (report.strength, report.nine_design_obstruction) == (expected, obstruction), (n, cfg.layers)
            zero = ("f42_s0", "f42_s1", "f63_s0") if expected == 7 else ("f42_s0",)
            assert all(report.residuals[eq] == 0 for eq in zero)


def test_classify_and_oracle_match_golden_file():
    # the file was written by helpers.strength_golden_text() before classify and the
    # oracle summed their residuals in integers
    assert strength_golden_text() == STRENGTH_GOLDEN.read_text()
