import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    PAPER_TABLE_N4_ERRATA_WITNESSES,
    design_residual,
    enumerated_monomial_sum,
    random_configs,
    reference_first_failure,
    reference_monomial_residual,
    residual_rational_points,
    sphere_average_gamma_oracle,
    three_digit_layers,
)
from hyperoct import moments, orbit
from hyperoct.harmonic import criterion_f42, embed
from hyperoct.moments import (
    _orbit_monomial_sum,
    first_failure,
    max_strength_oracle,
    monomial_residual,
    monomials_of_degree,
    sphere_monomial_average,
    verify_strength,
)
from hyperoct.orbit import POINT_CAP, OrbitSizeError, make_config, orbit_size
from hyperoct.poly import Polynomial
from hyperoct.solver import solve_t7
from hyperoct.strength import classify, g_function
from hyperoct.tight import tight_5_3d, tight_7_3d, tight_7_4d, tightness_certificate


def even_monomials(n, max_total):
    for half_degree in range(max_total // 2 + 1):
        for combo in itertools.combinations_with_replacement(range(n), half_degree):
            exps = [0] * n
            for idx in combo:
                exps[idx] += 2
            yield tuple(exps)


class TestSphereAverage:
    def test_degree_two_symmetry(self):
        assert sphere_monomial_average(3, (2, 0, 0), 1) == Fraction(1, 3)

    def test_odd_exponent_vanishes(self):
        assert sphere_monomial_average(3, (1, 1, 0), Fraction(7, 3)) == 0

    def test_fourth_power(self):
        assert sphere_monomial_average(4, (4, 0, 0, 0), 1) == Fraction(1, 8)

    @pytest.mark.parametrize("r_squared", [-1, 0])
    def test_rejects_a_squared_radius_that_is_not_positive(self, r_squared):
        for exps in [(2, 0, 0), (1, 1, 0)]:
            with pytest.raises(ValueError):
                sphere_monomial_average(3, exps, r_squared)

    def test_rejects_wrong_variable_count(self):
        for exps in [(2, 2, 2, 2), (2, 2)]:
            with pytest.raises(ValueError):
                sphere_monomial_average(3, exps, 1)

    def test_radius_scaling(self):
        base = sphere_monomial_average(3, (2, 2, 0), 1)
        assert sphere_monomial_average(3, (2, 2, 0), Fraction(9, 4)) == base * Fraction(81, 16)

    def test_agrees_with_gamma_oracle(self):
        for n in range(2, 9):
            for exps in even_monomials(n, 10):
                assert sphere_monomial_average(n, exps, Fraction(2)) == \
                    sphere_average_gamma_oracle(n, exps, Fraction(2)), (n, exps)


class TestDesignResidual:
    def test_octahedron_degree_two(self):
        octa = make_config(3, [(1, 1, 1)])
        p = Polynomial(3, {((1, 2),): 1})
        assert design_residual(octa, p) == 0

    def test_octahedron_fails_pair_criterion(self):
        octa = make_config(3, [(1, 1, 1)])
        f42 = embed(criterion_f42(), (1, 2), 3)
        assert design_residual(octa, f42) == 4

    def test_odd_degree_always_zero(self):
        cfg = make_config(4, [(2, Fraction(3, 2), Fraction(2, 7))])
        p = Polynomial(4, {((1, 3), (2, 2)): 1})
        assert design_residual(cfg, p) == 0

    def test_variable_count_checked(self):
        cfg = make_config(3, [(1, 1, 1)])
        with pytest.raises(ValueError):
            design_residual(cfg, criterion_f42())


def test_partially_odd_orbit_sums_vanish_by_enumeration():
    # the kernel against brute-force enumeration on every exponent tuple of
    # even degree <= 8, n <= 6; an odd exponent must give 0 in both
    for n in range(1, 7):
        for degree in range(0, 9, 2):
            for exps in monomials_of_degree(n, degree):
                for k in range(1, n + 1):
                    expected = enumerated_monomial_sum(n, k, exps)
                    assert _orbit_monomial_sum(n, k, exps) == expected, (n, k, exps)
                    if any(e % 2 for e in exps):
                        assert expected == 0, (n, k, exps)


def test_orbit_sums_agree_with_a_sum_over_the_orbit_points():
    # the sign-class kernel against a sum over every point of I^n_k, for n = 7..11, every k
    # and one monomial per partition of each even degree <= 10, its parts in increasing
    # order at the end; only those last m coordinates of a point matter, so the points are
    # summed grouped by them
    try:
        for n in range(7, 12):
            for k in range(1, n + 1):
                points = orbit.orbit_tuples(n, k)
                grouped = {}
                for degree in range(0, 11, 2):
                    for parts in moments._partitions(degree, n, degree):
                        m = len(parts)
                        if m not in grouped:
                            grouped[m] = Counter(point[n - m:] for point in points)
                        exps = (0,) * (n - m) + parts[::-1]
                        expected = sum(
                            count * math.prod(map(pow, tail, parts[::-1])) for tail, count in grouped[m].items()
                        )
                        assert _orbit_monomial_sum(n, k, exps) == expected, (n, k, exps)
    finally:
        orbit.orbit_tuples.cache_clear()


def test_monomial_residual_matches_enumeration_and_the_gamma_oracle():
    # monomial_residual sums its layer terms in integers; the reference sums, in
    # Fractions, brute-force orbit sums minus the gamma-function sphere side
    configs = [cfg for cfg in random_configs() if cfg.n <= 5 and len(cfg.layers) > 1][:4]
    rng = random.Random(18)
    configs += [make_config(n, three_digit_layers(rng, rng.sample(range(1, n + 1), rng.randint(2, n)))) for n in (3, 4, 5)]
    for cfg in configs:
        for degree in range(9):
            for exponents in monomials_of_degree(cfg.n, degree):
                assert monomial_residual(cfg, exponents) == reference_monomial_residual(cfg, exponents), (cfg, exponents)


@pytest.mark.parametrize("exps", [(1, 1), (3, 0, 1), (2, 2)])
def test_over_cap_orbit_raises_before_any_shortcut(exps):
    # I^20_10 has 2^10 * C(20, 10) = 189,190,144 points
    assert orbit_size(20, 10) > POINT_CAP
    exps = exps + (0,) * (20 - len(exps))
    with pytest.raises(OrbitSizeError):
        _orbit_monomial_sum(20, 10, exps)
    cfg = make_config(20, [(1, 1, 1), (10, 1, 1)])
    with pytest.raises(OrbitSizeError):
        monomial_residual(cfg, exps)
    with pytest.raises(OrbitSizeError):
        first_failure(cfg, 7)


def test_negative_exponent_rejected():
    cfg = make_config(3, [(1, 1, 1)])
    for exps in [(-1, 3, 0), (-2, 0, 0), (-1, 0, 0)]:
        with pytest.raises(ValueError):
            monomial_residual(cfg, exps)


def test_fully_even_orbit_sum_counts_supports():
    # all-even exponents: the sum counts points whose support covers the monomial
    from hyperoct.numeric import binomial

    assert _orbit_monomial_sum(4, 2, (2, 2, 0, 0)) == 4 * binomial(2, 0)
    assert _orbit_monomial_sum(5, 3, (2, 0, 4, 0, 0)) == 8 * binomial(3, 1)


class TestStrengthOracle:
    def test_checkerboard_orbit_is_5_not_6(self):
        cfg = make_config(4, [(2, 1, 1)])
        assert verify_strength(cfg, 5)
        assert not verify_strength(cfg, 6)
        failure = first_failure(cfg, 6)
        assert failure.degree == 6

    def test_cuboctahedron_alone(self):
        cfg = make_config(3, [(2, 1, 1)])
        assert verify_strength(cfg, 3)
        assert max_strength_oracle(cfg) == 3

    def test_monotone(self):
        cfg = make_config(4, [(2, 1, 1)])
        for t in range(6):
            assert verify_strength(cfg, t) == (t <= 5)

    def test_seven_design_from_solver(self):
        result = solve_t7(5, {1, 3}, {1: 2, 3: 2})
        assert result.feasible
        assert max_strength_oracle(result.solution, 9) == 7

    def test_no_straddle_gives_three(self):
        cfg = make_config(3, [(2, 1, 1), (3, 4, Fraction(1, 5))])
        assert max_strength_oracle(cfg) == 3

    def test_reports_at_least_t_max(self):
        cfg = make_config(3, [(1, 1, 1)])
        assert max_strength_oracle(cfg, t_max=3) == 3

    def test_negative_strength_rejected(self):
        cfg = make_config(3, [(1, 1, 1)])
        for check in (first_failure, verify_strength, max_strength_oracle):
            with pytest.raises(ValueError):
                check(cfg, -3)
        assert verify_strength(cfg, 0) and max_strength_oracle(cfg, 0) == 0

    def test_the_oracle_enumerates_no_orbit_points(self, monkeypatch):
        # the kernel walks the supports of I^14_6, never its 192,192 points
        def refuse(n, k):
            raise AssertionError(f"orbit_tuples({n}, {k}) called")

        assert not hasattr(moments, "orbit_tuples")
        monkeypatch.setattr(orbit, "orbit_tuples", refuse)
        moments._orbit_monomial_sum.cache_clear()
        moments._orbit_partition_sum.cache_clear()
        design = solve_t7(14, (1, 6), {1: 1, 6: 1}).solution
        failure = first_failure(design, 9)
        assert failure.degree == 8 and failure.exponents == (8,) + (0,) * 13

    def test_property_g_seven_design_in_dimension_fourteen(self):
        # G(14; 3, 14) = G(14; 1, 6) = 0: 2,912 + 16,384 and 28 + 192,192 points, beyond the
        # n <= 11 the oracle used to reach; the certificate's degree-9 cross-check runs on both
        for J in ((3, 14), (1, 6)):
            result = solve_t7(14, J, {k: 1 for k in J})
            assert result.feasible
            assert verify_strength(result.solution, 7)
            failure = first_failure(result.solution, 9)
            assert failure.degree == 8 and failure.exponents == (8,) + (0,) * 13
            assert classify(result.solution).strength == 7
            assert tightness_certificate(result.solution)["oracle_check"] == {"ran": True, "t_max": 9}


class TestRationalPointEngine:
    def test_single_antipodal_pair_has_strength_one(self):
        pts = [((1, 0, 0), 1), ((-1, 0, 0), 1)]
        x2sq = Polynomial(3, {((2, 2),): 1})
        # degree 1 passes (antipodal), degree 2 fails on x2^2
        x1 = Polynomial(3, {((1, 1),): 1})
        assert residual_rational_points(3, pts, x1) == 0
        assert residual_rational_points(3, pts, x2sq) == -Fraction(2, 3)

    def test_agrees_with_layer_machinery_on_rational_scales(self):
        # r^2 = k makes the scaled coordinates integers
        cfg = make_config(3, [(1, 1, 1), (3, 3, Fraction(9, 8))])
        from hyperoct.orbit import orbit_tuples

        pts = [(coords, Fraction(1)) for coords in orbit_tuples(3, 1)]
        pts += [(coords, Fraction(9, 8)) for coords in orbit_tuples(3, 3)]
        for exps in [(2, 0, 0), (4, 0, 0), (2, 2, 0), (6, 0, 0), (2, 2, 2)]:
            poly = Polynomial(3, {tuple((i + 1, e) for i, e in enumerate(exps) if e): Fraction(1)})
            assert residual_rational_points(3, pts, poly) == design_residual(cfg, poly), exps

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            residual_rational_points(2, [((0, 0), 1)], Polynomial(2, {((1, 1),): 1}))


def test_monomial_generation_counts():
    from hyperoct.numeric import binomial

    for n, d in [(3, 4), (4, 5), (6, 8)]:
        count = sum(1 for _ in monomials_of_degree(n, d))
        assert count == binomial(n + d - 1, n - 1)


def _property_g_designs(max_n):
    return [
        solve_t7(n, (k1, k2), {k1: 1, k2: 1}).solution
        for n in range(3, max_n + 1)
        for k1 in range(1, n + 1)
        for k2 in range(k1 + 1, n + 1)
        if g_function(n, k1, k2) == 0
    ]


class TestPartitionScan:
    def test_agrees_with_the_full_scan(self):
        # the same witness, degree and residual as the scan of every monomial
        configs = [*random_configs(), *PAPER_TABLE_N4_ERRATA_WITNESSES.values(), *_property_g_designs(11)]
        for family in (tight_5_3d, tight_7_3d, tight_7_4d):
            configs += [family(1, 2), family(Fraction(3, 4), Fraction(8, 3), Fraction(2, 7))]
        assert len(configs) == 200 + 4 + 6 + 6
        for cfg in configs:
            for t in (3, 5, 7, 9, 11) if cfg.n <= 7 else (3, 5, 7, 9):
                assert first_failure(cfg, t) == reference_first_failure(cfg, t), (cfg, t)

    @pytest.mark.parametrize("design", [tight_7_3d(1, 2), tight_7_4d(1, 2), *_property_g_designs(5)])
    def test_one_residual_per_partition(self, design, monkeypatch):
        calls = []

        def counted(cfg, exponents):
            calls.append(exponents)
            return monomial_residual(cfg, exponents)

        monkeypatch.setattr(moments, "monomial_residual", counted)
        assert first_failure(design, 7) is None
        # p(d, at most n parts): the permutation classes of the monomials of degree d
        classes = sum(
            len({tuple(sorted(e)) for e in monomials_of_degree(design.n, d)}) for d in (2, 4, 6)
        )
        assert len(calls) == classes == len(set(calls))
