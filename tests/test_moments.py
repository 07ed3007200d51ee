import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    PAPER_TABLE_N4_ERRATA_WITNESSES,
    clear_caches,
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

    def test_rejects_a_dimension_below_two_and_a_negative_exponent(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            sphere_monomial_average(1, (2,), 1)
        with pytest.raises(ValueError, match="must be non-negative"):
            sphere_monomial_average(3, (-2, 4, 0), 1)

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


@pytest.mark.parametrize("exps", [(4, 2, 2, 0), (3, 1, 2, 0)])
def test_every_permutation_of_a_monomial_shares_one_kernel_entry_per_layer(exps):
    # both sides of a residual are read at the partition of the exponents, so the
    # layer-residual cache holds one entry per layer however the exponents are ordered
    cfg = make_config(4, [(1, 1, 1), (3, 1, Fraction(3, 4))])
    moments._layer_residual.cache_clear()
    residuals = {monomial_residual(cfg, perm) for perm in set(itertools.permutations(exps))}
    assert len(residuals) == 1
    assert moments._layer_residual.cache_info().currsize == len(cfg.layers)


@pytest.mark.parametrize(
    "family, parameters",
    [
        (tight_5_3d, [(1, 2, 1), (Fraction(5, 8), Fraction(7, 3), Fraction(2, 9))]),
        (tight_7_3d, [(1, 2, 1), (Fraction(3, 7), Fraction(11, 5), Fraction(4, 3))]),
        (tight_7_4d, [(1, 2, 1), (Fraction(9, 4), Fraction(1, 3), Fraction(7, 2))]),
    ],
)
def test_configs_on_the_same_orbits_share_every_layer_residual(family, parameters):
    # the cached factor is free of weights and radii: a second design on the same n and ks
    # scans the same partitions and adds no entry, and its residuals are still exact
    first, second = (family(*p) for p in parameters)
    assert first.n == second.n and [l.k for l in first.layers] == [l.k for l in second.layers]
    assert first != second
    moments._layer_residual.cache_clear()
    failure = first_failure(first, 9)
    entries = moments._layer_residual.cache_info().currsize
    assert first_failure(second, 9).degree == failure.degree
    assert moments._layer_residual.cache_info().currsize == entries
    for degree in range(0, failure.degree + 1, 2):
        for parts in moments._partitions(degree, min(second.n, degree), degree):
            exponents = parts + (0,) * (second.n - len(parts))
            assert monomial_residual(second, exponents) == reference_monomial_residual(second, exponents), exponents


def test_layer_residual_entries_are_tuples_of_ints():
    # a cached entry is shared by every caller, so it must be immutable; an odd part is (0, 1)
    for n in range(1, 7):
        for k in range(1, n + 1):
            for degree in range(0, 11):
                for parts in moments._partitions(degree, min(n, degree), degree):
                    entry = moments._layer_residual(n, k, parts[::-1])
                    assert type(entry) is tuple and len(entry) == 2, (n, k, parts)
                    assert all(type(x) is int for x in entry) and entry[1] > 0, (n, k, parts)
                    if any(e % 2 for e in parts):
                        assert entry == (0, 1), (n, k, parts)


@pytest.mark.parametrize("exps", [(1, 1), (3, 0, 1), (2, 2)])
def test_over_cap_orbit_raises_before_any_shortcut(exps):
    # I^20_10 has 2^10 * C(20, 10) = 189,190,144 points
    assert orbit_size(20, 10) > POINT_CAP
    with pytest.raises(OrbitSizeError):
        moments._layer_residual(20, 10, tuple(sorted(e for e in exps if e)))
    exps = exps + (0,) * (20 - len(exps))
    cfg = make_config(20, [(1, 1, 1), (10, 1, 1)])
    with pytest.raises(OrbitSizeError):
        monomial_residual(cfg, exps)
    with pytest.raises(OrbitSizeError):
        first_failure(cfg, 7)


def test_an_orbit_over_the_cap_by_2_to_the_k_alone_is_refused_before_its_size():
    # 2^25 alone exceeds POINT_CAP, so check_orbit refuses I^30_25 without forming C(30, 25)
    assert 2**25 > POINT_CAP
    with pytest.raises(OrbitSizeError, match=r"at least 2\^25 points"):
        first_failure(make_config(30, [(25, 1, 1)]), 7)


def test_more_exponents_than_coordinates_rejected():
    # a fourth exponent on I^3_3 names no coordinate; it is refused, not dropped
    with pytest.raises(ValueError, match="more than n=3"):
        _orbit_monomial_sum(3, 3, (2, 2, 2, 2))
    assert _orbit_monomial_sum(3, 3, (2, 2, 2)) == 8
    cfg = make_config(3, [(3, 1, 1)])
    for exps in [(2, 2, 2, 2), (2, 2)]:
        with pytest.raises(ValueError, match="wrong number of variables"):
            monomial_residual(cfg, exps)


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

    @pytest.mark.parametrize("check", [first_failure, verify_strength, max_strength_oracle])
    @pytest.mark.parametrize("t_max", [True, False, 2.5, 9.0, "9", None])
    def test_a_strength_that_is_not_an_int_is_rejected(self, check, t_max):
        # True used to scan as t_max = 1 and come back as a strength, 2.5 raised TypeError
        with pytest.raises(ValueError, match="t_max"):
            check(make_config(3, [(1, 1, 1)]), t_max)

    def test_the_oracle_enumerates_no_orbit_points(self, monkeypatch):
        # the kernel walks the supports of I^14_6, never its 192,192 points
        def refuse(n, k):
            raise AssertionError(f"orbit_tuples({n}, {k}) called")

        assert not hasattr(moments, "orbit_tuples")
        monkeypatch.setattr(orbit, "orbit_tuples", refuse)
        clear_caches()
        design = solve_t7(14, (1, 6), {1: 1, 6: 1}).solution
        failure = first_failure(design, 9)
        assert failure.degree == 8 and failure.exponents == (8,) + (0,) * 13

    def test_the_oracle_walks_no_supports(self, monkeypatch):
        # the kernel recurs over the 14 coordinates of I^14_6, never over its 3,003 supports
        def refuse(*args):
            raise AssertionError("itertools.combinations called")

        design = solve_t7(14, (1, 6), {1: 1, 6: 1}).solution
        monkeypatch.setattr(itertools, "combinations", refuse)
        clear_caches()
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

    def test_the_table_is_the_distinct_sorted_nonzero_parts_of_every_monomial(self):
        for d in range(13):
            for m in range(9):
                table = moments._partitions(d, min(m, d), d)
                brute = {tuple(sorted((e for e in exps if e), reverse=True)) for exps in monomials_of_degree(m, d)}
                assert list(table) == sorted(brute, reverse=True), (d, m)
                # a cached table is shared by every caller, so nothing in it may be mutable
                assert type(table) is tuple and all(type(parts) is tuple for parts in table)

    def test_a_degree_is_built_only_when_the_scan_reaches_it(self, monkeypatch):
        built = []
        cached = moments._partitions

        def recorded(total, parts, largest):
            built.append(total)
            return cached(total, parts, largest)

        clear_caches()
        monkeypatch.setattr(moments, "_partitions", recorded)
        assert max_strength_oracle(tight_7_4d(1, 2), 10**6) == 7
        assert max(built) == 8

    def test_every_key_is_normalised(self, monkeypatch):
        # parts and largest above the total change no partition; the recursion must keep
        # them at most the total, or a table is cached again under keys that mean the same
        calls = []
        cached = moments._partitions

        def recorded(total, parts, largest):
            calls.append((total, parts, largest))
            return cached(total, parts, largest)

        clear_caches()
        monkeypatch.setattr(moments, "_partitions", recorded)
        for cfg in (tight_7_4d(1, 2), make_config(9, [(1, 1, 1), (4, 1, 1)]), make_config(3, [(2, 1, 1)])):
            first_failure(cfg, 12)
        # the scan asks for one table per degree it reaches, 8 here; the rest are the recursion's
        assert len(calls) > 8
        assert [key for key in calls if not (0 <= key[1] <= key[0] and 0 <= key[2] <= key[0])] == []

    def test_the_table_does_not_grow_with_n(self):
        cached = moments._partitions
        cached.cache_clear()
        # every table a scan to degree 8 can ask for at any n: n above the degree changes no key
        for d in range(0, 9, 2):
            for m in range(9):
                cached(d, min(m, d), d)
        bound = cached.cache_info().currsize
        assert bound < cached.cache_info().maxsize
        cached.cache_clear()
        designs = {cfg.n: cfg for cfg in _property_g_designs(11)}
        for n in range(3, 61):
            configs = [make_config(n, [(1, 1, 1)]), make_config(n, [(1, 1, 1), (2, 3, Fraction(1, 2))])]
            for cfg in configs + ([designs[n]] if n in designs else []):
                first_failure(cfg, 9)
            assert cached.cache_info().currsize <= bound, n
