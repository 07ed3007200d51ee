import itertools
import random
import sys
from fractions import Fraction

import pytest

from helpers import (
    PROPERTY_G_LE_100,
    SOLVER_GOLDEN,
    clear_caches,
    g_form_q_coefficients,
    g_form_seven_design_possible,
    g_form_sign_pattern,
    g_form_weights,
    p_form_five_design_possible,
    positive_nullvector,
    raw_positive_weights_exist,
    raw_t5_matrix,
    raw_t7_matrix,
    reference_tau_table,
    sign_from,
    solver_golden_text,
    vanishes_identically,
)
from hyperoct.moments import max_strength_oracle, verify_strength
from hyperoct import solver, strength
from hyperoct.orbit import make_config
from hyperoct.solver import (
    DegenerateRadiusSystem,
    _candidates,
    _columns,
    _five_design_rule,
    _seven_design_rule,
    _triple_kernel,
    five_design_possible,
    seven_design_possible,
    solve_radius_Q,
    solve_t5,
    solve_t7,
    tau,
    tau_table,
)
from hyperoct.numeric import binomial
from hyperoct.strength import classify, g_function, layer_sum_f42, layer_sum_f63, property_g


def layer_weights(cfg):
    return {layer.k: layer.weight for layer in cfg.layers}


class TestSolveT5:
    def test_octahedron_cube_ratio(self):
        result = solve_t5(3, {1, 3}, {1: 1, 3: 1})
        assert result.feasible
        assert layer_weights(result.solution) == {1: 1, 3: Fraction(9, 8)}
        result = solve_t5(3, {1, 3}, {1: 4, 3: 1})
        assert layer_weights(result.solution)[3] == Fraction(9, 8) * 16

    def test_extreme_pair_ratio(self):
        # w1/wn * r1^4/rn^4 must equal 2^n/n^2; verified against the oracle
        for n in range(3, 7):
            result = solve_t5(n, {1, n}, {1: 1, n: 1})
            assert result.feasible
            w = layer_weights(result.solution)
            assert w[1] / w[n] == Fraction(2**n, n**2)
            assert verify_strength(result.solution, 5)

    def test_single_balanced_orbit(self):
        result = solve_t5(7, {3})
        assert result.feasible and result.reason == "t5:single-orbit-balanced"
        # any radii and weights work for the balanced single orbit
        arbitrary = make_config(7, [(3, 5, 17)])
        assert classify(arbitrary).strength >= 5
        assert verify_strength(arbitrary, 5)

    def test_single_orbit_wrong_residue(self):
        assert not solve_t5(6, {3}).feasible

    def test_no_straddle(self):
        assert not solve_t5(3, {2, 3}).feasible
        assert not solve_t5(4, {2, 3}).feasible  # balance point is in J, not straddled

    def test_rejects_large_sets(self):
        with pytest.raises(ValueError):
            solve_t5(5, {1, 2, 3})

    def test_rejects_a_small_dimension_and_an_empty_index_set(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            solve_t5(2, {1})
        with pytest.raises(ValueError, match="J must be nonempty"):
            solve_t5(5, set())

    def test_radius_for_missing_index_rejected(self):
        with pytest.raises(ValueError):
            solve_t5(4, {1, 4}, {2: 1})


class TestSolveT7:
    def test_zero_g_pair(self):
        result = solve_t7(5, {1, 3}, {1: 2, 3: 2})
        assert result.feasible and result.reason == "t7:pair-equal-radius-zero-g"
        assert layer_weights(result.solution) == {1: 1, 3: Fraction(3, 4)}
        assert classify(result.solution).strength == 7

    def test_pair_needs_equal_radii(self):
        assert not solve_t7(5, {1, 3}, {1: 1, 3: 2}).feasible

    def test_pair_needs_zero_g(self):
        assert not solve_t7(4, {1, 3}, {1: 1, 3: 1}).feasible

    def test_single_orbit_never(self):
        assert not solve_t7(7, {3}).feasible

    def test_dual_lattice_family(self):
        result = solve_t7(4, {1, 2, 4}, {1: 1, 2: 4, 4: 1})
        assert result.feasible and result.reason == "t7:triple-two-radii-balanced-middle"
        w = layer_weights(result.solution)
        assert w == {1: 1, 2: Fraction(1, 64), 4: 1}

    def test_balanced_middle_requires_matching_outer_radii(self):
        result = solve_t7(7, {1, 3, 7}, {1: 1, 3: 2, 7: 1})
        assert result.feasible
        assert g_function(7, 1, 7) < 0
        result = solve_t7(7, {1, 3, 7}, {1: 1, 3: 2, 7: 4})
        assert not result.feasible

    def test_common_radius_triple(self):
        result = solve_t7(3, {1, 2, 3}, {1: 1, 2: 1, 3: 1})
        assert result.feasible and result.reason == "t7:triple-common-radius"
        assert classify(result.solution).strength == 7
        assert max_strength_oracle(result.solution, 9) == 7

    def test_three_radii_triple_needs_identity(self):
        good = solve_t7(3, {1, 2, 3}, {1: 1, 2: 2, 3: Fraction(3, 4)})
        assert good.feasible and good.reason == "t7:triple-three-radii"
        assert max_strength_oracle(good.solution, 9) == 7
        bad = solve_t7(3, {1, 2, 3}, {1: 1, 2: 2, 3: 2})
        assert not bad.feasible

    def test_rejects_large_sets(self):
        with pytest.raises(ValueError):
            solve_t7(6, {1, 2, 3, 4})

    def test_result_json(self):
        result = solve_t7(5, {1, 3}, {1: 2, 3: 2})
        data = result.to_json_dict()
        assert data["feasible"] is True
        assert data["solution"]["layers"][1]["weight"] == "3/4"


class TestSolveRadiusQ:
    def test_recovers_third_radius(self):
        assert solve_radius_Q(3, (1, 2, 3), {1: 1, 2: 2}) == Fraction(3, 4)

    def test_equal_known_radii_recover_the_common_value(self):
        # with r1 = r2 the radius identity forces r6 to the same value,
        # landing back in the single-radius feasible case
        r6 = solve_radius_Q(6, (1, 2, 6), {1: 1, 2: 1})
        assert r6 == 1
        result = solve_t7(6, {1, 2, 6}, {1: 1, 2: 1, 6: r6})
        assert result.feasible and result.reason == "t7:triple-common-radius"
        assert classify(result.solution).strength == 7

    def test_solution_feeds_feasible_triple(self):
        r3 = solve_radius_Q(3, (1, 2, 3), {1: 1, 2: 2})
        assert r3 == Fraction(3, 4)
        result = solve_t7(3, {1, 2, 3}, {1: 1, 2: 2, 3: r3})
        assert result.feasible and result.reason == "t7:triple-three-radii"
        assert classify(result.solution).strength == 7

    def test_degenerate_coefficient(self):
        # middle index at the balance point has a vanishing coefficient
        with pytest.raises(DegenerateRadiusSystem):
            solve_radius_Q(4, (1, 2, 4), {1: 1, 4: 1})

    def test_absent_when_forced_negative(self):
        # the identity's coefficients are proportional to (-40, 16, 24) at n=3:
        # a small enough middle radius forces a negative value for the third
        assert solve_radius_Q(3, (1, 2, 3), {1: 1, 2: Fraction(1, 4)}) is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_radius_Q(4, (1, 2), {1: 1})
        with pytest.raises(ValueError):
            solve_radius_Q(4, (1, 2, 4), {1: 1, 2: 1, 4: 1})

    @pytest.mark.parametrize("known", [{1: 1, 2: -3}, {1: 0, 2: 2}])
    def test_rejects_non_positive_known_radius(self, known):
        # {1: 1, 2: -3} would otherwise give 9/17, and {1: 0, 2: 2} divide by zero
        with pytest.raises(ValueError, match="squared radii must be positive"):
            solve_radius_Q(3, (1, 2, 3), known)


@pytest.mark.parametrize(
    "solve, J, r_squared",
    [
        (solve_t5, [1, 3], {1.5: 2}),
        (solve_t5, [True, 3], None),
        (solve_t7, [1.0, 2, 3], None),
        (solve_t7, [1, 2, 3], {Fraction(2): 1}),
        (solve_radius_Q, [1, 2, 3], {1.5: 1, 2: 2}),
        (solve_radius_Q, [1, 2, 3.0], {1: 1, 2: 2}),
    ],
)
def test_orbit_indices_must_be_ints(solve, J, r_squared):
    # int() used to truncate 1.5 to 1 and read the radius as k = 1's
    with pytest.raises(ValueError, match="orbit index must be an int"):
        solve(3, J, r_squared)


class TestFeasibilityAgainstRawSystems:
    """Clause decisions must agree with exact positive-solvability of the
    raw defining equations, over a grid of radii."""

    GRID = (Fraction(1), Fraction(2), Fraction(4), Fraction(9))

    def test_t5_completeness(self):
        for n in range(3, 7):
            for jsize in (1, 2):
                for J in itertools.combinations(range(1, n + 1), jsize):
                    for values in itertools.product(self.GRID, repeat=jsize):
                        r2 = dict(zip(J, values))
                        expected = raw_positive_weights_exist(raw_t5_matrix(n, J, r2))
                        result = solve_t5(n, J, r2)
                        assert result.feasible == expected, (n, J, r2)
                        if result.feasible:
                            assert classify(result.solution).strength >= 5
                            assert verify_strength(result.solution, 5)

    def test_t7_completeness(self):
        for n in range(3, 7):
            for jsize in (1, 2, 3):
                for J in itertools.combinations(range(1, n + 1), jsize):
                    for values in itertools.product(self.GRID, repeat=jsize):
                        r2 = dict(zip(J, values))
                        expected = raw_positive_weights_exist(raw_t7_matrix(n, J, r2))
                        result = solve_t7(n, J, r2)
                        assert result.feasible == expected, (n, J, r2)
                        if result.feasible:
                            report = classify(result.solution)
                            assert report.strength == 7
                            assert all(layer.weight > 0 for layer in result.solution.layers)
                            assert max_strength_oracle(result.solution, 7) == 7

    def test_radii_free_predicates_match_grid(self):
        # five_design_possible is radius-independent; check that against the grid
        for n in range(3, 7):
            for jsize in (1, 2):
                for J in itertools.combinations(range(1, n + 1), jsize):
                    any_feasible = any(
                        solve_t5(n, J, dict(zip(J, values))).feasible
                        for values in itertools.product(self.GRID, repeat=jsize)
                    )
                    assert five_design_possible(n, J) == any_feasible


class TestKernelAgainstGForm:
    """The integer columns of the classify equations against the paper's P and G formulas."""

    GRID = (Fraction(1), Fraction(2), Fraction(3, 4))

    def test_feasibility_matches_p_and_g_forms(self):
        for n in range(3, 21):
            for j in (1, 2, 3):
                for ks in itertools.combinations(range(1, n + 1), j):
                    assert five_design_possible(n, ks) == p_form_five_design_possible(n, ks), (n, ks)
                    for p in range(1, j + 1):
                        assert seven_design_possible(n, ks, p) == g_form_seven_design_possible(n, ks, p), (n, ks, p)

    def test_kernel_sign_and_radius_identity_on_every_triple(self):
        for n in range(3, 41):
            for ks in itertools.combinations(range(1, n + 1), 3):
                a, b = _columns(n, ks)
                c = _triple_kernel(a, b)
                coeffs = [ck * ak for ck, ak in zip(c, a)]
                one_sign = all(x > 0 for x in c) or all(x < 0 for x in c)
                assert one_sign == g_form_sign_pattern(n, ks), (n, ks)
                # a common nonzero multiple: the same zeros, and every 2x2 minor vanishes
                ref = g_form_q_coefficients(n, ks)
                assert any(ref) and [x == 0 for x in coeffs] == [x == 0 for x in ref], (n, ks)
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    assert coeffs[i] * ref[j] == coeffs[j] * ref[i], (n, ks)

    def check(self, n, ks, r2, reason):
        result = solve_t7(n, ks, r2)
        assert result.feasible and result.reason == reason, (n, ks, r2)
        assert [layer.weight for layer in result.solution.layers] == g_form_weights(n, ks, r2), (n, ks, r2)
        assert classify(result.solution).strength == 7

    def test_triple_weights_match_g_form_on_radius_grid(self):
        three_radii = 0
        for n in range(3, 21):
            for ks in itertools.combinations(range(1, n + 1), 3):
                if not g_form_sign_pattern(n, ks):
                    continue
                k1, k2, k3 = ks
                self.check(n, ks, {k: Fraction(2) for k in ks}, "t7:triple-common-radius")
                if 3 * k2 == n + 2:
                    self.check(n, ks, {k1: 1, k2: Fraction(3, 4), k3: 1}, "t7:triple-two-radii-balanced-middle")
                    continue
                for known in ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(3, 4))):
                    r3 = solve_radius_Q(n, ks, dict(zip((k1, k2), known)))
                    if r3 is not None:
                        r2 = {k1: known[0], k2: known[1], k3: r3}
                        self.check(n, ks, r2, "t7:triple-three-radii")
                        three_radii += 1
        assert three_radii > 0

    def test_pair_weights_match_g_form(self):
        pairs = 0
        for n in range(3, 41):
            for ks in itertools.combinations(range(1, n + 1), 2):
                if g_function(n, *ks) == 0:
                    pairs += 1
                    for r in self.GRID:
                        self.check(n, ks, {k: r for k in ks}, "t7:pair-equal-radius-zero-g")
        assert pairs > 0


class TestSignPatternImpossibility:
    def test_second_possibility_never_occurs(self):
        for n in range(3, 16):
            for k1, k2, k3 in itertools.combinations(range(1, n + 1), 3):
                pattern = (
                    g_function(n, k1, k2) < 0
                    and g_function(n, k1, k3) > 0
                    and g_function(n, k2, k3) < 0
                )
                assert not pattern, (n, k1, k2, k3)


class TestTau:
    def test_matches_branch_structure(self):
        for n in range(3, 13):
            in_g = n in PROPERTY_G_LE_100
            expected = {
                (1, 1): 5 if n % 3 == 1 else 3,
                (1, 2): 7 if in_g else 5,
                (1, 3): 7,
                (2, 2): 5,
                (2, 3): 7 if n % 3 == 1 else 5,
                (3, 3): 5 if n == 4 else 7,
            }
            assert tau_table(n) == expected, n

    def test_matches_reference_walk(self):
        # n = 3 and 4 have no witness triple at p = 3 (the proofs below start at n = 5);
        # the walk settles them, and agrees everywhere else
        for n in range(3, 81):
            table = tau_table(n)
            assert table == reference_tau_table(n), n
            assert all(tau(n, p, j) == value for (p, j), value in table.items()), n

    def test_ten_million(self):
        n = 10**7
        assert n % 3 == 1 and property_g(n) is not None
        assert tau_table(n) == {(1, 1): 5, (1, 2): 7, (2, 2): 5, (1, 3): 7, (2, 3): 7, (3, 3): 7}

    def test_spec_examples(self):
        assert tau(4, 3, 3) == 5
        assert tau(7, 1, 1) == 5
        for n in range(3, 10):
            assert tau(n, 1, 3) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            tau(4, 2, 1)
        with pytest.raises(ValueError):
            tau(3, 1, 4)
        # refused before any work: the property-G scan is linear in n
        for n in (0, 10**7 + 1, sys.maxsize + 1):
            with pytest.raises(ValueError, match="need n"):
                tau(n, 1, 1)
            with pytest.raises(ValueError, match="need n"):
                tau_table(n)

    def test_seven_design_possible_validation(self):
        with pytest.raises(ValueError):
            seven_design_possible(5, (1, 2, 3, 4), 1)
        with pytest.raises(ValueError):
            seven_design_possible(5, (1, 2), 3)


class TestReducedColumns:
    def test_times_positive_factor_are_the_columns(self):
        # _columns * 2^k C(n-1, k-1) / (n-1)_(M-1), M = 2 for a and 3 for b, gives
        # classify's own equations k L42(n, k) and L63(n, k)
        for n in range(3, 41):
            ks = range(1, n + 1)
            for k, ra, rb in zip(ks, *_columns(n, ks)):
                factor = 2**k * binomial(n - 1, k - 1)
                assert ra * factor == k * layer_sum_f42(n, k) * (n - 1), (n, k)
                assert rb * factor == layer_sum_f63(n, k) * (n - 1) * (n - 2), (n, k)

    def test_rules_are_unchanged_under_positive_scales(self):
        rng = random.Random(12)
        for _ in range(3000):
            size = rng.randint(1, 3)
            a = [rng.randint(-4, 4) for _ in range(size)]
            b = [rng.randint(-4, 4) for _ in range(size)]
            per_index = [rng.randint(1, 9) for _ in range(size)]
            col_a, col_b = rng.randint(1, 9), rng.randint(1, 9)
            sa = [col_a * s * x for s, x in zip(per_index, a)]
            sb = [col_b * s * y for s, y in zip(per_index, b)]
            assert _five_design_rule(sa) == _five_design_rule(a), (a, per_index, col_a)
            for p in range(1, size + 1):
                assert _seven_design_rule(sa, sb, p) == _seven_design_rule(a, b, p), (a, b, p, per_index)

    def test_the_solver_never_builds_a_full_scale_orbit_sum(self, monkeypatch):
        """With ``strength._criterion_sums`` emptied and disabled,
        every solver entry point still gives the same answers for 3 <= n <= 40: it reads
        only the reduced columns."""
        def answers():
            out = []
            for n in range(3, 41):
                out.append(tau_table(n))
                out.append([tau(n, p, j) for j in range(1, 4) for p in range(1, j + 1)])
                for ks in _candidates(n):
                    out.append(five_design_possible(n, ks))
                    out.append([seven_design_possible(n, ks, p) for p in range(1, len(ks) + 1)])
                    out.append(solve_t7(n, ks).to_json_dict())
                    if len(ks) <= 2:
                        out.append(solve_t5(n, ks, {ks[-1]: Fraction(3, 2)}).to_json_dict())
                    else:
                        out.append(solve_t7(n, ks, dict(zip(ks, (2, 1, 2)))).to_json_dict())
                        try:
                            out.append(solve_radius_Q(n, ks, {ks[1]: 1, ks[2]: Fraction(1, 2)}))
                        except DegenerateRadiusSystem as exc:
                            out.append(str(exc))
            return out

        expected = answers()

        def disabled(*args):
            raise AssertionError("full-scale orbit sum")

        clear_caches()
        monkeypatch.setattr(strength, "_criterion_sums", disabled)
        with pytest.raises(AssertionError, match="full-scale"):
            strength.layer_sum_f42(3, 1)
        assert answers() == expected


def _witnesses(n):
    """(1, m, n) and (1, m', n): m = floor((n+2)/3), and m' = m - 1 when n = 1 (mod 3), else m."""
    m = (n + 2) // 3
    return (1, m, n), (1, m - 1 if n % 3 == 1 else m, n)


class TestTauForEveryN:
    """The candidate index sets of ``tau`` decide every tau(p, j) for every n >= 5.

    Each reduced column entry is a polynomial in n and k: a_k of total degree
    2 and b_k of total degree 2, so c = a x b has degree at most 4.  Along
    n = 3q + r with k linear in q they are polynomials in q, whose signs
    ``sign_from`` proves for every q from their values and a root bound.
    """

    def test_a_vanishes_only_at_the_balance_point(self):
        """a_k = 2k(n+2-3k), so a_k = 0 iff 3k = n + 2.

        Only if: a single orbit is a 5-design iff a_k = 0, so only the balanced
        orbit can be, and it is a candidate when n = 1 (mod 3).  A triple on
        p = 2 radii passes the rule only with a zero middle a_k, so
        tau(2, 3) = 7 needs n = 1 (mod 3).  A single orbit is never a 7-design.
        """
        def diff(n, k):
            return _columns(n, [k])[0][0] - 2 * k * (n + 2 - 3 * k)

        assert vanishes_identically(diff, (2, 2), (3, 1))
        for n in range(3, 60):
            singles = [ks for ks in _candidates(n) if len(ks) == 1]
            assert singles == ([((n + 2) // 3,)] if n % 3 == 1 else []), n

    def test_candidates_are_index_sets_without_a_clamp(self, monkeypatch):
        """The middle index m = max((n+2)//3, 2) of (1, m, n) lies strictly between 1
        and n for every n >= 3 (proved in ``_candidates``), so every candidate is a
        strictly increasing tuple of indices in 1..n; checked here for n = 3..10^4."""
        monkeypatch.setattr(solver, "property_g", lambda n: None)  # the scan is linear in n
        for n in range(3, 10**4 + 1):
            for ks in _candidates(n):
                assert 1 <= ks[0] and ks[-1] <= n and all(a < b for a, b in zip(ks, ks[1:])), (n, ks)

    def test_first_and_last_orbits_straddle(self):
        """a_1 > 0 > a_n for every n >= 3, so (1, n) and (1, 2, n) are 5-designs
        and tau(p, j) >= 5 for j >= 2."""
        assert sign_from(lambda n: _columns(n, [1])[0][0], 2, 3) == 1
        assert sign_from(lambda n: _columns(n, [n])[0][0], 2, 3) == -1

    def test_pair_determinant_is_a_multiple_of_g(self):
        """a1 b2 - a2 b1 = 12 (n + 8)(k1 - k2) G(n, k1, k2) on the reduced columns.

        Unreduced, the factor is c(n) = 12 (n+8) / ((n-1)^2 (n-2)) > 0 times the
        positive 2^k C(n-1, k-1) of both indices.  So a pair's columns are
        parallel iff G = 0.  Only if: the pair rule also needs p = 1, so no pair
        on two radii is a 7-design.  As 6(k1-1)(k2-1) + 2(n-1) > 0, G = 0 forces
        opposite-signed a, so when any pair passes the rule, the first
        property-G pair, a candidate, passes it too.
        """
        def diff(n, k1, k2):
            (a1, a2), (b1, b2) = _columns(n, [k1, k2])
            return a1 * b2 - a2 * b1 - 12 * (n + 8) * (k1 - k2) * g_function(n, k1, k2)

        assert vanishes_identically(diff, (3, 2, 2), (3, 1, 1))
        for n in range(3, 60):
            assert property_g(n) is None or property_g(n) in _candidates(n)

    def test_witness_triples(self):
        """With n = 3q + r and n >= 5, c = a x b is strictly negative on (1, m, n) and
        (1, m', n), the middle a_k is identically 0 on (1, m, n) when r = 1, and it is
        positive on (1, m', n).  So (1, m, n) is a 7-design at p = 1, and at p = 2 when
        n = 1 (mod 3); (1, m', n) is one at p = 3.  Both are candidates."""
        for r, first_q in ((0, 2), (1, 2), (2, 1)):
            for which in (0, 1):
                def columns(q, r=r, which=which):
                    n = 3 * q + r
                    return _columns(n, _witnesses(n)[which])

                for i in range(3):
                    assert sign_from(lambda q: _triple_kernel(*columns(q))[i], 4, first_q) == -1, (r, which, i)

                def middle(q):
                    return columns(q)[0][1]

                if r == 1 and which == 0:
                    assert vanishes_identically(middle, (2,), (first_q,))
                else:
                    assert sign_from(middle, 2, first_q) == 1, (r, which)
        for n in range(5, 60):
            assert set(_witnesses(n)) <= set(_candidates(n)), n


class TestRuleFactsPinned:
    """Two facts that make a mutant of ``_seven_design_rule`` give the same answers.
    The second is proved for every n, with its loop kept as a spot check; the first
    is checked to a stated n, not yet proved for every n."""

    def test_a_zero_kernel_entry_leaves_two_negative_ones(self):
        # so min(c) > 0 could read min(c) >= 0: no triple has c >= 0 with a zero entry
        zero_entry = 0
        for n in range(3, 30):
            for ks in itertools.combinations(range(1, n + 1), 3):
                c = _triple_kernel(*_columns(n, ks))
                if 0 in c:
                    zero_entry += 1
                    rest = [x for x in c if x]
                    assert len(rest) == 2 and all(x < 0 for x in rest), (n, ks, c)
        assert zero_entry == 362

    def test_no_pair_with_a_zero_column_entry_is_parallel(self):
        """So a[0] * a[1] < 0 could read <= 0: a zero a_k never has parallel columns.

        a_k = 2k(n + 2 - 3k) (test_strength ``TestLayerSums``) is 0 iff n = 3k - 2, so k >= 2 for n >= 3,
        and the other index j of the pair has a_j != 0.  There G(3k - 2, k, j) = 6(k - 1) j > 0,
        so a1 b2 - a2 b1 = 12 (n + 8)(k1 - k2) G is nonzero for every n
        (``test_pair_determinant_is_a_multiple_of_g``).
        """
        assert vanishes_identically(lambda k: _columns(3 * k - 2, [k])[0][0], (3,), (2,))
        assert vanishes_identically(lambda k, j: g_function(3 * k - 2, k, j) - 6 * (k - 1) * j, (2, 1), (2, 1))
        balanced = 0
        for n in range(3, 60):
            for ks in itertools.combinations(range(1, n + 1), 2):
                a, b = _columns(n, ks)
                if 0 in a:
                    balanced += 1
                    assert a[0] * b[1] != a[1] * b[0], (n, ks)
        assert balanced > 0


class TestPositiveNullvector:
    def test_simple_mixed_signs(self):
        x = positive_nullvector([[Fraction(1), Fraction(-2)]])
        assert x is not None and x[0] == 2 * x[1]

    def test_same_signs_infeasible(self):
        assert positive_nullvector([[Fraction(1), Fraction(2)]]) is None

    def test_zero_column_free(self):
        x = positive_nullvector([[Fraction(0), Fraction(1), Fraction(-1)]])
        assert x is not None and all(v > 0 for v in x)

    def test_full_rank_infeasible(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert positive_nullvector(rows) is None

    def test_two_dimensional_nullspace(self):
        # x1 - x2 - x3 = 0 over three positive unknowns
        x = positive_nullvector([[Fraction(1), Fraction(-1), Fraction(-1)]])
        assert x is not None and x[0] == x[1] + x[2]

    def test_empty_rows_all_free(self):
        x = positive_nullvector([], ncols=3)
        assert x is not None and all(v > 0 for v in x)


def test_solver_answers_match_golden_file():
    # the file was written by helpers.solver_golden_text() before the solver read its
    # columns from a cache and built each weight from one int pair
    assert solver_golden_text() == SOLVER_GOLDEN.read_text()
