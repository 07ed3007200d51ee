"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a PASS/FAIL line (visible with pytest -s or on failure).
Criterion 4 compares the generated strength tables cell by cell against
the published ones, which are kept verbatim.  Four printed n=4 cells
contradict the definition of a Euclidean t-design and are recorded in
PAPER_TABLE_N4_ERRATA: J={2,3,4} for p=1, 2, 3 (printed 5, correct 3)
and J={1,2,3,4} for p=1 (printed 5, correct 7).  The n=4 test requires
every other cell to match its printed value and every erratum to match
its correction and to differ from the printed value.  The evidence test
proves each erratum from the definition alone: a witness on exactly p
radii reaches the corrected strength under the monomial oracle, and the
enumerated orbit sums of a degree t+1 harmonic share one sign, so no
radii and positive weights reach t+1.  For J={2,3,4} those degree-4
sums are (0, -48, -64).
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import (
    PAPER_TABLE_N3,
    PAPER_TABLE_N4,
    PAPER_TABLE_N4_ERRATA,
    PAPER_TABLE_N4_ERRATA_WITNESSES,
    PROPERTY_G_LE_100,
    R2_CHOICES,
    computed_strength_entry,
    enumerated_layer_sum,
    fully_even_dimension,
    harm_dimension,
    laplacian,
    orbit_union_size,
    p_value,
    positive_nullvector,
    q_value,
    random_configs,
    rank_of_polynomials,
    seven_design_rows,
    uniform_spherical_strength,
)
from hyperoct.cli import main as cli_main
from hyperoct.harmonic import (
    criterion_basis,
    criterion_f42,
    criterion_f82,
    full_basis,
    fully_even_subset,
)
from hyperoct.moments import max_strength_oracle, verify_strength
from hyperoct.numeric import binomial
from hyperoct.orbit import make_config
from hyperoct.solver import (
    DegenerateRadiusSystem,
    five_design_possible,
    seven_design_possible,
    solve_radius_Q,
    solve_t5,
    solve_t7,
    tau_table,
)
from hyperoct.strength import classify, g_function, layer_sum_f82
from hyperoct.tight import fisher_bound, tight_5_3d, tight_7_3d, tight_7_4d


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    return ok


@pytest.fixture(scope="module")
def shared_random_configs():
    return random_configs(count=200, seed=12345)


@pytest.fixture(scope="module")
def shared_oracle_verdicts(shared_random_configs):
    return [max_strength_oracle(cfg, 11) for cfg in shared_random_configs]


# -- configurations drawn from the design manifold -----------------------
#
# The random fixture above is almost all strength 3, so these draw strength 5
# and 7 designs: solver outputs for n <= 8 and positive null vectors of the
# three degree <= 7 equations for four orbits.

MANIFOLD_N = range(3, 9)


def _index_sets(n, sizes, keep):
    return [J for j in sizes for J in itertools.combinations(range(1, n + 1), j) if keep(n, J)]


T5_SETS = {n: _index_sets(n, (1, 2), five_design_possible) for n in MANIFOLD_N}
T7_COMMON_SETS = {n: _index_sets(n, (2, 3), lambda n, J: seven_design_possible(n, J, 1)) for n in MANIFOLD_N}
T7_THREE_RADII_SETS = {
    n: sets for n in MANIFOLD_N if (sets := _index_sets(n, (3,), lambda n, J: seven_design_possible(n, J, 3)))
}


@st.composite
def solver_designs(draw):
    """A feasible solve_t5/solve_t7 solution: common radius, or three radii via solve_radius_Q."""
    kind = draw(st.sampled_from(["t5", "t7-common", "t7-three-radii"]))
    if kind == "t7-three-radii":
        n = draw(st.sampled_from(sorted(T7_THREE_RADII_SETS)))
        k1, k2, k3 = draw(st.sampled_from(T7_THREE_RADII_SETS[n]))
        known = {k1: draw(st.sampled_from(R2_CHOICES)), k2: draw(st.sampled_from(R2_CHOICES))}
        try:
            r3 = solve_radius_Q(n, (k1, k2, k3), known)
        except DegenerateRadiusSystem:
            r3 = None
        assume(r3 is not None)
        result = solve_t7(n, (k1, k2, k3), {**known, k3: r3})
    else:
        n = draw(st.sampled_from(MANIFOLD_N))
        J = draw(st.sampled_from((T5_SETS if kind == "t5" else T7_COMMON_SETS)[n]))
        r2 = draw(st.sampled_from(R2_CHOICES))
        result = (solve_t5 if kind == "t5" else solve_t7)(n, J, {k: r2 for k in J})
    assume(result.feasible)
    return result.solution


@st.composite
def nullvector_designs(draw):
    """Positive weights solving the three degree <= 7 equations for four orbits.

    Scans (J, radii) pairs cyclically from a drawn start until the rows that
    computed_strength_entry also solves have a positive null vector.
    """
    n = draw(st.integers(4, 8))
    sets = list(itertools.combinations(range(1, n + 1), 4))
    radii = list(itertools.product(R2_CHOICES, repeat=4))
    total = len(sets) * len(radii)
    start = draw(st.integers(0, total - 1))
    for offset in range(total):
        index = (start + offset) % total
        J, values = sets[index % len(sets)], radii[index // len(sets)]
        r2 = dict(zip(J, values))
        weights = positive_nullvector(seven_design_rows(n, J, r2))
        if weights is not None:
            return make_config(n, [(k, r2[k], w) for k, w in zip(J, weights)])
    raise AssertionError(f"no positive null vector for any four orbits in n={n}")


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(solver_designs(), nullvector_designs()))
def test_classify_agrees_with_oracle_on_the_design_manifold(cfg):
    assert classify(cfg).strength == max_strength_oracle(cfg, 9)


def test_criterion_01_property_g_list(capsys):
    code = cli_main(["property-g", "--max", "100"])
    data = json.loads(capsys.readouterr().out)
    ok = data["values"] == PROPERTY_G_LE_100 and len(data["values"]) == 48 and code == 0
    report("01 property-G list", ok, f"{len(data['values'])} values")
    assert ok


def test_criterion_02_fisher_bounds():
    values = {
        (3, 2, 5): fisher_bound(3, 2, 5).value,
        (3, 3, 7): fisher_bound(3, 3, 7).value,
        (4, 2, 7): fisher_bound(4, 2, 7).value,
    }
    ok = values == {(3, 2, 5): 14, (3, 3, 7): 26, (4, 2, 7): 48}
    assert report("02 Fisher bounds", ok, str(values))


def test_criterion_03_tight_certificates():
    cases = [
        ("5-design in R^3", tight_5_3d(1, 2, 1), 5),
        ("7-design in R^3", tight_7_3d(1, Fraction(8, 3), 1), 7),
        ("7-design in R^4", tight_7_4d(1, 2, 1), 7),
    ]
    problems = []
    for label, cfg, t in cases:
        if not verify_strength(cfg, t):
            problems.append(f"{label} fails the oracle at t={t}")
        if verify_strength(cfg, t + 2):
            problems.append(f"{label} unexpectedly passes at t={t + 2}")
        bound = fisher_bound(cfg.n, cfg.p, t).value
        if cfg.size != bound:
            problems.append(f"{label}: size {cfg.size} != bound {bound}")
    report("03 tight certificates", not problems)
    assert not problems, problems


def _table_mismatches(n, paper_table, errata):
    """Compare the printed table, corrected by errata, with computed strengths.

    Returns two lists: cells outside the errata whose computed strength
    differs from the printed one, as (J, p, printed, computed); and errata
    that do not hold, as (J, p, printed, corrected, computed).  An erratum
    holds when it names a printed cell, differs from the printed value and
    equals the computed strength.
    """
    cells = {}
    for J, row in paper_table.items():
        assert orbit_union_size(n, set(J)) == row["size"], (n, J)
        for p, printed in row.items():
            if p == "size":
                continue
            printed_value = int(printed[0])
            cells[J, p] = (printed_value, computed_strength_entry(n, J, p))
            if "S" in printed:
                assert p == 1
                spherical = uniform_spherical_strength(n, J)
                assert spherical == printed_value, (
                    f"printed spherical marker at J={J} not achieved by constant weight: "
                    f"uniform strength {spherical}"
                )
            if "T" in printed:
                size = orbit_union_size(n, set(J))
                bound = fisher_bound(n, p, printed_value).value
                assert size == bound, f"printed tight marker at J={J}, p={p}: {size} != {bound}"
    mismatches = [
        (J, p, printed, computed)
        for (J, p), (printed, computed) in cells.items()
        if (J, p) not in errata and computed != printed
    ]
    stale_errata = []
    for (J, p), corrected in errata.items():
        printed, computed = cells.get((J, p), (None, None))
        if printed is None or printed == corrected or computed != corrected:
            stale_errata.append((J, p, printed, corrected, computed))
    return mismatches, stale_errata


def test_criterion_04_strength_table_n3():
    mismatches, _ = _table_mismatches(3, PAPER_TABLE_N3, {})
    assert report("04 strength table n=3", not mismatches, f"{len(mismatches)} mismatches")
    assert not mismatches


def test_criterion_04_strength_table_n4():
    mismatches, stale_errata = _table_mismatches(4, PAPER_TABLE_N4, PAPER_TABLE_N4_ERRATA)
    ok = not mismatches and not stale_errata
    report(
        "04 strength table n=4",
        ok,
        f"{len(mismatches)} mismatches outside the errata, "
        f"{len(stale_errata)} stale errata of {len(PAPER_TABLE_N4_ERRATA)}",
    )
    if not ok:
        pytest.fail(
            "cells outside the errata that differ from the printed table:\n"
            + _listing(
                f"J={J} p={p}: printed {printed}, computed {computed}"
                for J, p, printed, computed in mismatches
            )
            + "errata that do not hold (each must name a printed cell, differ from"
            " its printed value and equal the computed strength):\n"
            + _listing(
                f"J={J} p={p}: printed {printed}, corrected {corrected}, computed {computed}"
                for J, p, printed, corrected, computed in stale_errata
            )
        )


def _listing(lines):
    return "".join(f"  {line}\n" for line in lines) or "  none\n"


# A harmonic of degree t+1 for each corrected strength t: its orbit sums
# bound the strength from above.
_UPPER_BOUND_CRITERIA = {3: criterion_f42, 7: criterion_f82}


def test_contested_cells_machine_evidence():
    # Each erratum proved from the definition alone: enumerated orbit sums
    # and the monomial oracle, never the closed forms.
    for (J, p), corrected in PAPER_TABLE_N4_ERRATA.items():
        witness = PAPER_TABLE_N4_ERRATA_WITNESSES[J, p]
        assert tuple(layer.k for layer in witness.layers) == J
        assert witness.p == p
        assert all(layer.weight > 0 for layer in witness.layers)
        assert max_strength_oracle(witness, 11) == corrected, (J, p)
        # A layer of radius r scales its orbit sum of a degree-d harmonic by
        # (r^2/k)^(d/2) > 0, so if the nonzero sums share one sign, no radii
        # and positive weights cancel them: strength corrected+1 is impossible.
        criterion = _UPPER_BOUND_CRITERIA[corrected]()
        sums = [enumerated_layer_sum(criterion, 4, k) for k in J]
        assert len({s > 0 for s in sums if s}) == 1, (J, p, sums)


def test_criterion_05_tau_branch_structure():
    ok = True
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
        got = tau_table(n)
        ok = ok and got == expected
        assert got == expected, (n, got, expected)
    assert report("05 tau table n=3..12", ok)


def test_criterion_06_oracle_equivalence(shared_random_configs, shared_oracle_verdicts):
    disagreements = []
    for cfg, oracle_t in zip(shared_random_configs, shared_oracle_verdicts):
        closed_t = classify(cfg).strength
        if closed_t != oracle_t:
            disagreements.append((cfg.to_json_dict(), closed_t, oracle_t))
    assert report(
        "06 oracle equivalence", not disagreements, f"{len(shared_random_configs)} configs"
    )
    assert not disagreements, disagreements[:3]


def test_criterion_07_nine_design_impossibility(shared_oracle_verdicts):
    positivity = all(
        layer_sum_f82(n, k) > 0 for n in range(1, 21) for k in range(1, n + 1)
    )
    no_nine = all(t <= 7 for t in shared_oracle_verdicts)
    assert report("07 nine-design impossibility", positivity and no_nine)
    assert positivity and no_nine


def test_criterion_08_lemma_identities():
    ok = True
    for n in range(3, 16):
        factor = Fraction(3 * (n + 8), (n - 1) ** 2 * (n - 2))
        for k1, k2 in itertools.combinations(range(1, n + 1), 2):
            lhs = p_value(n, k1) * q_value(n, k2) - p_value(n, k2) * q_value(n, k1)
            assert lhs == factor * (k1 - k2) * g_function(n, k1, k2)
        for ks in itertools.combinations(range(1, n + 1), 3):
            total = 0
            for i in range(3):
                k_next, k_prev = ks[(i + 1) % 3], ks[(i + 2) % 3]
                total += ks[i] * (n + 2 - 3 * ks[i]) * (k_next - k_prev) * g_function(n, k_next, k_prev)
            assert total == 0
        threshold = Fraction(n + 2, 3)
        for k1, k2, k3, k4 in itertools.combinations(range(1, n + 1), 4):
            if g_function(n, k2, k3) <= 0:
                inner_ok = (
                    k2 < threshold < k3
                    and p_value(n, k2) > 0 > p_value(n, k3)
                    and g_function(n, k1, k2) > 0
                    and g_function(n, k3, k4) > 0
                )
                assert inner_ok, (n, k1, k2, k3, k4)
    assert report("08 structural identities n<=15", ok)


def test_criterion_09_harmonic_machinery():
    ok = True
    for n in range(3, 6):
        for s in range(1, 9):
            basis = full_basis(n, s)
            assert len(basis) == harm_dimension(n, s), (n, s)
            for el in basis:
                assert not laplacian(el.poly).terms, (n, s, el.index)
            if s % 2 == 0:
                subset = fully_even_subset(basis)
                assert len(subset) == fully_even_dimension(n, s), (n, s)
        for s in (2, 4, 6, 8):
            cb = criterion_basis(n, s)
            expected = fully_even_dimension(n, s)
            assert len(cb) == expected
            assert rank_of_polynomials(list(cb.elements)) == len(cb), (n, s)
            if s >= 4:
                split = sum(
                    binomial(s // 2 - 2, j - 2) * binomial(n, j) for j in range(2, s // 2 + 1)
                )
                assert split == expected
    assert report("09 harmonic machinery n<=5, s<=8", ok)


def test_criterion_10_d4_facts():
    checkerboard = make_config(4, [(2, 1, 1)])
    ok1 = verify_strength(checkerboard, 5) and not verify_strength(checkerboard, 6)
    dual = make_config(4, [(1, 1, 1), (4, 1, 1)])
    ok2 = dual.p == 1 and verify_strength(dual, 5)
    assert report("10 checkerboard lattice facts", ok1 and ok2)
    assert ok1 and ok2
