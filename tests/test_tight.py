import itertools
from fractions import Fraction

import pytest

from helpers import PAPER_TABLE_N4_ERRATA_WITNESSES, orbit_union_size, printed_tight_family
from hyperoct.moments import max_strength_oracle, verify_strength
from hyperoct.orbit import make_config
from hyperoct.strength import classify
from hyperoct.tight import (
    fisher_bound,
    hom_dimension,
    is_tight,
    tight_5_3d,
    tight_7_3d,
    tight_7_4d,
    tightness_certificate,
)


class TestFisherBound:
    def test_published_values(self):
        assert fisher_bound(3, 2, 5).value == 14
        assert fisher_bound(3, 3, 7).value == 26
        assert fisher_bound(4, 2, 7).value == 48

    def test_negative_degree_dimension_is_zero(self):
        assert hom_dimension(3, -1) == 0
        # the p = 3 term of N(3,3,7) relies on d(-1) = 0
        assert fisher_bound(3, 3, 7).per_k == (20, 6, 0)

    def test_small_bounds(self):
        assert fisher_bound(3, 1, 3).value == 6
        assert fisher_bound(3, 1, 7).value == 20
        assert fisher_bound(4, 1, 7).value == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            fisher_bound(1, 1, 3)
        with pytest.raises(ValueError):
            fisher_bound(3, 0, 3)


class TestFiveDesignFamily:
    def test_standard_parameters(self):
        cfg = tight_5_3d(1, 2, 1)
        weights = {layer.k: layer.weight for layer in cfg.layers}
        assert weights == {1: 1, 3: Fraction(9, 32)}
        assert cfg.size == 14 and cfg.p == 2
        assert classify(cfg).strength == 5
        assert is_tight(cfg)

    def test_collapsed_radii_not_tight(self):
        cfg = tight_5_3d(1, 1, 1)
        assert cfg.p == 1
        assert classify(cfg).strength == 5
        assert not is_tight(cfg)

    def test_swapped_magnitudes(self):
        cfg = tight_5_3d(4, 1, 1)
        weights = {layer.k: layer.weight for layer in cfg.layers}
        assert weights[3] == 18
        assert classify(cfg).strength == 5
        assert max_strength_oracle(cfg, 7) == 5


class TestSevenDesignFamily3d:
    def test_radii_distinct_when_parameters_differ(self):
        for rho2 in (Fraction(1, 2), Fraction(8, 3), 2, 9):
            cfg = tight_7_3d(1, rho2, 1)
            assert cfg.p == 3, rho2
            assert classify(cfg).strength == 7
            assert is_tight(cfg)

    def test_unscaled_orbit_special_case(self):
        # rho^2 = 3/8 gives the octahedron, cuboctahedron, and half cube
        # unscaled, with weights w/10 and 8w/5
        cfg = tight_7_3d(1, Fraction(3, 8), 1)
        layers = {layer.k: layer for layer in cfg.layers}
        assert layers[2].r_squared == 2 and layers[2].weight == Fraction(1, 10)
        assert layers[3].r_squared == Fraction(3, 4) and layers[3].weight == Fraction(8, 5)

    def test_half_cuboctahedron_special_case(self):
        # rho^2 = 6 gives the octahedron, half cuboctahedron, and cube
        cfg = tight_7_3d(1, 6, 1)
        layers = {layer.k: layer for layer in cfg.layers}
        assert layers[2].r_squared == Fraction(1, 2) and layers[2].weight == Fraction(32, 5)
        assert layers[3].r_squared == 3 and layers[3].weight == Fraction(1, 40)

    def test_collapsed_radii_still_strength_seven(self):
        cfg = tight_7_3d(1, 1, 1)
        assert cfg.p == 1
        assert classify(cfg).strength == 7
        assert not is_tight(cfg)  # N(3,1,7) = 20 < 26


class TestSevenDesignFamily4d:
    def test_standard_parameters(self):
        cfg = tight_7_4d(1, 2, 1)
        weights = {layer.k: layer.weight for layer in cfg.layers}
        assert weights == {1: 1, 2: Fraction(1, 8), 4: 1}
        assert cfg.size == 48 and cfg.p == 2
        assert classify(cfg).strength == 7
        assert is_tight(cfg)

    def test_collapsed_radii_spherical(self):
        cfg = tight_7_4d(1, 1, 1)
        assert cfg.p == 1
        weights = {layer.weight for layer in cfg.layers}
        assert weights == {Fraction(1)}  # constant weight: a spherical design
        assert classify(cfg).strength == 7
        assert not is_tight(cfg)  # N(4,1,7) = 40 < 48

    def test_large_ratio(self):
        cfg = tight_7_4d(9, 1, 1)
        weights = {layer.k: layer.weight for layer in cfg.layers}
        assert weights[2] == 729
        assert classify(cfg).strength == 7


def test_every_constructor_passes_oracle_and_fails_two_higher():
    cases = [
        (tight_5_3d(1, 2, 1), 5),
        (tight_7_3d(1, Fraction(8, 3), 1), 7),
        (tight_7_4d(1, 2, 1), 7),
    ]
    for cfg, t in cases:
        assert verify_strength(cfg, t)
        assert not verify_strength(cfg, t + 2)


class TestIsTight:
    def test_octahedron_is_a_tight_3_design(self):
        octa = make_config(3, [(1, 1, 1)])
        assert classify(octa).strength == 3
        assert is_tight(octa)  # 6 points, N(3,1,3) = 6

    def test_single_sphere_seven_design_is_not_tight(self):
        cfg = tight_7_3d(1, 1, 1)
        assert orbit_union_size(3, {1, 2, 3}) == 26
        assert fisher_bound(3, 1, 7).value == 20
        assert not is_tight(cfg)

    def test_meeting_a_higher_strength_bound_is_not_tight(self):
        # 14 points on two radii meet N(3,2,5) = 14, but this is only a 3-design
        cfg = make_config(3, [(1, 1, 1), (3, 2, 1)])
        assert classify(cfg).strength == 3
        assert fisher_bound(3, 2, 5).value == cfg.size
        assert not is_tight(cfg)  # N(3,2,3) = 6 < 14


@pytest.mark.parametrize(
    "cfg",
    [tight_5_3d(1, 2, 1), tight_7_3d(1, Fraction(8, 3), 1), tight_7_4d(1, 2, 1), *PAPER_TABLE_N4_ERRATA_WITNESSES.values()],
)
def test_is_tight_agrees_with_certificate(cfg):
    certificate = tightness_certificate(cfg)
    assert is_tight(cfg) is certificate["tight"]
    strength = certificate["strength_report"]["strength"]
    assert certificate["tight"] == (cfg.size == fisher_bound(cfg.n, cfg.p, strength).value)


@pytest.mark.parametrize("name, family", [("5-3d", tight_5_3d), ("7-3d", tight_7_3d), ("7-4d", tight_7_4d)])
def test_constructors_match_the_printed_weights(name, family):
    # the constructors solve for their weights; the printed formulas are the reference
    values = (Fraction(1), Fraction(2), Fraction(3, 4), Fraction(8, 3), Fraction(6))
    for r2, rho2, w in itertools.product(values, values, (Fraction(1), Fraction(2, 7))):
        assert family(r2, rho2, w) == printed_tight_family(name, r2, rho2, w), (r2, rho2, w)


@pytest.mark.parametrize("family", [tight_5_3d, tight_7_3d, tight_7_4d])
@pytest.mark.parametrize("r2, rho2", [(1, 0), (0, 1), (2, -3), (-1, 2)])
def test_constructors_reject_non_positive_radii(family, r2, rho2):
    # checked before any division: rho2 = 0, and 3 r2 + 2 rho2 = 0 in the
    # 7-3d family, would divide by zero
    with pytest.raises(ValueError, match="squared radii must be positive"):
        family(r2, rho2)


class TestSphericalDualLattice:
    def test_cross_polytope_plus_half_cube(self):
        # constant weight on one sphere: minimal vectors of the dual lattice
        cfg = make_config(4, [(1, 1, 1), (4, 1, 1)])
        assert cfg.p == 1
        assert verify_strength(cfg, 5)
        assert classify(cfg).strength == 5


def test_certificate_shape():
    certificate = tightness_certificate(tight_7_4d(1, 2, 1))
    assert certificate["tight"] is True
    assert certificate["size"] == 48
    assert certificate["fisher_bound"]["value"] == 48
    assert certificate["strength_report"]["strength"] == 7
    assert certificate["antipodal"] is True
    assert certificate["config"]["layers"][1]["weight"] == "1/8"
    assert certificate["oracle_check"] == {"ran": True, "t_max": 9}


def test_certificate_records_why_the_cross_check_did_not_run():
    # I^20_10 has 189,190,144 points, over the point cap; classify still decides the strength
    certificate = tightness_certificate(make_config(20, [(1, 1, 1), (10, 1, 1)]))
    assert certificate["strength_report"]["strength"] == 3
    assert certificate["oracle_check"] == {"ran": False, "reason": "orbit has 189190144 points, cap is 1000000"}
