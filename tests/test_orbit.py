import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import MALFORMED_CONFIGS, orbit_union_size, partition_check
from hyperoct.numeric import binomial
from hyperoct.orbit import (
    COORDINATE_CAP,
    INDEX_CAP,
    ConfigError,
    DesignConfig,
    Layer,
    OrbitSizeError,
    check_orbit,
    make_config,
    orbit_size,
    orbit_tuples,
)
from hyperoct.solver import solve_t5
from hyperoct.strength import layer_sum_f42


class TestEnumeration:
    def test_octahedron(self):
        points = orbit_tuples(3, 1)
        assert len(points) == 6
        assert set(points) == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
        }

    def test_cuboctahedron_count(self):
        assert len(orbit_tuples(3, 2)) == 12

    def test_full_support_count(self):
        assert len(orbit_tuples(4, 4)) == 16

    def test_counts_match_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                points = orbit_tuples(n, k)
                assert len(points) == 2**k * binomial(n, k)
                assert len(set(points)) == len(points)

    def test_unscaled_norms(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for coords in orbit_tuples(n, k):
                    assert sum(c * c for c in coords) == k

    def test_cap(self):
        # I^20_10 has 189,190,144 points; the cap is checked before any is built
        with pytest.raises(OrbitSizeError):
            orbit_tuples(20, 10)
        # I^100000_1 has 2 * 10^5 points, under the point cap, but 2 * 10^10 coordinates
        with pytest.raises(OrbitSizeError, match="coordinates"):
            orbit_tuples(10**5, 1)
        # the widest orbit the documentation enumerates, I^15_7, is admitted
        assert 15 * orbit_size(15, 7) <= COORDINATE_CAP
        check_orbit(15, 7)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            orbit_tuples(3, 4)

    def test_orbit_size_domain(self):
        assert orbit_size(3, 4) == 0
        for n, k in [(3, -1), (-1, 2), (-2, -1)]:
            with pytest.raises(ValueError):
                orbit_size(n, k)


def test_orbit_closed_under_group_elements():
    rng = random.Random(7)
    for n, k in [(3, 2), (4, 2), (5, 3)]:
        points = set(orbit_tuples(n, k))
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            image = {
                tuple(signs[i] * coords[perm[i]] for i in range(n)) for coords in points
            }
            assert image == points


class TestPartition:
    def test_small_dimensions(self):
        for n in range(1, 7):
            assert partition_check(n)

    def test_size_identity_up_to_twelve(self):
        for n in range(1, 13):
            assert sum(2**k * binomial(n, k) for k in range(n + 1)) == 3**n


class TestUnionSize:
    def test_published_sizes(self):
        assert orbit_union_size(3, {1, 3}) == 14
        assert orbit_union_size(3, {1, 2, 3}) == 26
        assert orbit_union_size(4, {1, 2, 4}) == 48

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            orbit_union_size(3, {0, 1})


class TestLayerValidation:
    def test_positive_quantities_required(self):
        with pytest.raises(ValueError):
            Layer(k=1, r_squared=Fraction(0), weight=Fraction(1))
        with pytest.raises(ValueError):
            Layer(k=1, r_squared=Fraction(1), weight=Fraction(-1))
        with pytest.raises(ValueError, match="layer index k must be positive"):
            Layer(k=0, r_squared=Fraction(1), weight=Fraction(1))

    def test_config_checks(self):
        with pytest.raises(ValueError):
            make_config(2, [(1, 1, 1)])
        with pytest.raises(ValueError):
            make_config(3, [(1, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            make_config(3, [(4, 1, 1)])
        with pytest.raises(ValueError):
            DesignConfig(n=3, layers=())
        # a float n would build a config that classify cannot read
        for n in (4.5, 4.0, True, "4"):
            with pytest.raises(ValueError, match="dimension n must be an int"):
                make_config(n, [(1, 1, 1)])

    def test_a_layer_that_is_not_a_layer_is_named(self):
        # a bare (k, r^2, w) triple is what make_config takes, not DesignConfig
        layer = Layer(1, 1, 1)
        for layers, bad in [(((1, 1, 1),), "layers[0]"), ((layer, None), "layers[1]"), ((layer, "3"), "layers[1]")]:
            with pytest.raises(TypeError, match=rf"{re.escape(bad)} is not a Layer"):
                DesignConfig(3, layers)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, Fraction(1), "1"])
    def test_orbit_index_must_be_an_int(self, k):
        # neither truncated nor coerced: 1.5 would otherwise build a config that classify cannot read
        with pytest.raises(ValueError, match="orbit index must be an int"):
            make_config(3, [(k, 1, 1)])
        # nor let past by the enumeration once an int index has been enumerated
        orbit_tuples(3, 1)
        with pytest.raises(ValueError, match="orbit index must be an int"):
            orbit_tuples(3, k)

    def test_orbit_index_above_the_cap_is_refused(self):
        # refused before 2^k is formed: at k = 10**20 that number alone would not fit in memory
        assert orbit_size(INDEX_CAP, INDEX_CAP) == 2**INDEX_CAP
        assert layer_sum_f42(INDEX_CAP, INDEX_CAP) < 0
        for k in (INDEX_CAP + 1, 10**20):
            with pytest.raises(ValueError, match="above the cap"):
                make_config(10**20, [(k, 1, 1)])
            with pytest.raises(ValueError, match="above the cap"):
                orbit_size(10**20, k)
            with pytest.raises(ValueError, match="above the cap"):
                layer_sum_f42(10**20, k)
            with pytest.raises(ValueError, match="above the cap"):
                solve_t5(10**20, [k])

    def test_layers_sorted_and_properties(self):
        cfg = make_config(4, [(4, 1, 2), (1, 1, 1), (2, 3, 1)])
        assert [layer.k for layer in cfg.layers] == [1, 2, 4]
        assert cfg.norm_spectrum == {Fraction(1), Fraction(3)}
        assert cfg.p == 2
        assert cfg.size == 8 + 24 + 16


rationals = st.fractions(min_value=Fraction(1, 100), max_value=100).filter(lambda q: q > 0)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_json_round_trip_bit_exact(r2s, ws):
    cfg = make_config(4, [(1, r2s[0], ws[0]), (3, r2s[1], ws[1])])
    again = DesignConfig.from_json_dict(json.loads(cfg.to_json()))
    assert again == cfg
    assert [l.r_squared for l in again.layers] == [l.r_squared for l in cfg.layers]
    assert [l.weight for l in again.layers] == [l.weight for l in cfg.layers]


def test_json_schema_shape():
    cfg = make_config(3, [(1, 1, 1), (3, Fraction(5, 8), Fraction(9, 32))])
    data = cfg.to_json_dict()
    assert data == {
        "n": 3,
        "layers": [
            {"k": 1, "r_squared": "1", "weight": "1"},
            {"k": 3, "r_squared": "5/8", "weight": "9/32"},
        ],
    }


@pytest.mark.parametrize("field", sorted(MALFORMED_CONFIGS))
def test_malformed_json_config_names_the_field(field):
    with pytest.raises(ConfigError) as info:
        DesignConfig.from_json_dict(MALFORMED_CONFIGS[field])
    assert field in str(info.value)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"n": True, "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}, "n: expected an integer"),
        ({"n": 3, "layers": [{"k": 1, "r_squared": "1"}]}, "missing key 'weight'"),
        ({"n": 3, "layers": [{"k": 1, "r_squared": "1", "weight": "-2"}]}, "weight must be positive"),
        ({"n": 3, "layers": [], "extra": 1}, "unknown key 'extra'"),
        ({"n": 2, "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}, "n >= 3"),
    ],
)
def test_json_config_validation_edge_cases(data, field):
    with pytest.raises(ConfigError) as info:
        DesignConfig.from_json_dict(data)
    assert field in str(info.value)
