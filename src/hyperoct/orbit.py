"""Hyperoctahedral orbits, weighted layers, and design configurations.

The orbit of e1+...+ek under all coordinate permutations and sign flips
is the set of vectors with exactly k entries equal to +-1.  Points are
kept unscaled; a layer carries the squared radius r^2 so that the scaled
point is (r/sqrt(k)) * point.  Every quantity the library sums involves
even exponent totals, so the scale only ever appears as the rational
r^2/k and no irrational number is materialized.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .numeric import _Frozen, as_rational, binomial, dimension, format_rational, integer

POINT_CAP = 10**6
# The most integers, n per point, that one enumerated orbit may hold: a wide orbit
# under POINT_CAP can still be too large for memory (n = 10^5, k = 1 has 2 * 10^5
# points and 2 * 10^10 coordinates).  Every orbit the tests, the benchmark and the
# README enumerate fits, and so does I^15_7: 12.4 M coordinates, about 155 MB as tuples.
COORDINATE_CAP = 2 * 10**7
# The largest orbit index accepted anywhere, checked by ``orbit_index`` before any 2^k
# is formed (2^k alone at k = 10**20 does not fit in memory).  The degree-4 and degree-6
# layer sums at k = n/2 take 0.02 s together at n = 10^4 and 1.0 s at n = 10^5
# (Python 3.11, one Xeon core).
INDEX_CAP = 10**4


class OrbitSizeError(ValueError):
    """Raised when an orbit enumeration would exceed POINT_CAP points or COORDINATE_CAP integers."""


class ConfigError(ValueError):
    """A configuration in the JSON wire format is malformed; the message names the field."""


def orbit_size(n: int, k: int) -> int:
    """Number of vectors with exactly k nonzero entries, each +-1."""
    if orbit_index(k) < 0:
        raise ValueError(f"need n, k >= 0, got k={k}, n={n}")
    return 2**k * binomial(dimension(n, 0), k)


def orbit_index(k) -> int:
    """k itself if it is an int (see ``numeric.integer``) of at most INDEX_CAP; a larger k
    raises ValueError."""
    if integer(k, "orbit index") > INDEX_CAP:
        raise ValueError(f"orbit index k={k} is above the cap {INDEX_CAP}")
    return k


def check_orbit(n: int, k: int) -> int:
    """The orbit size, after checking that k is an orbit index with 1 <= k <= n, the orbit
    has at most POINT_CAP points and its points hold at most COORDINATE_CAP integers."""
    if not 1 <= orbit_index(k) <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k >= POINT_CAP.bit_length():
        # 2^k alone is over the cap; k <= INDEX_CAP here, so this only spares computing C(n, k)
        raise OrbitSizeError(f"orbit has at least 2^{k} points, cap is {POINT_CAP}")
    size = orbit_size(n, k)
    if size > POINT_CAP:
        raise OrbitSizeError(f"orbit has {size} points, cap is {POINT_CAP}")
    if n * size > COORDINATE_CAP:
        raise OrbitSizeError(f"orbit has {size} points of {n} coordinates, cap is {COORDINATE_CAP} coordinates")
    return size


def orbit_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All orbit points as coordinate tuples, deterministic order."""
    check_orbit(n, k)
    points = []
    for support in itertools.combinations(range(n), k):
        for signs in itertools.product((1, -1), repeat=k):
            coords = [0] * n
            for idx, sign in zip(support, signs):
                coords[idx] = sign
            points.append(tuple(coords))
    return tuple(points)


class Layer(_Frozen):
    """One scaled orbit: the points (r/sqrt(k)) * I^n_k with one weight."""

    __slots__ = ("k", "r_squared", "weight")
    k: int
    r_squared: Fraction
    weight: Fraction

    def __init__(self, k: int, r_squared: Fraction, weight: Fraction):
        orbit_index(k)
        r_squared, weight = as_rational(r_squared), as_rational(weight)
        if k < 1:
            raise ValueError("layer index k must be positive")
        if r_squared <= 0:
            raise ValueError("squared radius must be positive")
        if weight <= 0:
            raise ValueError("weight must be positive")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r_squared", r_squared)
        object.__setattr__(self, "weight", weight)


class DesignConfig(_Frozen):
    """A union of weighted scaled orbits in dimension n."""

    __slots__ = ("n", "layers")
    n: int
    layers: tuple[Layer, ...]

    def __init__(self, n: int, layers: tuple[Layer, ...]):
        layers = tuple(layers)
        for i, layer in enumerate(layers):
            if not isinstance(layer, Layer):
                raise TypeError(f"layers[{i}] is not a Layer: {layer!r}")
        dimension(n, 3)
        layers = tuple(sorted(layers, key=lambda l: l.k))
        ks = [layer.k for layer in layers]
        if len(set(ks)) != len(ks):
            raise ValueError("layer indices k must be distinct")
        if ks and max(ks) > n:
            raise ValueError("layer index k exceeds the dimension")
        if not ks:
            raise ValueError("a configuration needs at least one layer")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "layers", layers)

    @property
    def norm_spectrum(self) -> frozenset[Fraction]:
        """Distinct squared radii."""
        return frozenset(layer.r_squared for layer in self.layers)

    @property
    def p(self) -> int:
        return len(self.norm_spectrum)

    @property
    def size(self) -> int:
        return sum(orbit_size(self.n, layer.k) for layer in self.layers)

    # -- JSON wire format --------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "layers": [
                {
                    "k": layer.k,
                    "r_squared": format_rational(layer.r_squared),
                    "weight": format_rational(layer.weight),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DesignConfig":
        """Load the JSON wire format; raises ConfigError naming the first bad field."""
        n, entries = _json_fields(data, ("n", "layers"), "configuration")
        n = _json_int(n, "n")
        if not isinstance(entries, list):
            raise ConfigError(f"layers: expected a list, got {type(entries).__name__}")
        layers = []
        for i, entry in enumerate(entries):
            field = f"layers[{i}]"
            k, r2, weight = _json_fields(entry, ("k", "r_squared", "weight"), field)
            k = _json_int(k, f"{field}.k")
            layers.append((k, _json_rational(r2, f"{field}.r_squared"), _json_rational(weight, f"{field}.weight")))
        try:
            return make_config(n, layers)
        except ValueError as exc:
            raise ConfigError(f"configuration: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _json_fields(data, keys: tuple[str, ...], field: str) -> list:
    """Values of exactly the given keys of a JSON object, in order."""
    if not isinstance(data, dict):
        raise ConfigError(f"{field}: expected a JSON object, got {type(data).__name__}")
    bad = sorted(set(data) ^ set(keys))
    if bad:
        raise ConfigError(f"{field}: {'unknown' if bad[0] in data else 'missing'} key {bad[0]!r}")
    return [data[key] for key in keys]


def _json_int(value, field: str) -> int:
    # bool is a subclass of int, and int() would truncate a float silently
    if type(value) is not int:
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def _json_rational(value, field: str) -> Fraction:
    try:
        return as_rational(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected an integer or a 'p/q' string, got {value!r}") from None


def make_config(n: int, layers: list[tuple[int, object, object]]) -> DesignConfig:
    """Build a config from (k, r_squared, weight) triples."""
    return DesignConfig(
        n=n,
        layers=tuple(Layer(k=k, r_squared=r2, weight=w) for k, r2, w in layers),
    )
