"""Fast exact strength classification of orbit-union configurations.

A fully symmetric configuration is always a 3-design.  Strength 5 and 7 are
decided by a handful of exact linear conditions on the orbit sums of the
criteria of ``harmonic``, all given by one counting rule (over I^n_k, an
all-even monomial on m variables sums to 2^k C(n-m, k-m), any other to 0), and
strength 9 is impossible because the degree-8 two-variable criterion sum is
strictly positive on every orbit.  Each residual is summed in integers over
the layers, on one common denominator per call, and reduced once.  The
criterion orbit sums of a layer depend only on n and k, so ``classify`` reads
them from a bounded cache keyed by (n, k), ``_criterion_sums``, for every n up to
``_CACHED_N_MAX``, and computes them uncached above it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .numeric import _ZERO, _Frozen, binomial, dimension, format_rational, integer
from .orbit import DesignConfig, orbit_index


def g_function(n: int, k1: int, k2: int) -> int:
    """The quadratic form whose zeros govern two-orbit 7-designs.

    n passes ``numeric.dimension`` with least 1, and k1 and k2 ``numeric.integer``, so
    G is always an exact int.  It forms no 2^k, so any int index 1 <= k <= n is accepted,
    above ``orbit.INDEX_CAP`` too: every pair ``property_g`` returns can be re-checked.
    """
    k1, k2 = integer(k1, "orbit index"), integer(k2, "orbit index")
    if not (1 <= k1 <= dimension(n, 1) and 1 <= k2 <= n):
        raise ValueError("need 1 <= k1, k2 <= n")
    return (n + 2 - 3 * k1) * (n + 2 - 3 * k2) + 6 * (k1 - 1) * (k2 - 1) + 2 * (n - 1)


def property_g(n: int) -> tuple[int, int] | None:
    """The first witness pair (k1, k2), k1 <= k2, with G = 0, or None if none exists.

    For fixed k1, G(n, k1, k2) = base + slope * k2 with slope = 15 k1 - 3n - 12
    and base = (n+2-3 k1)(n+2) - 6(k1-1) + 2(n-1), so each k1 has at most one
    zero, found by one exact division (every k2 when both vanish); both step
    linearly with k1.  As 6(k1-1)(k2-1) + 2(n-1) >= 0, a zero needs
    (n+2-3 k1)(n+2-3 k2) <= 0, so k1 <= (n+2)/3 and the scan stops there.

    The test k1 <= k2 binds: a zero with 1 <= k2 < k1 would have come back
    earlier, as G is symmetric, but a zero at k2 <= 0 is no index (n = 4, k1 = 2
    gives k2 = 0), and without the test 2,654 values of n <= 20,000 answer
    differently, from n = 4, 7 and 13 on.  Only k1 < k2 would do as well, as the
    diagonal G(n, k, k) = (n+2-3k)^2 + 6(k-1)^2 + 2(n-1) has no zero for n >= 2.
    """
    dimension(n, 1)
    slope, base = 3 - 3 * n, (n - 1) * (n + 4)
    for k1 in range(1, (n + 2) // 3 + 1):
        if slope == 0:
            if base == 0:
                return (k1, k1)
        elif base % slope == 0 and k1 <= -base // slope <= n:
            return (k1, -base // slope)
        slope += 15
        base -= 3 * n + 12
    return None


# -- orbit sums of the criteria --------------------------------------


def _reduced_sum(sums: dict[int, int], n: int, k: int) -> int:
    """G = sum c_m 2^k C(n-m, k-m) divided by the positive 2^k C(n-1, k-1) / (n-1)_(M-1), M = min(max(sums), n).

    As C(n-m, k-m) = C(n-1, k-1) (k-1)_(m-1) / (n-1)_(m-1), with (x)_j the falling
    factorial, this is sum c_m (k-1)_(m-1) (n-m)_(M-m) over m <= M, as a larger support
    has no embedding: of degree at most M - 1 in n and in k, with no 2^k, so small for any k.
    """
    top = min(max(sums), n)
    return sum(c * math.perm(k - 1, m - 1) * math.perm(n - m, top - m) for m, c in sums.items() if m <= top)


# The defining equations in canonical order: each criterion's support sums, the power of
# r^2/k that scales them, and its residual ids, the i-th of which also weights each layer
# by (r^2)^i.  The sums, the coefficient totals of the all-even terms of each criterion by
# number of variables, are written out so that importing this module expands no criterion.
# A criterion whose largest support exceeds n has no embedding (f84, n = 3).
_EQUATIONS = {
    "f42": ({1: 2, 2: -6}, 2, ("f42_s0", "f42_s1", "f42_s2")),
    "f63": ({1: 6, 2: -90, 3: 180}, 3, ("f63_s0", "f63_s1")),
    "f82": ({1: 2, 2: 14}, 4, ("f82",)),
    "f84": ({1: 12, 2: -336, 3: 2520, 4: -3780}, 4, ("f84",)),
}
EQ_IDS_T7 = ("f42_s0", "f42_s1", "f63_s0")


def _layer_sum(row: int, n: int, k: int) -> int:
    """``_criterion_sums(n, k)[row]``, with a cold call's checks made before the cache lookup."""
    if not 1 <= orbit_index(k) <= dimension(n, 1):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _criterion_sums_at(n)(n, k)[row]


def layer_sum_f42(n: int, k: int) -> int:
    """Sum of x1^4 - 6 x1^2 x2^2 + x2^4 over the unscaled orbit."""
    return _layer_sum(0, n, k)


def layer_sum_f63(n: int, k: int) -> int:
    """Orbit sum of the degree-6 three-variable criterion."""
    return _layer_sum(1, n, k)


def layer_sum_f82(n: int, k: int) -> int:
    """Orbit sum of the degree-8 pair criterion; strictly positive for all k."""
    return _layer_sum(2, n, k)


def layer_sum_f84(n: int, k: int) -> int:
    """Orbit sum of the degree-8 four-variable criterion."""
    return _layer_sum(3, dimension(n, 4), k)


class StrengthReport(_Frozen):
    """Classification verdict with every defining residual, for debugging.

    Unhashable, as its residuals are a dict."""

    __slots__ = ("strength", "residuals", "nine_design_obstruction")
    strength: int
    residuals: dict[str, Fraction]
    nine_design_obstruction: str | None

    def __init__(self, strength: int, residuals: dict[str, Fraction], nine_design_obstruction: str | None = None):
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "nine_design_obstruction", nine_design_obstruction)

    def to_json_dict(self) -> dict:
        return {
            "strength": self.strength,
            "method": "closed-form",
            "residuals": {k: format_rational(v) for k, v in self.residuals.items()},
            "nine_design_obstruction": self.nine_design_obstruction,
        }


# design-scan's classify requests reach every (n, k) with 3 <= n <= 40, 817 keys; the layer
# sums fill this cache too, though no workload calls them.  An entry's four ints have about
# k + log2 C(n-1, k-1) bits each: under 0.3 KB at n <= 40, key included.  k <= INDEX_CAP but
# n is uncapped, and an entry grows with log n (0.3 MB at n = 10^20, k = 10^4), so only
# n <= _CACHED_N_MAX is cached (see ``_criterion_sums_at``): there an entry takes at most
# 8.8 KB (n = 10^4, k = 6,694), and 1,024 entries at most 9 MB.
_CACHED_N_MAX = 10**4


@lru_cache(maxsize=1024)
def _criterion_sums(n: int, k: int) -> tuple[int, ...]:
    """The orbit sum G = sum c_m 2^k C(n-m, k-m) of each ``_EQUATIONS`` criterion on
    I^n_k, in table order: ``_reduced_sum`` times its positive factor, one binomial."""
    factor = 2**k * binomial(n - 1, k - 1)
    return tuple(
        factor * _reduced_sum(sums, n, k) // math.perm(n - 1, min(max(sums), n) - 1)
        for sums, _, _ in _EQUATIONS.values()
    )


def _criterion_sums_at(n: int):
    """``_criterion_sums`` up to n = _CACHED_N_MAX, its uncached function above: chosen
    once per call, so a larger n pins no memory and costs no test per layer."""
    return _criterion_sums if n <= _CACHED_N_MAX else _criterion_sums.__wrapped__


# classify's terms.  A layer's term w (r^2/k)^scale (r^2)^power G, with r^2 = p/q,
# w = a/b, G the criterion's orbit sum and e = scale + power <= 4, equals
# a G p^e q^(4-e) k^(4-scale) / (b (k q)^4): one denominator per layer, so every
# residual is an integer total over their lcm, and only a nonzero one becomes a Fraction.
# Per criterion: its largest support, its row in _criterion_sums, 4 - scale, and
# (e, residual id) for each of its residuals, in the canonical order.
_TERMS = tuple(
    (max(sums), row, 4 - scale, tuple(enumerate(eq_ids, start=scale)))
    for row, (sums, scale, eq_ids) in enumerate(_EQUATIONS.values())
)


def classify(cfg: DesignConfig) -> StrengthReport:
    """Exact strength (3, 5, or 7) of an orbit-union configuration.

    Evaluates every defining equation: the degree-4 criterion with radius
    powers 0..2, the degree-6 criterion with powers 0..1, and the two
    degree-8 criteria.  The four-variable degree-8 equation is vacuous
    for n = 3 and is omitted there.  Each residual is summed in integers
    over the layers and reduced once, and the verdict reads the integer totals.
    """
    n = cfg.n
    layers = []
    for layer in cfg.layers:
        k = layer.k
        p, q = layer.r_squared.as_integer_ratio()
        a, b = layer.weight.as_integer_ratio()
        layers.append((k, p, q, a, b * (k * q) ** 4))
    common = math.lcm(*[den for *_, den in layers])
    rows = [row for row in _TERMS if row[0] <= n]
    totals = {eq: 0 for *_, exponents in rows for _, eq in exponents}
    criterion_sums = _criterion_sums_at(n)
    for k, p, q, a, den in layers:
        sums, scaled = criterion_sums(n, k), common // den * a
        radial = (0, 0, p * p * q * q, p**3 * q, p**4)  # p^e q^(4-e), e = 2..4
        for _, row, k_power, exponents in rows:
            term = scaled * sums[row] * k**k_power
            for e, eq in exponents:
                totals[eq] += term * radial[e]

    if not any(totals[eq] for eq in EQ_IDS_T7):
        strength = 7
    elif not totals["f42_s0"]:
        strength = 5
    else:
        strength = 3
    return StrengthReport(
        strength=strength,
        residuals={eq: Fraction(total, common) if total else _ZERO for eq, total in totals.items()},
        nine_design_obstruction=next((eq for eq, total in totals.items() if total), None),
    )
