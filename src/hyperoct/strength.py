"""Fast exact strength classification of orbit-union configurations.

A fully symmetric configuration is always a 3-design.  Strength 5 and 7
are decided by a handful of exact linear conditions on the orbit sums of
the criterion polynomials of ``harmonic``, all given by one counting rule
(``orbit_sum``), and strength 9 is impossible because the degree-8
two-variable criterion sum is strictly positive on every orbit.  Each
residual is summed in integers over the layers and reduced once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .harmonic import criterion_f42, criterion_f63, criterion_f82, criterion_f84
from .numeric import binomial, format_rational, fraction_sum
from .orbit import DesignConfig, orbit_index
from .poly import Polynomial


def g_function(n: int, k1: int, k2: int) -> int:
    """The quadratic form whose zeros govern two-orbit 7-designs."""
    if not (1 <= orbit_index(k1) <= n and 1 <= orbit_index(k2) <= n):
        raise ValueError("need 1 <= k1, k2 <= n")
    return (n + 2 - 3 * k1) * (n + 2 - 3 * k2) + 6 * (k1 - 1) * (k2 - 1) + 2 * (n - 1)


def property_g(n: int) -> tuple[int, int] | None:
    """The first witness pair (k1, k2), k1 <= k2, with G = 0, or None if none exists.

    For fixed k1, G(n, k1, k2) = base + slope * k2 with slope = 15 k1 - 3n - 12
    and base = (n+2-3 k1)(n+2) - 6(k1-1) + 2(n-1), so each k1 has at most one
    zero, found by one exact division (every k2 when both vanish); both step
    linearly with k1.  As 6(k1-1)(k2-1) + 2(n-1) >= 0, a zero needs
    (n+2-3 k1)(n+2-3 k2) <= 0, so k1 <= (n+2)/3 and the scan stops there.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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


# -- orbit sums of the criterion polynomials -------------------------


def orbit_sum(poly: Polynomial, n: int, k: int) -> Fraction:
    """Sum of poly over the unscaled orbit I^n_k, term by term.

    A monomial whose m nonzero exponents are all even is 1 at the 2^k C(n-m, k-m)
    points whose support covers its variables and 0 elsewhere; one with an odd
    exponent sums to 0, as flipping that coordinate's sign maps the orbit onto
    itself and negates it.  Only the exponents matter, not which variables carry them.
    """
    if poly.nvars > n:
        raise ValueError(f"polynomial on {poly.nvars} variables has no orbit sum in dimension n={n}")
    return Fraction(_grouped_sum(_support_sums(poly), n, k))


def _support_sums(poly: Polynomial) -> dict[int, Fraction | int]:
    """Coefficient totals of poly's all-even terms, keyed by their number of variables."""
    sums: dict[int, Fraction] = {}
    for mono, coeff in poly.terms.items():
        if all(e % 2 == 0 for _, e in mono):
            sums[len(mono)] = sums.get(len(mono), 0) + coeff
    return {m: int(c) if c.denominator == 1 else c for m, c in sums.items()}


def _grouped_sum(sums: dict[int, Fraction | int], n: int, k: int):
    if not 1 <= orbit_index(k) <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 2**k * sum(c * binomial(n - m, k - m) for m, c in sums.items())


def _reduced_sum(sums: dict[int, int], n: int, k: int) -> int:
    """``_grouped_sum`` divided by the positive 2^k C(n-1, k-1) / (n-1)_(M-1), M = max(sums); needs n >= M.

    As C(n-m, k-m) = C(n-1, k-1) (k-1)_(m-1) / (n-1)_(m-1), with (x)_j the falling
    factorial, this is sum c_m (k-1)_(m-1) (n-m)_(M-m): a polynomial in n and k
    with no 2^k, so it stays small for any k.
    """
    top = max(sums)
    return sum(c * math.perm(k - 1, m - 1) * math.perm(n - m, top - m) for m, c in sums.items())


# The defining equations in canonical order: each criterion's support sums (integers,
# grouped once, so a layer sum costs what a closed form did), the power of r^2/k that
# scales them, and its residual ids, the i-th of which also weights each layer by
# (r^2)^i.  A criterion whose largest support exceeds n has no embedding (f84, n = 3).
_EQUATIONS = {
    "f42": (_support_sums(criterion_f42()), 2, ("f42_s0", "f42_s1", "f42_s2")),
    "f63": (_support_sums(criterion_f63()), 3, ("f63_s0", "f63_s1")),
    "f82": (_support_sums(criterion_f82()), 4, ("f82",)),
    "f84": (_support_sums(criterion_f84()), 4, ("f84",)),
}
EQ_IDS_T7 = ("f42_s0", "f42_s1", "f63_s0")
EQ_IDS_T9 = tuple(eq for _, _, eq_ids in _EQUATIONS.values() for eq in eq_ids)


def layer_sum_f42(n: int, k: int) -> int:
    """Sum of x1^4 - 6 x1^2 x2^2 + x2^4 over the unscaled orbit."""
    return _grouped_sum(_EQUATIONS["f42"][0], n, k)


def layer_sum_f63(n: int, k: int) -> int:
    """Orbit sum of the degree-6 three-variable criterion."""
    return _grouped_sum(_EQUATIONS["f63"][0], n, k)


def layer_sum_f82(n: int, k: int) -> int:
    """Orbit sum of the degree-8 pair criterion; strictly positive for all k."""
    return _grouped_sum(_EQUATIONS["f82"][0], n, k)


def layer_sum_f84(n: int, k: int) -> int:
    """Orbit sum of the degree-8 four-variable criterion."""
    if n < 4:
        raise ValueError("the four-variable criterion needs n >= 4")
    return _grouped_sum(_EQUATIONS["f84"][0], n, k)


@dataclass(frozen=True)
class StrengthReport:
    """Classification verdict with every defining residual, for debugging."""

    strength: int
    residuals: dict[str, Fraction]
    method: str = "closed-form"
    nine_design_obstruction: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "strength": self.strength,
            "method": self.method,
            "residuals": {k: format_rational(v) for k, v in self.residuals.items()},
            "nine_design_obstruction": self.nine_design_obstruction,
        }


def classify(cfg: DesignConfig) -> StrengthReport:
    """Exact strength (3, 5, or 7) of an orbit-union configuration.

    Evaluates every defining equation: the degree-4 criterion with radius
    powers 0..2, the degree-6 criterion with powers 0..1, and the two
    degree-8 criteria.  The four-variable degree-8 equation is vacuous
    for n = 3 and is omitted there.
    """
    n = cfg.n
    # each layer read once as ints: k, r^2 = p/q, w = a/b
    layers = [(layer.k, *layer.r_squared.as_integer_ratio(), *layer.weight.as_integer_ratio()) for layer in cfg.layers]
    residuals: dict[str, Fraction] = {}
    for sums, scale, eq_ids in _EQUATIONS.values():
        if max(sums) > n:
            continue
        # w (r^2/k)^scale (r^2)^power G = a p^e G / (b q^e k^scale), e = scale + power
        terms = [(a * _grouped_sum(sums, n, k), b * k**scale, p, q) for k, p, q, a, b in layers]
        for e, eq in enumerate(eq_ids, start=scale):
            residuals[eq] = fraction_sum((num * p**e, den * q**e) for num, den, p, q in terms)

    if all(residuals[eq] == 0 for eq in EQ_IDS_T7):
        strength = 7
    elif residuals["f42_s0"] == 0:
        strength = 5
    else:
        strength = 3
    obstruction = next(
        (eq for eq in EQ_IDS_T9 if eq in residuals and residuals[eq] != 0),
        None,
    )
    return StrengthReport(
        strength=strength,
        residuals=residuals,
        method="closed-form",
        nine_design_obstruction=obstruction,
    )
