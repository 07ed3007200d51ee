"""The contract of the eight immutable record types: construction, equality, hash,
repr, immutability, pickling and copying, and pattern matching."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from hyperoct.harmonic import BasisElement, CriterionBasis
from hyperoct.orbit import DesignConfig, Layer
from hyperoct.poly import GegenbauerPoly, Polynomial
from hyperoct.solver import FeasibilityResult
from hyperoct.strength import StrengthReport
from hyperoct.tight import FisherBound

_LAYER = Layer(1, 1, Fraction(1, 2))
_CONFIG = DesignConfig(3, (Layer(3, 2, 1), _LAYER))
_POLY = Polynomial(2, {((1, 2),): 1, ((2, 2),): -1})

# each record type: its fields in order, the defaults of its trailing fields, one
# instance and that instance's repr
RECORDS = [
    (
        Layer, ("k", "r_squared", "weight"), (), _LAYER,
        "Layer(k=1, r_squared=Fraction(1, 1), weight=Fraction(1, 2))",
    ),
    (
        DesignConfig, ("n", "layers"), (), _CONFIG,
        "DesignConfig(n=3, layers=(Layer(k=1, r_squared=Fraction(1, 1), weight=Fraction(1, 2)), "
        "Layer(k=3, r_squared=Fraction(2, 1), weight=Fraction(1, 1))))",
    ),
    (
        StrengthReport, ("strength", "residuals", "nine_design_obstruction"), (None,),
        StrengthReport(5, {"f42_s0": Fraction(0), "f42_s1": Fraction(-3, 4)}, "f42_s1"),
        "StrengthReport(strength=5, residuals={'f42_s0': Fraction(0, 1), 'f42_s1': Fraction(-3, 4)}, "
        "nine_design_obstruction='f42_s1')",
    ),
    (
        FeasibilityResult, ("feasible", "reason", "solution"), (None,),
        FeasibilityResult(True, "t5:pair-straddles-balance", DesignConfig(3, (_LAYER,))),
        "FeasibilityResult(feasible=True, reason='t5:pair-straddles-balance', solution=DesignConfig(n=3, "
        "layers=(Layer(k=1, r_squared=Fraction(1, 1), weight=Fraction(1, 2)),)))",
    ),
    (
        FisherBound, ("n", "p", "t", "value", "per_k"), (), FisherBound(3, 2, 5, 14, (9, 5)),
        "FisherBound(n=3, p=2, t=5, value=14, per_k=(9, 5))",
    ),
    (
        GegenbauerPoly, ("degree", "alpha", "coefficients"), (),
        GegenbauerPoly(2, Fraction(1, 2), (Fraction(-1, 2), Fraction(0), Fraction(3, 2))),
        "GegenbauerPoly(degree=2, alpha=Fraction(1, 2), coefficients=(Fraction(-1, 2), Fraction(0, 1), "
        "Fraction(3, 2)))",
    ),
    (
        BasisElement, ("index", "poly"), (), BasisElement((2, 1), _POLY),
        "BasisElement(index=(2, 1), poly=Polynomial(2, x1^2-x2^2))",
    ),
    (
        CriterionBasis, ("n", "s", "elements"), (), CriterionBasis(2, 2, (_POLY,)),
        "CriterionBasis(n=2, s=2, elements=(Polynomial(2, x1^2-x2^2),))",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _fields(record, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, defaults, record, text", RECORDS, ids=IDS)
def test_construction_positional_and_by_keyword(cls, names, defaults, record, text):
    assert list(inspect.signature(cls).parameters) == list(names)
    assert cls.__init__.__defaults__ == (defaults or None)
    values = _fields(record, names)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    if defaults:
        # the trailing fields left out take their defaults
        shortened = cls(*values[: -len(defaults)])
        assert _fields(shortened, names) == values[: -len(defaults)] + defaults


@pytest.mark.parametrize("cls, names, defaults, record, text", RECORDS, ids=IDS)
def test_equality_hash_and_repr_follow_the_fields(cls, names, defaults, record, text):
    values = _fields(record, names)
    assert record == cls(*values) and not record != cls(*values)
    # another class with the same fields is never equal
    assert record != values
    assert record.__eq__(values) is NotImplemented
    if cls is StrengthReport:
        # its residuals are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(values)
    assert repr(record) == text
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, defaults, record, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, defaults, record, text):
    for name in (*names, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record, names) == _fields(cls(*_fields(record, names)), names)


@pytest.mark.parametrize("cls, names, defaults, record, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, names, defaults, record, text):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text


def test_positional_match_binds_the_fields_in_order():
    match _LAYER:
        case Layer(k, r_squared, weight):
            assert (k, r_squared, weight) == (1, 1, Fraction(1, 2))
        case _:
            pytest.fail("Layer did not match")


class TestPolynomialRecord:
    """Polynomial is a record of the same base, but hashes its terms as a frozenset, so it
    is not in RECORDS: the hash of its field tuple would fail on the terms dict."""

    def test_fields_cannot_be_deleted(self):
        for name in ("terms", "nvars"):
            with pytest.raises(AttributeError):
                delattr(_POLY, name)
        assert _POLY.nvars == 2 and _POLY.terms == {((1, 2),): 1, ((2, 2),): -1}

    def test_fields_cannot_be_assigned(self):
        for name in ("terms", "nvars", "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(_POLY, name, 1)

    def test_pickle_and_copy_round_trips(self):
        for clone in (pickle.loads(pickle.dumps(_POLY)), copy.copy(_POLY), copy.deepcopy(_POLY)):
            assert type(clone) is Polynomial
            assert clone == _POLY and hash(clone) == hash(_POLY)

    def test_positional_match_binds_the_fields_in_order(self):
        assert Polynomial.__match_args__ == ("nvars", "terms")
        match _POLY:
            case Polynomial(nvars, terms):
                assert (nvars, terms) == (2, _POLY.terms)
            case _:
                pytest.fail("Polynomial did not match")

    def test_never_equal_to_a_number(self):
        assert (Polynomial(2) == 0) is False and (Polynomial.constant(1, 2) == 1) is False
        assert _POLY != (2, _POLY.terms)
