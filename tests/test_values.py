"""The value classes: constructor defaults, validation, read-only fields,
equality only within a class, hashes and the ``Name(field=value, ...)``
repr, each pinned to what the classes did as dataclasses."""

import copy
import dataclasses
import inspect
import math
import pickle
import pprint
from fractions import Fraction

import pytest

from qorder.bessel import BesselEval
from qorder.coordinate import CoordinateEigenfunction, ResidualReport
from qorder.exponents import ONE_EXP, ExponentExpr
from qorder.identities import Identity, IntegralIdentity
from qorder.operators import BaseKind, Factor, OperatorWord, p_power, x_power
from qorder.ordering import (AmbiguityReport, Convention, NormalForm,
                             ODEDescriptor)
from qorder.parser import ParseError, SourceSpan
from qorder.quadrature import QuadratureSpec
from qorder.scalars import ONE, ParamSymbol, ScalarError, ScalarExpr
from qorder.verification import MomentumEigenfunction, Reconstruction

_X = ("Factor(kind=<BaseKind.X: 'x'>, exponent=ExponentExpr(const=1, "
      "linear=()), name='', deriv=0)")

# (class, constructor arguments, repr); the values hash as the tuple of
# their arguments, or raise TypeError for an unhashable field
VALUES = [
    (ParamSymbol, ("alpha",), "ParamSymbol(name='alpha')"),
    (ExponentExpr, (Fraction(1, 2), (("alpha", -1),)),
     "ExponentExpr(const=Fraction(1, 2), linear=(('alpha', -1),))"),
    (Factor, (BaseKind.FUNC, ONE_EXP, "f", 1),
     "Factor(kind=<BaseKind.FUNC: 'func'>, exponent=ExponentExpr(const=1, "
     "linear=()), name='f', deriv=1)"),
    (OperatorWord, (ScalarExpr(2), (x_power(1), p_power(2))),
     f"OperatorWord(coefficient=ScalarExpr(2), factors=({_X}, "
     "Factor(kind=<BaseKind.P: 'p'>, exponent=ExponentExpr(const=2, "
     "linear=()), name='', deriv=0)))"),
    (SourceSpan, (2, 5), "SourceSpan(start=2, end=5)"),
    (ParseError, ("unexpected token", SourceSpan(2, 5), ["number"]),
     "ParseError(message='unexpected token', span=SourceSpan(start=2, "
     "end=5), expected=['number'])"),
    (NormalForm, (Convention.COORDINATE, (OperatorWord(ONE, (x_power(1),)),)),
     "NormalForm(convention=<Convention.COORDINATE: 'coordinate'>, "
     f"words=(OperatorWord(coefficient=ScalarExpr(1), factors=({_X},)),))"),
    (AmbiguityReport, ((ParamSymbol("alpha"),), ()),
     "AmbiguityReport(free_params=(ParamSymbol(name='alpha'),), "
     "surviving_terms=())"),
    (ODEDescriptor, (ScalarExpr(1), ScalarExpr(0), ParamSymbol("E")),
     "ODEDescriptor(a=ScalarExpr(1), b=ScalarExpr(0), "
     "energy=ParamSymbol(name='E'))"),
    (Identity, ("eq0", Convention.MOMENTUM, "p * x", "x * p", True, ("a",),
                ("x",), "d"),
     "Identity(id='eq0', convention=<Convention.MOMENTUM: 'momentum'>, "
     "text='p * x', expected='x * p', hermitize=True, params=('a',), "
     "surviving=('x',), detail='d')"),
    (IntegralIdentity, ("eq11[a=1,b=2]", 1.0, 2.0),
     "IntegralIdentity(id='eq11[a=1,b=2]', a=1.0, b=2.0)"),
    (BesselEval, (0.5, 1e-12), "BesselEval(value=0.5, abs_error_bound=1e-12)"),
    (CoordinateEigenfunction, (1.5, 0.5, 1.0),
     "CoordinateEigenfunction(E=1.5, hbar=0.5, nu=1.0)"),
    (ResidualReport, ((1.0, 2.0), (1e-9, 2e-9), 1e-8),
     "ResidualReport(grid=(1.0, 2.0), residuals=(1e-09, 2e-09), "
     "tolerance=1e-08)"),
    (QuadratureSpec, (12,), "QuadratureSpec(max_subdivisions=12)"),
    (MomentumEigenfunction, (1.5, 0.5, 2j),
     "MomentumEigenfunction(E=1.5, hbar=0.5, N=2j)"),
    (Reconstruction, (1j, 1e-12), "Reconstruction(value=1j, abs_error=1e-12)"),
]
UNHASHABLE = {OperatorWord: "ScalarExpr", ODEDescriptor: "ScalarExpr",
              NormalForm: "NormalForm", ParseError: "ParseError"}
IDS = [cls.__name__ for cls, _, _ in VALUES]

# (class, required arguments, the defaulted fields)
DEFAULTS = [
    (ExponentExpr, (), {"const": 0, "linear": ()}),
    (Factor, (BaseKind.X, ONE_EXP), {"name": "", "deriv": 0}),
    (OperatorWord, (), {"coefficient": ONE, "factors": ()}),
    (ParseError, ("m", SourceSpan(0, 0)), {"expected": []}),
    (Identity, ("i", Convention.COORDINATE, "x", "x"),
     {"hermitize": False, "params": ("alpha",), "surviving": (),
      "detail": None}),
    (CoordinateEigenfunction, (1.0, 1.0), {"nu": 0.0}),
    (QuadratureSpec, (), {"max_subdivisions": 24}),
    (MomentumEigenfunction, (1.0, 1.0), {"N": 1.0}),
]

# (class, arguments, error, message)
INVALID = [
    (ParamSymbol, ("1a",), ScalarError, "invalid parameter name '1a'"),
    (ParamSymbol, ("i",), ScalarError,
     '"i" is reserved for the imaginary unit'),
    (Factor, (BaseKind.FUNC, ONE_EXP, "x"), ScalarError,
     "invalid function name 'x'"),
    (Factor, (BaseKind.FUNC, ONE_EXP, "f", -1), ScalarError,
     "derivative order must be nonnegative"),
    (Factor, (BaseKind.P, ONE_EXP, "f"), ScalarError,
     "x/p factors carry no function name"),
    (Factor, (BaseKind.X, ONE_EXP, "", 1), ScalarError,
     "x/p factors carry no derivative order"),
    (SourceSpan, (3, 2), ValueError, "span start after end"),
    (ParseError, ("", SourceSpan(0, 0)), ValueError,
     "empty parse error message"),
    (CoordinateEigenfunction, (0.0, 1.0), ValueError,
     "domain error: CoordinateEigenfunction needs finite E, hbar > 0, "
     "got E=0.0, hbar=1.0"),
    (CoordinateEigenfunction, (1.0, 1.0, -1.0), ValueError,
     "domain error: CoordinateEigenfunction needs finite nu >= 0, "
     "got nu=-1.0"),
    (ResidualReport, ((1.0,), (), 1e-8), ValueError,
     "grid/residual length mismatch"),
    (QuadratureSpec, (9,), ValueError,
     "max_subdivisions, the lobe budget of a quadrature, must be at least "
     "10, got 9"),
    (MomentumEigenfunction, (math.nan, 1.0), ValueError,
     "domain error: MomentumEigenfunction needs finite E and finite "
     "hbar > 0, got E=nan, hbar=1.0"),
    (MomentumEigenfunction, (1.0, 1.0, complex(math.inf, 0)), ValueError,
     "domain error: MomentumEigenfunction needs a finite N, got N=(inf+0j)"),
]


def _fields(value):
    """The field names: the constructor's parameters."""
    return list(inspect.signature(type(value)).parameters)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_repr_names_every_field(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_fields_hold_the_constructor_arguments(cls, args, text):
    value = cls(*args)
    assert tuple(getattr(value, name) for name in _fields(value)) == args
    keywords = dict(zip(_fields(value), args))
    assert cls(**keywords) == value


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[case[0].__name__ for case in DEFAULTS])
def test_defaults(cls, required, defaults):
    value = cls(*required)
    assert {name: getattr(value, name) for name in defaults} == defaults


def test_default_lists_are_not_shared():
    first = ParseError("m", SourceSpan(0, 0))
    first.expected.append("number")
    assert ParseError("m", SourceSpan(0, 0)).expected == []


@pytest.mark.parametrize("cls, args, error, message", INVALID,
                         ids=[case[0].__name__ for case in INVALID])
def test_validation_messages(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_fields_are_read_only(cls, args, text):
    value = cls(*args)
    for name in _fields(value):
        if cls is ParseError:   # an exception, assignable like any other
            setattr(value, name, getattr(value, name))
            continue
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    if cls is not ParseError:
        with pytest.raises(AttributeError):
            value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_equality_only_within_a_class(cls, args, text):
    value = cls(*args)
    assert value == cls(*args)
    assert not value != cls(*args)
    assert value != args
    for other_cls, other_args, _ in VALUES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_equal_values_hash_equal(cls, args, text):
    value = cls(*args)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=f"unhashable type: "
                                            f"'{UNHASHABLE[cls]}'"):
            hash(value)
        return
    assert hash(value) == hash(cls(*args)) == hash(args)
    assert {value: 1}[cls(*args)] == 1


def test_unequal_fields_are_unequal():
    assert ExponentExpr(1) != ExponentExpr(2)
    assert ExponentExpr(1, (("a", 1),)) != ExponentExpr(1, (("b", 1),))
    assert Factor(BaseKind.X, ONE_EXP) != Factor(BaseKind.P, ONE_EXP)
    assert SourceSpan(0, 1) != SourceSpan(0, 2)
    assert AmbiguityReport((), ()) != AmbiguityReport((ParamSymbol("a"),), ())
    # equal fields, different classes
    assert BesselEval(0.5, 1e-12) != Reconstruction(0.5, 1e-12)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, args, text):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_dataclasses_functions_accept_the_values(cls, args, text):
    value = cls(*args)
    assert dataclasses.is_dataclass(value)
    names = _fields(value)
    assert [f.name for f in dataclasses.fields(value)] == names
    assert dataclasses.replace(value) == value
    changed = dataclasses.replace(value, **{names[0]: args[0]})
    assert type(changed) is cls and repr(changed) == text
    assert list(dataclasses.asdict(value)) == names
    # pprint reads the dataclass parameters of a long repr
    assert pprint.pformat(value, width=20) == text
    assert value.__dataclass_params__.frozen is (cls is not ParseError)
