"""Affine exponent arithmetic and queries."""

from fractions import Fraction

import pytest

from qorder.exponents import ONE_EXP, ZERO_EXP, ExponentExpr
from qorder.scalars import ScalarError, ScalarExpr


def test_make_and_queries():
    e = ExponentExpr.make(Fraction(1, 2), {"alpha": 1, "gamma": -2})
    assert not e.is_constant
    assert e.as_int() is None
    assert ExponentExpr.number(3).as_int() == 3
    assert ExponentExpr.number(Fraction(1, 2)).as_int() is None
    assert ZERO_EXP.is_zero and not ONE_EXP.is_zero


def test_zero_coefficients_dropped():
    e = ExponentExpr.make(1, {"alpha": 0})
    assert e.is_constant
    assert e == ExponentExpr.number(1)


def test_arithmetic():
    a = ExponentExpr.param("alpha")
    one = ExponentExpr.number(1)
    assert a + (one - a) == one
    assert (a - a).is_zero
    assert a.scale(2) - a == a
    assert -a + a == ZERO_EXP
    assert a + 1 == a + one


def test_hashable():
    a = ExponentExpr.param("alpha")
    assert hash(a + 1) == hash(ExponentExpr.make(1, {"alpha": 1}))


def test_to_scalar():
    e = ExponentExpr.make(Fraction(1, 2), {"alpha": 2})
    assert e.to_scalar() == (ScalarExpr(Fraction(1, 2))
                             + ScalarExpr(2) * ScalarExpr.param("alpha"))


def test_to_scalar_keeps_whole_values_ints():
    """Whole exponent coefficients reach the scalar as ints, not as
    Fraction(n, 1), so the coefficient arithmetic stays on ints."""
    e = ExponentExpr.make(Fraction(-3), {"s": Fraction(2)})
    assert e.to_scalar() == ScalarExpr(-3) + ScalarExpr(2) * ScalarExpr.param("s")
    parts = [part for re_im in e.to_scalar()._num.values() for part in re_im]
    assert parts and all(type(part) is int for part in parts)


def test_rejects_irrational():
    with pytest.raises(ScalarError):
        ExponentExpr.make(0.5)
    with pytest.raises(ScalarError):
        ExponentExpr._coerce(0.5)
