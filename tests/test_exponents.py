"""Affine exponent arithmetic and queries."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qorder.exponents import ONE_EXP, ExponentExpr
from qorder.scalars import ScalarError, ScalarExpr


def test_make_and_queries():
    e = ExponentExpr.make(Fraction(1, 2), {"alpha": 1, "gamma": -2})
    assert not e.is_constant
    assert e.as_int() is None
    assert ExponentExpr.number(3).as_int() == 3
    assert ExponentExpr.number(Fraction(1, 2)).as_int() is None
    assert ExponentExpr.number(0).is_zero and not ONE_EXP.is_zero


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
    assert -a + a == ExponentExpr.number(0)
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


def test_whole_values_are_stored_as_ints():
    """One rational rule: a whole constant or coefficient is an int,
    whatever built it, and as_int hands back that int."""
    assert type(ExponentExpr.number(Fraction(4, 2)).const) is int
    half = ExponentExpr.number(Fraction(1, 2))
    assert type((half + half).const) is int
    e = ExponentExpr.make(Fraction(-6, 3), {"alpha": Fraction(6, 3)})
    assert [type(v) for v in (e.const, e.linear[0][1])] == [int, int]
    n = half.scale(4).as_int()
    assert n == 2 and type(n) is int


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(_rationals, _rationals, _rationals, _rationals, _rationals)
def test_arithmetic_agrees_with_fractions(c1, a1, c2, a2, k):
    """+, - and scale give what plain Fraction arithmetic gives, with every
    whole result an int and every other one a Fraction."""
    e1 = ExponentExpr.make(c1, {"alpha": a1, "beta": 1})
    e2 = ExponentExpr.make(c2, {"alpha": a2})
    for got, const, alpha, beta in ((e1 + e2, c1 + c2, a1 + a2, 1),
                                    (e1 - e2, c1 - c2, a1 - a2, 1),
                                    (e1.scale(k), c1 * k, a1 * k, k)):
        want = {"alpha": alpha, "beta": beta}
        assert got.const == const
        assert dict(got.linear) == {n: v for n, v in want.items() if v}
        for value in (got.const, *dict(got.linear).values()):
            assert type(value) is (int if value.denominator == 1
                                   else Fraction), value


def test_rejects_irrational():
    with pytest.raises(ScalarError):
        ExponentExpr.make(0.5)
    with pytest.raises(ScalarError):
        ExponentExpr._coerce(0.5)
