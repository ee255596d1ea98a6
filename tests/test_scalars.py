"""Exact scalar coefficients, Laurent polynomials: arithmetic, conjugation,
evaluation, errors."""

import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder.operators import OperatorExpr, p_power, x_power
from qorder.ordering import Convention, normal_order
from qorder.parser import parse_operator, print_operator
from qorder.scalars import (HBAR, I, ONE, ZERO, ParamSymbol, ScalarError,
                            ScalarExpr, _gmul)

from oracles import scalar_diff, scalar_eval, scalar_subs, symbol, to_sympy


def test_constructors():
    assert ScalarExpr(3) == 3
    assert ScalarExpr(Fraction(2, 4)) == Fraction(1, 2)
    assert ScalarExpr.number(2, 6) == Fraction(1, 3)
    assert ScalarExpr.param("alpha").depends_on("alpha")
    with pytest.raises(ScalarError):
        ScalarExpr(True)
    with pytest.raises(ScalarError):
        ScalarExpr(1.5)
    with pytest.raises(ScalarError):
        ParamSymbol("i")
    with pytest.raises(ScalarError):
        ParamSymbol("2bad")


def test_whole_values_are_stored_as_ints():
    """Every constructor stores a whole rational as an int, so the
    coefficient arithmetic of normal ordering stays on ints."""
    for s in (ScalarExpr(Fraction(4, 2)), ScalarExpr.number(6, 3),
              parse_operator("4/2 * x").words[0].coefficient,
              ScalarExpr(Fraction(1, 2)) ** -1):
        assert s == 2
        assert [type(part) for part in s._num[()]] == [int, int], s


# nonzero, as every stored coefficient is
_gaussian = st.tuples(*[st.sampled_from([0, 0, 1, -3, Fraction(1, 2),
                                         Fraction(-5, 3)])] * 2).filter(any)


@given(_gaussian, _gaussian)
def test_gaussian_product_skips_zero_parts(a, b):
    """_gmul equals the full product (ar br - ai bi, ar bi + ai br), and
    every whole part of it, zero included, is an int, not a Fraction."""
    (ar, ai), (br, bi) = a, b
    got = _gmul(a, b)
    assert got == (ar * br - ai * bi, ar * bi + ai * br)
    assert all(type(part) is int for part in got if part.denominator == 1), \
        got


def test_field_axioms():
    a = ScalarExpr.param("alpha")
    b = ScalarExpr.param("beta")
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + ONE) == a * b + a
    assert (a - a).is_zero
    assert a / a == ONE
    assert (a + b) - b == a
    assert I * I == -1


def test_rational_function_cancellation():
    """A single term divides and cancels; a sum has no inverse."""
    a, h = ScalarExpr.param("alpha"), HBAR
    assert (a * a - a * h) / (3 * a) == (a - h) / 3
    assert (a * a - ONE) / a == a - a ** -1
    assert (a * h + ONE) / (a * h) == ONE + (a * h) ** -1
    for sum_ in (a - ONE, a + I, a * h + h ** -1):
        with pytest.raises(ScalarError, match="cannot invert the sum"):
            (a * a - ONE) / sum_
        with pytest.raises(ScalarError, match="cannot invert the sum"):
            sum_ ** -1
    with pytest.raises(ScalarError, match=r"^cannot invert the sum "
                       r"\(alpha \+ 1\): a coefficient divides only by a "
                       r"single term$"):
        ONE / (a + 1)


def test_division_errors():
    with pytest.raises(ScalarError, match="zero denominator"):
        ONE / ZERO
    a = ScalarExpr.param("alpha")
    with pytest.raises(ScalarError, match="zero denominator"):
        a / (a - a)


def test_conjugation():
    a = ScalarExpr.param("alpha")
    z = a + I * HBAR
    assert z.conj() == a - I * HBAR
    assert z.conj().conj() == z
    w = ScalarExpr.param("beta") * I
    assert (z * w).conj() == z.conj() * w.conj()
    assert (z + w).conj() == z.conj() + w.conj()


def test_eval_binds_parameters():
    a = ScalarExpr.param("alpha")
    z = (a * a + ONE) / (2 * a)
    val = scalar_eval(z, {"alpha": 3})
    assert abs(val - 5 / 3) < 1e-12
    with pytest.raises(ScalarError, match="unbound parameter: alpha"):
        scalar_eval(z, {})
    with pytest.raises(ScalarError, match="pole at binding"):
        scalar_eval(z, {"alpha": 0})


def test_eval_imaginary():
    z = I * HBAR
    assert scalar_eval(z, {"hbar": 2}) == 2j


def test_diff_and_subs():
    a = ScalarExpr.param("alpha")
    g = ScalarExpr.param("gamma")
    f = a * g + a
    assert scalar_diff(f, "alpha") == g + ONE
    assert scalar_subs(f, "gamma", 0) == a
    assert not scalar_subs(f, "alpha", 0).depends_on("alpha")


def test_fragment_restrictions():
    """Only ints, Fractions and parameters build a scalar."""
    t = sympy.Symbol("t")
    for value in (1.5, 2.0, 1j, complex(1, 0), "alpha", None,
                  sympy.sin(t), t ** sympy.Rational(1, 2), t, sympy.I,
                  sympy.Integer(2), sympy.Rational(1, 2)):
        with pytest.raises(ScalarError):
            ScalarExpr(value)
        with pytest.raises(ScalarError):
            ONE + value


def test_no_hashing():
    with pytest.raises(TypeError):
        hash(ScalarExpr(1))


_rationals = st.builds(
    Fraction, st.integers(-30, 30),
    st.integers(1, 12)).map(lambda f: ScalarExpr(f))


@st.composite
def _scalars(draw):
    base = draw(_rationals)
    if draw(st.booleans()):
        base = base * ScalarExpr.param(draw(st.sampled_from(["alpha", "beta"])))
    if draw(st.booleans()):
        base = base + draw(_rationals) * I
    return base


_small = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _small, _small)
def test_eval_is_ring_homomorphism(a, b, va, vb):
    """eval commutes with + and * up to a few ulps."""
    env = {"alpha": va, "beta": vb}
    s = scalar_eval(a + b, env)
    p = scalar_eval(a * b, env)
    ea, eb = scalar_eval(a, env), scalar_eval(b, env)
    assert math.isclose(abs(s - (ea + eb)), 0.0, abs_tol=1e-9 * (1 + abs(s)))
    assert math.isclose(abs(p - ea * eb), 0.0, abs_tol=1e-9 * (1 + abs(p)))


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_equality_is_congruence(a, b, c):
    """a == b implies a + c == b + c and a * c == b * c."""
    if a == b:
        assert a + c == b + c
        assert a * c == b * c
    assert a == a
    assert a + c - c == a


# -- the arithmetic against sympy --------------------------------------------

_NAMES = ("alpha", "beta", "gamma", "hbar")
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}

_small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_leaves = st.one_of(
    st.sampled_from(_NAMES).map(lambda n: (ScalarExpr.param(n), symbol(n))),
    st.just((I, sympy.I)),
    _small_rationals.map(
        lambda f: (ScalarExpr(f), sympy.Rational(f.numerator, f.denominator))))


def _apply(pair):
    """One + - * / or integer power, built on both sides; a division by
    zero or by a sum, or a negative power of either, keeps the left
    operand."""
    (a, ea), op, (b, eb), n = pair
    try:
        if op == "^":
            return a ** n, ea ** n
        return _OPS[op](a, b), _OPS[op](ea, eb)
    except ScalarError:
        return a, ea


def _combine(children):
    return st.tuples(children, st.sampled_from("+-*/^"), children,
                     st.integers(-2, 3)).map(_apply)


@st.composite
def _single_terms(draw):
    """A nonzero Gaussian rational times a Laurent monomial, on both
    sides."""
    re, im = draw(_small_rationals), draw(_small_rationals)
    re = re if re or im else Fraction(1)
    s = ScalarExpr(re) + ScalarExpr(im) * I
    e = (sympy.Rational(re.numerator, re.denominator)
         + sympy.I * sympy.Rational(im.numerator, im.denominator))
    for name in draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                              max_size=3)):
        k = draw(st.integers(-3, 3))
        s, e = s * ScalarExpr.param(name) ** k, e * symbol(name) ** k
    return s, e


def _term_count(e) -> int:
    """The number of distinct monomials of a nonzero Laurent polynomial
    in sympy form; a Gaussian coefficient belongs to one term."""
    return len({sympy.Mul(*(f for f in sympy.Mul.make_args(t)
                            if f.free_symbols))
                for t in sympy.Add.make_args(sympy.expand(e))})


def _sum(pairs):
    return (sum((s for s, _ in pairs), ZERO),
            sum((e for _, e in pairs), sympy.Integer(0)))


# Laurent expressions, each with the sympy expression built from the
# same draw; plain recursion divides mostly by sums, which keep the left
# operand, so a third of the draws are a divided by a single term and a
# third are sums of single terms
_terms = st.recursive(_leaves, _combine, max_leaves=5)
_expressions = st.one_of(
    _terms,
    st.tuples(_terms, _single_terms()).map(
        lambda t: _apply((t[0], "/", t[1], 0))),
    st.lists(_single_terms(), min_size=2, max_size=3).map(_sum))


def _same(a, b) -> bool:
    # a - b is zero iff the numerator of its one-fraction form expands to
    # 0; sympy.cancel is not used, as it can return an unevaluated sum
    # such as -1/2 + 1/2 when i is among the generators
    numerator, _ = sympy.fraction(sympy.together(a - b))
    return sympy.expand(numerator) == 0


@settings(max_examples=100, deadline=None)
@given(_expressions, _expressions, st.sampled_from("+-*/"))
def test_field_agrees_with_sympy(a, b, op):
    """Every result agrees with sympy; a / b raises exactly when b is zero
    or has two or more terms."""
    (a, ea), (b, eb) = a, b
    assert _same(to_sympy(a), ea) and _same(to_sympy(b), eb)
    assert a.is_zero == _same(ea, 0)
    if op == "/" and b.is_zero:
        with pytest.raises(ScalarError, match="zero denominator"):
            a / b
    elif op == "/" and _term_count(eb) > 1:
        with pytest.raises(ScalarError, match="cannot invert the sum"):
            a / b
    else:
        assert _same(to_sympy(_OPS[op](a, b)),
                     _OPS[op](to_sympy(a), to_sympy(b)))
    assert (a == b) == _same(ea, eb)
    assert _same(to_sympy(a.conj()), sympy.conjugate(ea))
    # equal values reached by different routes compare equal
    assert (a + b) - b == a
    if not b.is_zero and _term_count(eb) == 1:
        assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(_expressions)
def test_printed_coefficients_parse_back(a):
    a = a[0]
    assert parse_operator(str(a)).scalar_value() == a
    word = OperatorExpr.from_factors(x_power(1), p_power(1), coeff=a)
    nf = normal_order(word, Convention.COORDINATE)
    printed = print_operator(nf.as_operator_expr())
    assert normal_order(parse_operator(printed), Convention.COORDINATE) == nf


def test_coefficient_printing():
    """Terms in graded-lex order: highest total degree first, parameters
    in name order, the real part of a term before its i part; every
    printed form parses."""
    hb, al = HBAR, ScalarExpr.param("alpha")
    assert str(-I * hb + I * al * hb) == "(i * alpha * hbar - i * hbar)"
    assert str((al + hb) ** 2) == "(alpha^2 + 2 * alpha * hbar + hbar^2)"
    assert str((ONE + I) * al + 3) == "(alpha + i * alpha + 3)"
    assert str(ONE / (2 * al)) == "(2 * alpha)^-1"
    assert str(al ** -2) == "alpha^-2"
    assert str(3 / (2 * al * hb ** 2)) == "3 * (2 * alpha * hbar^2)^-1"
    assert str(I / (2 * al)) == "i * (2 * alpha)^-1"
    assert str(al + hb ** -1) == "(alpha * hbar + 1) * hbar^-1"
    assert str((al + 1) ** 0) == "1"


def test_zeroth_power_is_one():
    """x^0 is the canonical 1, also for a sum, which has no negative
    power, and for a Laurent scalar."""
    al, hb = ScalarExpr.param("alpha"), HBAR
    for base in (al + 1, (al * hb) ** -2, al ** -3 + hb, I, ZERO):
        assert base ** 0 == 1
        assert (base ** 0).is_one
        assert not (base ** 0).free_params()
    a, b = (al + 1) * hb ** -1, hb / (2 * al) - al ** -2
    assert (a + b) - b == a
    assert (a ** 0 + b) - b == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(_single_terms(), min_size=1, max_size=3),
       st.integers(-6, 12))
def test_power_by_squaring_equals_repeated_product(terms, n):
    """a ** n equals |n| products of a, or of 1 / a for n < 0; a sum has
    no negative power."""
    a = _sum(terms)[0]
    if n < 0 and (a.is_zero or _term_count(to_sympy(a)) > 1):
        with pytest.raises(ScalarError):
            a ** n
        return
    factor, expected = (ONE / a if n < 0 else a), ONE
    for _ in range(abs(n)):
        expected = expected * factor
    assert a ** n == expected
