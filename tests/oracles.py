"""Independent symbolic oracle for operator identities.

Realizes every operator word as a differential operator acting on a
sympy test function of a positive symbol x (p acts as -i hbar d/dx) and
compares both sides by symbolic expansion.  This shares no code with
the rewrite engine, so agreement is a genuine cross-check.

Also holds the sympy side of the exact scalars: conversion of a
coefficient to and from a sympy expression, and the evaluation,
differentiation and substitution that only the tests need.
"""

import math

import sympy

from qorder.operators import BaseKind
from qorder.scalars import ScalarError, ScalarExpr

X = sympy.Symbol("x", positive=True)
HBAR = sympy.Symbol("hbar", positive=True)


def symbol(name):
    """The real sympy symbol of a parameter; hbar is positive."""
    return HBAR if name == "hbar" else sympy.Symbol(name, real=True)


def _rational(value):
    return sympy.Rational(value.numerator, value.denominator)


def to_sympy(s: ScalarExpr):
    """The coefficient as a sympy expression, term by term of its Laurent
    polynomial."""
    total = sympy.Integer(0)
    for monomial, (re, im) in s._num.items():
        term = _rational(re) + sympy.I * _rational(im)
        for name, k in monomial:
            term *= symbol(name) ** k
        total += term
    return total


def from_sympy(expr) -> ScalarExpr:
    """A sympy rational expression in I and real symbols as a scalar."""
    if expr.is_Add:
        return sum(map(from_sympy, expr.args), ScalarExpr(0))
    if expr.is_Mul:
        return math.prod(map(from_sympy, expr.args), start=ScalarExpr(1))
    if expr.is_Pow and expr.exp.is_Integer:
        return from_sympy(expr.base) ** int(expr.exp)
    if expr is sympy.I:
        return ScalarExpr.i()
    if expr.is_Rational:
        return ScalarExpr.number(int(expr.p), int(expr.q))
    if expr.is_Symbol:
        return ScalarExpr.param(expr.name)
    raise ScalarError(f"unsupported scalar subexpression: {expr!r}")


def scalar_eval(s: ScalarExpr, bindings: dict) -> complex:
    """Numeric value with every free parameter bound."""
    values = {symbol(str(k)): sympy.sympify(v) for k, v in bindings.items()}
    missing = s.free_params() - {str(k) for k in bindings}
    if missing:
        raise ScalarError("unbound parameter: " + ", ".join(sorted(missing)))
    if any(k < 0 and values[symbol(name)] == 0
           for monomial in s._num for name, k in monomial):
        raise ScalarError("pole at binding")
    return complex(to_sympy(s).subs(values).evalf())


def scalar_diff(s: ScalarExpr, name) -> ScalarExpr:
    return from_sympy(sympy.cancel(sympy.diff(to_sympy(s), symbol(name))))


def scalar_subs(s: ScalarExpr, name, value) -> ScalarExpr:
    """Exact substitution of a parameter by a rational or scalar."""
    value = value if isinstance(value, ScalarExpr) else ScalarExpr(value)
    return from_sympy(sympy.cancel(
        to_sympy(s).subs(symbol(name), to_sympy(value))))


def exponent_to_sympy(e):
    total = _rational(e.const)
    for name, coeff in e.linear:
        total += _rational(coeff) * symbol(name)
    return total


def _apply_factor(f, expr):
    if f.kind is BaseKind.P:
        n = f.exponent.as_int()
        assert n is not None and n >= 0, "oracle needs integer p powers"
        for _ in range(n):
            expr = -sympy.I * HBAR * sympy.diff(expr, X)
        return expr
    if f.kind is BaseKind.X:
        return X ** exponent_to_sympy(f.exponent) * expr
    base = sympy.Function(f.name)(X)
    if f.deriv:
        base = sympy.diff(base, X, f.deriv)
    return base ** exponent_to_sympy(f.exponent) * expr


def apply_operator(e, phi):
    """Apply an OperatorExpr to a sympy expression in X."""
    total = sympy.Integer(0)
    for word in e.words:
        expr = phi
        for f in reversed(word.factors):
            expr = _apply_factor(f, expr)
        total += to_sympy(word.coefficient) * expr
    return sympy.expand(total)


def oracle_equal(a, b, phi):
    """Both operators act identically on the test function phi."""
    diff = apply_operator(a, phi) - apply_operator(b, phi)
    diff = sympy.powsimp(sympy.expand(diff), force=True)
    return sympy.simplify(diff) == 0
