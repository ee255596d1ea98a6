"""Operator expressions: sums of coefficient-weighted noncommutative words.

A word is an ordered sequence of factors; each factor is x-hat, p-hat,
or an abstract function of x-hat (with a formal derivative order),
raised to an affine exponent.  Words multiply by concatenation; the
rewrite engine in :mod:`qorder.ordering` is the only thing allowed to
commute p past x-dependent factors.
"""

from __future__ import annotations

import enum

from ._value import Value, _set
from .exponents import ExponentExpr
from .scalars import ScalarExpr, ScalarError, ONE

_RESERVED_FUNC_NAMES = {"x", "p", "i", "hbar"}


class Convention(enum.Enum):
    """Which operator a normal form moves rightmost; the ordering engine
    re-exports it as ``qorder.ordering.Convention``."""
    COORDINATE = "coordinate"   # all p factors rightmost
    MOMENTUM = "momentum"       # all x factors rightmost


class BaseKind(enum.Enum):
    X = "x"
    P = "p"
    FUNC = "func"


class Factor(Value):
    __slots__ = _fields = ("kind", "exponent", "name", "deriv")

    def __init__(self, kind: BaseKind, exponent: ExponentExpr,
                 name: str = "", deriv: int = 0):
        if kind is BaseKind.FUNC:
            if not name or name in _RESERVED_FUNC_NAMES:
                raise ScalarError(f"invalid function name {name!r}")
            if deriv < 0:
                raise ScalarError("derivative order must be nonnegative")
        else:
            if name:
                raise ScalarError("x/p factors carry no function name")
            if deriv:
                raise ScalarError("x/p factors carry no derivative order")
        _set(self, "kind", kind)
        _set(self, "exponent", exponent)
        _set(self, "name", name)
        _set(self, "deriv", deriv)

    @property
    def base_key(self):
        """Commutation/merge key; x sorts before abstract functions."""
        if self.kind is BaseKind.X:
            return (0, "", 0)
        if self.kind is BaseKind.FUNC:
            return (1, self.name, self.deriv)
        return (2, "", 0)

    def with_exponent(self, e: ExponentExpr) -> "Factor":
        return Factor(self.kind, e, self.name, self.deriv)


def x_power(e=1) -> Factor:
    return Factor(BaseKind.X, ExponentExpr._coerce(e))


def p_power(e=1) -> Factor:
    return Factor(BaseKind.P, ExponentExpr._coerce(e))


def func_power(name: str, e=1, deriv: int = 0) -> Factor:
    return Factor(BaseKind.FUNC, ExponentExpr._coerce(e), name, deriv)


class OperatorWord(Value):
    __slots__ = _fields = ("coefficient", "factors")

    def __init__(self, coefficient: ScalarExpr = ONE,
                 factors: tuple[Factor, ...] = ()):
        _set(self, "coefficient", coefficient)
        _set(self, "factors", factors)

    def scaled(self, s: ScalarExpr) -> "OperatorWord":
        return OperatorWord(self.coefficient * s, self.factors)

    def __mul__(self, other: "OperatorWord") -> "OperatorWord":
        return OperatorWord(self.coefficient * other.coefficient,
                            self.factors + other.factors)


class OperatorExpr:
    """A formal sum of operator words."""

    __slots__ = ("words",)

    def __init__(self, words=()):
        self.words = tuple(w for w in words if not w.coefficient.is_zero)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, coeff=None) -> "OperatorExpr":
        return cls((OperatorWord(coeff if coeff is not None else ONE),))

    @classmethod
    def from_factors(cls, *factors: Factor, coeff=None) -> "OperatorExpr":
        return cls((OperatorWord(coeff if coeff is not None else ONE,
                                 tuple(factors)),))

    # -- algebra --------------------------------------------------------
    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.words + other.words)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return self.scaled(ScalarExpr(-1))

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(tuple(a * b for a in self.words
                                  for b in other.words))

    def scaled(self, s) -> "OperatorExpr":
        if not isinstance(s, ScalarExpr):
            s = ScalarExpr(s)
        return OperatorExpr(tuple(w.scaled(s) for w in self.words))

    # -- queries --------------------------------------------------------
    @property
    def is_scalar(self) -> bool:
        """True when every word is a scaled identity."""
        return all(not w.factors for w in self.words)

    def scalar_value(self) -> ScalarExpr:
        if not self.is_scalar:
            raise ScalarError("expression is not a scalar")
        total = ScalarExpr(0)
        for w in self.words:
            total = total + w.coefficient
        return total

    def single_factor(self):
        """(coefficient, factor) if the expression is one one-factor word."""
        if len(self.words) == 1 and len(self.words[0].factors) == 1:
            return self.words[0].coefficient, self.words[0].factors[0]
        return None

    def __repr__(self):
        from .parser import print_operator
        return f"OperatorExpr({print_operator(self)!r})"
