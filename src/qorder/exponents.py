"""Affine exponents: rational constant plus rational multiples of parameters.

Every exponent appearing in the supported operator fragment is affine in
the declared parameters (alpha, 1 - alpha, 1/2, -1, ...).  Keeping this
restriction explicit makes exponent arithmetic closed and hashable, which
the rewrite engine relies on for like-term merging.

The constant and each coefficient follow the one rational rule of
:mod:`qorder.scalars`: an ``int`` where the value is whole, a
``Fraction`` only where it is not.  Integer exponents, the common case,
so never touch ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, _set
from .scalars import ScalarExpr, ScalarError, _param_name, _rational


def _as_fraction(v) -> int | Fraction:
    """v as an exact rational: an int where it is whole."""
    if isinstance(v, (int, Fraction)):
        return _rational(v)
    raise ScalarError(f"exponent coefficients must be rational, got {v!r}")


class ExponentExpr(Value):
    """const + sum of coeff * param, all coefficients rational (an int
    where whole).  Exponents key the ordering engine's dicts, so the hash
    is taken once, at construction."""

    _fields = ("const", "linear")
    __slots__ = (*_fields, "_hash")

    def __init__(self, const: int | Fraction = 0,
                 linear: tuple[tuple[str, int | Fraction], ...] = ()):
        _set(self, "const", const)
        _set(self, "linear", linear)
        _set(self, "_hash", hash((const, linear)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.const == other.const and self.linear == other.linear
        return NotImplemented

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, const=0, linear=None) -> "ExponentExpr":
        terms = {}
        for name, coeff in (linear or {}).items():
            coeff = _as_fraction(coeff)
            if coeff:
                terms[_param_name(name)] = coeff
        return cls(_as_fraction(const), tuple(sorted(terms.items())))

    @classmethod
    def number(cls, v) -> "ExponentExpr":
        return cls.make(const=v)

    @classmethod
    def param(cls, name) -> "ExponentExpr":
        return cls.make(linear={name: 1})

    # -- arithmetic -----------------------------------------------------
    def _combine(self, other: "ExponentExpr", sign: int) -> "ExponentExpr":
        if not self.linear and not other.linear:
            return ExponentExpr(_rational(self.const + sign * other.const))
        terms = dict(self.linear)
        for name, coeff in other.linear:
            terms[name] = terms.get(name, 0) + sign * coeff
        return ExponentExpr.make(self.const + sign * other.const, terms)

    def __add__(self, other):
        return self._combine(self._coerce(other), 1)

    def __sub__(self, other):
        return self._combine(self._coerce(other), -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor) -> "ExponentExpr":
        factor = _as_fraction(factor)
        return ExponentExpr.make(
            self.const * factor,
            {name: coeff * factor for name, coeff in self.linear})

    @staticmethod
    def _coerce(v) -> "ExponentExpr":
        if isinstance(v, ExponentExpr):
            return v
        if isinstance(v, (int, Fraction)):
            return ExponentExpr.number(v)
        raise ScalarError(f"cannot coerce {v!r} to an exponent")

    # -- queries --------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.linear

    @property
    def is_zero(self) -> bool:
        return not self.linear and self.const == 0

    def as_int(self) -> int | None:
        """Integer value if the exponent is a constant integer, else None."""
        if self.is_constant and type(self.const) is int:
            return self.const
        return None

    def to_scalar(self) -> ScalarExpr:
        s = ScalarExpr(self.const)
        for name, coeff in self.linear:
            s = s + ScalarExpr(coeff) * ScalarExpr.param(name)
        return s


ONE_EXP = ExponentExpr.number(1)
