"""Affine exponents: rational constant plus rational multiples of parameters.

Every exponent appearing in the supported operator fragment is affine in
the declared parameters (alpha, 1 - alpha, 1/2, -1, ...).  Keeping this
restriction explicit makes exponent arithmetic closed and hashable, which
the rewrite engine relies on for like-term merging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import ScalarExpr, ScalarError, _param_name


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ScalarError(f"exponent coefficients must be rational, got {v!r}")


def _whole(v: Fraction) -> Fraction | int:
    """v as an int where it is whole, so scalar coefficients stay ints."""
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class ExponentExpr:
    """const + sum of coeff * param, all coefficients rational."""

    const: Fraction = Fraction(0)
    linear: tuple[tuple[str, Fraction], ...] = ()

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
        terms = dict(self.linear)
        for name, coeff in other.linear:
            terms[name] = terms.get(name, Fraction(0)) + sign * coeff
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
        if self.is_constant and self.const.denominator == 1:
            return int(self.const)
        return None

    def to_scalar(self) -> ScalarExpr:
        s = ScalarExpr(_whole(self.const))
        for name, coeff in self.linear:
            s = s + ScalarExpr(_whole(coeff)) * ScalarExpr.param(name)
        return s


ZERO_EXP = ExponentExpr.number(0)
ONE_EXP = ExponentExpr.number(1)
