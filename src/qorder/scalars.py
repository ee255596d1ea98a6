"""Exact scalar coefficients: Laurent polynomials in real parameters.

A coefficient is a Laurent polynomial over the Gaussian rationals: a
finite sum of Gaussian rationals times monomials in the parameters,
whose exponents may be negative, as in ``alpha * gamma * hbar^2`` or
``hbar^-1``.  All parameters are declared real (``hbar`` additionally
positive), so conjugation fixes them and maps i to -i.

A polynomial is a dict from monomials to Gaussian rationals.  A
monomial is a tuple of ``(name, exponent)`` pairs sorted by name with no
zero exponent; a Gaussian rational is a ``(re, im)`` pair of rationals.
One rational rule holds here and in :mod:`qorder.exponents`: every
constructor and every sum and product of parts stores a whole value as
an ``int`` and makes a ``Fraction`` only for a value that is not whole,
so the integer coefficients of normal ordering stay on int arithmetic.
Zero coefficients are never stored, so the form is unique and equality
is a dict comparison.

``+``, ``-`` and ``*`` are plain dict arithmetic.  Division is by a
single term, a Gaussian rational times a monomial, whose inverse is
again one term; dividing by a sum, or raising one to a negative power,
raises :class:`ScalarError`.  The paper's orderings need no more.
Rational functions would need a polynomial gcd to keep each fraction
reduced, and the primitive remainder sequence (W. S. Brown, J. ACM 18,
478 (1971)) grows in degree and in digits on ordinary inputs.

The text of a coefficient is made here, from the dict, so printing a
scalar loads no parser.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from ._value import Value, _set

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_UNIT = (1, 0)
_MINUS_UNIT = (-1, 0)
_ONE_POLY = {(): _UNIT}  # shared, like every stored polynomial: never mutated


class ScalarError(ValueError):
    """Raised on invalid scalar construction or evaluation."""


class ParamSymbol(Value):
    """A named real parameter (alpha, gamma, E, hbar, ...)."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.match(name):
            raise ScalarError(f"invalid parameter name {name!r}")
        if name == "i":
            raise ScalarError('"i" is reserved for the imaginary unit')
        _set(self, "name", name)

    def __str__(self):
        return self.name


def _param_name(p) -> str:
    if isinstance(p, ParamSymbol):
        return p.name
    if isinstance(p, str):
        return ParamSymbol(p).name
    raise ScalarError(f"not a parameter: {p!r}")


# ---------------------------------------------------------------------------
# Gaussian rationals, monomials, polynomials and their text
# ---------------------------------------------------------------------------

def _rational(v):
    """v as an int where it is whole."""
    return v.numerator if v.denominator == 1 else v


def _whole(c):
    """A Gaussian rational with its whole parts as ints; int parts, the
    common case, cost one type test each."""
    real, imag = c
    if type(real) is int and type(imag) is int:
        return c
    return (_rational(real), _rational(imag))


def _gmul(a, b):
    """a * b, skipping the products with a zero part: most factors are
    real or purely imaginary."""
    ar, ai = a
    br, bi = b
    if not ai:
        return _whole((ar * br if br else 0, ar * bi if bi else 0))
    if not ar:
        return _whole((-ai * bi if bi else 0, ai * br if br else 0))
    return _whole((ar * br - ai * bi, ar * bi + ai * br))


def _ginv(a):
    ar, ai = a
    norm = ar * ar + ai * ai
    return (_rational(Fraction(ar, norm)), _rational(Fraction(-ai, norm)))


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        e += exps.get(name, 0)
        if e:
            exps[name] = e
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


def _mono_inv(m):
    return tuple((name, -e) for name, e in m)


def _accumulate(out, m, c):
    old = out.get(m)
    if old is not None:
        c = (old[0] + c[0], old[1] + c[1])
        if not c[0] and not c[1]:
            del out[m]
            return
        c = _whole(c)
    out[m] = c


def _padd(a, b, scale=None):
    """a + scale * b."""
    out = dict(a)
    for m, c in b.items():
        _accumulate(out, m, c if scale is None else _gmul(c, scale))
    return out


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _accumulate(out, _mono_mul(ma, mb), _gmul(ca, cb))
    return out


def _conj(poly):
    return {m: (re, -im) for m, (re, im) in poly.items()}


def _params_of(poly) -> set[str]:
    return {name for m in poly for name, _ in m}


def _number_text(v) -> str:
    """str(v); past sys.get_int_max_str_digits() digits, a ScalarError."""
    try:
        return str(v)
    except ValueError:
        raise ScalarError(f"cannot print a number of more than"
                          f" {sys.get_int_max_str_digits()} digits: the"
                          " grammar would not read it back") from None


def _pieces(m, value, imaginary: bool) -> list[str]:
    """The factors of |value| * (i) * m, without a 1 that others follow."""
    pieces = ([_number_text(abs(value))]
              if abs(value) != 1 or not (m or imaginary) else [])
    if imaginary:
        pieces.append("i")
    return pieces + [name if k == 1 else f"{name}^{_number_text(k)}"
                     for name, k in m]


def _sum_text(terms) -> str:
    """'a - b + c' for (sign, pieces) terms, pieces joined by ' * '."""
    text = "".join((" - " if sign < 0 else " + ") + " * ".join(pieces)
                   for sign, pieces in terms)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _graded_lex(item):
    """Highest total degree first, then higher powers of earlier names."""
    return -sum(e for _, e in item[0]), [(name, -e) for name, e in item[0]]


def _coefficient_text(s: "ScalarExpr") -> tuple[int, str]:
    """(sign, text) of a coefficient: the polynomial times the least
    monomial and integer that clear its negative exponents and fractions,
    then their inverse, as in ``3 * (2 * alpha * hbar^2)^-1``.  Terms go
    in graded-lex order, the real part of a term before its i part; two
    or more get parentheses."""
    poly, low = s._num, {}
    for m in poly:
        for name, e in m:
            if e < low.get(name, 0):
                low[name] = e
    if low:
        clear = tuple(sorted((name, -e) for name, e in low.items()))
        scale = math.lcm(*(part.denominator for c in poly.values()
                           for part in c))
        poly = {_mono_mul(m, clear): _gmul(c, (scale, 0))
                for m, c in poly.items()}
    terms = [(-1 if value < 0 else 1, _pieces(m, value, imaginary))
             for m, (re, im) in sorted(poly.items(), key=_graded_lex)
             for value, imaginary in ((re, False), (im, True)) if value]
    if not terms:
        return 1, "0"
    if len(terms) == 1:
        sign, text = terms[0][0], " * ".join(terms[0][1])
    else:
        sign, text = 1, f"({_sum_text(terms)})"
    if not low:
        return sign, text
    if scale == 1 and len(clear) == 1:  # alpha^-2, not (alpha^2)^-1
        inverse = f"{clear[0][0]}^-{_number_text(clear[0][1])}"
    else:
        inverse = "(" + " * ".join(_pieces(clear, scale, False)) + ")^-1"
    return sign, inverse if text == "1" else f"{text} * {inverse}"


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def _make(num) -> "ScalarExpr":
    s = object.__new__(ScalarExpr)
    s._num = num
    return s


class ScalarExpr:
    """Immutable exact scalar in canonical form (see the module notes)."""

    __slots__ = ("_num",)

    def __init__(self, value=0):
        if isinstance(value, ScalarExpr):
            num = value._num
        elif isinstance(value, bool):
            raise ScalarError("bool is not a scalar")
        elif isinstance(value, (int, Fraction)):
            num = {(): (_rational(value), 0)} if value else {}
        elif isinstance(value, ParamSymbol):
            num = {((value.name, 1),): _UNIT}
        else:
            raise ScalarError(f"cannot build scalar from {value!r}")
        self._num = num

    # -- constructors ---------------------------------------------------
    @classmethod
    def number(cls, num, den=1) -> "ScalarExpr":
        return cls(Fraction(num, den))

    @classmethod
    def param(cls, name) -> "ScalarExpr":
        return _make({((_param_name(name), 1),): _UNIT})

    @classmethod
    def i(cls) -> "ScalarExpr":
        return _make({(): (0, 1)})

    @classmethod
    def hbar(cls) -> "ScalarExpr":
        return _make({(("hbar", 1),): _UNIT})

    # -- basic queries --------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self._num == _ONE_POLY

    def free_params(self) -> set[str]:
        return _params_of(self._num)

    def depends_on(self, param) -> bool:
        return _param_name(param) in self.free_params()

    # -- arithmetic -----------------------------------------------------
    @staticmethod
    def _coerce(other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            return other
        return ScalarExpr(other)

    def _add(self, other, scale=None) -> "ScalarExpr":
        return _make(_padd(self._num, other._num, scale))

    def __add__(self, other):
        return self._add(self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(self._coerce(other), _MINUS_UNIT)

    def __rsub__(self, other):
        return self._coerce(other)._add(self, _MINUS_UNIT)

    def _mul(self, other) -> "ScalarExpr":
        if self.is_one:
            return other
        if other.is_one:
            return self
        return _make(_pmul(self._num, other._num))

    def __mul__(self, other):
        return self._mul(self._coerce(other))

    __rmul__ = __mul__

    def _inverse(self) -> "ScalarExpr":
        if not self._num:
            raise ScalarError("zero denominator")
        if len(self._num) > 1:
            raise ScalarError(f"cannot invert the sum {self}: a coefficient"
                              " divides only by a single term")
        ((m, c),) = self._num.items()
        return _make({_mono_inv(m): _ginv(c)})

    def __truediv__(self, other):
        return self._mul(self._coerce(other)._inverse())

    def __rtruediv__(self, other):
        return self._coerce(other)._mul(self._inverse())

    def __neg__(self):
        return _make({m: (-re, -im) for m, (re, im) in self._num.items()})

    def __pow__(self, n: int):
        """self^n by repeated squaring: about 2 log2 |n| products."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise ScalarError("scalar powers must be integers")
        if n == 0:
            return ONE
        square = (self._inverse() if n < 0 else self)._num
        n, power = abs(n), _ONE_POLY
        while True:
            if n & 1:
                power = _pmul(power, square)
            n >>= 1
            if not n:
                return _make(power)
            square = _pmul(square, square)

    def conj(self) -> "ScalarExpr":
        """Complex conjugation: i -> -i, parameters fixed (declared real)."""
        return _make(_conj(self._num))

    # -- equality -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(
                other, (ScalarExpr, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self._num == other._num

    # equal to ints and Fractions, so a hash would have to match theirs
    __hash__ = None

    def __repr__(self):
        return f"ScalarExpr({self})"

    def __str__(self):
        sign, text = _coefficient_text(self)
        return "-" + text if sign < 0 else text


ZERO = ScalarExpr(0)
ONE = ScalarExpr(1)
I = ScalarExpr.i()
HBAR = ScalarExpr.hbar()
