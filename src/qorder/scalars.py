"""Exact scalar coefficients: rational functions of real parameters.

Coefficients live in the field QQ(i)(params): multivariate rational
functions with Gaussian-rational coefficients.  All parameters are
declared real (``hbar`` additionally positive), so conjugation fixes
them and maps i to -i.

A polynomial is a dict from monomials to Gaussian rationals.  A
monomial is a tuple of ``(name, exponent)`` pairs sorted by name with no
zero exponent; a Gaussian rational is a ``(re, im)`` pair of rationals.
One rational rule holds here and in :mod:`qorder.exponents`: every
constructor and every sum and product of parts stores a whole value as
an ``int`` and makes a ``Fraction`` only for a value that is not whole,
so the integer coefficients of normal ordering stay on int arithmetic.
Zero coefficients are never stored.  A scalar is
a numerator polynomial, whose exponents may be negative (a Laurent
polynomial), over a denominator that is either 1 or a polynomial that

- has at least two terms and no negative exponent,
- is divisible by no parameter,
- has leading coefficient 1 in graded-lex order, and
- shares no factor with the numerator.

That form is unique, so equality is a dict comparison.  Normal ordering
only ever meets Laurent polynomials, where ``+`` and ``*`` are plain
dict arithmetic; a denominator with two or more terms comes only from
``/`` or from a negative power of a compound scalar, and only then is
the fraction reduced, by the primitive-PRS gcd (W. S. Brown, J. ACM 18,
478 (1971)).
"""

from __future__ import annotations

import math
import re
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
# Gaussian rationals, monomials and polynomials
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


def _order_key(m):
    """Graded-lex order for monomials without negative exponents: higher
    total degree first, then higher powers of the parameters that come
    first in name order."""
    return (-sum(e for _, e in m), tuple((name, -e) for name, e in m))


def _leading(poly):
    return min(poly, key=_order_key)


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


def _pmono(poly, m, c=_UNIT):
    """poly * c * m; no two terms can merge."""
    return {_mono_mul(pm, m): _gmul(pc, c) for pm, pc in poly.items()}


def _conj(poly):
    return {m: (re, -im) for m, (re, im) in poly.items()}


def _terms(poly):
    """(monomial, re, im) triples in graded-lex order."""
    return [(m, re, im) for m, (re, im) in
            sorted(poly.items(), key=lambda item: _order_key(item[0]))]


def _params_of(poly) -> set[str]:
    return {name for m in poly for name, _ in m}


def _min_exponents(poly):
    """The monomial of each parameter's lowest exponent over the terms
    (0 where a term lacks the parameter); it may have negative exponents."""
    low = []
    for name in sorted(_params_of(poly)):
        e = min(dict(m).get(name, 0) for m in poly)
        if e:
            low.append((name, e))
    return tuple(low)


def _monic(poly):
    inv = _ginv(poly[_leading(poly)])
    return {m: _gmul(c, inv) for m, c in poly.items()}


def _is_constant(poly) -> bool:
    return len(poly) == 1 and () in poly


def _divide_exact(a, b):
    """a / b for polynomials where b divides a."""
    lead = _leading(b)
    inv, lead_inv = _ginv(b[lead]), _mono_inv(lead)
    quotient, rest = {}, dict(a)
    while rest:
        top = _leading(rest)
        m = _mono_mul(top, lead_inv)
        if any(e < 0 for _, e in m):
            raise ArithmeticError("inexact polynomial division")
        c = _gmul(rest[top], inv)
        quotient[m] = c
        rest = _padd(rest, _pmono(b, m, c), _MINUS_UNIT)
    return quotient


def _coeffs_in(poly, name):
    """poly as {k: coefficient polynomial free of name} in powers of name."""
    out = {}
    for m, c in poly.items():
        k, rest = 0, m
        for j, (n, e) in enumerate(m):
            if n == name:
                k, rest = e, m[:j] + m[j + 1:]
                break
        out.setdefault(k, {})[rest] = c
    return out


def _content(polys):
    """Monic gcd of nonzero polynomials."""
    g = None
    for p in polys:
        g = p if g is None else _gcd(g, p)
        if _is_constant(g):
            return _ONE_POLY
    return _monic(g)


def _prem(a, b, name):
    """A pseudo-remainder of a by b in powers of name."""
    cb = _coeffs_in(b, name)
    db = max(cb)
    lcb = cb[db]
    rest = a
    while rest:
        cr = _coeffs_in(rest, name)
        dr = max(cr)
        if dr < db:
            break
        shift = ((name, dr - db),) if dr > db else ()
        rest = _padd(_pmul(rest, lcb), _pmul(_pmono(b, shift), cr[dr]),
                     _MINUS_UNIT)
    return rest


def _gcd(a, b):
    """Monic gcd of two nonzero polynomials, by primitive polynomial
    remainder sequences in the first parameter and recursion on the
    contents in the others."""
    names = _params_of(a) | _params_of(b)
    if not names:
        return _ONE_POLY
    x = min(names)
    ca, cb = _coeffs_in(a, x), _coeffs_in(b, x)
    cont_a, cont_b = _content(ca.values()), _content(cb.values())
    common = _gcd(cont_a, cont_b)
    pa, pb = _divide_exact(a, cont_a), _divide_exact(b, cont_b)
    if max(ca) < max(cb):
        pa, pb = pb, pa
    while True:
        if max(_coeffs_in(pb, x)) == 0:
            # a primitive polynomial of degree 0 is a unit
            return common
        r = _prem(pa, pb, x)
        if not r:
            return _monic(_pmul(common, pb))
        pa, pb = pb, _divide_exact(r, _content(_coeffs_in(r, x).values()))


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def _make(num, den=None) -> "ScalarExpr":
    s = object.__new__(ScalarExpr)
    s._num = num
    s._den = den
    return s


def _fraction(num, den) -> "ScalarExpr":
    """The canonical form of num / den, for Laurent polynomials num and
    den with den nonzero."""
    if not num:
        return _make({})
    if len(den) == 1:
        ((m, c),) = den.items()
        return _make(_pmono(num, _mono_inv(m), _ginv(c)))
    low = _mono_inv(_min_exponents(den))
    den, num = _pmono(den, low), _pmono(num, low)
    shift = _min_exponents(num)
    poly = _pmono(num, _mono_inv(shift))
    g = _gcd(poly, den)
    if not _is_constant(g):
        poly, den = _divide_exact(poly, g), _divide_exact(den, g)
    if _is_constant(den):
        return _make(_pmono(poly, shift, _ginv(den[()])))
    inv = _ginv(den[_leading(den)])
    return _make(_pmono(poly, shift, inv),
                 {m: _gmul(c, inv) for m, c in den.items()})


class ScalarExpr:
    """Immutable exact scalar in canonical form (see the module notes)."""

    __slots__ = ("_num", "_den")

    def __init__(self, value=0):
        if isinstance(value, ScalarExpr):
            num, den = value._num, value._den
        elif isinstance(value, bool):
            raise ScalarError("bool is not a scalar")
        elif isinstance(value, (int, Fraction)):
            num, den = ({(): (_rational(value), 0)} if value else {}), None
        elif isinstance(value, ParamSymbol):
            num, den = {((value.name, 1),): _UNIT}, None
        else:
            raise ScalarError(f"cannot build scalar from {value!r}")
        self._num = num
        self._den = den

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
        return self._den is None and self._num == _ONE_POLY

    def free_params(self) -> set[str]:
        return _params_of(self._num) | _params_of(self._den or {})

    def depends_on(self, param) -> bool:
        return _param_name(param) in self.free_params()

    def as_fraction(self):
        """(numerator, denominator) as lists of ``(monomial, re, im)``
        terms in graded-lex order, with no negative exponent.

        The denominator is None when it is 1.  Otherwise it is the
        stored denominator times the monomial that clears the
        numerator's negative exponents, and both sides are scaled to
        integer coefficients.
        """
        num, den = self._num, self._den
        clear = _mono_inv(tuple((n, e) for n, e in _min_exponents(num)
                                if e < 0))
        if den is None and not clear:
            return _terms(num), None
        den = _pmono(den or _ONE_POLY, clear)
        num = _pmono(num, clear)
        scale = math.lcm(*(part.denominator for poly in (num, den)
                           for c in poly.values() for part in c))
        scale = (scale, 0)
        return _terms(_pmono(num, (), scale)), _terms(_pmono(den, (), scale))

    # -- arithmetic -----------------------------------------------------
    @staticmethod
    def _coerce(other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            return other
        return ScalarExpr(other)

    def _add(self, other, scale=None) -> "ScalarExpr":
        if self._den is None and other._den is None:
            return _make(_padd(self._num, other._num, scale))
        if self._den == other._den:
            return _fraction(_padd(self._num, other._num, scale), self._den)
        d1, d2 = self._den or _ONE_POLY, other._den or _ONE_POLY
        return _fraction(_padd(_pmul(self._num, d2), _pmul(other._num, d1),
                               scale), _pmul(d1, d2))

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
        if self._den is None and other._den is None:
            return _make(_pmul(self._num, other._num))
        d1, d2 = self._den or _ONE_POLY, other._den or _ONE_POLY
        return _fraction(_pmul(self._num, other._num), _pmul(d1, d2))

    def __mul__(self, other):
        return self._mul(self._coerce(other))

    __rmul__ = __mul__

    def _inverse(self) -> "ScalarExpr":
        if not self._num:
            raise ScalarError("zero denominator")
        if self._den is None and len(self._num) == 1:
            ((m, c),) = self._num.items()
            return _make({_mono_inv(m): _ginv(c)})
        return _fraction(self._den or _ONE_POLY, self._num)

    def __truediv__(self, other):
        return self._mul(self._coerce(other)._inverse())

    def __rtruediv__(self, other):
        return self._coerce(other)._mul(self._inverse())

    def __neg__(self):
        return _make({m: (-re, -im) for m, (re, im) in self._num.items()},
                     self._den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ScalarError("scalar powers must be integers")
        if n == 0:
            return ONE
        base = self._inverse() if n < 0 else self
        # powers of a canonical fraction stay canonical
        num, den = _ONE_POLY, None if base._den is None else _ONE_POLY
        for _ in range(abs(n)):
            num = _pmul(num, base._num)
            if den is not None:
                den = _pmul(den, base._den)
        return _make(num, den)

    def conj(self) -> "ScalarExpr":
        """Complex conjugation: i -> -i, parameters fixed (declared real)."""
        return _make(_conj(self._num),
                     None if self._den is None else _conj(self._den))

    # -- equality -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(
                other, (ScalarExpr, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self._num == other._num and self._den == other._den

    # equal to ints and Fractions, so a hash would have to match theirs
    __hash__ = None

    def __repr__(self):
        return f"ScalarExpr({self})"

    def __str__(self):
        from .parser import _coefficient_text
        sign, text = _coefficient_text(self)
        return "-" + text if sign < 0 else text


ZERO = ScalarExpr(0)
ONE = ScalarExpr(1)
I = ScalarExpr.i()
HBAR = ScalarExpr.hbar()
