"""Recursive-descent parser and pretty printer for the operator grammar.

Grammar (stable public contract)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    base     := 'x' | 'p' | 'i' | 'hbar' | NUMBER | IDENT
              | IDENT "'"* '(' 'x' ')' | '(' expr ')'
    exponent := ['-'] (NUMBER | IDENT) | '(' affine ')'
    NUMBER   := [0-9]+, optionally followed by '/' [0-9]+
    IDENT    := [A-Za-z_][A-Za-z0-9_]*

Multiplication requires an explicit '*' (no juxtaposition) and is
noncommutative and order-preserving for operator factors; i, hbar,
numbers and bare identifiers are scalars and fold into the word
coefficient.  ``f'(x)`` with k apostrophes denotes the k-th formal
derivative of the abstract function f.  Exponents must be affine
combinations of numbers and parameter identifiers.  Parentheses nest at
most MAX_NESTING (200) deep, in expressions and exponents together.

The printer prints the words of an expression in the order it is given
them.  Word order is decided once, by :func:`qorder.ordering.normal_order`,
so a normal form prints in its canonical order and any other expression
in the order it was built, as ``x + p`` does.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from ._value import _set
from .errors import ParseError, SourceSpan
from .exponents import ONE_EXP, ExponentExpr
from .operators import (BaseKind, Factor, OperatorExpr, OperatorWord,
                        func_power, p_power, x_power)
from .scalars import (HBAR, I, ONE, ScalarExpr, ScalarError,
                      _coefficient_text, _number_text, _rational, _sum_text)

# the unit factors of the x and p atoms, shared by every parse
_X, _P = x_power(1), p_power(1)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str          # INT, IDENT, an operator character, or EOF
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# NUMBER and IDENT are ASCII, as in the README grammar and
# scalars._IDENT_RE: str.isdigit and str.isalpha would take '²' or 'α'.
# BAD takes any other non-space character, so finditer skips only \s,
# the characters for which str.isspace is true.
_TOKEN_RE = re.compile(r"(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|[-+*/^()']|(?P<BAD>\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = _Token(m.lastgroup or m[0], m[0], m.start(), m.end())
        if tok.kind == "BAD":
            raise ParseError(f"unexpected character {tok.text!r}", tok.span,
                             ["operator", "identifier", "number"])
        tokens.append(tok)
    tokens.append(_Token("EOF", "", len(text), len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int(tok: _Token) -> int:
    """An INT token's value; one longer than the interpreter converts
    (sys.get_int_max_str_digits(), 4300 digits by default) is an error
    at its span."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"number of {len(tok.text)} digits is too long",
                         tok.span,
                         [f"at most {sys.get_int_max_str_digits()} digits"]
                         ) from None


# the deepest nesting of parentheses, of expressions and exponents
# together: a level is four frames of the descent, so 200 levels stay
# well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def parenthesized(self, inner):
        """(inner(), the ')' token) for '(' inner ')', one level deeper;
        past MAX_NESTING levels, an error at the '('."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested more than {MAX_NESTING}"
                             " deep", self.cur.span, [])
        self.depth += 1
        self.advance()
        value, close = inner(), self.expect(")", "')'")
        self.depth -= 1
        return value, close

    def expect(self, kind: str, what: str | None = None) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"unexpected token {self.cur.text or 'end of input'!r}",
                             self.cur.span, [what or kind])
        return self.advance()

    # -- numbers --------------------------------------------------------
    def number(self) -> int | Fraction:
        """A NUMBER token, optionally over an integer: an int where whole."""
        tok = self.expect("INT", "number")
        value = _int(tok)
        if self.cur.kind == "/" and self.tokens[self.pos + 1].kind == "INT":
            self.advance()
            den = _int(self.advance())
            if den == 0:
                raise ParseError("zero denominator in ratio", tok.span,
                                 ["nonzero integer"])
            value = _rational(Fraction(value, den))
        return value

    # -- exponents ------------------------------------------------------
    def exponent(self) -> ExponentExpr:
        """['-'] (NUMBER | IDENT) | '(' affine ')'."""
        if self.cur.kind == "-":
            self.advance()
            return -self.affine_atom(paren=False)
        return self.affine_atom()

    def affine_ident(self) -> ExponentExpr:
        tok = self.expect("IDENT", "identifier")
        if tok.text in ("x", "p"):
            raise ParseError("operator-valued exponent unsupported", tok.span,
                             ["parameter identifier"])
        if tok.text in ("i", "hbar"):
            raise ParseError(f"{tok.text!r} not allowed in exponents", tok.span,
                             ["parameter identifier"])
        return ExponentExpr.param(tok.text)

    def affine_expr(self) -> ExponentExpr:
        total = self.affine_term(allow_leading_minus=True)
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            term = self.affine_term()
            total = total + term if op == "+" else total - term
        return total

    def affine_term(self, allow_leading_minus: bool = False) -> ExponentExpr:
        sign = 1
        if allow_leading_minus and self.cur.kind == "-":
            self.advance()
            sign = -1
        value = self.affine_atom()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            rhs = self.affine_atom()
            if op.kind == "*":
                if not (value.is_constant or rhs.is_constant):
                    raise ParseError("nonlinear exponent unsupported", op.span,
                                     ["affine combination"])
                value = (rhs.scale(value.const) if value.is_constant
                         else value.scale(rhs.const))
            else:
                if not rhs.is_constant:
                    raise ParseError("division by non-number in exponent",
                                     op.span, ["number"])
                if rhs.const == 0:
                    raise ParseError("division by zero in exponent", op.span,
                                     ["nonzero number"])
                value = value.scale(Fraction(1) / rhs.const)
        return value.scale(sign) if sign == -1 else value

    def affine_atom(self, paren: bool = True) -> ExponentExpr:
        if self.cur.kind == "INT":
            return ExponentExpr.number(self.number())
        if self.cur.kind == "IDENT":
            return self.affine_ident()
        if paren and self.cur.kind == "(":
            return self.parenthesized(self.affine_expr)[0]
        raise ParseError("invalid exponent", self.cur.span,
                         ["number", "identifier", "'('"])

    # -- expressions ----------------------------------------------------
    def expr(self) -> OperatorExpr:
        negate = False
        if self.cur.kind == "-":
            self.advance()
            negate = True
        total = self.term()
        if negate:
            total = -total
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            term = self.term()
            total = total + term if op == "+" else total - term
        return total

    def term(self) -> OperatorExpr:
        """One word while every factor is one word: the coefficients
        multiply and the factors join; a sum of words multiplies out."""
        coeff, factors = ONE, []
        rhs = self.factor()
        while len(rhs.words) == 1:
            word = rhs.words[0]
            coeff = coeff * word.coefficient
            factors.extend(word.factors)
            if self.cur.kind != "*":
                return OperatorExpr((OperatorWord(coeff, tuple(factors)),))
            self.advance()
            rhs = self.factor()
        product = OperatorExpr((OperatorWord(coeff, tuple(factors)),)) * rhs
        while self.cur.kind == "*":
            self.advance()
            product = product * self.factor()
        return product

    def factor(self) -> OperatorExpr:
        """base ('^' exponent)?; a failed scalar power points at the whole
        of a '(' expr ')' base, else at its first token."""
        tok = self.cur
        base, last = (self.parenthesized(self.expr) if tok.kind == "("
                      else (self.atom(), tok))
        if self.cur.kind != "^":
            return base
        caret = self.advance()
        return self._apply_exponent(base, self.exponent(), tok.start,
                                    last.end, caret)

    def _apply_exponent(self, base: OperatorExpr, exp: ExponentExpr,
                        start: int, end: int, caret: _Token) -> OperatorExpr:
        """A bare factor with exponent 1 takes the exponent, a scalar an
        integer power, anything else a nonnegative integer power."""
        single = base.single_factor()
        if (single is not None and single[0].is_one
                and single[1].exponent == ONE_EXP):
            return OperatorExpr.from_factors(single[1].with_exponent(exp))
        n = exp.as_int()
        if base.is_scalar:
            if n is None:
                raise ParseError("scalar base requires an integer exponent",
                                 caret.span, ["integer"])
            try:
                return OperatorExpr.identity(base.scalar_value() ** n)
            except ScalarError as err:
                raise ParseError(str(err), SourceSpan(start, end),
                                 []) from None
        if n is None or n < 0:
            raise ParseError("unsupported exponent on compound expression",
                             caret.span, ["nonnegative integer"])
        return base.pow(n)

    def atom(self) -> OperatorExpr:
        tok = self.cur
        if tok.kind == "INT":
            return OperatorExpr.identity(ScalarExpr(self.number()))
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name == "x":
                return OperatorExpr.from_factors(_X)
            if name == "p":
                return OperatorExpr.from_factors(_P)
            if name == "i":
                return OperatorExpr.identity(I)
            if name == "hbar":
                return OperatorExpr.identity(HBAR)
            deriv = 0
            while self.cur.kind == "'":
                self.advance()
                deriv += 1
            if self.cur.kind == "(":
                self.advance()
                arg = self.expect("IDENT", "'x'")
                if arg.text != "x":
                    raise ParseError("abstract functions take the argument x",
                                     arg.span, ["'x'"])
                self.expect(")", "')'")
                return OperatorExpr.from_factors(func_power(name, 1, deriv))
            if deriv:
                raise ParseError("derivative mark requires a function application",
                                 self.cur.span, ["'('"])
            return OperatorExpr.identity(ScalarExpr.param(name))
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.span,
                         ["'x'", "'p'", "'i'", "'hbar'", "number",
                          "identifier", "'('"])

    def parse(self) -> OperatorExpr:
        result = self.expr()
        if self.cur.kind != "EOF":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.span,
                             ["end of input", "'+'", "'-'", "'*'"])
        return result


def parse_operator(text: str) -> OperatorExpr:
    """Parse the operator grammar into an :class:`OperatorExpr`."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _exponent_text(e: ExponentExpr) -> str:
    if e.is_constant:
        text = _number_text(e.const)
        return text if e.const.denominator == 1 else f"({text})"
    if e.const == 0 and len(e.linear) == 1 and e.linear[0][1] == 1:
        return e.linear[0][0]
    terms = [(e.const, [_number_text(abs(e.const))])] if e.const else []
    for name, coeff in e.linear:
        num, den = abs(coeff.numerator), coeff.denominator
        piece = name if num == 1 else f"{_number_text(num)}*{name}"
        terms.append((coeff, [piece if den == 1
                              else f"{piece}/{_number_text(den)}"]))
    return f"({_sum_text(terms)})"


def _factor_text(f: Factor) -> str:
    """The factor's text, formatted on the first call and kept in the
    factor, so that normal_order's sort and the printer share it."""
    text = getattr(f, "_text", None)
    if text is None:
        if f.kind is BaseKind.X:
            text = "x"
        elif f.kind is BaseKind.P:
            text = "p"
        else:
            text = f.name + "'" * f.deriv + "(x)"
        if f.exponent != ONE_EXP:
            text = f"{text}^{_exponent_text(f.exponent)}"
        _set(f, "_text", text)
    return text


def print_operator(e: OperatorExpr) -> str:
    """The words of ``e`` in the order given; a normal form prints in the
    order :func:`qorder.ordering.normal_order` sorts it into, and
    re-parses to the same normal form.  Coefficients print by
    :mod:`qorder.scalars`, which refuses a number too long to read back."""
    if not e.words:
        return "0"
    terms = []
    for word in e.words:
        sign, coeff_text = _coefficient_text(word.coefficient)
        pieces = [coeff_text] if coeff_text != "1" or not word.factors else []
        pieces.extend(_factor_text(f) for f in word.factors)
        terms.append((sign, pieces))
    return _sum_text(terms)
