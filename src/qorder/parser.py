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
most MAX_NESTING (200) deep, in expressions and exponents together, a
product or power of sums multiplies out to at most MAX_WORDS (4096)
words, and a power of one word to at most MAX_WORDS factors.

The printer prints the words of an expression in the order it is given
them.  Word order is decided once, by :func:`qorder.ordering.normal_order`,
so a normal form prints in its canonical order and any other expression
in the order it was built, as ``x + p`` does.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError, SourceSpan
from .exponents import ONE_EXP, ExponentExpr
from .operators import (BaseKind, Factor, OperatorExpr, OperatorWord,
                        func_power, p_power, x_power)
from .scalars import (HBAR, I, ONE, ScalarExpr, ScalarError,
                      _coefficient_text, _number_text, _rational, _sum_text)

# the factors of the x and p atoms, shared by every parse
_X, _P = (x_power(1),), (p_power(1),)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# NUMBER and IDENT are ASCII, as in the README grammar and
# scalars._IDENT_RE: str.isdigit and str.isalpha would take '²' or 'α'.
# Any other non-space character is a token of its own, so the scan skips
# only \s, the characters for which str.isspace is true.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
# a token's kind by its first character: INT, IDENT or the operator
# character; any other character is BAD
_KIND = {**{chr(c): "IDENT" for c in range(128) if chr(c).isidentifier()},
         **dict.fromkeys("0123456789", "INT"), **{c: c for c in "-+*/^()'"}}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# the deepest nesting of parentheses, of expressions and exponents
# together: a level is four frames of the descent, so 200 levels stay
# well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 200
# the most words a product or power of sums may multiply out to, before
# any normal ordering: (x + p)^12 is 4096 words and orders in under 1 s;
# also the most factors a power of one word may hold
MAX_WORDS = 4096


class _Parser:
    """Recursive descent over the texts and kinds of the tokens, EOF
    last; a token is named by its index, and ``cur`` is the kind of the
    token at ``pos``.  Positions are found again only for an error."""

    __slots__ = ("text", "texts", "kinds", "pos", "cur", "depth")

    def __init__(self, text: str):
        texts = _TOKEN_RE.findall(text)
        kinds = [_KIND.get(t[0], "BAD") for t in texts]
        self.text, self.texts, self.kinds = text, texts + [""], kinds + ["EOF"]
        self.pos, self.cur, self.depth = 0, self.kinds[0], 0
        if "BAD" in kinds:
            bad = kinds.index("BAD")
            raise self.error(f"unexpected character {texts[bad]!r}",
                             ["operator", "identifier", "number"], bad)

    def advance(self) -> int:
        """Step past the current token; its index."""
        tok = self.pos
        self.pos = tok + 1
        self.cur = self.kinds[tok + 1]
        return tok

    def span(self, first: int, last: int | None = None) -> SourceSpan:
        """From the start of token ``first`` to the end of token ``last``
        (or ``first``); EOF is the empty span at the end."""
        bounds = [m.span() for m in _TOKEN_RE.finditer(self.text)]
        bounds.append((len(self.text), len(self.text)))
        return SourceSpan(bounds[first][0],
                          bounds[first if last is None else last][1])

    def error(self, message: str, expected: list[str],
              tok: int | None = None) -> ParseError:
        """A ParseError at token ``tok``, by default the current one."""
        return ParseError(message, self.span(self.pos if tok is None
                                             else tok), expected)

    def unexpected(self, expected: list[str]) -> ParseError:
        text = self.texts[self.pos]
        return self.error(f"unexpected token {text or 'end of input'!r}",
                          expected)

    def parenthesized(self, inner):
        """(inner(), the index of ')') for '(' inner ')', one level
        deeper; past MAX_NESTING levels, an error at the '('."""
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses nested more than {MAX_NESTING}"
                             " deep", [])
        self.depth += 1
        self.advance()
        value, close = inner(), self.expect(")", "')'")
        self.depth -= 1
        return value, close

    def expect(self, kind: str, what: str | None = None) -> int:
        if self.cur != kind:
            raise self.unexpected([what or kind])
        return self.advance()

    # -- numbers --------------------------------------------------------
    def integer(self, tok: int) -> int:
        """An INT token's value; one longer than the interpreter converts
        (sys.get_int_max_str_digits(), 4300 digits by default) is an
        error at its span."""
        text = self.texts[tok]
        try:
            return int(text)
        except ValueError:
            raise self.error(f"number of {len(text)} digits is too long",
                             [f"at most {sys.get_int_max_str_digits()}"
                              " digits"], tok) from None

    def number(self) -> int | Fraction:
        """A NUMBER token, optionally over an integer: an int where whole."""
        tok = self.expect("INT", "number")
        value = self.integer(tok)
        if self.cur == "/" and self.kinds[self.pos + 1] == "INT":
            self.advance()
            den = self.integer(self.advance())
            if den == 0:
                raise self.error("zero denominator in ratio",
                                 ["nonzero integer"], tok)
            value = _rational(Fraction(value, den))
        return value

    # -- exponents ------------------------------------------------------
    def exponent(self) -> ExponentExpr:
        """['-'] (NUMBER | IDENT) | '(' affine ')'."""
        if self.cur == "-":
            self.advance()
            return -self.affine_atom(paren=False)
        return self.affine_atom()

    def affine_ident(self) -> ExponentExpr:
        tok = self.expect("IDENT", "identifier")
        name = self.texts[tok]
        if name in ("x", "p"):
            raise self.error("operator-valued exponent unsupported",
                             ["parameter identifier"], tok)
        if name in ("i", "hbar"):
            raise self.error(f"{name!r} not allowed in exponents",
                             ["parameter identifier"], tok)
        return ExponentExpr.param(name)

    def affine_expr(self) -> ExponentExpr:
        total = self.affine_term(allow_leading_minus=True)
        while self.cur in ("+", "-"):
            op = self.kinds[self.advance()]
            term = self.affine_term()
            total = total + term if op == "+" else total - term
        return total

    def affine_term(self, allow_leading_minus: bool = False) -> ExponentExpr:
        sign = 1
        if allow_leading_minus and self.cur == "-":
            self.advance()
            sign = -1
        value = self.affine_atom()
        while self.cur in ("*", "/"):
            op = self.advance()
            rhs = self.affine_atom()
            if self.kinds[op] == "*":
                if not (value.is_constant or rhs.is_constant):
                    raise self.error("nonlinear exponent unsupported",
                                     ["affine combination"], op)
                value = (rhs.scale(value.const) if value.is_constant
                         else value.scale(rhs.const))
            else:
                if not rhs.is_constant:
                    raise self.error("division by non-number in exponent",
                                     ["number"], op)
                if rhs.const == 0:
                    raise self.error("division by zero in exponent",
                                     ["nonzero number"], op)
                value = value.scale(Fraction(1) / rhs.const)
        return value.scale(sign) if sign == -1 else value

    def affine_atom(self, paren: bool = True) -> ExponentExpr:
        if self.cur == "INT":
            return ExponentExpr.number(self.number())
        if self.cur == "IDENT":
            return self.affine_ident()
        if paren and self.cur == "(":
            return self.parenthesized(self.affine_expr)[0]
        raise self.error("invalid exponent", ["number", "identifier", "'('"])

    # -- expressions ----------------------------------------------------
    def expr(self) -> OperatorExpr:
        negate = False
        if self.cur == "-":
            self.advance()
            negate = True
        total = self.term()
        if negate:
            total = -total
        while self.cur in ("+", "-"):
            op = self.kinds[self.advance()]
            term = self.term()
            total = total + term if op == "+" else total - term
        return total

    def term(self) -> OperatorExpr:
        """One word while every factor is one word: the coefficients
        multiply and the factors join, an atom's never wrapped in a word
        of its own; a sum of words multiplies out."""
        first = self.pos
        coeff, factors = ONE, []
        while True:
            if self.cur != "(":
                c, f = self.power()
            else:
                rhs = self.factor()
                if len(rhs.words) != 1:
                    break
                c, f = rhs.words[0].coefficient, rhs.words[0].factors
            coeff = coeff * c
            factors += f
            if self.cur != "*":
                return OperatorExpr((OperatorWord(coeff, tuple(factors)),))
            self.advance()
        product = OperatorExpr((OperatorWord(coeff, tuple(factors)),))
        product = self.multiply(product, rhs, first)
        while self.cur == "*":
            self.advance()
            product = self.multiply(product, self.factor(), first)
        return product

    def multiply(self, lhs: OperatorExpr, rhs: OperatorExpr,
                 first: int) -> OperatorExpr:
        """lhs * rhs multiplied out; past MAX_WORDS words, an error at
        the product, from token ``first`` to the last token read."""
        if len(lhs.words) * len(rhs.words) > MAX_WORDS:
            raise ParseError(f"product expands to more than {MAX_WORDS}"
                             " words", self.span(first, self.pos - 1), [])
        return lhs * rhs

    def power(self) -> tuple[ScalarExpr, tuple[Factor, ...]]:
        """An atom and its exponent, as the coefficient and factors of
        one word: an operator atom takes the exponent, a scalar an
        integer power."""
        first = self.pos
        coeff, factors = self.atom()
        if self.cur != "^":
            return coeff, factors
        caret = self.advance()
        exp = self.exponent()
        if factors:
            return coeff, (factors[0].with_exponent(exp),)
        return self.scalar_power(coeff, exp, caret, first, first), ()

    def factor(self) -> OperatorExpr:
        """base ('^' exponent)?; a bare factor with exponent 1 takes the
        exponent, a scalar an integer power, anything else a nonnegative
        integer power: one word's in one step, a sum's by products."""
        first = self.pos
        if self.cur != "(":
            return OperatorExpr((OperatorWord(*self.power()),))
        base, close = self.parenthesized(self.expr)
        if self.cur != "^":
            return base
        caret = self.advance()
        exp = self.exponent()
        single = base.single_factor()
        if (single is not None and single[0].is_one
                and single[1].exponent == ONE_EXP):
            return OperatorExpr.from_factors(single[1].with_exponent(exp))
        if base.is_scalar:
            return OperatorExpr.identity(self.scalar_power(
                base.scalar_value(), exp, caret, first, close))
        n = exp.as_int()
        if n is None or n < 0:
            raise self.error("unsupported exponent on compound expression",
                             ["nonnegative integer"], caret)
        if len(base.words) == 1:
            word = base.words[0]
            if len(word.factors) * n > MAX_WORDS:
                raise ParseError(f"power expands to more than {MAX_WORDS}"
                                 " factors", self.span(first, self.pos - 1),
                                 [])
            return OperatorExpr((OperatorWord(word.coefficient ** n,
                                              word.factors * n),))
        out = OperatorExpr.identity()
        for _ in range(n):
            out = self.multiply(out, base, first)
        return out

    def scalar_power(self, base: ScalarExpr, exp: ExponentExpr, caret: int,
                     first: int, last: int) -> ScalarExpr:
        """base ** exp for an integer exp; a failed power is an error at
        the base, tokens ``first`` to ``last``."""
        n = exp.as_int()
        if n is None:
            raise self.error("scalar base requires an integer exponent",
                             ["integer"], caret)
        try:
            return base ** n
        except ScalarError as err:
            raise ParseError(str(err), self.span(first, last), []) from None

    def atom(self) -> tuple[ScalarExpr, tuple[Factor, ...]]:
        """The coefficient and factors of one atom's word."""
        if self.cur == "INT":
            return ScalarExpr(self.number()), ()
        if self.cur != "IDENT":
            raise self.unexpected(["'x'", "'p'", "'i'", "'hbar'", "number",
                                   "identifier", "'('"])
        name = self.texts[self.advance()]
        if name == "x":
            return ONE, _X
        if name == "p":
            return ONE, _P
        if name == "i":
            return I, ()
        if name == "hbar":
            return HBAR, ()
        deriv = 0
        while self.cur == "'":
            self.advance()
            deriv += 1
        if self.cur == "(":
            self.advance()
            arg = self.expect("IDENT", "'x'")
            if self.texts[arg] != "x":
                raise self.error("abstract functions take the argument x",
                                 ["'x'"], arg)
            self.expect(")", "')'")
            return ONE, (func_power(name, 1, deriv),)
        if deriv:
            raise self.error("derivative mark requires a function application",
                             ["'('"])
        return ScalarExpr.param(name), ()

    def parse(self) -> OperatorExpr:
        result = self.expr()
        if self.cur != "EOF":
            raise self.error(f"trailing input {self.texts[self.pos]!r}",
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
    """The factor's text, as normal_order's sort and the printer use it."""
    if f.kind is BaseKind.X:
        text = "x"
    elif f.kind is BaseKind.P:
        text = "p"
    else:
        text = f.name + "'" * f.deriv + "(x)"
    if f.exponent != ONE_EXP:
        text = f"{text}^{_exponent_text(f.exponent)}"
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
