"""Grammar, error spans, printer output, and round-trip stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder.operators import BaseKind, OperatorExpr
from qorder.ordering import Convention, normal_order
from qorder.parser import (MAX_WORDS, ParseError, parse_operator,
                           print_operator)


def _coord_nf(text):
    return normal_order(parse_operator(text), Convention.COORDINATE)


def test_basic_words():
    e = parse_operator("x * p")
    (word,) = e.words
    assert [f.kind for f in word.factors] == [BaseKind.X, BaseKind.P]
    assert word.coefficient.is_one


def test_scalars_fold_into_coefficient():
    e = parse_operator("2 * i * hbar * alpha * x")
    (word,) = e.words
    assert len(word.factors) == 1
    assert word.coefficient.depends_on("alpha")


def test_ratio_and_signs():
    assert _coord_nf("1/2 * x + 1/2 * x") == _coord_nf("x")
    assert _coord_nf("-x + x") == _coord_nf("0 * x")
    assert _coord_nf("x - x") == _coord_nf("0 * p")


def test_exponent_forms():
    for text in ("x^2", "x^-1", "x^(1/2)", "x^alpha", "x^(1-alpha)",
                 "x^(2*alpha)", "x^((1-alpha)/2)", "x^(-alpha)",
                 "x^(alpha/2 + 1/3)"):
        parse_operator(text)


def test_function_factors():
    e = parse_operator("f(x)^alpha * p * f''(x)")
    factors = e.words[0].factors
    assert factors[0].name == "f" and factors[0].deriv == 0
    assert factors[2].deriv == 2


def test_zeroth_power_of_compound_scalar():
    assert _coord_nf("((1+alpha)^2)^0 * x") == _coord_nf("x")
    assert _coord_nf("((alpha*hbar)^-1)^0 * x") == _coord_nf("x")
    nf = _coord_nf("x + ((1+alpha)^3)^0")
    assert print_operator(nf.as_operator_expr()) == "x + 1"
    # a sum has no negative power, not even under a zeroth one
    with pytest.raises(ParseError, match="cannot invert the sum") as exc:
        parse_operator("((1+alpha)^-1)^0 * x")
    assert (exc.value.span.start, exc.value.span.end) == (1, 10)


def test_compound_power_expands():
    assert _coord_nf("(x * p)^2") == _coord_nf("x * p * x * p")
    assert _coord_nf("(x + p)^2") == _coord_nf("x^2 + x * p + p * x + p^2")
    assert _coord_nf("(x^a)^2") == _coord_nf("x^a * x^a")


def test_expansion_is_capped(monkeypatch):
    """A product or power of sums multiplies out to at most MAX_WORDS
    words; past that it is a parse error at the product, before the
    product is built."""
    built = []
    mul = OperatorExpr.__mul__

    def counted(a, b):
        out = mul(a, b)
        built.append(len(out.words))
        return out

    monkeypatch.setattr(OperatorExpr, "__mul__", counted)
    # the 13th factor is the first past 2^12 = MAX_WORDS words
    thirteen = " * ".join(["(x+p)"] * 13)
    for text, span in (("(x+p)^30", (0, 8)),
                       (" * ".join(["(x+p)"] * 30), (0, len(thirteen)))):
        built.clear()
        with pytest.raises(ParseError) as exc:
            parse_operator(text)
        assert exc.value.message == (
            f"product expands to more than {MAX_WORDS} words")
        assert (exc.value.span.start, exc.value.span.end) == span
        assert max(built) == MAX_WORDS
    assert len(parse_operator("(x+p)^12").words) == MAX_WORDS
    assert len(parse_operator("((x+p)^6)^2").words) == MAX_WORDS


def test_parse_errors_have_spans():
    cases = [
        ("x^(1/2", "')'"),
        ("x^p", "operator-valued"),
        ("x^i", "not allowed in exponents"),
        ("x^(alpha*beta)", "nonlinear"),
        ("x x", "trailing input"),
        ("f'", "derivative mark"),
        ("2^(1/2)", "integer exponent"),
        ("@", "unexpected character"),
        ("", "end of input"),
        ("1/0 * x", "zero denominator"),
        ("(x^2)^a", "unsupported exponent on compound expression"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_operator(text)
        err = exc.value
        assert fragment in str(err)
        assert err.message
        assert 0 <= err.span.start <= err.span.end <= len(text)


def test_minus_takes_no_parenthesized_exponent():
    """exponent := ['-'] (NUMBER | IDENT) | '(' affine ')', so x^-(a) is
    rejected at its '(' and x^(-a) is the way to write it."""
    with pytest.raises(ParseError) as exc:
        parse_operator("x^-(a)")
    assert str(exc.value) == ("invalid exponent at 3..4"
                              " (expected number, identifier, '(')")
    assert _coord_nf("x^(-a)") == _coord_nf("x^-a")


def test_non_ascii_digits_and_letters_are_rejected():
    """NUMBER is [0-9]+ and IDENT [A-Za-z_][A-Za-z0-9_]*, as in the README
    grammar: a superscript or Arabic-Indic digit and a Greek letter are
    parse errors at their own character, not numbers or names."""
    for text, span in (("x^\u00b2", (2, 3)), ("x^\u0661", (2, 3)),
                       ("\u03b1x * p", (0, 1))):
        with pytest.raises(ParseError) as exc:
            parse_operator(text)
        assert exc.value.message == f"unexpected character {text[span[0]]!r}"
        assert (exc.value.span.start, exc.value.span.end) == span


def test_printer_examples():
    nf = normal_order(parse_operator("p * x"), Convention.COORDINATE)
    assert print_operator(nf.as_operator_expr()) == "x * p - i * hbar"
    nf = normal_order(parse_operator("p * x^2"), Convention.COORDINATE)
    assert print_operator(nf.as_operator_expr()) == "x^2 * p - 2 * i * hbar * x"
    assert print_operator(parse_operator("0 * x")) == "0"
    # only normal_order sorts words; the printer keeps the order given
    assert print_operator(parse_operator("x + p")) == "x + p"
    assert print_operator(_coord_nf("x + p").as_operator_expr()) == "p + x"


def test_printer_symbolic_exponents():
    nf = _coord_nf("x^(1-alpha) * p")
    assert print_operator(nf.as_operator_expr()) == "x^(1 - alpha) * p"


@pytest.mark.parametrize("exponent, printed", [
    ("alpha/2", "(alpha/2)"), ("-3*alpha/4", "(-3*alpha/4)"),
    ("(1 - alpha)/3", "(1/3 - alpha/3)"), ("-alpha/2 - 1", "(-1 - alpha/2)"),
    ("alpha/2 + 3*beta/5 - gamma", "(alpha/2 + 3*beta/5 - gamma)")])
def test_exponent_text_round_trip(exponent, printed):
    """A parameter's coefficient of 1/d prints as name/d, never 1*name/d,
    and every printed exponent parses back to itself."""
    expr = parse_operator(f"x^({exponent})")
    text = print_operator(expr)
    assert text == f"x^{printed}"
    assert parse_operator(text).words[0].factors == expr.words[0].factors


_EXPONENTS = st.sampled_from(
    ["", "^2", "^3", "^-1", "^(1/2)", "^alpha", "^(1-alpha)", "^(2*beta)",
     "^(alpha/2)", "^(-3*alpha/4)"])
_COEFFS = st.sampled_from(["", "2 * ", "1/3 * ", "i * ", "hbar * ", "alpha * "])


@st.composite
def _coordinate_orderable(draw):
    """Random expression whose p powers are all explicit integers."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            base = draw(st.sampled_from(["x", "p", "f(x)", "g'(x)"]))
            exp = "" if base == "p" else draw(_EXPONENTS)
            factors.append(base + exp)
        terms.append(draw(_COEFFS) + " * ".join(factors))
    return " + ".join(terms)


@settings(max_examples=80, deadline=None)
@given(_coordinate_orderable())
def test_round_trip_preserves_normal_form(text):
    """parse -> print -> parse lands on the same coordinate normal form."""
    nf = _coord_nf(text)
    printed = print_operator(nf.as_operator_expr())
    assert _coord_nf(printed) == nf
    # printing a normal form is idempotent
    assert print_operator(_coord_nf(printed).as_operator_expr()) == printed
