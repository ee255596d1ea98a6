"""The paper's identities as data: one row per ``qorder verify`` id.

A symbolic row states an operator (as parser text), the normal form it
must reach, the free ordering parameters, and the words of that normal
form that must keep depending on them.  An integral row is one point of
the (a, b) grid of the oscillatory integral identity eq11.  ``check``
runs one row; the CLI and the acceptance tests both read this table.
"""

from __future__ import annotations

import re

from ._value import Value, _set
from .operators import Convention, OperatorExpr

COORDINATE, MOMENTUM = Convention.COORDINATE, Convention.MOMENTUM


class Identity(Value):
    """normal_order(text), hermitized first if asked, equals
    normal_order(expected); exactly the ``surviving`` words depend on
    ``params``.  ``detail`` is printed on success, or the normal form
    where it is None."""

    __slots__ = _fields = ("id", "convention", "text", "expected",
                           "hermitize", "params", "surviving", "detail")

    def __init__(self, id: str, convention: Convention, text: str,
                 expected: str, hermitize: bool = False,
                 params: tuple[str, ...] = ("alpha",),
                 surviving: tuple[str, ...] = (), detail: str | None = None):
        _set(self, "id", id)
        _set(self, "convention", convention)
        _set(self, "text", text)
        _set(self, "expected", expected)
        _set(self, "hermitize", hermitize)
        _set(self, "params", params)
        _set(self, "surviving", surviving)
        _set(self, "detail", detail)


class IntegralIdentity(Value):
    """Both mixed-product orderings of eq11 at (a, b) equal
    (pi/2) J_0(2 (a^2 b^2)^(1/4))."""

    __slots__ = _fields = ("id", "a", "b")

    def __init__(self, id: str, a: float, b: float):
        _set(self, "id", id)
        _set(self, "a", a)
        _set(self, "b", b)


IDENTITIES = (
    # eq3: hermitized f^alpha p f^(1-alpha) is f p - (i hbar / 2) f'
    Identity("eq3[x]", COORDINATE, "x^alpha * p * x^(1-alpha)",
             "x * p - 1/2 * i * hbar", hermitize=True),
    Identity("eq3[x^2]", COORDINATE, "x^(2*alpha) * p * x^(2-2*alpha)",
             "x^2 * p - i * hbar * x", hermitize=True),
    Identity("eq3[sqrt(x)]", COORDINATE, "x^(alpha/2) * p * x^((1-alpha)/2)",
             "x^(1/2) * p - 1/4 * i * hbar * x^(-1/2)", hermitize=True),
    Identity("eq3[f]", COORDINATE, "f(x)^alpha * p * f(x)^(1-alpha)",
             "f(x) * p - 1/2 * i * hbar * f'(x)", hermitize=True),
    # eq4: the momentum-space dual
    Identity("eq4", MOMENTUM, "p^(2*alpha) * x * p^(2-2*alpha)",
             "p^2 * x + i * hbar * p", hermitize=True),
    *(IntegralIdentity(f"eq11[a={a},b={b}]", a, b)
      for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)),
    # eq14: the symmetrized two-sided word keeps an ambiguous
    # alpha gamma hbar^2 / x term, which gamma = 0 removes
    Identity("eq14", COORDINATE,
             "1/2 * (x^alpha * p * x^(1-alpha-gamma) * p * x^gamma"
             " + x^gamma * p * x^(1-alpha-gamma) * p * x^alpha)",
             "x * p^2 - i * hbar * p + alpha * gamma * hbar^2 * x^-1",
             params=("alpha", "gamma"),
             surviving=("alpha * gamma * hbar^2 * x^-1",)),
    Identity("eq14[gamma=0]", COORDINATE,
             "1/2 * (x^alpha * p * x^(1-alpha) * p * x^0"
             " + x^0 * p * x^(1-alpha) * p * x^alpha)",
             "x * p^2 - i * hbar * p"),
    # eq18, eq19: each asymmetric quadratic ordering is its alpha = 1/2
    # ordering plus an alpha-dependent p term.  The two alpha = 1/2
    # orderings are not Weyl's: they are the Weyl-ordered
    # T_12 = (p^2 x + 2 p x p + x p^2) / 4 plus and minus (i hbar / 2) p.
    # Their mean, eq19, is T_12 exactly
    Identity("eq18a", COORDINATE, "x^alpha * p * x^(1-alpha) * p",
             "x^(1/2) * p * x^(1/2) * p + i * hbar * (alpha - 1/2) * p",
             surviving=("(i * alpha * hbar - i * hbar) * p",),
             detail="symbolic proof"),
    Identity("eq18b", COORDINATE, "p * x^(1-alpha) * p * x^alpha",
             "p * x^(1/2) * p * x^(1/2) - i * hbar * (alpha - 1/2) * p",
             surviving=("(-i * alpha * hbar - i * hbar) * p",),
             detail="symbolic proof"),
    Identity("eq19", COORDINATE,
             "1/2 * (x^alpha * p * x^(1-alpha) * p"
             " + p * x^(1-alpha) * p * x^alpha)",
             "1/2 * (x^(1/2) * p * x^(1/2) * p + p * x^(1/2) * p * x^(1/2))",
             detail="symbolic proof, alpha fully symbolic"),
)


def suite(row) -> str:
    """The ``--identity`` name that selects a row: eq18 for eq18a."""
    return re.match(r"eq\d+", row.id)[0]


def check(row) -> tuple[bool, str]:
    """(passed, detail) for one row."""
    if isinstance(row, IntegralIdentity):
        from .verification import verify_integral_identity
        report = verify_integral_identity(row.a, row.b)
        return report.passed, f"max residual {report.max_residual:.3e}"
    from .ordering import detect_ambiguity, hermitize, normal_order
    from .parser import parse_operator, print_operator
    op = parse_operator(row.text)
    nf = normal_order(hermitize(op) if row.hermitize else op, row.convention)
    surviving = tuple(
        print_operator(OperatorExpr([w]))
        for w in detect_ambiguity(nf, row.params).surviving_terms)
    ok = (nf == normal_order(parse_operator(row.expected), row.convention)
          and surviving == row.surviving)
    return ok, row.detail or print_operator(nf.as_operator_expr())
