"""Normal ordering, Hermitian constructions, and ambiguity detection.

Normal ordering moves every momentum factor to the right of all
position-dependent factors (coordinate convention) or every position
factor to the right of all momentum factors (momentum convention).  It
is one fold: each word is read from right to left into a dict from
(carrier, m) to a coefficient, where the carrier is the commuting block
of x-, f- or p-powers, keyed by base, and m is the power of the moving
operator M.  A carrier factor adds its exponent to its base; a power
M^n moves past the carrier in one step of the generalized Leibniz rule
(Wilcox, J. Math. Phys. 8, 962 (1967))

    M^n C M^m = sum_k C(n,k) c^k (d^k C) M^(m+n-k),
    c = -i hbar (M = p), +i hbar (M = x)

where d is the derivative of a carrier monomial: each base B^s gives
s B^(s-1), times f^(d+1) when B is an abstract f^(d).  d is linear, so
it acts on the whole state at once: layer k + 1 is d of layer k, like
terms merged, and the layers stop at the first empty one or at k = n.
So ``p^1000000000 * x`` takes two layers, while ``p^N * x^a`` with a
symbolic ``a`` has N + 1 output words, and its cost follows the size of
that output.  The carrier exponents s are any affine exponents; the
moving operator's own exponent must be a nonnegative integer.  The
rules hold on the dense domain of smooth test functions, which is the
justification for taking them as axioms for symbolic s; the monomial
test-function oracle in the test suite checks them independently for
integer exponents.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._value import Value, _set
from .errors import OrderingError
from .exponents import ExponentExpr, ONE_EXP
from .operators import (BaseKind, Convention, Factor, OperatorExpr,
                        OperatorWord, p_power, x_power)
from .parser import _factor_text, print_operator
from .scalars import HBAR, I, ONE, ParamSymbol, ScalarExpr


class NormalForm(Value):
    """Canonical ordered representation; the engine's equality witness."""

    __slots__ = _fields = ("convention", "words")

    def __init__(self, convention: Convention,
                 words: tuple[OperatorWord, ...]):
        _set(self, "convention", convention)
        _set(self, "words", words)

    def as_operator_expr(self) -> OperatorExpr:
        return OperatorExpr(self.words)

    __hash__ = None

    def __str__(self):
        return print_operator(self.as_operator_expr())


class AmbiguityReport(Value):
    __slots__ = _fields = ("free_params", "surviving_terms")

    def __init__(self, free_params: tuple[ParamSymbol, ...],
                 surviving_terms: tuple[OperatorWord, ...]):
        _set(self, "free_params", free_params)
        _set(self, "surviving_terms", surviving_terms)


def _moving_kind(convention: Convention) -> BaseKind:
    return BaseKind.P if convention is Convention.COORDINATE else BaseKind.X


def _validate_word(word: OperatorWord, convention: Convention) -> None:
    moving = _moving_kind(convention)
    for f in word.factors:
        if f.kind is moving:
            n = f.exponent.as_int()
            if n is None or n < 0:
                raise OrderingError(
                    f"cannot normal-order {_factor_text(f)}: the moving"
                    " operator needs a nonnegative integer power")
        elif convention is Convention.MOMENTUM and f.kind is BaseKind.FUNC:
            raise OrderingError(
                "abstract x-functions unsupported in momentum convention")


# the kind that each leading tag of Factor.base_key stands for
_KINDS = (BaseKind.X, BaseKind.FUNC, BaseKind.P)
_MINUS_ONE = ExponentExpr.number(-1)
# c of the Leibniz step: p x = x p - i hbar and x p = p x + i hbar
_STEP = {Convention.COORDINATE: -I * HBAR, Convention.MOMENTUM: I * HBAR}


def _times_base(carrier: tuple, key: tuple, s: ExponentExpr) -> tuple:
    """carrier * B^s for the base B of ``key``, in one pass over the
    carrier's (key, exponent) pairs, sorted by key; a zero exponent
    drops B."""
    i = 0
    while i < len(carrier) and carrier[i][0] < key:
        i += 1
    rest = carrier[i:]
    if rest and rest[0][0] == key:
        s, rest = rest[0][1] + s, rest[1:]
    return carrier[:i] + (rest if s.is_zero else ((key, s),) + rest)


def _leibniz(carrier: tuple):
    """(s, term) for each base B^s of the carrier: its share of the
    derivative, s B^(s-1) times the rest, times f^(d+1) when B is f^(d)."""
    for key, s in carrier:
        term = _times_base(carrier, key, _MINUS_ONE)
        if _KINDS[key[0]] is BaseKind.FUNC:
            term = _times_base(term, (key[0], key[1], key[2] + 1), ONE_EXP)
        yield s.to_scalar(), term


def _merge(acc: dict, key, coeff: ScalarExpr) -> None:
    """acc[key] += coeff, dropping a sum that is zero."""
    old = acc.get(key)
    if old is not None:
        coeff = old + coeff
        if coeff.is_zero:
            del acc[key]
            return
    acc[key] = coeff


def _fold_word(word: OperatorWord, convention: Convention) -> dict:
    """{(carrier, m): coefficient} of one word, read right to left.

    A carrier factor multiplies every carrier.  A moving power M^n adds
    C(n,k) c^k times layer k to the terms at M^(m+n-k), where layer 0 is
    the state and layer k+1 is d of layer k, like terms merged; the
    layers stop at the first empty one or at k = n.
    """
    moving, c = _moving_kind(convention), _STEP[convention]
    state = {((), 0): word.coefficient}
    for f in reversed(word.factors):
        if f.kind is not moving:
            key = f.base_key
            state = {(_times_base(carrier, key, f.exponent), m): coeff
                     for (carrier, m), coeff in state.items()}
            continue
        n = f.exponent.as_int()
        moved = {(carrier, m + n): coeff
                 for (carrier, m), coeff in state.items()}
        layer, binomial, step = state, 1, ONE
        for k in range(1, n + 1):
            deeper: dict = {}
            for (carrier, m), coeff in layer.items():
                for s, term in _leibniz(carrier):
                    _merge(deeper, (term, m), coeff * s)
            if not deeper:
                break
            layer = deeper
            binomial = binomial * (n - k + 1) // k
            step = step * c
            weight = ScalarExpr(binomial) * step
            for (term, m), coeff in layer.items():
                _merge(moved, (term, m + n - k), coeff * weight)
        state = moved
    return state


@functools.cache
def _generic_value(name: str) -> Fraction:
    """A fixed pseudo-random rational in [0.1, 0.8) for a parameter, at
    which symbolic exponents are compared when words are sorted."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) % 100003
    return Fraction(1, 10) + Fraction(7 * h, 1000030)


def _word_sort_key(word: OperatorWord):
    """Highest p degree first, then highest degree in the other factors,
    then the factors' text.  Degrees are exact: ints, or Fractions where
    an exponent is symbolic, so equal degrees tie for any size."""
    p_degree = carrier_degree = 0
    sig_parts = []
    for f in word.factors:
        e = f.exponent
        val = e.const + sum(c * _generic_value(n) for n, c in e.linear)
        if f.kind is BaseKind.P:
            p_degree += val
        else:
            carrier_degree += val
        sig_parts.append(_factor_text(f))
    return (-p_degree, -carrier_degree, " ".join(sig_parts))


def normal_order(e: OperatorExpr, convention: Convention) -> NormalForm:
    """Rewrite to the convention's canonical form by the fold of the
    module docstring; its words are sorted by :func:`_word_sort_key`,
    the order in which they print."""
    moving_power = (p_power if convention is Convention.COORDINATE
                    else x_power)
    merged: dict = {}
    for word in e.words:
        _validate_word(word, convention)
        for key, coeff in _fold_word(word, convention).items():
            _merge(merged, key, coeff)
    words = []
    for (carrier, m), coeff in merged.items():
        factors = [Factor(_KINDS[k[0]], s, k[1], k[2]) for k, s in carrier]
        if m:
            factors.append(moving_power(m))
        words.append(OperatorWord(coeff, tuple(factors)))
    words.sort(key=_word_sort_key)
    return NormalForm(convention, tuple(words))


def hermitian_conjugate(e: OperatorExpr) -> OperatorExpr:
    """Reverse each word and conjugate its coefficient.

    x-hat, p-hat and abstract real functions of x-hat are self-adjoint
    generators, so conjugation only reverses products and conjugates
    scalars; it is an involution.
    """
    return OperatorExpr(tuple(
        OperatorWord(w.coefficient.conj(), tuple(reversed(w.factors)))
        for w in e.words))


def hermitize(e: OperatorExpr) -> OperatorExpr:
    """(e + e-dagger) / 2, the Hermitian candidate of an ordering."""
    return (e + hermitian_conjugate(e)).scaled(ScalarExpr(Fraction(1, 2)))


def detect_ambiguity(n: NormalForm, free) -> AmbiguityReport:
    """Flag words whose coefficients depend on the free ordering parameters."""
    params = tuple(p if isinstance(p, ParamSymbol) else ParamSymbol(p)
                   for p in free)
    surviving = tuple(w for w in n.words
                      if any(w.coefficient.depends_on(p) for p in params))
    return AmbiguityReport(params, surviving)


class ODEDescriptor(Value):
    """First-order momentum-space ODE a(p) psi' + b(p) psi = E psi."""

    __slots__ = _fields = ("a", "b", "energy")

    def __init__(self, a: ScalarExpr, b: ScalarExpr, energy: ParamSymbol):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "energy", energy)

    def __str__(self):
        return (f"({self.a}) * dpsi/dp + ({self.b}) * psi"
                f" = {self.energy.name} * psi")


def momentum_rep_ode(h: OperatorExpr, energy=ParamSymbol("E")) -> ODEDescriptor:
    """Emit the momentum-representation eigenvalue equation of h.

    Substitutes x-hat -> i hbar d/dp into the momentum normal form; the
    supported fragment is first order (at most one power of x per word).
    """
    if not isinstance(energy, ParamSymbol):
        energy = ParamSymbol(energy)
    nf = normal_order(h, Convention.MOMENTUM)
    p_sym = ScalarExpr.param("p")
    a = ScalarExpr(0)
    b = ScalarExpr(0)
    for word in nf.words:
        x_total = 0
        momentum_part = ScalarExpr(1)
        for f in word.factors:
            if f.kind is BaseKind.X:
                n = f.exponent.as_int()
                # momentum normal ordering already forced integer x powers
                x_total += n
            else:
                n = f.exponent.as_int()
                if n is None:
                    raise OrderingError(
                        "ODE emission requires integer momentum powers")
                momentum_part = momentum_part * (p_sym ** n)
        if x_total > 1:
            raise OrderingError("ODE emission limited to first order")
        contrib = word.coefficient * momentum_part
        if x_total == 1:
            a = a + contrib * I * HBAR
        else:
            b = b + contrib
    return ODEDescriptor(a, b, energy)
