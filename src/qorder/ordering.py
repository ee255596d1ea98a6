"""Normal ordering, Hermitian constructions, and ambiguity detection.

The rewrite engine moves every momentum factor to the right of all
position-dependent factors (coordinate convention) or every position
factor to the right of all momentum factors (momentum convention),
using the generalized commutation rules

    p . x^s      = x^s . p      - i hbar s x^(s-1)
    p . g^s      = g^s . p      - i hbar s g^(s-1) g'     (g abstract, g' commutes with g)
    x . p^s      = p^s . x      + i hbar s p^(s-1)

with s any affine exponent on the carrier side; the moving operator's
own exponent must be a nonnegative integer so it can be peeled one
factor at a time.  The rules hold on the dense domain of smooth test
functions, which is the justification for taking them as axioms for
symbolic s; the monomial test-function oracle in the test suite checks
them independently for integer exponents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exponents import ExponentExpr, ONE_EXP
from .operators import (BaseKind, Factor, OperatorExpr, OperatorWord,
                        p_power, x_power)
from .scalars import HBAR, I, ParamSymbol, ScalarExpr


class OrderingError(ValueError):
    """Raised when an expression cannot be normal-ordered as requested."""


class Convention(enum.Enum):
    COORDINATE = "coordinate"   # all p factors rightmost
    MOMENTUM = "momentum"       # all x factors rightmost


@dataclass(frozen=True)
class NormalForm:
    """Canonical ordered representation; the engine's equality witness."""

    convention: Convention
    words: tuple[OperatorWord, ...]

    def as_operator_expr(self) -> OperatorExpr:
        return OperatorExpr(self.words)

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        if self.convention is not other.convention:
            return False
        if len(self.words) != len(other.words):
            return False
        for a, b in zip(self.words, other.words):
            if a.factors != b.factors or a.coefficient != b.coefficient:
                return False
        return True

    __hash__ = None

    def __str__(self):
        from .parser import print_operator
        return print_operator(self.as_operator_expr())


@dataclass(frozen=True)
class AmbiguityReport:
    free_params: tuple[ParamSymbol, ...]
    surviving_terms: tuple[OperatorWord, ...]

    @property
    def ambiguous(self) -> bool:
        return bool(self.surviving_terms)


def _moving_kind(convention: Convention) -> BaseKind:
    return BaseKind.P if convention is Convention.COORDINATE else BaseKind.X


def _validate_word(word: OperatorWord, convention: Convention) -> None:
    moving = _moving_kind(convention)
    for f in word.factors:
        if f.kind is moving:
            n = f.exponent.as_int()
            if n is None or n < 0:
                raise OrderingError(
                    "cannot normal-order symbolic power of the moving operator")
        elif convention is Convention.MOMENTUM and f.kind is BaseKind.FUNC:
            raise OrderingError(
                "abstract x-functions unsupported in momentum convention")


def _is_redex(left: Factor, right: Factor, moving: BaseKind) -> bool:
    return left.kind is moving and right.kind is not moving


def _swap_terms(left: Factor, right: Factor, convention: Convention):
    """Commute one unit of the moving factor past the carrier factor.

    Returns [(extra_coeff, replacement_factors), ...] for M^t C^s with
    the leftmost pairing; t is peeled one at a time.
    """
    t = left.exponent.as_int()
    assert t is not None and t >= 1
    moving_rest = [] if t == 1 else [left.with_exponent(ExponentExpr.number(t - 1))]
    moving_one = left.with_exponent(ONE_EXP)
    s = right.exponent
    sign = -1 if convention is Convention.COORDINATE else 1
    comm_coeff = ScalarExpr(sign) * I * HBAR * s.to_scalar()

    swapped = moving_rest + [right, moving_one]

    lowered = []
    reduced = s - ExponentExpr.number(1)
    if not reduced.is_zero:
        lowered.append(right.with_exponent(reduced))
    if right.kind is BaseKind.FUNC:
        lowered.append(Factor(BaseKind.FUNC, ONE_EXP, right.name,
                              right.deriv + 1))
    commutator = moving_rest + lowered

    return [(None, swapped), (comm_coeff, commutator)]


def _canonical_word(coeff: ScalarExpr, factors: list[Factor],
                    moving: BaseKind):
    """Merge the commuting carrier block and the moving tail.

    Returns (signature, coefficient); signature is hashable.
    """
    carrier: dict = {}
    moving_power = 0
    for f in factors:
        if f.kind is moving:
            moving_power += f.exponent.as_int()
        else:
            key = f.base_key
            carrier[key] = carrier.get(key, ExponentExpr.number(0)) + f.exponent
    sig_factors = []
    for key in sorted(carrier):
        exp = carrier[key]
        if exp.is_zero:
            continue
        if key[0] == 0:
            kind, name, deriv = BaseKind.X, "", 0
        elif key[0] == 1:
            kind, name, deriv = BaseKind.FUNC, key[1], key[2]
        else:
            kind, name, deriv = BaseKind.P, "", 0
        sig_factors.append(Factor(kind, exp, name, deriv))
    if moving_power:
        mfactor = (p_power if moving is BaseKind.P else x_power)(moving_power)
        sig_factors.append(mfactor)
    return tuple(sig_factors), coeff


def _order_word(word: OperatorWord, convention: Convention, choose):
    """Fully order one word; yields (signature, coefficient) pairs."""
    moving = _moving_kind(convention)
    pending = [(word.coefficient, list(word.factors))]
    while pending:
        coeff, factors = pending.pop()
        redexes = [i for i in range(len(factors) - 1)
                   if _is_redex(factors[i], factors[i + 1], moving)]
        if not redexes:
            yield _canonical_word(coeff, factors, moving)
            continue
        i = choose(redexes)
        for extra, replacement in _swap_terms(factors[i], factors[i + 1],
                                              convention):
            new_coeff = coeff if extra is None else coeff * extra
            if new_coeff.is_zero:
                continue
            pending.append((new_coeff, factors[:i] + replacement
                            + factors[i + 2:]))


def _sorted_normal_words(merged: list[tuple[tuple, ScalarExpr]],
                         moving: BaseKind) -> tuple[OperatorWord, ...]:
    from .parser import _word_sort_key
    words = [OperatorWord(coeff, sig) for sig, coeff in merged
             if not coeff.is_zero]
    words.sort(key=_word_sort_key)
    return tuple(words)


def normal_order(e: OperatorExpr, convention: Convention,
                 _choose=None) -> NormalForm:
    """Rewrite to the convention's canonical form.

    The result is independent of the rewrite order (confluence); the
    ``_choose`` hook selects which redex to contract next and exists so
    the test suite can exercise different strategies.
    """
    choose = _choose if _choose is not None else (lambda redexes: redexes[0])
    moving = _moving_kind(convention)
    accumulated: list[tuple[tuple, ScalarExpr]] = []
    index: dict[tuple, int] = {}
    for word in e.words:
        _validate_word(word, convention)
        for sig, coeff in _order_word(word, convention, choose):
            if sig in index:
                pos = index[sig]
                accumulated[pos] = (sig, accumulated[pos][1] + coeff)
            else:
                index[sig] = len(accumulated)
                accumulated.append((sig, coeff))
    return NormalForm(convention, _sorted_normal_words(accumulated, moving))


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


def build_two_sided(alpha, beta, gamma) -> OperatorExpr:
    """Symmetrized two-momentum word (x^a p x^b p x^c + x^c p x^b p x^a)/2.

    The exponents must sum to one exactly.
    """
    a, b, c = (ExponentExpr._coerce(v) for v in (alpha, beta, gamma))
    if (a + b + c) != ExponentExpr.number(1):
        raise OrderingError("exponent constraint alpha+beta+gamma=1 violated")
    left = OperatorExpr.from_factors(
        x_power(a), p_power(1), x_power(b), p_power(1), x_power(c))
    right = OperatorExpr.from_factors(
        x_power(c), p_power(1), x_power(b), p_power(1), x_power(a))
    return (left + right).scaled(ScalarExpr(Fraction(1, 2)))


def detect_ambiguity(n: NormalForm, free) -> AmbiguityReport:
    """Flag words whose coefficients depend on the free ordering parameters."""
    params = tuple(p if isinstance(p, ParamSymbol) else ParamSymbol(p)
                   for p in free)
    surviving = tuple(w for w in n.words
                      if any(w.coefficient.depends_on(p) for p in params))
    return AmbiguityReport(params, surviving)


@dataclass(frozen=True)
class ODEDescriptor:
    """First-order momentum-space ODE a(p) psi' + b(p) psi = E psi."""

    a: ScalarExpr
    b: ScalarExpr
    energy: ParamSymbol

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
