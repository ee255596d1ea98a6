"""Rewrite engine: ordering identities, ambiguity detection, association
and the Leibniz ladder."""

import math
import random

import pytest
import sympy

from qorder.exponents import ExponentExpr
from qorder.identities import IDENTITIES
from qorder.operators import Factor, OperatorExpr, func_power, p_power, x_power
from qorder.ordering import (_KINDS, _STEP, Convention, OrderingError,
                             _leibniz, _merge, _moving_kind, _times_base,
                             hermitian_conjugate, hermitize, momentum_rep_ode,
                             normal_order)
from qorder.parser import parse_operator, print_operator
from qorder.scalars import ScalarExpr

from oracles import X, oracle_equal, scalar_diff

S = ExponentExpr.param("s")
ROWS = {row.id: row for row in IDENTITIES}


def coord(text):
    return normal_order(parse_operator(text), Convention.COORDINATE)


def mom(text):
    return normal_order(parse_operator(text), Convention.MOMENTUM)


# -- single-swap asymmetric orderings ---------------------------------------

def test_single_momentum_swap():
    assert coord("p * x") == coord("x * p - i * hbar")
    # the eq3[x] word before hermitization
    assert coord(ROWS["eq3[x]"].text) == coord(
        "x * p - i * hbar * (1 - alpha)")


def test_symbolic_carrier_powers():
    assert coord("p * x^(2*alpha)") == coord(
        "x^(2*alpha) * p - 2 * alpha * i * hbar * x^(2*alpha - 1)")
    assert coord("p * f(x)^alpha") == coord(
        "f(x)^alpha * p - alpha * i * hbar * f(x)^(alpha - 1) * f'(x)")


def test_alpha_independence_is_exact():
    """d/d(alpha) of every hermitized coefficient is identically zero."""
    nf = normal_order(hermitize(parse_operator(ROWS["eq3[f]"].text)),
                      Convention.COORDINATE)
    for word in nf.words:
        assert scalar_diff(word.coefficient, "alpha").is_zero


def test_momentum_swap_sign():
    assert mom("x * p") == mom("p * x + i * hbar")


# -- hermitian conjugation ----------------------------------------------------

def test_conjugation_involution():
    e = parse_operator("i * x^alpha * p * x^(1-alpha) + 2 * p^2")
    back = hermitian_conjugate(hermitian_conjugate(e))
    assert coord(print_operator(back)) == coord(print_operator(e))


def test_hermitize_fixed_point():
    h = hermitize(parse_operator(ROWS["eq3[x]"].text))
    again = hermitize(h)
    assert normal_order(again, Convention.COORDINATE) == normal_order(
        h, Convention.COORDINATE)


# -- two-sided family ---------------------------------------------------------

def test_two_sided_word_structure():
    """Exactly three words with coefficients 1, -i hbar, alpha gamma hbar^2."""
    nf = coord(ROWS["eq14"].text)
    assert nf == coord(ROWS["eq14"].expected)
    assert len(nf.words) == 3
    coeffs = [w.coefficient for w in nf.words]
    hb = ScalarExpr.hbar()
    assert coeffs[0] == ScalarExpr(1)
    assert coeffs[1] == -ScalarExpr.i() * hb
    assert coeffs[2] == (ScalarExpr.param("alpha") * ScalarExpr.param("gamma")
                         * hb * hb)


def test_eq19_is_the_weyl_ordering_of_x_p_squared():
    """The Weyl (Bender-Dunne) basis element T_{1,2}, the mean of the
    three orderings of x p^2 (Bender and Dunne, Phys. Rev. D 40, 2739
    (1989)), has eq19's normal form; the alpha = 1/2 ordering of eq18
    differs from it by (i hbar / 2) p."""
    weyl = coord("1/4 * (p^2 * x + 2 * p * x * p + x * p^2)")
    assert weyl == coord(ROWS["eq19"].expected)
    assert weyl == coord("x * p^2 - i * hbar * p")
    half = coord("x^(1/2) * p * x^(1/2) * p")
    assert half == coord("x * p^2 - 1/2 * i * hbar * p")
    assert half != weyl


# -- error paths --------------------------------------------------------------

def test_symbolic_moving_power_rejected():
    with pytest.raises(OrderingError,
                       match=r"^cannot normal-order p\^alpha: the moving"
                             r" operator needs a nonnegative integer power$"):
        normal_order(parse_operator("p^alpha * x"), Convention.COORDINATE)
    with pytest.raises(OrderingError,
                       match=r"^cannot normal-order x\^alpha: the moving"
                             r" operator needs a nonnegative integer power$"):
        normal_order(parse_operator("x^alpha * p"), Convention.MOMENTUM)


def test_momentum_convention_rejects_functions():
    with pytest.raises(OrderingError, match="abstract x-functions"):
        normal_order(parse_operator("f(x) * p"), Convention.MOMENTUM)


# -- carriers -----------------------------------------------------------------

@pytest.mark.parametrize("text, convention, expected", [
    ("x * x * p", Convention.COORDINATE, "x^2 * p"),
    ("x * x^-1 * p", Convention.COORDINATE, "p"),
    ("f(x)^a * f(x)^-a * p", Convention.COORDINATE, "p"),
    ("x * p^2 * p^-2", Convention.MOMENTUM, "x"),
    ("x^0 * p", Convention.COORDINATE, "p"),
    ("p * x^0", Convention.COORDINATE, "p"),
    ("f(x) * x * p", Convention.COORDINATE, "x * f(x) * p"),
])
def test_carrier_bases_merge_cancel_and_sort(text, convention, expected):
    """A base joins its like base, drops out at exponent 0, or goes in
    at its place in the base order."""
    assert str(normal_order(parse_operator(text), convention)) == expected


def test_times_base_matches_a_sorted_dict():
    keys = [(0, "", 0), (1, "f", 0), (1, "f", 1), (1, "g", 0), (2, "", 0)]
    exps = [ExponentExpr.number(n) for n in (-2, -1, 1, 2)] + [S, -S]
    rng = random.Random(3)
    for _ in range(2000):
        bases = {key: rng.choice(exps)
                 for key in rng.sample(keys, rng.randint(0, 4))}
        carrier = tuple(sorted(bases.items()))
        key, s = rng.choice(keys), rng.choice(exps + [ExponentExpr.number(0)])
        total = bases[key] + s if key in bases else s
        if total.is_zero:
            bases.pop(key, None)
        else:
            bases[key] = total
        assert _times_base(carrier, key, s) == tuple(sorted(bases.items()))


# -- random words and the ladder ---------------------------------------------

_FACTOR_POOL = [
    lambda rng: x_power(rng.choice([-2, -1, 1, 2, 3])),
    lambda rng: p_power(rng.choice([1, 1, 2, 3])),
    lambda rng: func_power("f", rng.choice([1, 1, 2]), rng.choice([0, 0, 1])),
]


# the momentum-convention dual: p takes x's exponents, and no f
_MOMENTUM_POOL = [
    lambda rng: p_power(rng.choice([-2, -1, 1, 2, 3])),
    lambda rng: x_power(rng.choice([1, 1, 2, 3])),
]


def _random_word(rng, pool=_FACTOR_POOL):
    n = rng.randint(1, 6)
    factors = [rng.choice(pool)(rng) for _ in range(n)]
    coeff = ScalarExpr.number(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return OperatorExpr.from_factors(*factors, coeff=coeff)


def test_association():
    """NF(A B) = NF(A NF(B)) = NF(NF(A) B) on seeded random pairs."""
    rng = random.Random(20240817)
    for convention, pool in ((Convention.COORDINATE, _FACTOR_POOL),
                             (Convention.MOMENTUM, _MOMENTUM_POOL)):
        for _ in range(100):
            a, b = _random_word(rng, pool), _random_word(rng, pool)
            whole = normal_order(a * b, convention)
            nf_a = normal_order(a, convention).as_operator_expr()
            nf_b = normal_order(b, convention).as_operator_expr()
            assert normal_order(a * nf_b, convention) == whole
            assert normal_order(nf_a * b, convention) == whole


def _ladder(n, moving_power, carrier_power, c):
    """{factors: coefficient} of M^n C^s = sum_k C(n,k) c^k (s)_k
    C^(s-k) M^(n-k), (s)_k the falling factorial, s symbolic."""
    s = ScalarExpr.param("s")
    words = {}
    falling = ScalarExpr(1)
    for k in range(n + 1):
        factors = (carrier_power(S - k),)
        if n > k:
            factors += (moving_power(n - k),)
        words[factors] = ScalarExpr(math.comb(n, k)) * c ** k * falling
        falling = falling * (s - ScalarExpr(k))
    return words


def test_ladder_closed_form():
    """p^n x^s and its momentum dual x^n p^s, n <= 12, coefficient by
    coefficient against the generalized Leibniz rule."""
    ihbar = ScalarExpr.i() * ScalarExpr.hbar()
    for n in range(13):
        for convention, word, want in (
                (Convention.COORDINATE, (p_power(n), x_power(S)),
                 _ladder(n, p_power, x_power, -ihbar)),
                (Convention.MOMENTUM, (x_power(n), p_power(S)),
                 _ladder(n, x_power, p_power, ihbar))):
            nf = normal_order(OperatorExpr.from_factors(*word), convention)
            got = {w.factors: w.coefficient for w in nf.words}
            assert got == want, (n, convention)


def test_parsed_ladder_word_keeps_its_normal_form():
    """p^12 * x^s as parsed text: the same normal form as the closed form,
    and whole coefficients held as ints."""
    nf = coord("p^12 * x^s")
    ihbar = ScalarExpr.i() * ScalarExpr.hbar()
    assert {w.factors: w.coefficient for w in nf.words} == _ladder(
        12, p_power, x_power, -ihbar)
    for word in nf.words:
        for re_im in word.coefficient._num.values():
            assert all(type(part) is int for part in re_im), word


def test_integer_exponent_words_stay_on_ints():
    """The normal form of a word with integer exponents holds every
    exponent and every coefficient part as an int, in both conventions."""
    for text, convention in (("3 * p^3 * x^-2 * f'(x)^2 * p * x^3",
                              Convention.COORDINATE),
                             ("-2 * x^3 * p^-2 * x^2 * p",
                              Convention.MOMENTUM)):
        nf = normal_order(parse_operator(text), convention)
        assert len(nf.words) > 3
        for word in nf.words:
            for f in word.factors:
                assert not f.exponent.linear
                assert type(f.exponent.const) is int, (text, word)
            for re_im in word.coefficient._num.values():
                assert all(type(part) is int for part in re_im), (text, word)


def test_hermitized_words_stay_on_ints():
    """hermitize halves each word; the halves that merge into a whole
    coefficient are stored as ints, not as whole Fractions."""
    nf = normal_order(hermitize(parse_operator("x^2 * p^2 * x")),
                      Convention.COORDINATE)
    assert str(nf) == "x^3 * p^2 - 3 * i * hbar * x^2 * p - hbar^2 * x"
    for word in nf.words:
        for re_im in word.coefficient._num.values():
            assert all(type(part) is int for part in re_im), word


def _unit_step_fold(word, convention):
    """The fold as it was before a moving power moved in one step: one
    Leibniz step M C M^m = C M^(m+1) + c (dC) M^m per unit of the moving
    operator M, like terms merged after every unit."""
    moving, c = _moving_kind(convention), _STEP[convention]
    state = {((), 0): word.coefficient}
    for f in reversed(word.factors):
        if f.kind is not moving:
            state = {(_times_base(carrier, f.base_key, f.exponent), m): coeff
                     for (carrier, m), coeff in state.items()}
            continue
        for _ in range(f.exponent.as_int()):
            stepped = {}
            for (carrier, m), coeff in state.items():
                _merge(stepped, (carrier, m + 1), coeff)
                for s, term in _leibniz(carrier):
                    _merge(stepped, (term, m), coeff * c * s)
            state = {k: v for k, v in stepped.items() if not v.is_zero}
    return state


def _unit_step_normal_form(e, convention):
    """{factors: coefficient} of the normal form of e by the unit-step
    fold."""
    moving_power = p_power if convention is Convention.COORDINATE else x_power
    merged = {}
    for word in e.words:
        for key, coeff in _unit_step_fold(word, convention).items():
            _merge(merged, key, coeff)
    out = {}
    for (carrier, m), coeff in merged.items():
        if not coeff.is_zero:
            factors = tuple(Factor(_KINDS[k[0]], s, k[1], k[2])
                            for k, s in carrier)
            out[factors + ((moving_power(m),) if m else ())] = coeff
    return out


def test_whole_power_step_matches_unit_steps():
    """Each moving power in one Leibniz step gives the normal form of one
    step per unit, on seeded random words in both conventions and on
    p^n x^s and p^n f(x)^2 for n <= 8."""
    rng = random.Random(20261020)
    cases = []
    for convention, pool in ((Convention.COORDINATE, _FACTOR_POOL),
                             (Convention.MOMENTUM, _MOMENTUM_POOL)):
        cases += [(_random_word(rng, pool), convention) for _ in range(150)]
    for n in range(9):
        for text in (f"p^{n} * x^s", f"p^{n} * f(x)^2",
                     f"x^a * p^{n} * x^b * p * f(x)^c"):
            cases.append((parse_operator(text), Convention.COORDINATE))
        cases.append((parse_operator(f"x^{n} * p^s * x^2"),
                      Convention.MOMENTUM))
    for e, convention in cases:
        nf = normal_order(e, convention)
        got = {w.factors: w.coefficient for w in nf.words}
        assert got == _unit_step_normal_form(e, convention), (
            print_operator(e), convention)


def test_unbounded_moving_powers():
    """A moving power of a billion normal-orders in one step to its two
    words, in each convention."""
    n = 10 ** 9
    nf = coord(f"p^{n} * x")
    assert len(nf.words) == 2
    assert str(nf) == f"x * p^{n} - {n} * i * hbar * p^{n - 1}"
    nf = mom(f"x^{n} * p")
    assert len(nf.words) == 2
    assert str(nf) == f"p * x^{n} + {n} * i * hbar * x^{n - 1}"


def test_linearity():
    rng = random.Random(7)
    for _ in range(20):
        a, b = _random_word(rng), _random_word(rng)
        lhs = normal_order(a + b, Convention.COORDINATE)
        rhs = normal_order(a, Convention.COORDINATE).as_operator_expr() \
            + normal_order(b, Convention.COORDINATE).as_operator_expr()
        assert lhs == normal_order(rhs, Convention.COORDINATE)


# -- momentum-representation ODE emission -------------------------------------

def test_momentum_ode_quadratic():
    ode = momentum_rep_ode(hermitize(parse_operator("p^2 * x")))
    assert ode.a == ScalarExpr.i() * ScalarExpr.hbar() * ScalarExpr.param("p") ** 2
    assert ode.b == ScalarExpr.i() * ScalarExpr.hbar() * ScalarExpr.param("p")


def test_momentum_ode_linear():
    ode = momentum_rep_ode(hermitize(parse_operator("p * x")))
    assert ode.a == ScalarExpr.i() * ScalarExpr.hbar() * ScalarExpr.param("p")
    assert ode.b == ScalarExpr.i() * ScalarExpr.hbar() / ScalarExpr(2)


def test_momentum_ode_rejects_higher_order():
    with pytest.raises(OrderingError, match="first order"):
        momentum_rep_ode(parse_operator("x^2 * p"))


def test_oracle_checks_swap_axiom():
    """The generalized commutation rule holds on monomials for integer s."""
    phi = sympy.Function("phi")(X)
    for s in (1, 2, 3):
        lhs = parse_operator(f"p * x^{s}")
        rhs = parse_operator(f"x^{s} * p - {s} * i * hbar * x^{s - 1}")
        assert oracle_equal(lhs, rhs, phi)


def test_output_factors_are_formatted_once(monkeypatch):
    """normal_order's sort formats each output factor and keeps the text
    in it, so printing the normal form formats nothing again; the kept
    text is no field: a printed factor still equals, and hashes like, a
    fresh one."""
    import qorder.parser as parser
    nf = normal_order(parse_operator("p^2 * f(x)^(1/2) * x^3 * p"),
                      Convention.COORDINATE)
    factors = [f for word in nf.words for f in word.factors]
    assert factors and all(getattr(f, "_text", None) for f in factors)
    formatted = []
    real = parser._exponent_text
    monkeypatch.setattr(parser, "_exponent_text",
                        lambda e: formatted.append(e) or real(e))
    text = print_operator(nf.as_operator_expr())
    monkeypatch.undo()
    assert formatted == [] and text == str(nf)
    fresh = Factor(factors[0].kind, factors[0].exponent, factors[0].name,
                   factors[0].deriv)
    assert fresh == factors[0] and hash(fresh) == hash(factors[0])
    assert repr(fresh) == repr(factors[0])
