"""Top-level acceptance suite.

Each test covers one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
success; failures always show them).
"""

import math
import random
from fractions import Fraction

import mpmath
import sympy

from qorder.bessel import bessel_j, bessel_j_derivatives
from qorder.coordinate import determine_bessel_order, order_residual
from qorder.identities import IDENTITIES, check, suite
from qorder.ordering import Convention, hermitize, normal_order
from qorder.parser import parse_operator
from qorder.quadrature import QuadratureSpec, sin_cos_integral
from qorder.verification import (MomentumEigenfunction,
                                 fourier_reconstruct_detailed,
                                 momentum_ode_residual)

from oracles import X, oracle_equal
from test_ordering import _random_word

SPEC = QuadratureSpec()


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def _oracle_cases(row):
    """(operator, expected) pairs of a symbolic row for the oracle, which
    applies p as -i hbar d/dx and so needs integer powers of p: where
    alpha sits in a power of p (momentum rows) it is fixed at 0 and 1/2."""
    fixed = (["alpha"] if row.convention is Convention.COORDINATE
             else ["(0)", "(1/2)"])
    for alpha in fixed:
        op = parse_operator(row.text.replace("alpha", alpha))
        yield ((hermitize(op) if row.hermitize else op),
               parse_operator(row.expected.replace("alpha", alpha)))


def _oracle_agrees(row):
    """Operator and expected text act alike on x^m, m = 0..4, and on an
    abstract phi where the carrier is an abstract f(x)."""
    phis = [X ** m for m in range(5)]
    if "f(x)" in row.text:
        phis.append(sympy.Function("phi")(X))
    return all(oracle_equal(op, expected, phi)
               for op, expected in _oracle_cases(row) for phi in phis)


def _check_rows(name, suites, detail=None):
    """Each row of the identity table in suites passes the CLI's check and,
    apart from the engine, the oracle."""
    rows = [row for row in IDENTITIES if suite(row) in suites]
    results = [check(row) for row in rows]
    failed = [row.id for row, (ok, _) in zip(rows, results)
              if not (ok and _oracle_agrees(row))]
    detail = detail or "; ".join(text for _, text in results)
    _report(name, bool(rows) and not failed,
            detail + (f"; failed {failed}" if failed else ""))


def test_criterion_01_hermitized_family_is_parameter_free():
    """Hermitizing f^a p f^(1-a) gives f p - (i hbar / 2) f' exactly."""
    _check_rows("criterion 1 (hermitized one-parameter family)", {"eq3"},
                "exact for x, x^2, sqrt(x), abstract f; alpha symbolic")


def test_criterion_02_momentum_dual():
    """Momentum-convention hermitization of p^2 x equals p^2 x + i hbar p."""
    _check_rows("criterion 2 (momentum-space dual)", {"eq4"})


def test_criterion_03_two_sided_ambiguity():
    """x^a p x^b p x^c symmetrized: x p^2 - i hbar p + a c hbar^2 / x, with
    exactly the a c term flagged; c = 0 removes the ambiguity."""
    _check_rows("criterion 3 (two-sided family ambiguity)", {"eq14"})


def test_criterion_04_quadratic_family_is_weyl():
    """Both asymmetric quadratic orderings reduce to the Weyl form."""
    _check_rows("criterion 4 (quadratic family = Weyl ordering)",
                {"eq18", "eq19"}, "symbolic proof, alpha free")


def test_criterion_05_momentum_ode_residual():
    """Closed-form momentum eigenfunction satisfies its ODE to 1e-12."""
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    grid = (0.1, 0.5, 1.0, 2.0, 10.0, -0.1, -0.5, -1.0, -2.0, -10.0)
    report = momentum_ode_residual(psi, grid)
    _report("criterion 5 (momentum ODE residual)",
            report.max_residual <= 1e-12,
            f"max residual {report.max_residual:.3e} <= 1e-12")


def test_criterion_06_integral_identity():
    """Both oscillatory orderings match (pi/2) J_0(2 (a^2 b^2)^(1/4))."""
    rows = [row for row in IDENTITIES if suite(row) == "eq11"]
    ok = len(rows) == 9
    worst = 0.0
    for row in rows:
        ok = ok and check(row)[0]
        # apart from the engine's Bessel function: mpmath's J_0
        target = float(mpmath.pi / 2 * mpmath.besselj(
            0, 2 * mpmath.sqrt(mpmath.mpf(row.a) * row.b)))
        for sin_fast in (True, False):
            value, _ = sin_cos_integral(row.a, row.b, SPEC, sin_fast=sin_fast)
            worst = max(worst, abs(value - target))
    ok = ok and worst <= 1e-6
    _report("criterion 6 (oscillatory integral identity)", ok,
            f"worst residual {worst:.3e} <= 1e-6 over the 3x3 grid")


def test_criterion_07_reconstruction_proportionality():
    """Reconstructed psi(x) is proportional to J_0(2 sqrt(E x)/hbar) and its
    first zero sits at (hbar z0 / (2 sqrt(E)))^2, with z0 the first zero
    of J_0 from mpmath: Im psi changes sign across that point (1 -+ 1e-4)."""
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    ratios = []
    for x in (0.0, 0.25, 1.0, 2.25, 4.0):
        value = fourier_reconstruct_detailed(psi, x, SPEC).value
        ratios.append(value / bessel_j(0.0, 2.0 * math.sqrt(x)).value)
    base = ratios[0]
    spread = max(abs(r - base) / abs(base) for r in ratios)
    z0 = float(mpmath.besseljzero(0, 1))
    expected_zero = (z0 / 2.0) ** 2
    below, above = (
        fourier_reconstruct_detailed(psi, expected_zero * s, SPEC).value.imag
        for s in (1.0 - 1e-4, 1.0 + 1e-4))
    ok = spread <= 1e-4 and below * above < 0.0
    _report("criterion 7 (Fourier reconstruction)", ok,
            f"ratio spread {spread:.3e} <= 1e-4, Im psi"
            f" {below:.3e} -> {above:.3e} across the zero (1 -+ 1e-4)")


def test_criterion_08_order_determination():
    """Fitted Bessel order is 2 sqrt(alpha gamma); the coupling itself is
    not a solution away from zero."""
    ok = True
    detail = []
    for ag in (0.0, 1.0 / 16.0, 0.25):
        nu = determine_bessel_order(ag)
        err = abs(nu - 2.0 * math.sqrt(ag))
        detail.append(f"ag={ag:g}: |nu - 2 sqrt(ag)| = {err:.2e}")
        ok = ok and err <= 1e-6
    bad = order_residual(1.0 / 16.0, 1.0 / 16.0, 1.0, 1.0)
    ok = ok and bad > 1e-2
    detail.append(f"coupling-as-order residual {bad:.2e} > 1e-2")
    _report("criterion 8 (Bessel order determination)", ok,
            "; ".join(detail))


def test_criterion_09_special_functions():
    """Self-implemented J_nu: value vs exact series, ODE and recurrence."""
    # exact-rational series oracle for J_0(2)
    x = Fraction(1)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, 40):
        term *= -x * x / (k * k)
        total += term
    got = bessel_j(0.0, 2.0)
    ok = abs(got.value - float(total)) <= 1e-10
    ok = ok and abs(got.value - 0.2238907791) <= 1e-10
    worst_ode = 0.0
    worst_rec = 0.0
    for nu in (0.0, 0.25, 0.5, 1.0):
        z = 0.1
        while z <= 20.0:
            j, jp, jpp = bessel_j_derivatives(nu, z)
            worst_ode = max(worst_ode, abs(
                z * z * jpp + z * jp + (z * z - nu * nu) * j)
                / max(1.0, z * z))
            jm = (-bessel_j(1.0, z).value if nu == 0.0
                  else bessel_j_derivatives(nu, z)[0] * 2.0 * nu / z
                  - bessel_j(nu + 1.0, z).value)
            # recurrence restated as J_{nu-1} = (2 nu / z) J_nu - J_{nu+1}
            from qorder.bessel import _j_any
            worst_rec = max(worst_rec, abs(_j_any(nu - 1.0, z)[0] - jm))
            z += 0.1
    ok = ok and worst_ode <= 1e-9 and worst_rec <= 1e-9
    _report("criterion 9 (special functions)", ok,
            f"J0(2) exact to 1e-10, ODE residual {worst_ode:.2e},"
            f" recurrence defect {worst_rec:.2e} <= 1e-9")


def test_criterion_10_engine_soundness():
    """200 random words: agreement with the differential-operator oracle."""
    rng = random.Random(20240817)
    phi = sympy.Function("phi")(X)
    ok = True
    for _ in range(200):
        e = _random_word(rng)
        nf = normal_order(e, Convention.COORDINATE)
        ok = oracle_equal(e, nf.as_operator_expr(), phi)
        if not ok:
            break
    _report("criterion 10 (engine soundness)", ok,
            "200 random words, oracle exact")
