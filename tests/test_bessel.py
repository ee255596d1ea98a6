"""Bessel J: exact-rational series oracle, ODE and recurrence checks."""

import decimal
import math
import random
from fractions import Fraction

import mpmath
import pytest

from qorder.bessel import BesselDomainError, bessel_j, bessel_j_derivatives


def _j_integer_oracle(n: int, z: Fraction, terms: int = 40) -> Fraction:
    """Exact partial sum of the integer-order power series in Fraction
    arithmetic; independent of the production kernel."""
    x = z / 2
    fact = 1
    for k in range(1, n + 1):
        fact *= k
    term = x ** n / fact
    total = term
    for k in range(1, terms):
        term *= -x * x / (k * (k + n))
        total += term
    return total


def test_j0_at_two_against_exact_series():
    oracle = _j_integer_oracle(0, Fraction(2))
    got = bessel_j(0.0, 2.0)
    assert abs(got.value - float(oracle)) <= 1e-10
    assert abs(got.value - 0.2238907791) <= 1e-10


def test_integer_orders_match_exact_series():
    for n in (0, 1, 2, 5):
        for z in (Fraction(1, 2), Fraction(1), Fraction(5), Fraction(10)):
            oracle = float(_j_integer_oracle(n, z, terms=60))
            got = bessel_j(float(n), float(z))
            assert abs(got.value - oracle) <= max(1e-14, got.abs_error_bound)


def test_half_integer_closed_form():
    """J_{1/2}(z) = sqrt(2/(pi z)) sin z."""
    z = 0.1
    while z <= 20.0:
        expected = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        got = bessel_j(0.5, z)
        assert abs(got.value - expected) <= 1e-10
        z += 0.1


def test_error_bounds_are_honest():
    """The reported bound dominates the defect against the exact series."""
    for n in (0, 1, 3):
        for z in (Fraction(2), Fraction(15), Fraction(29)):
            oracle = float(_j_integer_oracle(n, z, terms=80))
            got = bessel_j(float(n), float(z))
            assert abs(got.value - oracle) <= got.abs_error_bound
            assert got.abs_error_bound <= 1e-10


def _series_zeros_near_switch():
    """Each zero z0 in [15, 30] of J_0 ... J_3, J_{1/2} and J_{9/4}, as
    (nu, z) for z0 rounded to a float, its two float neighbours and
    z0 (1 - 1e-9): there the series cancels to a value near 0, so the
    bound rests on its rounding terms, not on |value|."""
    points = []
    for nu in (0.0, 1.0, 2.0, 3.0, 0.5, 2.25):
        m = 1
        while True:
            with mpmath.workdps(30):
                z0 = float(mpmath.besseljzero(mpmath.mpf(nu), m))
            m += 1
            if z0 > 30.0:
                break
            if z0 < 15.0:
                continue
            for z in (z0, math.nextafter(z0, 0.0), math.nextafter(z0, 31.0),
                      z0 * (1.0 - 1e-9)):
                points.append((nu, z))
    return points


def test_bounds_hold_against_mpmath_over_every_order():
    """Seeded draws over the whole accepted order range 0 <= nu <= 170,
    z log-uniform in [1e-3, 30] (the series branch) and in (30, 1e4]
    (the asymptotic branch), and the points at and beside the zeros of
    _series_zeros_near_switch: no error exceeds its reported bound.  The
    series bound covers the rounding of nu + 1 before Gamma, which
    dominates for large non-integer orders."""
    rng = random.Random(1)
    points = []
    for lo, hi in ((0.0, 4.0), (4.0, 12.0), (12.0, 40.0), (40.0, 170.0)):
        for z_lo, z_hi, draws in ((1e-3, 30.0, 300), (30.0, 1e4, 60)):
            for _ in range(draws):
                nu = rng.uniform(lo, hi)
                z = math.exp(rng.uniform(math.log(z_lo), math.log(z_hi)))
                points.append((nu, z))
    zeros = _series_zeros_near_switch()
    assert len(zeros) == 112
    for nu, z in points + zeros:
        got = bessel_j(nu, z)
        with mpmath.workdps(60):
            want = mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(z))
        assert abs(got.value - want) <= got.abs_error_bound, \
            (nu, z, got, float(want))


def test_caller_decimal_context_is_left_alone():
    """The series runs in its own decimal context: under a caller's
    5-digit context that traps FloatOperation the values keep their bits,
    and the caller's flags stay as they were."""
    cases = [(nu, z) for nu in (0.0, 0.25, 2.0, 37.5)
             for z in (0.5, 7.0, 29.0, 45.0)]
    outside = [(bessel_j(nu, z), bessel_j_derivatives(nu, z))
               for nu, z in cases]
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.FloatOperation] = True
        ctx.clear_flags()
        flags = dict(ctx.flags)
        inside = [(bessel_j(nu, z), bessel_j_derivatives(nu, z))
                  for nu, z in cases]
        assert dict(ctx.flags) == flags
        assert not any(flags.values())
    for (j_out, d_out), (j_in, d_in) in zip(outside, inside):
        assert j_in.value.hex() == j_out.value.hex()
        assert j_in.abs_error_bound.hex() == j_out.abs_error_bound.hex()
        assert [v.hex() for v in d_in] == [v.hex() for v in d_out]


def test_large_argument_matches_series_extension():
    """Asymptotic branch agrees with a long exact series at the switch."""
    oracle = float(_j_integer_oracle(0, Fraction(31), terms=120))
    got = bessel_j(0.0, 31.0)
    assert abs(got.value - oracle) <= 1e-9


def test_zero_argument():
    assert bessel_j(0.0, 0.0).value == 1.0
    assert bessel_j(1.5, 0.0).value == 0.0


def test_ode_residual():
    """z^2 J'' + z J' + (z^2 - nu^2) J = 0 to 1e-9; J'' comes from the
    recurrence, not from the ODE, so this is a real consistency check."""
    for nu in (0.0, 0.25, 0.5, 1.0):
        z = 0.05
        while z <= 20.0:
            j, jp, jpp = bessel_j_derivatives(nu, z)
            residual = z * z * jpp + z * jp + (z * z - nu * nu) * j
            assert abs(residual) <= 1e-9 * max(1.0, z * z)
            z += 0.05


def test_recurrence_consistency():
    """J_{nu-1}(z) + J_{nu+1}(z) = (2 nu / z) J_nu(z) to 1e-9."""
    for nu in (0.0, 0.25, 0.5, 1.0):
        z = 0.05
        while z <= 20.0:
            jm = bessel_j(abs(nu - 1.0), z).value
            if nu - 1.0 < 0 and nu != 0.0:
                # negative non-integer order via the kernel's direct series
                from qorder.bessel import _j_any
                jm = _j_any(nu - 1.0, z)[0]
            elif nu == 0.0:
                jm = -bessel_j(1.0, z).value
            jp = bessel_j(nu + 1.0, z).value
            j = bessel_j(nu, z).value
            assert abs(jm + jp - 2.0 * nu / z * j) <= 1e-9
            z += 0.05


def test_derivative_against_finite_difference():
    h = 1e-6
    for nu in (0.0, 0.5, 1.0):
        for z in (1.0, 5.0, 12.0):
            _, jp, _ = bessel_j_derivatives(nu, z)
            fd = (bessel_j(nu, z + h).value - bessel_j(nu, z - h).value) / (2 * h)
            assert abs(jp - fd) <= 1e-8


def test_values_are_python_floats():
    """Both branches hand out Python floats, also for the derivatives."""
    for z in (2.0, 40.0):  # series branch, asymptotic branch (z > 30)
        got = bessel_j(0.0, z)
        assert type(got.value) is float
        assert type(got.abs_error_bound) is float
    # nu = 1 evaluates the negative-integer neighbour order nu - 2 = -1
    derivatives = bessel_j_derivatives(1.0, 3.0)
    assert [type(v) for v in derivatives] == [float, float, float]


def test_domain_errors():
    with pytest.raises(BesselDomainError, match="domain error"):
        bessel_j(-0.5, 1.0)
    with pytest.raises(BesselDomainError, match="domain error"):
        bessel_j(0.0, -1.0)
    with pytest.raises(BesselDomainError, match="domain error"):
        bessel_j(0.0, 2e4)
    with pytest.raises(BesselDomainError,
                       match=r"bessel_j needs 0 <= z <= 1e4, got z=20000\.0"):
        bessel_j(0.0, 2e4)
    with pytest.raises(BesselDomainError, match="domain error"):
        bessel_j_derivatives(0.5, 0.0)


def test_orders_whose_gamma_overflows_are_rejected():
    """Gamma(nu + 1) is a finite float up to nu = 170.6; bessel_j takes
    orders up to 170 and names any order above, and the derivatives,
    which also evaluate nu + 2, take orders up to 168."""
    assert bessel_j(150.0, 1.0).value > 0.0
    assert bessel_j(170.0, 30.0).value > 0.0
    for nu in (170.5, 171.0, 1e6, math.inf):
        with pytest.raises(BesselDomainError,
                           match=f"bessel_j needs 0 <= nu <= 170, got nu={nu!r}"):
            bessel_j(nu, 1.0)
    assert bessel_j_derivatives(168.0, 20.0)[0] > 0.0
    with pytest.raises(BesselDomainError,
                       match=r"needs 0 <= nu <= 168, got nu=168\.5"):
        bessel_j_derivatives(168.5, 1.0)


def test_derivatives_reject_nonfinite_arguments():
    """NaN fails every comparison, so the checks must not be written as
    comparisons that NaN slips past (it would run all series terms)."""
    for nu, z, shown in ((math.nan, 1.0, "nu=nan"), (0.0, math.nan, "z=nan"),
                         (0.0, math.inf, "z=inf")):
        with pytest.raises(BesselDomainError, match=f"domain error: .*{shown}"):
            bessel_j_derivatives(nu, z)
