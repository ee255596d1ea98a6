"""Numeric verification layer: ODE residuals, reconstruction, order fits."""

import itertools
import json
import math
import random
import re
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder import coordinate, verification
from qorder._kernels import osc_tail
from qorder.bessel import bessel_j
from qorder.coordinate import (ORDER_SCAN_GRID, CoordinateEigenfunction,
                               coordinate_ode_residual,
                               determine_bessel_order, order_residual)
from qorder.quadrature import QuadratureError, QuadratureSpec, \
    sin_cos_integral, sin_phase_integral
from qorder.verification import (MomentumEigenfunction, Reconstruction,
                                 ResidualReport,
                                 fourier_reconstruct_detailed,
                                 momentum_ode_residual,
                                 verify_integral_identity)

SPEC = QuadratureSpec()
GRID = (0.1, 0.5, 1.0, 2.0, 10.0, -0.1, -0.5, -1.0, -2.0, -10.0)
# phase couplings q = |a| b, log-spaced over [1e-6, 1e4], 6 a decade
LOG_Q = tuple(10.0 ** (-6.0 + i / 6.0) for i in range(61))


def j0_oracle(z):
    """J_0(z) from mpmath, which shares no code with qorder.bessel."""
    return float(mpmath.besselj(0, mpmath.mpf(z)))


# -- momentum representation ---------------------------------------------------

def test_momentum_ode_residual_closed_form():
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    report = momentum_ode_residual(psi, GRID)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_momentum_ode_residual_other_parameters():
    for E in (0.5, 2.0):
        for hbar in (0.5, 1.0, 3.0):
            psi = MomentumEigenfunction(E=E, hbar=hbar)
            assert momentum_ode_residual(psi, GRID).max_residual <= 1e-12


def test_momentum_ode_scaling_invariance():
    """The eigenfunction family is closed under overall rescaling."""
    psi = MomentumEigenfunction(E=1.0, hbar=1.0, N=3.5j)
    assert momentum_ode_residual(psi, GRID).max_residual <= 1e-12


def test_momentum_eigenfunction_rejects_nonfinite_parameters():
    with pytest.raises(ValueError, match=r"domain error: .*hbar=nan"):
        MomentumEigenfunction(1.0, math.nan)
    with pytest.raises(ValueError, match=r"domain error: .*E=inf"):
        MomentumEigenfunction(math.inf, 1.0)


def test_momentum_singular_grid_rejected():
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    with pytest.raises(ValueError, match="singular point p = 0"):
        momentum_ode_residual(psi, (0.0, 1.0))
    with pytest.raises(ValueError, match="singular point p = 0"):
        psi.value(0.0)


# -- oscillatory integral identity --------------------------------------------

def test_integral_identity_grid():
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            report = verify_integral_identity(a, b, SPEC)
            assert report.passed, (a, b, report.residuals)
            assert report.max_residual <= 1e-6


def test_integral_identity_fails_a_value_shifted_by_ten_bounds(monkeypatch):
    """A row passes by the two sides' own bounds, the quadrature error plus
    pi/2 times the Bessel bound, not by a fixed 1e-6: one ordering moved
    by ten of those bounds, far below 1e-6, fails the row, and the same
    value unmoved passes."""
    real = verification.sin_cos_integral
    for a, b in ((0.5, 0.5), (1.0, 2.0), (2.0, 2.0)):
        _, err = sin_cos_integral(a, b, SPEC)
        z = 2.0 * math.sqrt(a * b)
        bound = err + 0.5 * math.pi * bessel_j(0.0, z).abs_error_bound
        assert 10.0 * bound < 1e-6, (a, b, bound)
        assert verify_integral_identity(a, b, SPEC).passed, (a, b)

        def shifted(a, b, spec, sin_fast=True):
            value, err = real(a, b, spec, sin_fast)
            return (value + 10.0 * bound if sin_fast else value), err
        monkeypatch.setattr(verification, "sin_cos_integral", shifted)
        report = verify_integral_identity(a, b, SPEC)
        monkeypatch.undo()
        assert not report.passed, (a, b, report)
        assert report.residuals[0] > 9.0 * bound > report.residuals[1]


def test_integral_identity_symmetry():
    """Both orderings give the same value (u -> b/(a u) exchanges them)."""
    v1, _ = sin_cos_integral(1.3, 0.7, SPEC, sin_fast=True)
    v2, _ = sin_cos_integral(0.7, 1.3, SPEC, sin_fast=False)
    assert abs(v1 - v2) <= 1e-9


def test_sin_phase_closed_form():
    """integral of sin(a u + b/u)/u du over (0, inf) = pi J_0(2 sqrt(ab))."""
    for a, b in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.25)):
        value, err = sin_phase_integral(a, b, SPEC)
        target = math.pi * bessel_j(0.0, 2.0 * math.sqrt(a * b)).value
        assert abs(value - target) <= max(1e-9, err)


def _split(rng, q):
    """(a, b) with a b = q and a spread over four decades."""
    a = math.sqrt(q) * 10.0 ** rng.uniform(-2.0, 2.0)
    return a, q / a


def _assert_phi_bounded(a, b):
    value, err = sin_phase_integral(a, b, SPEC)
    # a > 0: pi J_0(2 sqrt(ab)); a < 0: exactly 0 (see
    # test_phase_integral_vanishes_for_negative_a)
    want = math.pi * j0_oracle(2.0 * math.sqrt(a * b)) if a > 0 else 0.0
    assert abs(value - want) <= err < 1e-10, (a, b, value, want, err)


def test_sin_phase_within_its_bound_for_both_signs():
    rng = random.Random(3)
    for q in LOG_Q:
        a, b = _split(rng, q)
        _assert_phi_bounded(a, b)
        _assert_phi_bounded(-a, b)


@settings(max_examples=40, deadline=None)
@given(st.floats(-6.0, 4.0), st.floats(-2.0, 2.0), st.booleans())
def test_sin_phase_within_its_bound_drawn(log_q, tilt, positive):
    a = 10.0 ** (0.5 * log_q + tilt)
    _assert_phi_bounded(a if positive else -a, 10.0 ** log_q / a)


def test_sin_cos_within_its_bound_for_both_orderings():
    rng = random.Random(4)
    for q in LOG_Q:
        a, b = _split(rng, q)
        want = 0.5 * math.pi * j0_oracle(2.0 * math.sqrt(q))
        for sin_fast in (True, False):
            value, err = sin_cos_integral(a, b, SPEC, sin_fast=sin_fast)
            assert abs(value - want) <= err < 1e-10, (a, b, sin_fast)


def _phi_by_quadosc(a, b):
    """Phi(a, b) from mpmath alone, split at the asymmetric point
    c = 0.37 sqrt(b/|a|): quadosc on [c, inf), and the piece below c
    mapped by w = 1/u to [1/c, inf).  A split at sqrt(b/|a|) would make
    the two pieces cancel by the substitution under test."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    c = mpmath.mpf("0.37") * mpmath.sqrt(b / abs(a))
    outer = mpmath.quadosc(lambda u: mpmath.sin(a * u + b / u) / u,
                           [c, mpmath.inf], omega=abs(a))
    inner = mpmath.quadosc(lambda w: mpmath.sin(a / w + b * w) / w,
                           [1 / c, mpmath.inf], omega=b)
    return outer + inner


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-0.3, 2.5), (-4.0, 0.7),
                                  (0.3, 2.5)])
def test_phase_integral_vanishes_for_negative_a(a, b):
    """u -> b/(|a| u) maps Phi(a, b) to -Phi(a, b) for a < 0 < b, so
    sin_phase_integral returns 0 there without integrating; mpmath
    confirms the zero, and pi J_0(2 sqrt(ab)) at a > 0 as a control."""
    with mpmath.workdps(15):
        got = _phi_by_quadosc(a, b)
        want = (mpmath.pi * mpmath.besselj(0, 2 * mpmath.sqrt(a * b))
                if a > 0 else 0)
        assert abs(got - want) <= 1e-15, (a, b, got)
    if a < 0:
        assert sin_phase_integral(a, b, SPEC) == (0.0, 1e-15)


def test_phase_integral_is_exactly_zero_when_ab_is_negative():
    """Every a b < 0, and a < 0 at b = 0, gives 0.0 with the 1e-15
    rounding floor; the zero carries the sign of b, as -Phi(-a, -b) does
    for b < 0.  The two sin_cos_integral orderings then add and subtract
    that zero, so they agree bit for bit."""
    rng = random.Random(41)
    for _ in range(2000):
        a = 10.0 ** rng.uniform(-300.0, 150.0)
        b = 10.0 ** rng.uniform(-300.0, 150.0)
        for args in ((-a, b), (a, -b), (-a, 0.0)):
            value, err = sin_phase_integral(*args, SPEC)
            assert (value, err) == (0.0, 1e-15), args
            assert math.copysign(1.0, value) == math.copysign(1.0, args[1])
        assert sin_cos_integral(a, b, SPEC, sin_fast=True) \
            == sin_cos_integral(a, b, SPEC, sin_fast=False), (a, b)


def test_sin_phase_degenerate_limits():
    """At a = 0 or b = 0 the sectors are combined before the limit, so the
    value is the continuous limit pi (not the literal pi/2)."""
    for args in ((0.0, 1.0), (1.0, 0.0)):
        value, _ = sin_phase_integral(*args, SPEC)
        assert abs(value - math.pi) <= 1e-5
    assert sin_phase_integral(0.0, 0.0, SPEC) == (0.0, 0.0)
    with pytest.raises(ValueError, match=r"got a=1\.0, b=-inf"):
        sin_phase_integral(1.0, -math.inf, SPEC)
    # a < 0 is inside the domain, where Phi = 0; so is b < 0, where
    # Phi(1, -1) = -Phi(-1, 1)
    for args in ((-1.0, 1.0), (1.0, -1.0)):
        value, err = sin_phase_integral(*args, SPEC)
        assert abs(value) <= err < 1e-10, args


def test_sin_phase_rejects_nonfinite_arguments():
    with pytest.raises(ValueError, match=r"domain error: .*a=nan, b=1\.0"):
        sin_phase_integral(math.nan, 1.0, SPEC)
    with pytest.raises(ValueError, match=r"domain error: .*a=1\.0, b=inf"):
        sin_phase_integral(1.0, math.inf, SPEC)


def test_sin_cos_rejects_nonfinite_arguments():
    for sin_fast in (True, False):
        with pytest.raises(ValueError,
                           match=r"domain error: .*a=inf, b=1\.0"):
            sin_cos_integral(math.inf, 1.0, SPEC, sin_fast=sin_fast)
        with pytest.raises(ValueError,
                           match=r"domain error: .*a=1\.0, b=nan"):
            sin_cos_integral(1.0, math.nan, SPEC, sin_fast=sin_fast)


def test_quadrature_failure_reports_partial_value():
    """The failure names z and the lobes summed, and carries the partial
    value and the lobe count."""
    tight = QuadratureSpec(max_subdivisions=10)
    with pytest.raises(QuadratureError, match="failed to converge") as exc:
        sin_phase_integral(1.0, 1.0, tight)
    assert exc.value.value is not None
    assert exc.value.lobes == 10
    assert "z=2.0, 10 lobes" in str(exc.value)


def test_quadrature_rejects_overflowing_coupling():
    """|a| b = inf has no lobes to sum for a > 0, and the failure names
    the values; for a < 0 Phi is the exact zero, overflow or not, so a
    reconstruction at such an x < 0 is 0 too."""
    with pytest.raises(QuadratureError, match=r"a=1e\+300, b=1e\+300"):
        sin_phase_integral(1e300, 1e300, SPEC)
    assert sin_phase_integral(-1e300, 1e300, SPEC) == (0.0, 1e-15)
    assert fourier_reconstruct_detailed(
        MomentumEigenfunction(1e10, 1.0), -1e300, SPEC) \
        == Reconstruction(0j, 2e-15)


def test_quadrature_spec_budget_is_one_block():
    """The default budget is the kernel's cap of 24 lobes; a larger one
    sums no more lobes, so it gives the same results bit for bit."""
    assert QuadratureSpec().max_subdivisions == 24
    large = QuadratureSpec(max_subdivisions=2000)
    for a, b in ((1.0, 1.0), (-3.0, 0.5), (2.0, 1e3)):
        assert sin_phase_integral(a, b, large) \
            == sin_phase_integral(a, b, SPEC), (a, b)
    with pytest.raises(ValueError,
                       match="max_subdivisions, the lobe budget of a "
                             "quadrature, must be at least 10, got 9"):
        QuadratureSpec(max_subdivisions=9)


# -- Fourier reconstruction ----------------------------------------------------

def test_reconstruction_proportional_to_j0():
    """psi(x) / J_0(2 sqrt(E x) / hbar) is constant across the grid."""
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    ratios = []
    for x in (0.0, 0.25, 1.0, 2.25, 4.0):
        value = fourier_reconstruct_detailed(psi, x, SPEC).value
        target = bessel_j(0.0, 2.0 * math.sqrt(x)).value
        ratios.append(value / target)
    base = ratios[0]
    for r in ratios[1:]:
        assert abs(r - base) / abs(base) <= 1e-4
    # the measured constant is 2 pi i N
    assert abs(base - 2j * math.pi) / (2 * math.pi) <= 1e-4


def test_reconstruction_within_its_bound_for_both_signs():
    """psi(x) = 2 pi i N J_0(2 sqrt(E x) / hbar) for x >= 0, x = 0
    included, and 0 for x < 0, each within the reported error."""
    rng = random.Random(5)
    for q in (0.0,) + LOG_Q:
        E = 10.0 ** rng.uniform(-0.5, 0.5)
        hbar = 10.0 ** rng.uniform(-0.5, 0.5)
        psi = MomentumEigenfunction(E, hbar, N=1.5 - 0.5j)
        x = q * hbar ** 2 / E
        for sign in (1.0, -1.0) if x else (1.0,):
            rec = fourier_reconstruct_detailed(psi, sign * x, SPEC)
            want = (2j * math.pi * psi.N * j0_oracle(2.0 * math.sqrt(q))
                    if sign > 0 else 0.0)
            assert abs(rec.value - want) <= rec.abs_error < 1e-9, \
                (sign * x, rec, want)


def test_reconstruction_zero_location():
    """psi vanishes within its reported error at x0 = (hbar j)^2 / (4 E)
    for the first three zeros j of J_0, taken from mpmath, and Im psi
    changes sign across x0 (1 -+ 1e-6)."""
    for E, hbar in ((1.0, 1.0), (2.0, 0.5)):
        psi = MomentumEigenfunction(E, hbar)
        for m in (1, 2, 3):
            x0 = (hbar * float(mpmath.besseljzero(0, m))) ** 2 / (4.0 * E)
            rec = fourier_reconstruct_detailed(psi, x0, SPEC)
            assert abs(rec.value) <= rec.abs_error, (E, hbar, m, rec)
            below, above = (
                fourier_reconstruct_detailed(psi, x0 * s, SPEC).value.imag
                for s in (1.0 - 1e-6, 1.0 + 1e-6))
            assert below * above < 0.0, (E, hbar, m, below, above)


def test_eigenfunctions_reject_nonfinite_normalizations():
    for N in (math.nan, complex(1.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError,
                           match="domain error: .*N=" + re.escape(repr(N))):
            MomentumEigenfunction(1.0, 1.0, N=N)


def test_reconstruction_scales_with_normalization():
    psi1 = MomentumEigenfunction(E=1.0, hbar=1.0)
    psi2 = MomentumEigenfunction(E=1.0, hbar=1.0, N=2.0)
    v1 = fourier_reconstruct_detailed(psi1, 1.0, SPEC).value
    v2 = fourier_reconstruct_detailed(psi2, 1.0, SPEC).value
    assert abs(v2 - 2.0 * v1) <= 1e-9
    psi0 = MomentumEigenfunction(E=1.0, hbar=1.0, N=0.0)
    assert fourier_reconstruct_detailed(psi0, 1.0, SPEC).value == 0j


def test_reconstruction_rejects_nonfinite_x():
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    for x in (math.nan, -math.inf):
        with pytest.raises(ValueError,
                           match=rf"domain error: .*x={x!r}"):
            fourier_reconstruct_detailed(psi, x, SPEC)


def test_reconstruction_negative_axis_vanishes():
    """For x < 0 the two sectors cancel, so psi(x) is 0 within its
    bound."""
    psi = MomentumEigenfunction(E=1.0, hbar=1.0)
    for x in (-0.5, -1.0, -2.0):
        rec = fourier_reconstruct_detailed(psi, x, SPEC)
        assert abs(rec.value) <= rec.abs_error < 1e-10


def test_reconstruction_at_negative_energy():
    """psi_E(x) = 2 i N Phi(x, E) and Phi(a, b) = -Phi(-a, -b), so the
    E = -1 eigenfunction at x is minus the E = +1 one at -x; for x < 0
    that is -2 pi i J_0(2 sqrt(-x))."""
    minus = MomentumEigenfunction(E=-1.0, hbar=1.0)
    plus = MomentumEigenfunction(E=1.0, hbar=1.0)
    for x in (0.5, -0.5, 2.0, -2.0):
        rec = fourier_reconstruct_detailed(minus, x, SPEC)
        mirror = fourier_reconstruct_detailed(plus, -x, SPEC)
        assert abs(rec.value + mirror.value) <= \
            rec.abs_error + mirror.abs_error, (x, rec, mirror)
        if x < 0:
            want = -2j * math.pi * j0_oracle(2.0 * math.sqrt(-x))
            assert abs(rec.value - want) <= rec.abs_error < 1e-9, (x, rec)


# -- coordinate representation -------------------------------------------------

def test_coordinate_ode_residual_known_orders():
    for (ag, nu), (E, hbar) in itertools.product(
            ((0.0, 0.0), (1.0 / 16.0, 0.5), (0.25, 1.0)),
            ((1.0, 1.0), (2.0, 0.5))):
        psi = CoordinateEigenfunction(E, hbar, nu)
        report = coordinate_ode_residual(psi, ag, ORDER_SCAN_GRID)
        assert report.max_residual <= 1e-8, (ag, nu, E, report.max_residual)
        assert report.tolerance == 1e-8 and report.passed


def test_coordinate_ode_printed_index_fails():
    """Using the coupling alpha*gamma itself as the order does not solve
    the equation away from the degenerate point."""
    ag = 1.0 / 16.0
    psi = CoordinateEigenfunction(1.0, 1.0, ag)
    report = coordinate_ode_residual(psi, ag, ORDER_SCAN_GRID)
    assert report.max_residual > 1e-2


def test_coordinate_eigenfunction_rejects_bad_parameters():
    for args, shown in (((math.nan, 1.0), r"E=nan, hbar=1\.0"),
                        ((-1.0, 1.0), r"E=-1\.0, hbar=1\.0"),
                        ((1.0, math.inf), r"E=1\.0, hbar=inf"),
                        ((1.0, 1.0, math.nan), "nu=nan")):
        with pytest.raises(ValueError, match="domain error: .*" + shown):
            CoordinateEigenfunction(*args)


def test_coordinate_singular_grid_rejected():
    psi = CoordinateEigenfunction(1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="domain error"):
        coordinate_ode_residual(psi, 0.0625, (0.0, 1.0))
    with pytest.raises(ValueError, match=r"got x=-2\.0"):
        coordinate_ode_residual(psi, 0.0625, (1.0, -2.0))


def test_coordinate_ode_rejects_bad_parameters():
    """E and hbar come from psi, which checks them itself (see
    test_coordinate_eigenfunction_rejects_bad_parameters)."""
    psi = CoordinateEigenfunction(1.0, 1.0, 0.5)
    for ag in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match=f"domain error: .*alpha_gamma={ag!r}"):
            coordinate_ode_residual(psi, ag, (1.0, 2.0))


_FIT_COUPLINGS = (0.0, 1e-12, 1e-8, 1e-4, 0.01, 0.05, 0.1, 1.0 / 16.0, 0.25,
                  0.5, 0.9, 1.0)


def test_determine_bessel_order():
    """The fit finds 2 sqrt(alpha gamma) over the whole coupling range,
    including small couplings, where the residual is not unimodal."""
    assert order_residual(0.012, 0.01, 1.0, 1.0) > \
        order_residual(0.0, 0.01, 1.0, 1.0)
    for ag in _FIT_COUPLINGS:
        nu = determine_bessel_order(ag)
        assert abs(nu - 2.0 * math.sqrt(ag)) <= 1e-6, ag
    with pytest.raises(ValueError, match="domain error"):
        determine_bessel_order(1.5)


def _counting_fit(monkeypatch):
    """A fit at hbar = 1 that returns (order, coupling evaluations)."""
    calls = []
    coupling = coordinate.order_coupling

    def counting(*args):
        calls.append(args)
        return coupling(*args)

    def fit(ag, E):
        before = len(calls)
        return determine_bessel_order(ag, E=E, hbar=1.0), len(calls) - before

    monkeypatch.setattr(coordinate, "order_coupling", counting)
    return fit


def test_order_fit_residual_budget(monkeypatch):
    """One fit makes at most 60 evaluations of the least-squares
    coupling, and no ODE residual: Brent's method on [0, 2] to a bracket
    of 1e-10 takes at most 29 over the couplings above, where bisection
    would take 35 and a fine scan of the interval hundreds."""
    residuals = []
    monkeypatch.setattr(coordinate, "coordinate_ode_residual",
                        lambda *args: residuals.append(args))
    fit = _counting_fit(monkeypatch)
    counts = []
    for ag in _FIT_COUPLINGS:
        nu, evaluations = fit(ag, 1.0)
        assert abs(nu - 2.0 * math.sqrt(ag)) <= 1e-6, ag
        counts.append(evaluations)
    assert 0 < max(counts) <= 60 and not residuals


# E / hbar^2 over the range the README states, up to 1e6: below
# ~1.5e-155 the coupling underflows, and near the top of the Bessel
# range, 2 sqrt(2.95 E) / hbar = 1e4, the fit drifts to ~1e-5
_FIT_SCALES = (1e-150, 1e-20, 1e-5, 0.125, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
               64.0, 256.0, 4096.0, 65536.0, 1e6)


@pytest.mark.parametrize("j", range(len(_FIT_SCALES)))
def test_order_fit_across_energy_scales(j, monkeypatch):
    """The fit finds 2 sqrt(alpha gamma) for E / hbar^2 from 1e-150 to
    1e6, within 60 coupling evaluations; from 8 up the residual has
    several local minima on [0, 2], where minimizing it went wrong.  The
    couplings k / 45, k = 0..45, are dealt out over the scales, every
    fifteenth to each, so that the sweep costs 46 fits."""
    scale = _FIT_SCALES[j]
    fit = _counting_fit(monkeypatch)
    for k in range(j, 46, len(_FIT_SCALES)):
        ag = k / 45
        nu, evaluations = fit(ag, scale)
        assert abs(nu - 2.0 * math.sqrt(ag)) <= 1e-6, (scale, ag, nu)
        assert evaluations <= 60, (scale, ag, evaluations)


def test_order_fit_at_the_ends_of_the_scale_range():
    """Every coupling k / 45 fits at the smallest and largest E / hbar^2
    of the sweep: near underflow of J_2, and where the rounding of the
    coupling is largest."""
    for scale in (_FIT_SCALES[0], _FIT_SCALES[-1]):
        for k in range(46):
            nu = determine_bessel_order(k / 45, E=scale)
            assert abs(nu - 2.0 * math.sqrt(k / 45)) <= 1e-6, (scale, k)


def test_order_fit_where_a_residual_scan_missed():
    """The scan-then-golden fit of the residual landed on a wrong local
    minimum, 1.154755, at E = 64, hbar = 1, alpha gamma = 4/9."""
    assert abs(determine_bessel_order(4.0 / 9.0, E=64.0) - 4.0 / 3.0) <= 1e-6


def test_order_fit_names_a_coupling_it_cannot_form():
    """At E = 1e-300 every J_2 on the grid underflows, so the coupling at
    nu = 2 has no denominator: a domain error that names E and hbar,
    not a ZeroDivisionError or a silent fit."""
    with pytest.raises(ValueError,
                       match=r"domain error: .*nu=2\.0 for E=1e-300, "
                             r"hbar=1\.0: the sum of J_nu\^2 .* is 0\.0"):
        determine_bessel_order(0.25, E=1e-300)
    with pytest.raises(ValueError, match=r"E=1e-155, hbar=1\.0"):
        coordinate.order_coupling(2.0, 1e-155, 1.0)
    assert abs(coordinate.order_coupling(1.0, 1e-150, 1.0) - 0.25) <= 1e-9


def test_coordinate_ode_names_an_hbar_whose_square_overflows():
    """The coordinate ODE divides E by hbar^2; above hbar = 1.3408e154
    that square overflows, a domain error that names hbar, not a bare
    OverflowError.  Just below it the fit still runs."""
    message = (r"^domain error: hbar=1e\+200 puts hbar\^2, which the "
               r"coordinate ODE divides E by, beyond the largest float$")
    psi = CoordinateEigenfunction(1.0, 1e200)
    for call in (lambda: determine_bessel_order(0.25, 1.0, 1e200),
                 lambda: coordinate.order_coupling(1.0, 1.0, 1e200),
                 lambda: coordinate_ode_residual(psi, 0.25, (1.0,))):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match=r"hbar=1\.35e\+154 puts hbar\^2"):
        coordinate.order_coupling(1.0, 1.0, 1.35e154)
    report = coordinate_ode_residual(CoordinateEigenfunction(1.0, 1.34e154),
                                     0.0, (1.0,))
    assert report.passed


def test_order_fit_insensitive_to_scales():
    nu = determine_bessel_order(0.25, E=2.0, hbar=0.5)
    assert abs(nu - 1.0) <= 1e-6


# -- reports -----------------------------------------------------------------

def test_residual_report_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        ResidualReport((1.0,), (), 1e-12)


def test_residual_report_nan_fails():
    """A NaN residual anywhere makes the maximum NaN, so the report
    fails, wherever the NaN sits."""
    for residuals in ((1e-13, math.nan), (math.nan, 1e-13)):
        report = ResidualReport((1.0, 2.0), residuals, 1e-12)
        assert math.isnan(report.max_residual)
        assert report.passed is False


def test_kernel_results_are_python_scalars():
    """The kernel and the reports hand out Python scalars, which a JSON
    row and a repr print as plain numbers."""
    result = osc_tail(2.0)
    assert [type(v) for v in result] == [float, float, int, int]
    report = verify_integral_identity(1.0, 1.0)
    assert type(report.passed) is bool and report.passed
    assert type(report.max_residual) is float
    assert all(type(v) is float for v in report.grid + report.residuals)
    proc = subprocess.run(
        [sys.executable, "-m", "qorder.cli", "verify", "--identity", "eq11",
         "--format", "json"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows and all(row["pass"] is True for row in rows)
    assert not any("np." in row["detail"] for row in rows)
