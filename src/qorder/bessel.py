"""Bessel functions of the first kind, self-contained and plain Python.

Power series for z <= 30, Hankel asymptotic expansion beyond; every
value carries a rigorous absolute error bound from the truncation
analysis in ``_j_series`` and ``_j_asymptotic``.  The series is
summed in 38-digit ``decimal`` arithmetic, so that the bound stays
below 1e-10 through the switch at z = 30 despite the alternating-term
cancellation; the bound adds the truncated tail, the decimal rounding
(6 k u times the sum of |terms| after k terms, u the unit roundoff of
the 38 digits) and the relative error of the first term, computed in
floats.  The caller's decimal context is left alone.  Orders run up to
170, where Gamma(nu + 1) in the series' first term is still a finite
float.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

from ._value import Value, _set
from .errors import BesselDomainError

_SERIES_ASYMPTOTIC_SWITCH = 30.0
_Z_MAX = 1.0e4
_NU_MAX = 170.0         # Gamma(nu + 1) overflows above nu = 170.6


class BesselEval(Value):
    __slots__ = _fields = ("value", "abs_error_bound")

    def __init__(self, value: float, abs_error_bound: float):
        _set(self, "value", value)
        _set(self, "abs_error_bound", abs_error_bound)


# ---------------------------------------------------------------------------
# Bessel J: power series (z <= 30) and Hankel asymptotics (z > 30)
# ---------------------------------------------------------------------------

# the series' working precision; the bound's unit roundoff follows from it
_CTX = Context(prec=38, rounding=ROUND_HALF_EVEN)
_U = 0.5 * 10.0 ** (1 - _CTX.prec)
_STOP_ABS = Decimal("1e-25")
_STOP_REL = Decimal("1e-17")
_TINY = Decimal("1e-300")


def _j_series(nu, z):
    """(value, rigorous abs error bound) for nu > -1 with Gamma(nu + 1)
    finite; the value also for any other non-integer nu."""
    x = 0.5 * z
    s = nu + 1.0
    e = math.fsum((nu, 1.0, -s))  # nu + 1 = s + e exactly
    t0 = x ** nu / math.gamma(s)
    with localcontext(_CTX):
        t = total = Decimal(t0)
        abs_sum = abs(t)
        minus_x2 = -(Decimal(x) * Decimal(x))
        dnu = Decimal(nu)
        k = 0
        while k < 2000:
            k += 1
            t = t * minus_x2 / (k * (k + dnu))
            total += t
            size = abs(t)
            abs_sum += size
            if (k > x and size < _STOP_ABS
                    and size < _STOP_REL * (abs(total) + _TINY)):
                break
        value = float(total)
        trunc = float(size)
        magnitude = float(abs_sum)
    # truncation (geometric tail, ratio < 1/2 once k > x); the decimal
    # rounding: term k carries 5k roundings (per step the rounded x^2,
    # k + nu, the product by k, by -x^2 and the division) and the sum
    # one per step; and the relative error of t0: float pow, math.gamma and
    # the division (5e-15), plus Gamma(s + e) / Gamma(s) - 1 ~ psi(s) e
    # for the argument s that nu + 1 rounds to, where
    # |psi(s)| < |ln s| + 1 / s for s > 0
    rel = 5e-15 + ((abs(math.log(s)) + 1.0 / s) * abs(e) if e else 0.0)
    bound = (2.0 * trunc + 6 * k * _U * magnitude + rel * abs(value)
             + 1e-300)
    return value, bound


def _j_asymptotic(nu, z):
    """Hankel expansion for large z: (value, abs error bound)."""
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    sign = 1.0
    last = abs(term)
    bound_term = 0.0
    k = 0
    while k < 60:
        term = term * (mu - (2.0 * k + 1.0) ** 2) / (8.0 * z * (k + 1.0))
        k += 1
        if abs(term) >= last and k > 2:
            bound_term = abs(term)
            break
        last = abs(term)
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
        if abs(term) < 1e-18:
            bound_term = abs(term)
            break
        bound_term = abs(term)
    omega = z - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    value = amp * (p * math.cos(omega) - q * math.sin(omega))
    bound = amp * (bound_term + (abs(z) + abs(nu) + 1.0) * 4e-16) + 1e-300
    return value, bound


def _j_any(nu: float, z: float) -> tuple[float, float]:
    """(value, bound) as Python floats for any real order; negative
    integer orders via the symmetry J_{-n} = (-1)^n J_n."""
    if z == 0.0:
        if nu == 0.0:
            return 1.0, 0.0
        if nu > 0.0:
            return 0.0, 0.0
        if nu == round(nu):
            return (1.0, 0.0) if nu % 2 == 0 else (0.0, 0.0)
        raise BesselDomainError(
            "domain error: J_nu(0) needs an integer or nonnegative order, "
            f"got nu={nu!r}")
    if z > _SERIES_ASYMPTOTIC_SWITCH:
        value, bound = _j_asymptotic(nu, z)
    elif nu < 0.0 and nu == round(nu):
        n = int(round(-nu))
        value, bound = _j_series(float(n), z)
        value = ((-1.0) ** n) * value
    else:
        value, bound = _j_series(nu, z)
    # Python floats even where the caller passed numpy scalars
    return float(value), float(bound)


def bessel_j(nu: float, z: float) -> BesselEval:
    """J_nu(z) for 0 <= nu <= 170, 0 <= z <= 1e4, with an absolute error
    bound."""
    if not 0.0 <= nu <= _NU_MAX:
        raise BesselDomainError(
            f"domain error: bessel_j needs 0 <= nu <= 170, got nu={nu!r}")
    if not 0.0 <= z <= _Z_MAX:
        raise BesselDomainError(
            f"domain error: bessel_j needs 0 <= z <= 1e4, got z={z!r}")
    value, bound = _j_any(nu, z)
    return BesselEval(value, bound)


def bessel_j_derivatives(nu: float, z: float) -> tuple[float, float, float]:
    """(J_nu, J_nu', J_nu'') via the two-sided recurrences.

    J' = (J_{nu-1} - J_{nu+1}) / 2 and J'' = (J_{nu-2} - 2 J_nu
    + J_{nu+2}) / 4, so the second derivative is independent of the
    Bessel ODE and the ODE residual is a genuine consistency check.
    The order runs up to 168, so that nu + 2 stays within bessel_j's.
    """
    if not 0.0 <= nu <= _NU_MAX - 2.0:
        raise BesselDomainError("domain error: bessel_j_derivatives needs "
                                f"0 <= nu <= 168, got nu={nu!r}")
    if not 0.0 <= z <= _Z_MAX:
        raise BesselDomainError(
            "domain error: bessel_j_derivatives needs 0 <= z <= 1e4, "
            f"got z={z!r}")
    if z == 0.0 and 0.0 < nu < 2.0:
        raise BesselDomainError(
            "domain error: bessel_j_derivatives needs z > 0 for 0 < nu < 2, "
            f"got nu={nu!r} at z=0")
    j = _j_any(nu, z)[0]
    jm = _j_any(nu - 1.0, z)[0]
    jp = _j_any(nu + 1.0, z)[0]
    jmm = _j_any(nu - 2.0, z)[0]
    jpp = _j_any(nu + 2.0, z)[0]
    return j, 0.5 * (jm - jp), 0.25 * (jmm - 2.0 * j + jpp)
