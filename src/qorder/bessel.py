"""Bessel functions of the first kind, self-contained and plain Python.

Power series for z <= 30, Hankel asymptotic expansion beyond; every
value carries a rigorous absolute error bound from the truncation
analysis in ``_j_series`` and ``_j_asymptotic``.  The series is
accumulated in double-double arithmetic (error-free transforms, Dekker
splitting), so that the bound stays below 1e-10 through the switch at
z = 30 despite the alternating-term cancellation.  Orders run up to
170, where Gamma(nu + 1) in the series' first term is still a finite
float.  The module imports no numpy.
"""

from __future__ import annotations

import math

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
# double-double building blocks
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


# ---------------------------------------------------------------------------
# Bessel J: power series (z <= 30) and Hankel asymptotics (z > 30)
# ---------------------------------------------------------------------------

def _j_series(nu, z):
    """(value, rigorous abs error bound) for nu > -1 with Gamma(nu + 1)
    finite; the value also for any other non-integer nu."""
    x = 0.5 * z
    s, e = _two_sum(nu, 1.0)  # nu + 1 = s + e exactly
    t0 = x ** nu / math.gamma(s)
    sh, sl = t0, 0.0
    th, tl = t0, 0.0
    x2h, x2l = _two_prod(x, x)
    # The loop's double-double steps are written out, as two-sums and
    # Dekker products (_two_sum, _two_prod) with the operations in
    # order, the zero low parts included; -x2h is split once.
    mh, ml = -x2h, -x2l
    t = _SPLIT * mh
    mhh = t - (t - mh)
    mhl = mh - mhh
    max_term = abs(t0)
    trunc = abs(t0)
    k = 0
    while k < 2000:
        k1 = k + 1.0
        # (dh, dl) = (k + 1 + nu) * (k + 1)
        a = k1 + nu
        bb = a - k1
        al = (k1 - (a - bb)) + (nu - bb)
        p = a * k1
        t = _SPLIT * a
        ah = t - (t - a)
        alo = a - ah
        t = _SPLIT * k1
        bh = t - (t - k1)
        blo = k1 - bh
        err = ((ah * bh - p) + ah * blo + alo * bh) + alo * blo
        err += a * 0.0 + al * k1
        dh = p + err
        dl = err - (dh - p)
        # (th, tl) = (th, tl) * (-x2h, -x2l)
        p = th * mh
        t = _SPLIT * th
        ah = t - (t - th)
        alo = th - ah
        err = ((ah * mhh - p) + ah * mhl + alo * mhh) + alo * mhl
        err += th * ml + tl * mh
        th = p + err
        tl = err - (th - p)
        # (th, tl) = (th, tl) / (dh, dl): q1 = th / dh, (ph, pl) =
        # q1 * (dh, dl), (rh, rl) = (th, tl) - (ph, pl), q2 = r / dh
        q1 = th / dh
        p = q1 * dh
        t = _SPLIT * q1
        ah = t - (t - q1)
        alo = q1 - ah
        t = _SPLIT * dh
        bh = t - (t - dh)
        blo = dh - bh
        err = ((ah * bh - p) + ah * blo + alo * bh) + alo * blo
        err += q1 * dl + 0.0 * dh
        ph = p + err
        pl = err - (ph - p)
        rs = th - ph
        bb = rs - th
        err = (th - (rs - bb)) + (-ph - bb)
        err += tl - pl
        rh = rs + err
        rl = err - (rh - rs)
        q2 = (rh + rl) / dh
        th = q1 + q2
        tl = q2 - (th - q1)
        # (sh, sl) = (sh, sl) + (th, tl)
        ss = sh + th
        bb = ss - sh
        err = (sh - (ss - bb)) + (th - bb)
        err += sl + tl
        sh = ss + err
        sl = err - (sh - ss)
        if abs(sh) > max_term:
            max_term = abs(sh)
        if abs(th) > max_term:
            max_term = abs(th)
        trunc = abs(th)
        k += 1
        if k > x and trunc < 1e-17 * (abs(sh) + 1e-300) and trunc < 1e-25:
            break
    value = sh + sl
    # truncation (geometric tail, ratio < 1/2 once k > x), double-double
    # rounding, and the relative error of t0: float pow, math.gamma and
    # the division (5e-15), plus Gamma(s + e) / Gamma(s) - 1 ~ psi(s) e
    # for the argument s that nu + 1 rounds to, where
    # |psi(s)| < |ln s| + 1 / s for s > 0
    rel = 5e-15 + ((abs(math.log(s)) + 1.0 / s) * abs(e) if e else 0.0)
    bound = 2.0 * trunc + k * 1e-31 * max_term + rel * abs(value) + 1e-300
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
