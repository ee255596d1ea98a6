"""Bessel functions of the first kind, self-contained.

Power series (double-double accumulation) for z <= 30, Hankel
asymptotic expansion beyond; every value carries a rigorous absolute
error bound from the truncation analysis in :mod:`qorder._kernels`.
Orders run up to 170, where Gamma(nu + 1) in the series' first term is
still a finite float.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import _j_asymptotic, _j_series
from .errors import BesselDomainError

_SERIES_ASYMPTOTIC_SWITCH = 30.0
_Z_MAX = 1.0e4
_NU_MAX = 170.0         # Gamma(nu + 1) overflows above nu = 170.6


@dataclass(frozen=True)
class BesselEval:
    value: float
    abs_error_bound: float


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


def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero of J_nu for 0 <= nu <= 2, by bisection."""
    if not 0.0 <= nu <= 2.0:
        raise BesselDomainError(
            "domain error: bessel_first_zero needs 0 <= nu <= 2, "
            f"got nu={nu!r}")
    lo = 1e-6
    hi = lo
    step = 0.1
    flo = _j_any(nu, lo)[0]
    while True:
        hi += step
        fhi = _j_any(nu, hi)[0]
        if flo * fhi <= 0.0:
            break
        lo, flo = hi, fhi
        if hi > 30.0:
            raise BesselDomainError("no sign change found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        fm = _j_any(nu, mid)[0]
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
