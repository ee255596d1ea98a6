"""Oscillatory integrals over (0, inf) with essential singularities at 0+.

The integrands sin(a u + b/u)/u, sin(a u)cos(b/u)/u and
sin(b/u)cos(a u)/u oscillate infinitely fast at u -> 0+ and decay only
like 1/u at infinity, so plain adaptive quadrature diverges at both
ends.  All three rest on one integral, Phi(a, b) = integral of
sin(a u + b/u) du / u.  For a, b > 0, u = sqrt(b/a) e^t and
z = 2 sqrt(a b) turn the phase into z cosh t (the Mehler-Sonine form,
DLMF 10.9.9; Watson, *Theory of Bessel Functions* 6.21), so Phi is
twice the half-line integral of sin(z cosh t), summed lobe by lobe
between the closed-form zeros of its phase (see :mod:`qorder._kernels`),
at most 24 lobes.  For a < 0 < b, Phi is 0 exactly:
the substitution u -> b/(|a| u) maps Phi(a, b) to -Phi(a, b) (in the
same variables the phase is -z sinh t, odd in t), so nothing is
integrated there.  A half-line integral that does not settle within
its lobe budget raises :class:`QuadratureError`.
"""

from __future__ import annotations

import math

from ._kernels import osc_tail
from ._value import Value, _set
from .errors import QuadratureError

_Q_FLOOR = 1e-12        # smallest phase coupling q = |a| b evaluated


class QuadratureSpec(Value):
    """The lobe budget of a half-line integral.  The kernel sums at
    most 24 lobes, so a budget below 24 sums fewer, and one above it
    sums no more than 24."""

    __slots__ = _fields = ("max_subdivisions",)

    def __init__(self, max_subdivisions: int = 24):
        if max_subdivisions < 10:
            raise ValueError("max_subdivisions, the lobe budget of a "
                             "quadrature, must be at least 10, got "
                             f"{max_subdivisions!r}")
        _set(self, "max_subdivisions", max_subdivisions)


def sin_phase_integral(a: float, b: float,
                       spec: QuadratureSpec) -> tuple[float, float]:
    """Phi(a, b) = integral over (0, inf) of sin(a u + b/u) du / u, for
    finite a and b.

    The two sectors u > sqrt(b/|a|) and u < sqrt(b/|a|) are the half-lines
    t > 0 and t < 0.  For a > 0 both are I = integral_0^inf sin(z cosh t)
    dt, so Phi = 2 I (= pi J_0(z)).  For a < 0 they cancel, and Phi is
    0.0 with the error 1e-15, the rounding floor of every computed Phi,
    even where |a| b overflows; for a > 0 that overflow raises
    :class:`QuadratureError`.
    For b < 0, Phi(a, b) = -Phi(-a, -b) exactly, with the same error.
    Phi(0, b) is the limit from a > 0, and Phi(a, 0) the limit from
    b > 0.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("domain error: sin_phase_integral needs finite a "
                         f"and b, got a={a!r}, b={b!r}")
    if b < 0.0:     # sin(a u + b/u) = -sin(-a u - b/u)
        value, err = sin_phase_integral(-a, -b, spec)
        return -value, err
    if a < 0.0:     # u -> b/(|a| u) maps Phi(a, b) to -Phi(a, b)
        return 0.0, 1e-15
    q = abs(a * b)
    if q == math.inf:
        raise QuadratureError("quadrature failed: the phase coupling |a| b "
                              f"overflows, got a={a!r}, b={b!r}")
    if a == 0.0 and b == 0.0:
        return 0.0, 0.0
    pad = 0.0
    if q < _Q_FLOOR:
        # symmetric-limit convention at a = 0 or b = 0: the two sectors
        # are paired before the limit, so the value is the continuous
        # limit of the a, b != 0 case.  Below q = 1e-12, the degenerate
        # points included, Phi is taken at q = 1e-12, which moves it by
        # less than pi * 1e-12
        q, pad = _Q_FLOOR, 4.0 * _Q_FLOOR
    z = 2.0 * math.sqrt(q)
    value, err, converged, lobes = osc_tail(z, spec.max_subdivisions)
    if not converged:
        raise QuadratureError(
            f"quadrature failed to converge: z={z!r}, {lobes} lobes",
            value=value, error=err, lobes=lobes)
    return 2.0 * value, 2.0 * err + pad


def sin_cos_integral(a: float, b: float, spec: QuadratureSpec,
                     sin_fast: bool = True) -> tuple[float, float]:
    """integral over (0, inf) of the mixed product du / u.

    sin_fast=True  : sin(a u) cos(b / u) / u = (Phi(a, b) - Phi(-a, b)) / 2
    sin_fast=False : cos(a u) sin(b / u) / u = (Phi(a, b) + Phi(-a, b)) / 2
    Both equal (pi/2) J_0(2 (a^2 b^2)^(1/4)) for a, b > 0.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("domain error: sin_cos_integral needs finite "
                         f"a, b > 0, got a={a!r}, b={b!r}")
    phi_a, e1 = sin_phase_integral(a, b, spec)
    phi_minus_a, e2 = sin_phase_integral(-a, b, spec)
    value = phi_a - phi_minus_a if sin_fast else phi_a + phi_minus_a
    return 0.5 * value, 0.5 * (e1 + e2)
