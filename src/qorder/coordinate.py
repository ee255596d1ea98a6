"""The coordinate side of the numeric check, in plain Python: the
eigenfunction psi(x) = J_nu(2 sqrt(E x) / hbar), its ODE residual, and
the regula falsi fit of nu^2 to the coupling alpha gamma.

The module imports no quadrature, so ``qorder order-scan`` starts
without the lobe kernel.
"""

from __future__ import annotations

import math
import sys

from ._value import Value, _set
from .bessel import bessel_j_derivatives

_EPS = 1e-30
_COORDINATE_ODE_TOL = 1e-8      # the largest residual the check passes with
_FIT_BRACKET = 1e-10


class CoordinateEigenfunction(Value):
    """psi(x) = J_nu(2 sqrt(E |x|) / hbar)."""

    __slots__ = _fields = ("E", "hbar", "nu")

    def __init__(self, E: float, hbar: float, nu: float = 0.0):
        if not (0.0 < E < math.inf and 0.0 < hbar < math.inf):
            raise ValueError("domain error: CoordinateEigenfunction needs "
                             "finite E, hbar > 0, got "
                             f"E={E!r}, hbar={hbar!r}")
        if not 0.0 <= nu < math.inf:
            raise ValueError("domain error: CoordinateEigenfunction needs "
                             f"finite nu >= 0, got nu={nu!r}")
        _set(self, "E", E)
        _set(self, "hbar", hbar)
        _set(self, "nu", nu)


class ResidualReport(Value):
    __slots__ = _fields = ("grid", "residuals", "tolerance")

    def __init__(self, grid: tuple[float, ...], residuals: tuple[float, ...],
                 tolerance: float):
        if len(grid) != len(residuals):
            raise ValueError("grid/residual length mismatch")
        _set(self, "grid", grid)
        _set(self, "residuals", residuals)
        _set(self, "tolerance", tolerance)

    @property
    def max_residual(self) -> float:
        # max() keeps a NaN only where it comes first
        if any(math.isnan(r) for r in self.residuals):
            return math.nan
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _ode_terms(nu: float, E: float, hbar: float, x: float):
    """(x^2 psi'', x psi', psi, (E/hbar^2) x psi) at x > 0 for
    psi = J_nu(z), z = 2 sqrt(E x) / hbar.  The coordinate ODE is
    x^2 psi'' + x psi' - (alpha gamma) psi + (E/hbar^2) x psi = 0."""
    z = 2.0 * math.sqrt(E * x) / hbar
    j, jp, jpp = bessel_j_derivatives(nu, z)
    try:
        energy = E / hbar ** 2
    except OverflowError:
        raise ValueError(f"domain error: hbar={hbar!r} puts hbar^2, which "
                         "the coordinate ODE divides E by, beyond the "
                         "largest float") from None
    # chain rule through z:
    #   x psi'  = z J' / 2
    #   x^2 psi'' = (z^2 J'' - z J') / 4
    return ((z * z * jpp - z * jp) / 4.0, z * jp / 2.0, j, energy * x * j)


def coordinate_ode_residual(psi: CoordinateEigenfunction, alpha_gamma: float,
                            grid) -> ResidualReport:
    """Residual of x^2 psi'' + x psi' - (alpha gamma) psi + (E/hbar^2) x psi,
    with psi's E and hbar, normalized by the largest term magnitude at
    each point."""
    if not math.isfinite(alpha_gamma):
        raise ValueError("domain error: coordinate_ode_residual needs "
                         f"finite alpha_gamma, got alpha_gamma="
                         f"{alpha_gamma!r}")
    grid = tuple(float(x) for x in grid)
    for x in grid:
        if not 0.0 < x < math.inf:
            raise ValueError("domain error: coordinate_ode_residual needs "
                             f"finite grid points x > 0, got x={x!r}")
    residuals = []
    for x in grid:
        t_xpp, t_xp, j, t_ex = _ode_terms(psi.nu, psi.E, psi.hbar, x)
        t_ag = -alpha_gamma * j
        scale = max(abs(t_xpp), abs(t_xp), abs(t_ag), abs(t_ex), _EPS)
        residuals.append(abs(t_xpp + t_xp + t_ag + t_ex) / scale)
    return ResidualReport(grid, tuple(residuals), _COORDINATE_ODE_TOL)


ORDER_SCAN_GRID = tuple(0.2 + 0.25 * k for k in range(12))


def order_residual(nu: float, alpha_gamma: float, E: float,
                   hbar: float) -> float:
    """Largest coordinate ODE residual of J_nu over ORDER_SCAN_GRID."""
    return coordinate_ode_residual(CoordinateEigenfunction(E, hbar, nu),
                                   alpha_gamma, ORDER_SCAN_GRID).max_residual


def order_coupling(nu: float, E: float, hbar: float) -> float:
    """The least-squares coupling of J_nu over ORDER_SCAN_GRID.

    The ODE residual is affine in alpha gamma, rest - (alpha gamma) psi
    with rest = x^2 psi'' + x psi' + (E/hbar^2) x psi, so the coupling
    that minimizes its sum of squares is sum(rest psi) / sum(psi^2).
    For exact Bessel values it is nu^2 / 4, increasing in nu.  A sum of
    psi^2 below the smallest normal float, or a coupling that is not
    finite, is a domain error that names E and hbar.
    """
    rest_psi = psi_psi = 0.0
    for x in ORDER_SCAN_GRID:
        t_xpp, t_xp, j, t_ex = _ode_terms(nu, E, hbar, x)
        rest_psi += (t_xpp + t_xp + t_ex) * j
        psi_psi += j * j
    coupling = (rest_psi / psi_psi if psi_psi >= sys.float_info.min
                else math.nan)
    if not math.isfinite(coupling):
        raise ValueError(
            "domain error: the order fit cannot form the coupling of "
            f"J_nu at nu={nu!r} for E={E!r}, hbar={hbar!r}: the sum of "
            f"J_nu^2 over its grid is {psi_psi!r}")
    return coupling


def determine_bessel_order(alpha_gamma: float, E: float = 1.0,
                           hbar: float = 1.0) -> float:
    """Order nu in [0, 2] whose least-squares coupling is alpha gamma,
    expected to equal 2 sqrt(alpha gamma): 0 where the coupling at 0,
    read as 0 where it rounds below (nu^2 / 4 is never negative), is
    alpha gamma or more, 2 where the coupling at 2 is alpha gamma or
    less, else the root of g(s) = order_coupling(sqrt s) - alpha gamma,
    a line up to rounding, on s = nu^2 in [0, 4].  Regula falsi with the
    Illinois rule (Dowell & Jarratt, BIT 11, 168 (1971)) halves the g of
    an end kept twice in a row.  It stops at g(s) = 0, at an interpolated
    s not strictly inside the bracket, or at a bracket of 1e-10 in nu,
    and gives sqrt of s, or of the end with the smaller |g|.
    """
    if not 0.0 <= alpha_gamma <= 1.0:
        raise ValueError("domain error: determine_bessel_order needs "
                         f"0 <= alpha_gamma <= 1, got {alpha_gamma!r}")

    def excess(s):
        return order_coupling(math.sqrt(s), E, hbar) - alpha_gamma

    a, ga = 0.0, max(order_coupling(0.0, E, hbar), 0.0) - alpha_gamma
    if ga >= 0.0:
        return 0.0
    b, gb = 4.0, excess(4.0)
    if gb <= 0.0:
        return 2.0
    moved = 0                       # the end moved last: -1 a, 1 b
    while math.sqrt(b) - math.sqrt(a) > _FIT_BRACKET:
        s = b - gb * (b - a) / (gb - ga)
        if not a < s < b:
            break
        g = excess(s)
        if g == 0.0:
            return math.sqrt(s)
        if g < 0.0:
            a, ga = s, g
            gb *= 0.5 if moved < 0 else 1.0
            moved = -1
        else:
            b, gb = s, g
            ga *= 0.5 if moved > 0 else 1.0
            moved = 1
    return math.sqrt(a if -ga < gb else b)
