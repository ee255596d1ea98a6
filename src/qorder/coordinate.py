"""The coordinate side of the numeric check, in plain Python: the
eigenfunction psi(x) = J_nu(2 sqrt(E x) / hbar), its ODE residual, and
the fit of the Bessel order nu to the coupling alpha gamma.

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


def _brent_root(f, a, b, fa, fb, tol):
    """Root of f in the bracket [a, b], fa = f(a) and fb = f(b) of
    opposite signs, to a bracket of tol: Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).
    Each step is inverse quadratic or secant interpolation where that
    shrinks the bracket fast enough, and bisection where it does not."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):       # b is the best estimate, c the far end
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half_tol = 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= half_tol or fb == 0.0:
            return b
        if abs(e) >= half_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:              # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:                   # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(half_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > half_tol else math.copysign(half_tol, m)
        fb = f(b)


def determine_bessel_order(alpha_gamma: float, E: float = 1.0,
                           hbar: float = 1.0) -> float:
    """Order nu in [0, 2] whose least-squares coupling is alpha gamma.

    Expected to equal 2 sqrt(alpha gamma).  The fit is 0 where the
    coupling at 0 is already alpha gamma or more, and 2 where the
    coupling at 2 is still alpha gamma or less.  Otherwise it is the
    root of order_coupling(nu) = alpha gamma on [0, 2], by Brent's
    method to a bracket of 1e-10.
    """
    if not 0.0 <= alpha_gamma <= 1.0:
        raise ValueError("domain error: determine_bessel_order needs "
                         f"0 <= alpha_gamma <= 1, got {alpha_gamma!r}")

    def excess(nu):
        return order_coupling(nu, E, hbar) - alpha_gamma

    f0 = excess(0.0)
    if f0 >= 0.0:
        return 0.0
    f2 = excess(2.0)
    if f2 <= 0.0:
        return 2.0
    return _brent_root(excess, 0.0, 2.0, f0, f2, _FIT_BRACKET)
