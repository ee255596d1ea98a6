"""Numeric verification layer: eigenfunctions, Fourier reconstruction,
integral identities, and ODE residuals in both representations."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bessel import bessel_first_zero, bessel_j, bessel_j_derivatives
from .quadrature import QuadratureError, QuadratureSpec, sin_cos_integral, \
    sin_phase_integral

_EPS = 1e-30
_SPEC = QuadratureSpec()
# the largest residual each check passes with
_MOMENTUM_ODE_TOL = 1e-12
_INTEGRAL_TOL = 1e-6
_COORDINATE_ODE_TOL = 1e-8


@dataclass(frozen=True)
class MomentumEigenfunction:
    """psi~(p) = N exp(i E / (hbar p)) / p, defined for p != 0."""

    E: float
    hbar: float
    N: complex = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.E) and 0.0 < self.hbar < math.inf):
            raise ValueError("domain error: MomentumEigenfunction needs "
                             "finite E and finite hbar > 0, got "
                             f"E={self.E!r}, hbar={self.hbar!r}")
        if not cmath.isfinite(self.N):
            raise ValueError("domain error: MomentumEigenfunction needs "
                             f"a finite N, got N={self.N!r}")

    def value(self, p: float) -> complex:
        if p == 0:
            raise ValueError("singular point p = 0")
        return self.N * complex(math.cos(self.E / (self.hbar * p)),
                                math.sin(self.E / (self.hbar * p))) / p

    def derivative(self, p: float) -> complex:
        # d/dp of the closed form: psi~ * (-iE/(hbar p^2) - 1/p)
        return self.value(p) * (complex(0, -self.E / (self.hbar * p * p))
                                - 1.0 / p)


@dataclass(frozen=True)
class CoordinateEigenfunction:
    """psi(x) = J_nu(2 sqrt(E |x|) / hbar)."""

    E: float
    hbar: float
    nu: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.E < math.inf and 0.0 < self.hbar < math.inf):
            raise ValueError("domain error: CoordinateEigenfunction needs "
                             "finite E, hbar > 0, got "
                             f"E={self.E!r}, hbar={self.hbar!r}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("domain error: CoordinateEigenfunction needs "
                             f"finite nu >= 0, got nu={self.nu!r}")


@dataclass(frozen=True)
class ResidualReport:
    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    tolerance: float

    def __post_init__(self):
        if len(self.grid) != len(self.residuals):
            raise ValueError("grid/residual length mismatch")

    @property
    def max_residual(self) -> float:
        # max() keeps a NaN only where it comes first
        if any(math.isnan(r) for r in self.residuals):
            return math.nan
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def momentum_ode_residual(psi: MomentumEigenfunction, grid) -> ResidualReport:
    """Relative residual of i hbar p^2 psi' + i hbar p psi = E psi."""
    grid = tuple(float(p) for p in grid)
    if any(p == 0.0 for p in grid):
        raise ValueError("singular point p = 0")
    residuals = []
    for p in grid:
        val = psi.value(p)
        der = psi.derivative(p)
        ih = complex(0, psi.hbar)
        lhs = ih * p * p * der + ih * p * val - psi.E * val
        residuals.append(abs(lhs) / (abs(psi.E * val) + _EPS))
    return ResidualReport(grid, tuple(residuals), _MOMENTUM_ODE_TOL)


@dataclass(frozen=True)
class Reconstruction:
    value: complex
    abs_error: float


def fourier_reconstruct_detailed(psi: MomentumEigenfunction, x: float,
                                 spec: QuadratureSpec = _SPEC
                                 ) -> Reconstruction:
    """psi(x) = integral of psi~(p) exp(i p x / hbar) dp.

    Sector-split at p = 0 with the symmetric principal-value pairing;
    the combined integrand is 2 i N sin(E/(hbar p) + p x / hbar) / p
    over (0, inf), so psi(x) = 2 i N Phi(x / hbar, E / hbar) for every
    finite x (see :func:`qorder.quadrature.sin_phase_integral`).  For
    x < 0 that is the computed I - I of two sinh half-line integrals,
    with its bound.
    """
    if not math.isfinite(x):
        raise ValueError("domain error: fourier_reconstruct_detailed needs "
                         f"finite x, got x={x!r}")
    if psi.N == 0:
        return Reconstruction(0j, 0.0)
    integral, err = sin_phase_integral(x / psi.hbar, psi.E / psi.hbar, spec)
    scale = 2j * psi.N
    return Reconstruction(scale * integral, abs(scale) * err)


def fourier_reconstruct(psi: MomentumEigenfunction, x: float,
                        spec: QuadratureSpec = _SPEC) -> complex:
    return fourier_reconstruct_detailed(psi, x, spec).value


def verify_integral_identity(a: float, b: float,
                             spec: QuadratureSpec = _SPEC) -> ResidualReport:
    """Check both mixed-product orderings against (pi/2) J_0(2 (a^2 b^2)^(1/4)).

    Report points 1.0 and 2.0 label the sin(au)cos(b/u) and
    sin(b/u)cos(au) orderings respectively.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("domain error: verify_integral_identity needs "
                         f"finite a, b > 0, got a={a!r}, b={b!r}")
    target = 0.5 * math.pi * bessel_j(0.0, 2.0 * (a * a * b * b) ** 0.25).value
    v1, _ = sin_cos_integral(a, b, spec, sin_fast=True)
    v2, _ = sin_cos_integral(a, b, spec, sin_fast=False)
    return ResidualReport((1.0, 2.0),
                          (abs(v1 - target), abs(v2 - target)),
                          _INTEGRAL_TOL)


def coordinate_ode_residual(psi: CoordinateEigenfunction, alpha_gamma: float,
                            grid) -> ResidualReport:
    """Residual of x^2 psi'' + x psi' - (alpha gamma) psi + (E/hbar^2) x psi,
    with psi's E and hbar, normalized by the largest term magnitude at
    each point."""
    if not math.isfinite(alpha_gamma):
        raise ValueError("domain error: coordinate_ode_residual needs "
                         f"finite alpha_gamma, got alpha_gamma="
                         f"{alpha_gamma!r}")
    E, hbar = psi.E, psi.hbar
    grid = tuple(float(x) for x in grid)
    for x in grid:
        if not 0.0 < x < math.inf:
            raise ValueError("domain error: coordinate_ode_residual needs "
                             f"finite grid points x > 0, got x={x!r}")
    residuals = []
    for x in grid:
        z = 2.0 * math.sqrt(E * x) / hbar
        j, jp, jpp = bessel_j_derivatives(psi.nu, z)
        # chain rule through z = 2 sqrt(E x) / hbar:
        #   x psi'  = z J' / 2
        #   x^2 psi'' = (z^2 J'' - z J') / 4
        t_xpp = (z * z * jpp - z * jp) / 4.0
        t_xp = z * jp / 2.0
        t_ag = -alpha_gamma * j
        t_ex = (E / hbar ** 2) * x * j
        scale = max(abs(t_xpp), abs(t_xp), abs(t_ag), abs(t_ex), _EPS)
        residuals.append(abs(t_xpp + t_xp + t_ag + t_ex) / scale)
    return ResidualReport(grid, tuple(residuals), _COORDINATE_ODE_TOL)


ORDER_SCAN_GRID = tuple(0.2 + 0.25 * k for k in range(12))


def order_residual(nu: float, alpha_gamma: float, E: float,
                   hbar: float) -> float:
    """Largest coordinate ODE residual of J_nu over ORDER_SCAN_GRID."""
    return coordinate_ode_residual(CoordinateEigenfunction(E, hbar, nu),
                                   alpha_gamma, ORDER_SCAN_GRID).max_residual


def determine_bessel_order(alpha_gamma: float, E: float = 1.0,
                           hbar: float = 1.0) -> float:
    """Order nu in [0, 2] minimizing the coordinate ODE residual.

    Expected to equal 2 sqrt(alpha gamma).  The residual has several
    local minima on [0, 2] once E / hbar^2 is large, and for small
    alpha gamma it rises from nu = 0 before it falls to its minimum.
    So the fit scans nu = 0, 0.2, ..., 2, then runs a golden-section
    search on [best - 0.2, best + 0.2], cut to [0, 2], down to a bracket
    of 1e-9, whose midpoint is returned: at most 55 residual
    evaluations.  tests/test_verification.py checks it for E / hbar^2
    from 1/8 to 16.
    """
    if not 0.0 <= alpha_gamma <= 1.0:
        raise ValueError("domain error: determine_bessel_order needs "
                         f"0 <= alpha_gamma <= 1, got {alpha_gamma!r}")
    best = min((0.2 * k for k in range(11)),
               key=lambda nu: order_residual(nu, alpha_gamma, E, hbar))
    lo, hi = max(best - 0.2, 0.0), min(best + 0.2, 2.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    fc = order_residual(c, alpha_gamma, E, hbar)
    fd = order_residual(d, alpha_gamma, E, hbar)
    while hi - lo > 1e-9:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = order_residual(c, alpha_gamma, E, hbar)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = order_residual(d, alpha_gamma, E, hbar)
    return 0.5 * (lo + hi)


def reconstruction_first_zero(psi: MomentumEigenfunction,
                              spec: QuadratureSpec = _SPEC) -> float:
    """First positive x where the reconstructed psi(x) vanishes."""

    def f(x):
        val = fourier_reconstruct(psi, x, spec)
        return val.imag if abs(val.imag) >= abs(val.real) else val.real

    z0 = bessel_first_zero(0.0)
    guess = (psi.hbar * z0 / (2.0 * math.sqrt(psi.E))) ** 2
    lo, hi = 0.5 * guess, 1.5 * guess
    flo, fhi = f(lo), f(hi)
    while flo * fhi > 0:
        lo *= 0.8
        hi *= 1.2
        flo, fhi = f(lo), f(hi)
        if hi / lo > 100:
            raise QuadratureError("no sign change for reconstruction zero")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-10 * guess:
            break
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
