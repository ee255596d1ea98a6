"""Numeric verification layer: eigenfunctions, Fourier reconstruction,
integral identities, and ODE residuals in both representations.

The coordinate side (its eigenfunction, ODE residual and order fit) is
:mod:`qorder.coordinate`; the momentum side and the reconstruction need
the lobe quadrature of :mod:`qorder.quadrature`.  Every layer is plain
Python."""

from __future__ import annotations

import cmath
import math

from ._value import Value, _set
from .bessel import bessel_j
from .coordinate import ResidualReport, _EPS
# QuadratureError is re-exported for callers that catch what the
# reconstruction raises
from .quadrature import QuadratureError, QuadratureSpec, sin_cos_integral, \
    sin_phase_integral

_SPEC = QuadratureSpec()
# the largest residual the momentum ODE check passes with
_MOMENTUM_ODE_TOL = 1e-12


class MomentumEigenfunction(Value):
    """psi~(p) = N exp(i E / (hbar p)) / p, defined for p != 0."""

    __slots__ = _fields = ("E", "hbar", "N")

    def __init__(self, E: float, hbar: float, N: complex = 1.0):
        if not (math.isfinite(E) and 0.0 < hbar < math.inf):
            raise ValueError("domain error: MomentumEigenfunction needs "
                             "finite E and finite hbar > 0, got "
                             f"E={E!r}, hbar={hbar!r}")
        if not cmath.isfinite(N):
            raise ValueError("domain error: MomentumEigenfunction needs "
                             f"a finite N, got N={N!r}")
        _set(self, "E", E)
        _set(self, "hbar", hbar)
        _set(self, "N", N)

    def value(self, p: float) -> complex:
        if p == 0:
            raise ValueError("singular point p = 0")
        return self.N * complex(math.cos(self.E / (self.hbar * p)),
                                math.sin(self.E / (self.hbar * p))) / p

    def derivative(self, p: float) -> complex:
        # d/dp of the closed form: psi~ * (-iE/(hbar p^2) - 1/p)
        return self.value(p) * (complex(0, -self.E / (self.hbar * p * p))
                                - 1.0 / p)


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


class Reconstruction(Value):
    __slots__ = _fields = ("value", "abs_error")

    def __init__(self, value: complex, abs_error: float):
        _set(self, "value", value)
        _set(self, "abs_error", abs_error)


def fourier_reconstruct_detailed(psi: MomentumEigenfunction, x: float,
                                 spec: QuadratureSpec = _SPEC
                                 ) -> Reconstruction:
    """psi(x) = integral of psi~(p) exp(i p x / hbar) dp.

    Sector-split at p = 0 with the symmetric principal-value pairing;
    the combined integrand is 2 i N sin(E/(hbar p) + p x / hbar) / p
    over (0, inf), so psi(x) = 2 i N Phi(x / hbar, E / hbar) for every
    finite x (see :func:`qorder.quadrature.sin_phase_integral`), which
    is 0 for x < 0.
    """
    if not math.isfinite(x):
        raise ValueError("domain error: fourier_reconstruct_detailed needs "
                         f"finite x, got x={x!r}")
    if psi.N == 0:
        return Reconstruction(0j, 0.0)
    integral, err = sin_phase_integral(x / psi.hbar, psi.E / psi.hbar, spec)
    scale = 2j * psi.N
    return Reconstruction(scale * integral, abs(scale) * err)


def verify_integral_identity(a: float, b: float,
                             spec: QuadratureSpec = _SPEC) -> ResidualReport:
    """Check both mixed-product orderings against (pi/2) J_0(2 (a^2 b^2)^(1/4)).

    Report points 1.0 and 2.0 label the sin(au)cos(b/u) and
    sin(b/u)cos(au) orderings respectively.  The tolerance is what the
    two sides' own bounds allow: the smaller quadrature error of the two
    orderings plus pi/2 times the Bessel bound.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("domain error: verify_integral_identity needs "
                         f"finite a, b > 0, got a={a!r}, b={b!r}")
    j0 = bessel_j(0.0, 2.0 * (a * a * b * b) ** 0.25)
    target = 0.5 * math.pi * j0.value
    v1, e1 = sin_cos_integral(a, b, spec, sin_fast=True)
    v2, e2 = sin_cos_integral(a, b, spec, sin_fast=False)
    return ResidualReport((1.0, 2.0),
                          (abs(v1 - target), abs(v2 - target)),
                          min(e1, e2) + 0.5 * math.pi * j0.abs_error_bound)
