"""Oscillatory integrals over (0, inf) with essential singularities at 0+.

The integrands sin(a u + b/u)/u, sin(a u)cos(b/u)/u and
sin(b/u)cos(a u)/u oscillate infinitely fast at u -> 0+ and decay only
like 1/u at infinity, so plain adaptive quadrature diverges at both
ends.  Each integral is split at the stationary/balance point
u* = sqrt(b/a); the inner part is mapped by u -> b/v onto another tail
of the same family, and each tail is integrated lobe by lobe between
consecutive zeros of the fast factor with the alternating lobe sums
accelerated by an iterated-averaging Euler transform (see
:mod:`qorder._kernels`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ._kernels import osc_tail


class QuadratureError(RuntimeError):
    """Raised when the lobe sums fail to converge; carries the partial
    value and the error estimate."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.max_subdivisions < 10:
            raise ValueError("max subdivisions too small")

    @classmethod
    def from_env(cls, **overrides) -> "QuadratureSpec":
        env = os.environ.get("QORDER_MAX_SUBDIV")
        if env is not None and "max_subdivisions" not in overrides:
            overrides["max_subdivisions"] = int(env)
        return cls(**overrides)


def _tail(c, a, q, mode, spec: QuadratureSpec):
    value, err, converged, _ = osc_tail(c, a, q, mode,
                                        max_lobes=spec.max_subdivisions,
                                        tol=1e-12)
    if not converged:
        raise QuadratureError("quadrature failed to converge",
                              value=value, error=err)
    return value, err


def sin_phase_integral(a: float, b: float,
                       spec: QuadratureSpec) -> tuple[float, float]:
    """integral over (0, inf) of sin(a u + b/u) du / u, for a, b >= 0.

    Splitting at u* = sqrt(b/a) and substituting u -> b/v on the inner
    sector folds both halves onto the same tail, so the result is
    2 * integral_{sqrt(ab)}^{inf} sin(t + ab/t) dt / t (equal to
    pi J_0(2 sqrt(ab))).
    """
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError("domain error: sin_phase_integral needs finite "
                         f"a, b >= 0, got a={a!r}, b={b!r}")
    if a == 0.0 and b == 0.0:
        return 0.0, 0.0
    if a == 0.0 or b == 0.0:
        # symmetric-limit convention at the degenerate point: the two
        # sectors are paired before the a -> 0 (or b -> 0) limit, so the
        # value is the continuous limit of the a, b > 0 case, evaluated
        # at a vanishing phase-coupling q
        q = 1e-12
        value, err = _tail(math.sqrt(q), 1.0, q, 0, spec)
        return 2.0 * value, 2.0 * err + 4.0 * q
    q = a * b
    value, err = _tail(math.sqrt(q), 1.0, q, 0, spec)
    return 2.0 * value, 2.0 * err


def sin_cos_integral(a: float, b: float, spec: QuadratureSpec,
                     sin_fast: bool = True) -> tuple[float, float]:
    """integral over (0, inf) of the mixed product du / u.

    sin_fast=True  : sin(a u) cos(b / u) / u
    sin_fast=False : cos(a u) sin(b / u) / u
    Both equal (pi/2) J_0(2 (a^2 b^2)^(1/4)) for a, b > 0.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("domain error: sin_cos_integral needs finite "
                         f"a, b > 0, got a={a!r}, b={b!r}")
    split = math.sqrt(b / a)
    q = a * b
    outer_mode = 1 if sin_fast else 2
    inner_mode = 2 if sin_fast else 1
    v1, e1 = _tail(split, a, b, outer_mode, spec)
    v2, e2 = _tail(math.sqrt(q), 1.0, q, inner_mode, spec)
    return v1 + v2, e1 + e2
