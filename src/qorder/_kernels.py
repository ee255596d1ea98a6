"""The oscillatory lobe kernel, in plain Python.

``osc_tail`` integrates sin(z cosh t) over t >= 0, the Mehler-Sonine
form of every oscillatory integral in :mod:`qorder.quadrature`.  With
the phase variable phi = z (cosh t - 1) = 2 z sinh(t/2)^2 it reads

    I = integral_0^inf sin(z + phi) / sqrt(phi (phi + 2 z)) dphi,

whose zeros are phi = j pi - (z mod pi), j >= 1.  The head [0, zero 2]
is summed in t, where the 1/sqrt(phi) singularity is gone: a 16-point
Gauss-Legendre rule on panels that double in width away from zero 2
gives its value, and a 12-point rule on the same panels its error.
Beyond it the integral runs lobe by lobe in phi, each lobe the
half-period between two zeros and one 10-point Gauss-Legendre panel:
the lobe-wise summation with extrapolation of QUADPACK's QAWF (Piessens
et al. 1983).  The first lobe starts at least pi from the singularity,
so 10 nodes suffice.  Every lobe is the same half-period shifted, so
the sines and cosines of its nodes are built at import, and the sine
and cosine of z + zero 2 are formed once a call from sin z and cos z
and change sign from lobe to lobe; no phase close to a huge z is ever
rounded, and a node costs one square root.  The alternating lobe sums
are accelerated with Levin's u-transform (Levin, Int. J. Comput. Math.
B3, 371 (1973); Fessler, Ford & Smith, ACM TOMS 9, 346 (1983)), with the
remainder estimate omega_k = (k + 1) a_k for lobe a_k, from coefficient
rows built at import.  Lobes are summed one at a time, and the loop
stops at the first estimate whose last three changes are all below
_TOL; at most _MAX_LOBES lobes are summed, and a call that has not
settled by then is reported unconverged, never continued.  Over
2 000 seeded z from 2e-6 to 1e154 it settles within 16 lobes
(tests/test_kernels.py).  ``osc_tail`` returns Python ``float``/``int``.
"""

from __future__ import annotations

import cmath
import math
from operator import mul


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes, ascending, and weights on [-1, 1] by
    Newton's method on the Legendre recurrence, the weights made
    symmetric and summing to 2.  A weight is 2 / ((1 - x^2) P_n'(x)^2)
    with P_n' = n (P_(n-1) - x P_n) / (1 - x^2): keeping the residual
    P_n(x) of the rounded node holds the weights to about 1e-15, where
    dropping it loses up to 5e-14 next to the ends."""
    nodes, weights = [], []
    for i in range(n, 0, -1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            x -= p1 * (x * x - 1.0) / (n * (x * p1 - p0))
        nodes.append(x)
        weights.append((1.0 - x) * (1.0 + x) / (n * (p0 - x * p1)) ** 2)
    weights = [a + b for a, b in zip(weights, weights[::-1])]
    total = math.fsum(weights)
    return nodes, [2.0 * w / total for w in weights]


def _unit_rule(n):
    """The n-point rule on [0, 1] as (node, weight) pairs."""
    nodes, weights = _gauss_legendre(n)
    return tuple((0.5 * (1.0 + x), 0.5 * w) for x, w in zip(nodes, weights))


_HEAD_RULE = _unit_rule(16)     # the head's value
_CHECK_RULE = _unit_rule(12)    # the head's error, on the same panels


def _lobe_rule(n):
    """The n-point rule on the half-period [0, pi] as (offset, weight
    times cos offset, weight times sin offset): a node at phi = a + offset
    of a lobe [a, a + pi] adds sin(z + a) cos offset + cos(z + a) sin
    offset, times its weight, over sqrt(phi (phi + 2 z))."""
    nodes, weights = _gauss_legendre(n)
    rule = []
    for x, w in zip(nodes, weights):
        offset, w = 0.5 * math.pi * (1.0 + x), 0.5 * math.pi * w
        rule.append((offset, w * math.cos(offset), w * math.sin(offset)))
    return tuple(rule)


_LOBE_RULE = _lobe_rule(10)

_MAX_LOBES = 24        # lobes summed, at most
_FIRST_ESTIMATE = 4    # the first estimate uses lobes 0..4
_TOL = 1e-12           # accepted once three changes in a row are below it

# Levin u-transform coefficients (-1)^j C(k, j) ((1 + j) / (1 + k))^(k - 1),
# j = 0 .. k, for k = 4 .. _MAX_LOBES - 1
_LEVIN = tuple(tuple((-1) ** j * math.comb(k, j)
                     * ((1 + j) / (1 + k)) ** (k - 1) for j in range(k + 1))
               for k in range(_FIRST_ESTIMATE, _MAX_LOBES))


def _head(z, sin_z, cos_z, end):
    """(value, error) of the integral of sin(z cosh t) over [0, end], from
    the 16- and 12-point rules on the panels [end - 1, end],
    [end - 3, end - 1], [end - 7, end - 3], ..., the last one cut at 0.
    phi = 2 z sinh(t/2)^2 grows like e^t, so a panel twice as wide one
    step down spans a phase range no wider than the one above it.
    sin(z cosh t) = sin(z + phi) is the imaginary part of e^(iz) e^(i phi),
    so no phase close to a huge z is rounded."""
    edges = [end]
    step = 1.0
    while edges[-1] > 0.0:
        edges.append(max(end - step, 0.0))
        step = 2.0 * step + 1.0
    sinh, rect = math.sinh, cmath.rect
    sums = []
    for rule in (_HEAD_RULE, _CHECK_RULE):
        total = 0j      # the rule's sum of exp(i phi) dt
        for upper, lower in zip(edges, edges[1:]):
            # t / 2 runs over [lower / 2, upper / 2]
            start, width = 0.5 * lower, 0.5 * (upper - lower)
            acc = 0j
            for u, w in rule:
                h = sinh(start + width * u)
                acc += rect(w, z * (2.0 * h * h))
            total += (2.0 * width) * acc
        sums.append(sin_z * total.real + cos_z * total.imag)
    value, check = sums
    return value, abs(value - check)


def _lobes(z, sin_z, cos_z, zero, count):
    """The integrals of the first count lobes [phi_j, phi_j + pi] beyond
    the head, phi_j = zero + j pi, one at a time.  The integrand is
    written 1 / sqrt(2 z) over sqrt(phi (1 + phi / (2 z))), so no z up to
    the largest float overflows, and sin(z + phi_j + offset) is
    (-1)^j (sin(z + zero) cos offset + cos(z + zero) sin offset)."""
    scale = math.sqrt(0.5) / math.sqrt(z)
    inv_2z = 0.5 / z
    sqrt, pi = math.sqrt, math.pi
    cos_zero, sin_zero = math.cos(zero), math.sin(zero)
    sin_a = scale * (sin_z * cos_zero + cos_z * sin_zero)
    cos_a = scale * (cos_z * cos_zero - sin_z * sin_zero)
    for j in range(count):
        a = zero + j * pi
        c = s = 0.0
        for offset, wc, ws in _LOBE_RULE:
            phi = a + offset
            g = sqrt(phi * (1.0 + phi * inv_2z))
            c += wc / g
            s += ws / g
        yield sin_a * c + cos_a * s
        sin_a, cos_a = -sin_a, -cos_a


def _levin_estimates(start, lobes):
    """Levin u-transform estimates k = 4, 5, ... of the limit of the
    partial sums start + lobes[0] + ... + lobes[k], one as each lobe
    from the fifth on arrives, with the remainder estimates
    omega_k = (k + 1) lobes[k]."""
    total = start
    scaled_sums, inverses = [], []
    for j, lobe in enumerate(lobes):
        total += lobe
        omega = (j + 1) * lobe
        scaled_sums.append(total / omega)
        inverses.append(1.0 / omega)
        if j >= _FIRST_ESTIMATE:
            row = _LEVIN[j - _FIRST_ESTIMATE]
            yield (sum(map(mul, row, scaled_sums))
                   / sum(map(mul, row, inverses)))


def _levin_stop(estimates):
    """(k, estimate k, largest change) for the first estimate k, of an
    iterable of Levin estimates, whose last three changes are all below
    _TOL; the iterable is not read past it.  Without one,
    (None, last estimate or None, largest of the last three changes):
    infinite with fewer than three changes, and NaN where one of them is
    NaN."""
    last, changes, run = None, [], 0
    for k, estimate in enumerate(estimates):
        if last is not None:
            change = abs(estimate - last)
            changes.append(change)
            run = run + 1 if change < _TOL else 0
            if run == 3:
                return k, estimate, max(changes[-3:])
        last = estimate
    tail = changes[-3:]
    if len(tail) < 3:
        return None, last, math.inf
    if any(map(math.isnan, tail)):
        return None, last, math.nan
    return None, last, max(tail)


def osc_tail(z, max_lobes=_MAX_LOBES):
    """integral over [0, inf) of sin(z cosh t), for finite z >= 1e-300.

    Returns (value, error_estimate, converged_flag, lobes_used) as
    (float, float, int, int).  The head [0, zero 2] is summed in t, and
    min(_MAX_LOBES, max_lobes) lobes beyond it, at most, in phi, one at a
    time through the Levin u-transform.  The first estimate whose last
    three changes are all below _TOL is accepted; its error is twice the
    largest of them, plus the head error, plus 1e-15 (|value| + 1).
    Otherwise the last estimate (the head alone, with no estimate) is
    returned unconverged, with every lobe of the budget as its count.
    """
    z = float(z)
    count = min(_MAX_LOBES, max(int(max_lobes), 0))
    sin_z, cos_z = math.sin(z), math.cos(z)
    zero = 2.0 * math.pi - math.fmod(z, math.pi)    # zero 2, in phi
    head, head_err = _head(z, sin_z, cos_z,
                           2.0 * math.asinh(math.sqrt(0.5 * zero / z)))
    accepted, value, change = _levin_stop(
        _levin_estimates(head, _lobes(z, sin_z, cos_z, zero, count)))
    if accepted is None:
        value = head if value is None else value
        converged, used = 0, count
    else:           # estimate k has lobes 0..k + 4
        converged, used = 1, accepted + _FIRST_ESTIMATE + 1
    err = 2.0 * change + head_err + 1e-15 * (abs(value) + 1.0)
    return value, err, converged, used
