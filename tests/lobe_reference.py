"""Scalar lobe-by-lobe reference for ``qorder._kernels.osc_tail``.

An independent second implementation of the same algorithm: one lobe at
a time, one Gauss-Legendre node at a time, and the Euler averaging
rerun over the last (at most 40) partial sums after every lobe.  The
engine evaluates whole blocks of lobes with numpy instead; the tests
compare the two.
"""

import math

import numpy as np


def _osc_integrand(t, a, q, mode):
    if mode == 0:
        return math.sin(t + q / t) / t
    if mode == 1:
        return math.sin(a * t) * math.cos(q / t) / t
    return math.cos(a * t) * math.sin(q / t) / t


def _lobe_boundary(k, a, q, mode):
    if mode == 0:
        kpi = k * math.pi
        disc = kpi * kpi - 4.0 * q
        if disc < 0.0:
            return -1.0
        return 0.5 * (kpi + math.sqrt(disc))
    if mode == 1:
        return k * math.pi / a
    return (k + 0.5) * math.pi / a


def _segment(lo, hi, a, q, mode, nodes, weights):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for i in range(nodes.shape[0]):
        t = mid + half * nodes[i]
        acc += weights[i] * _osc_integrand(t, a, q, mode)
    return acc * half


def _osc_tail(c, a, q, mode, nodes, weights, max_lobes, tol):
    """integral of the mode integrand over [c, inf).

    Returns (value, error_estimate, converged_flag, lobes_used).
    Head lobes (where the slow cos(q/t)/sin(q/t) factor still changes
    sign) are summed directly; beyond them the alternating lobe sums are
    accelerated with an iterated-averaging Euler transform.
    """
    # first lobe boundary at or beyond c
    k = 0
    while True:
        t = _lobe_boundary(k, a, q, mode)
        if t > c and t > 0.0:
            break
        k += 1
        if k > 10_000_000:
            return 0.0, 1.0, 0, 0
    total = 0.0
    if t > c:
        total += _segment(c, t, a, q, mode, nodes, weights)
    # direct summation while the slow factor may change sign
    slow_limit = 2.0 * q / math.pi if mode != 0 else 0.0
    prev = t
    while prev < slow_limit:
        k += 1
        t = _lobe_boundary(k, a, q, mode)
        total += _segment(prev, t, a, q, mode, nodes, weights)
        prev = t
    # a few safety lobes so the tail is cleanly alternating
    for _ in range(4):
        k += 1
        t = _lobe_boundary(k, a, q, mode)
        total += _segment(prev, t, a, q, mode, nodes, weights)
        prev = t
    # accelerated alternating tail
    partials = np.empty(max_lobes + 1, dtype=np.float64)
    work = np.empty(max_lobes + 1, dtype=np.float64)
    n = 0
    estimate = total
    err = 1e308
    lobes = 0
    while lobes < max_lobes:
        k += 1
        t = _lobe_boundary(k, a, q, mode)
        total += _segment(prev, t, a, q, mode, nodes, weights)
        prev = t
        partials[n] = total
        n += 1
        lobes += 1
        if n >= 6:
            m = min(n, 40)
            for i in range(m):
                work[i] = partials[n - m + i]
            width = m
            prev_est = work[width - 1]
            while width > 1:
                for i in range(width - 1):
                    work[i] = 0.5 * (work[i] + work[i + 1])
                width -= 1
                prev_est = work[0] if width == 1 else prev_est
            new_est = work[0]
            err = abs(new_est - estimate)
            estimate = new_est
            if err < tol:
                return estimate, err + 1e-15 * (abs(estimate) + 1.0), 1, lobes
    return estimate, err, 0, lobes


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def osc_tail(c, a, q, mode, max_lobes=2000, tol=1e-12):
    """Same arguments and result types as ``qorder._kernels.osc_tail``."""
    value, err, converged, lobes = _osc_tail(
        float(c), float(a), float(q), mode,
        _GL_NODES, _GL_WEIGHTS, int(max_lobes), float(tol))
    return float(value), float(err), int(converged), int(lobes)
