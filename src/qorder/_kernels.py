"""The oscillatory lobe kernel, the one numpy code in the package.

``osc_tail`` integrates sin(z cosh t) over t >= 0, the Mehler-Sonine
form of every oscillatory integral in :mod:`qorder.quadrature`.  The
head [0, first zero] is smooth and is summed on two panel counts, whose
difference is its error.  Beyond it the integral runs lobe by lobe
between the closed-form zeros of the phase, each lobe with one 24-point
Gauss-Legendre panel: the lobe-wise summation with extrapolation of
QUADPACK's QAWF (Piessens et al. 1983).  The head panels of both counts
and one block of at most 24 lobes are one (nodes x intervals) array, so
one numpy evaluation integrates them all.  The alternating lobe sums are
accelerated with Levin's u-transform (Levin, Int. J. Comput. Math. B3,
371 (1973); Fessler, Ford & Smith, ACM TOMS 9, 346 (1983)), with the
remainder estimate omega_k = (k + 1) a_k for lobe a_k.  Its coefficients
form a constant lower-triangular matrix built at import, so the
estimates after 5, 6, ... lobes are two matrix-vector products.
Everything else that does not depend on z is built at import too (the
Gauss-Legendre nodes and weights, the indices of the zeros and of the
remainder estimates), and the head grid of each panel count is cached on
first use; all of them are read-only.  A call makes one integrand
evaluation and one pair of Levin matrix-vector products, and scans the
at most 20 estimates for the stop in plain Python.  The transform
settles within the block for every z from 2e-6 to 1e154 (at most 16
lobes in tests/test_kernels.py); a call that does not is reported
unconverged, never continued.
``osc_tail`` returns Python ``float``/``int``.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] by Newton's
    method on the Legendre recurrence, the weights made symmetric and
    summing to 2 as in numpy's leggauss, whose module costs 1.6 MB."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        x = x - p1 * (x * x - 1.0) / (n * (x * p1 - p0))
    w = (1.0 - x * x) / (n * p0) ** 2
    w = w + w[::-1]
    return x, 2.0 * w / w.sum()


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)
_NODE_COLUMN = _GL_NODES[:, None]
_WEIGHT_COLUMN = _GL_WEIGHTS[:, None]

_BLOCK = 24            # lobes summed, at most
_FIRST_ESTIMATE = 4    # the first estimate uses lobes 0..4
_TOL = 1e-12           # accepted once three changes in a row are below it

# Levin u-transform coefficients (-1)^j C(k, j) ((1 + j) / (1 + k))^(k - 1)
# for k = 4 .. _BLOCK - 1; C(k, j) = 0 above the diagonal
_LEVIN = np.array([[(-1) ** j * math.comb(k, j) * ((1 + j)/(1 + k)) ** (k - 1)
                    for j in range(_BLOCK)]
                   for k in range(_FIRST_ESTIMATE, _BLOCK)])
_OMEGA_INDEX = np.arange(1.0, _BLOCK + 1.0)     # omega_k = (k + 1) a_k
_ZERO_INDEX = np.arange(1.0, _BLOCK + 2.0)      # zeros 1 .. _BLOCK + 1
for _array in (_NODE_COLUMN, _WEIGHT_COLUMN, _LEVIN, _OMEGA_INDEX,
               _ZERO_INDEX):
    _array.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _head_fractions(panels):
    """The head grid of a panel count as fractions of the first zero,
    arange(panels + 1) / panels and arange(2 panels + 1) / (2 panels),
    read-only.  The count is ceil(first zero), at most 693 for
    z >= 1e-300 and at most 15 for the q >= 1e-12 of
    :mod:`qorder.quadrature`, so the cache stays small."""
    coarse = np.arange(panels + 1) / panels
    fine = np.arange(2 * panels + 1) / (2 * panels)
    coarse.flags.writeable = fine.flags.writeable = False
    return coarse, fine


def _zeros(j, z):
    """Zero number j >= 1 of sin(z cosh t) on t > 0, for an array j.
    z cosh t = z + 2 z sinh(t/2)^2 and the zeros sit where the second
    term is j pi - (z mod pi), so no j pi close to a huge z is ever
    formed."""
    return 2.0 * np.arcsinh(np.sqrt(
        0.5 * (j * math.pi - math.fmod(z, math.pi)) / z))


def _lobe_integrals(lowers, uppers, z):
    """One Gauss-Legendre panel of sin(z cosh t) per interval
    [lowers[i], uppers[i]]; node sums run left to right."""
    mid = 0.5 * (lowers + uppers)
    half = 0.5 * (uppers - lowers)
    t = mid + half * _NODE_COLUMN
    # sin(z + phi) with phi = z (cosh t - 1) formed without rounding z
    s = np.sinh(0.5 * t)
    phi = z * (2.0 * s * s)
    f = math.sin(z) * np.cos(phi) + math.cos(z) * np.sin(phi)
    terms = _WEIGHT_COLUMN * f
    # over a single column numpy would sum pairwise; cumsum is sequential
    acc = terms.sum(axis=0) if terms.shape[1] > 1 else np.cumsum(terms)[-1:]
    return acc * half


def _levin_estimates(sums, lobes):
    """Levin u-transform estimates k = 4, 5, ... of the limit of the
    partial sums sums[k] = sums[k - 1] + lobes[k], at most _BLOCK of them,
    with the remainder estimates omega_k = (k + 1) lobes[k]."""
    n = lobes.size
    c = _LEVIN[:max(n - _FIRST_ESTIMATE, 0), :n]
    omega = _OMEGA_INDEX[:n] * lobes
    return (c @ (sums / omega)) / (c @ (1.0 / omega))


def _levin_stop(estimates):
    """(k, largest change) for the first estimate k, of a list of Levin
    estimates, whose last three changes are all below _TOL.  Without
    one, (None, largest of the last three changes): infinite with fewer
    than three changes, and NaN where one of them is NaN."""
    changes = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    run = 0
    for i, change in enumerate(changes):
        run = run + 1 if change < _TOL else 0
        if run == 3:
            return i + 1, max(changes[i - 2:i + 1])
    last = changes[-3:]
    if len(last) < 3:
        return None, math.inf
    if any(map(math.isnan, last)):
        return None, math.nan
    return None, max(last)


def osc_tail(z, max_lobes=_BLOCK):
    """integral over [0, inf) of sin(z cosh t), for finite z >= 1e-300.

    Returns (value, error_estimate, converged_flag, lobes_used) as
    (float, float, int, int).  The head [0, first zero] is summed on
    ceil(first zero) panels and on twice as many, in the same numpy
    evaluation as one block of min(_BLOCK, max_lobes) lobes; the
    difference of the two head sums is its error.  The block is
    accelerated with the Levin u-transform, and the first estimate
    whose last three changes are all below _TOL is accepted; its error
    is twice the largest of them, plus the head error, plus
    1e-15 (|value| + 1).  Otherwise the last estimate is returned
    unconverged, with the lobes of the block as its count.
    """
    z = float(z)
    zeros = _zeros(
        _ZERO_INDEX[:min(_BLOCK, max(int(max_lobes), 0)) + 1], z)
    end = float(zeros[0])
    panels = max(math.ceil(end), 1)
    coarse_fractions, fine_fractions = _head_fractions(panels)
    coarse = end * coarse_fractions
    fine = end * fine_fractions
    values = _lobe_integrals(
        np.concatenate((coarse[:-1], fine[:-1], zeros[:-1])),
        np.concatenate((coarse[1:], fine[1:], zeros[1:])), z)
    head = float(values[panels:3 * panels].sum())
    head_err = abs(head - float(values[:panels].sum()))
    lobes = values[3 * panels:]

    estimates = _levin_estimates(head + np.cumsum(lobes), lobes).tolist()
    accepted, change = _levin_stop(estimates)
    if accepted is None:
        value = estimates[-1] if estimates else head
        converged, used = 0, lobes.size
    else:           # estimate k has lobes 0..k + 4
        value, converged, used = estimates[accepted], 1, accepted + 5
    err = 2.0 * change + head_err + 1e-15 * (abs(value) + 1.0)
    return value, err, converged, used
