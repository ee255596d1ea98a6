"""Hot numeric kernels: compensated Bessel series and oscillatory lobes.

Everything here is plain Python over floats, except the lobe quadrature,
which is numpy code that evaluates its whole block of lobes at once.

The Bessel power series is accumulated in double-double arithmetic
(error-free transforms, Dekker splitting) so that the reported absolute
error bound stays below 1e-10 through the series/asymptotic switch at
z = 30 despite the alternating-term cancellation.

``osc_tail`` integrates sin(z cosh t) or sin(z sinh t) over t >= 0, the
Mehler-Sonine form of every oscillatory integral in
:mod:`qorder.quadrature`.  The head [0, first zero] is smooth and is
summed on two panel counts, whose difference is its error.  Beyond it
the integral runs lobe by lobe between the closed-form zeros of the
phase, each lobe with one 24-point Gauss-Legendre panel: the lobe-wise
summation with extrapolation of QUADPACK's QAWF (Piessens et al. 1983).
The head panels of both counts and one block of at most 24 lobes are
one (nodes x intervals) array, so one numpy evaluation integrates them
all.  The alternating lobe sums are accelerated with Levin's u-transform
(Levin, Int. J. Comput. Math. B3, 371 (1973); Fessler, Ford & Smith,
ACM TOMS 9, 346 (1983)), with the remainder estimate omega_k = (k + 1)
a_k for lobe a_k.  Its coefficients form a constant lower-triangular
matrix built at import, so the estimates after 5, 6, ... lobes are two
matrix-vector products.  The transform settles within the block for
every z from 2e-6 to 1e154 (at most 19 lobes in tests/test_kernels.py);
a call that does not is reported unconverged, never continued.
``osc_tail`` returns Python ``float``/``int``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# double-double building blocks
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


# ---------------------------------------------------------------------------
# Bessel J: power series (z <= 30) and Hankel asymptotics (z > 30)
# ---------------------------------------------------------------------------

def _j_series(nu, z):
    """(value, rigorous abs error bound) for nu > -1 with Gamma(nu + 1)
    finite; the value also for any other non-integer nu."""
    x = 0.5 * z
    s, e = _two_sum(nu, 1.0)  # nu + 1 = s + e exactly
    t0 = x ** nu / math.gamma(s)
    sh, sl = t0, 0.0
    th, tl = t0, 0.0
    x2h, x2l = _two_prod(x, x)
    # The loop's double-double steps are written out, as two-sums and
    # Dekker products (_two_sum, _two_prod) with the operations in
    # order, the zero low parts included; -x2h is split once.
    mh, ml = -x2h, -x2l
    t = _SPLIT * mh
    mhh = t - (t - mh)
    mhl = mh - mhh
    max_term = abs(t0)
    trunc = abs(t0)
    k = 0
    while k < 2000:
        k1 = k + 1.0
        # (dh, dl) = (k + 1 + nu) * (k + 1)
        a = k1 + nu
        bb = a - k1
        al = (k1 - (a - bb)) + (nu - bb)
        p = a * k1
        t = _SPLIT * a
        ah = t - (t - a)
        alo = a - ah
        t = _SPLIT * k1
        bh = t - (t - k1)
        blo = k1 - bh
        err = ((ah * bh - p) + ah * blo + alo * bh) + alo * blo
        err += a * 0.0 + al * k1
        dh = p + err
        dl = err - (dh - p)
        # (th, tl) = (th, tl) * (-x2h, -x2l)
        p = th * mh
        t = _SPLIT * th
        ah = t - (t - th)
        alo = th - ah
        err = ((ah * mhh - p) + ah * mhl + alo * mhh) + alo * mhl
        err += th * ml + tl * mh
        th = p + err
        tl = err - (th - p)
        # (th, tl) = (th, tl) / (dh, dl): q1 = th / dh, (ph, pl) =
        # q1 * (dh, dl), (rh, rl) = (th, tl) - (ph, pl), q2 = r / dh
        q1 = th / dh
        p = q1 * dh
        t = _SPLIT * q1
        ah = t - (t - q1)
        alo = q1 - ah
        t = _SPLIT * dh
        bh = t - (t - dh)
        blo = dh - bh
        err = ((ah * bh - p) + ah * blo + alo * bh) + alo * blo
        err += q1 * dl + 0.0 * dh
        ph = p + err
        pl = err - (ph - p)
        rs = th - ph
        bb = rs - th
        err = (th - (rs - bb)) + (-ph - bb)
        err += tl - pl
        rh = rs + err
        rl = err - (rh - rs)
        q2 = (rh + rl) / dh
        th = q1 + q2
        tl = q2 - (th - q1)
        # (sh, sl) = (sh, sl) + (th, tl)
        ss = sh + th
        bb = ss - sh
        err = (sh - (ss - bb)) + (th - bb)
        err += sl + tl
        sh = ss + err
        sl = err - (sh - ss)
        if abs(sh) > max_term:
            max_term = abs(sh)
        if abs(th) > max_term:
            max_term = abs(th)
        trunc = abs(th)
        k += 1
        if k > x and trunc < 1e-17 * (abs(sh) + 1e-300) and trunc < 1e-25:
            break
    value = sh + sl
    # truncation (geometric tail, ratio < 1/2 once k > x), double-double
    # rounding, and the relative error of t0: float pow, math.gamma and
    # the division (5e-15), plus Gamma(s + e) / Gamma(s) - 1 ~ psi(s) e
    # for the argument s that nu + 1 rounds to, where
    # |psi(s)| < |ln s| + 1 / s for s > 0
    rel = 5e-15 + ((abs(math.log(s)) + 1.0 / s) * abs(e) if e else 0.0)
    bound = 2.0 * trunc + k * 1e-31 * max_term + rel * abs(value) + 1e-300
    return value, bound


def _j_asymptotic(nu, z):
    """Hankel expansion for large z: (value, abs error bound)."""
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    sign = 1.0
    last = abs(term)
    bound_term = 0.0
    k = 0
    while k < 60:
        term = term * (mu - (2.0 * k + 1.0) ** 2) / (8.0 * z * (k + 1.0))
        k += 1
        if abs(term) >= last and k > 2:
            bound_term = abs(term)
            break
        last = abs(term)
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
        if abs(term) < 1e-18:
            bound_term = abs(term)
            break
        bound_term = abs(term)
    omega = z - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    value = amp * (p * math.cos(omega) - q * math.sin(omega))
    bound = amp * (bound_term + (abs(z) + abs(nu) + 1.0) * 4e-16) + 1e-300
    return value, bound


# ---------------------------------------------------------------------------
# Mehler-Sonine half-line integrals
# ---------------------------------------------------------------------------

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


def _zeros(j, z, cosh):
    """Zero number j >= 1 of sin(z g(t)) on t > 0, for a scalar or an
    array j.  For cosh, z cosh t = z + 2 z sinh(t/2)^2 and the zeros sit
    where the second term is j pi - (z mod pi), so no j pi close to a
    huge z is ever formed."""
    if cosh:
        return 2.0 * np.arcsinh(np.sqrt(
            0.5 * (j * math.pi - math.fmod(z, math.pi)) / z))
    return np.arcsinh(j * math.pi / z)


def _lobe_integrals(lowers, uppers, z, cosh):
    """One Gauss-Legendre panel per interval [lowers[i], uppers[i]];
    node sums run left to right."""
    mid = 0.5 * (lowers + uppers)
    half = 0.5 * (uppers - lowers)
    t = mid + half * _NODE_COLUMN
    if cosh:
        # sin(z + phi) with phi = z (cosh t - 1) formed without rounding z
        s = np.sinh(0.5 * t)
        phi = z * (2.0 * s * s)
        f = math.sin(z) * np.cos(phi) + math.cos(z) * np.sin(phi)
    else:
        f = np.sin(z * np.sinh(t))
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
    omega = np.arange(1.0, n + 1.0) * lobes
    return (c @ (sums / omega)) / (c @ (1.0 / omega))


def osc_tail(z, cosh, max_lobes=_BLOCK):
    """integral over [0, inf) of sin(z cosh t) (cosh true) or of
    sin(z sinh t) (cosh false), for finite z >= 1e-300.

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
    zeros = _zeros(np.arange(1.0, min(_BLOCK, max(int(max_lobes), 0)) + 2.0),
                   z, cosh)
    end = float(zeros[0])
    panels = max(math.ceil(end), 1)
    coarse = end * (np.arange(panels + 1) / panels)
    fine = end * (np.arange(2 * panels + 1) / (2 * panels))
    values = _lobe_integrals(
        np.concatenate((coarse[:-1], fine[:-1], zeros[:-1])),
        np.concatenate((coarse[1:], fine[1:], zeros[1:])), z, cosh)
    head = float(values[panels:3 * panels].sum())
    head_err = abs(head - float(values[:panels].sum()))
    lobes = values[3 * panels:]

    estimates = _levin_estimates(head + np.cumsum(lobes), lobes)
    changes = np.abs(np.diff(estimates))
    small = changes < _TOL
    hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    if hits.size:
        i = int(hits[0])         # estimate i + 3 has lobes 0..i + 7
        value = float(estimates[i + 3])
        err = 2.0 * float(changes[i:i + 3].max()) + head_err
        return value, err + 1e-15 * (abs(value) + 1.0), 1, i + 8
    value = float(estimates[-1]) if estimates.size else head
    err = 2.0 * float(changes[-3:].max()) if changes.size >= 3 else math.inf
    return value, err + head_err + 1e-15 * (abs(value) + 1.0), 0, lobes.size
