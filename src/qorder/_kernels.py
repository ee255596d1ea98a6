"""Hot numeric kernels: compensated Bessel series and oscillatory lobes.

Everything here is plain Python over floats, except the lobe quadrature,
which is numpy code that evaluates whole blocks of lobes at once.

The Bessel power series is accumulated in double-double arithmetic
(error-free transforms, Dekker splitting) so that the reported absolute
error bound stays below 1e-10 through the series/asymptotic switch at
z = 30 despite the alternating-term cancellation.

``osc_tail`` integrates sin(z cosh t) or sin(z sinh t) over t >= 0, the
Mehler-Sonine form of every oscillatory integral in
:mod:`qorder.quadrature`.  The head [0, first zero] is smooth and is
summed on two panel counts, whose difference is its error.  Beyond it
the integral runs lobe by lobe between the closed-form zeros of the
phase, each lobe with one 24-point Gauss-Legendre panel, and the
alternating lobe sums are accelerated with an iterated-averaging Euler
transform: the lobe-wise summation with extrapolation of QUADPACK's QAWF
(Piessens et al. 1983), with the averaging of Sidi, *Practical
Extrapolation Methods* (2003).  A block of lobes is one (nodes x lobes)
array: a few numpy calls for the integrand, a reduction over the node
axis, ``np.cumsum`` for the partial sums and the averaging applied to
the whole partial-sum array.  Every sum keeps the left-to-right order of
a lobe-at-a-time loop, so the results do not depend on the block sizes.
``osc_tail`` returns Python ``float``/``int``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# double-double building blocks
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    al = a - ah
    t = 134217729.0 * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e += xl + yl
    hi = s + e
    return hi, e - (hi - s)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    hi = p + e
    return hi, e - (hi - p)


def _dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    ph, pl = _dd_mul(q1, 0.0, yh, yl)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    q2 = (rh + rl) / yh
    hi = q1 + q2
    return hi, q2 - (hi - q1)


# ---------------------------------------------------------------------------
# gamma function (Lanczos, g = 7, 9 coefficients)
# ---------------------------------------------------------------------------

_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _gamma_pos(x):
    # Lanczos approximation, valid for x >= 0.5
    x -= 1.0
    acc = _LANCZOS[0]
    for k in range(1, 9):
        acc += _LANCZOS[k] / (x + k)
    t = x + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def _gamma(x):
    if x >= 0.5:
        return _gamma_pos(x)
    # reflection; sin(pi x) via exact integer folding so that relative
    # accuracy survives near the zero crossings (x near an integer)
    n = math.floor(x + 0.5)
    r = x - n  # exact; |r| <= 0.5
    s = math.sin(math.pi * r)
    if n % 2 != 0:
        s = -s
    if s == 0.0:
        return math.inf  # pole at a nonpositive integer
    return math.pi / (s * _gamma_pos(1.0 - x))


# ---------------------------------------------------------------------------
# Bessel J: power series (z <= 30) and Hankel asymptotics (z > 30)
# ---------------------------------------------------------------------------

def _j_series(nu, z):
    """(value, rigorous abs error bound); requires k + nu + 1 > 0 for all k."""
    x = 0.5 * z
    g = _gamma(nu + 1.0)
    if g == math.inf:
        return 0.0, 0.0
    t0 = x ** nu / g
    sh, sl = t0, 0.0
    th, tl = t0, 0.0
    x2h, x2l = _two_prod(x, x)
    max_term = abs(t0)
    trunc = abs(t0)
    k = 0
    while k < 2000:
        dh, dl = _two_sum(k + 1.0, nu)  # k + 1 + nu
        dh, dl = _dd_mul(dh, dl, k + 1.0, 0.0)
        th, tl = _dd_mul(th, tl, -x2h, -x2l)
        th, tl = _dd_div(th, tl, dh, dl)
        sh, sl = _dd_add(sh, sl, th, tl)
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
    # rounding, and the relative error of t0 (float pow + Lanczos gamma)
    bound = 2.0 * trunc + k * 1e-31 * max_term + 5e-15 * abs(value) + 1e-300
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_NODE_COLUMN = _GL_NODES[:, None]
_WEIGHT_COLUMN = _GL_WEIGHTS[:, None]

_FIRST_BLOCK = 32      # lobes in the first block
_MAX_BLOCK = 1024      # lobes in any block
_EULER_WINDOW = 40     # partial sums averaged for one estimate


def _zeros(j, z, cosh):
    """Zero number j >= 1 of sin(z g(t)) on t > 0, for a scalar or an
    array j.  For cosh, z cosh t = z + 2 z sinh(t/2)^2 and the zeros sit
    where the second term is j pi - (z mod pi), so no j pi close to a
    huge z is ever formed."""
    if cosh:
        return 2.0 * np.arcsinh(np.sqrt(
            0.5 * (j * math.pi - math.fmod(z, math.pi)) / z))
    return np.arcsinh(j * math.pi / z)


def _lobe_integrals(lo, uppers, z, cosh):
    """One Gauss-Legendre panel per lobe, over [lo, uppers[0]],
    [uppers[0], uppers[1]], ...; node sums run left to right."""
    edges = np.concatenate(((lo,), uppers))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
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


def _head(z, cosh):
    """Integral over [0, first zero], where the integrand is smooth, on
    ceil(first zero) equal panels and on twice as many: (the first zero,
    the finer sum, the difference of the two sums)."""
    end = float(_zeros(1, z, cosh))
    panels = max(math.ceil(end), 1)
    coarse, fine = (
        _lobe_integrals(0.0, np.linspace(0.0, end, n + 1)[1:], z, cosh).sum()
        for n in (panels, 2 * panels))
    return end, float(fine), abs(float(fine - coarse))


def _euler_estimates(history, partials, done):
    """Iterated-averaging estimates after the partial sums done + 1,
    done + 2, ... (one per entry of partials), given the last (at most
    _EULER_WINDOW - 1) sums before them in history.  The estimate after n
    sums averages the last min(n, _EULER_WINDOW) of them pairwise
    min(n, _EULER_WINDOW) - 1 times; here w <- (w[:-1] + w[1:]) / 2 runs
    on the whole array, which does the same additions.  Returns the
    estimates and the history for the next call."""
    sums = np.concatenate((history, partials))
    first = done - history.size      # sums[i] is partial sum first + i + 1
    last = done + partials.size
    levels = min(last, _EULER_WINDOW) - 1
    estimates = np.empty(partials.size)
    w = sums
    for level in range(levels + 1):
        n = level + 1                # the window of sum n starts at sum 1
        if done < n < _EULER_WINDOW:
            estimates[n - done - 1] = w[0]
        if level < levels:
            w = 0.5 * (w[:-1] + w[1:])
    if last >= _EULER_WINDOW:
        n = max(done + 1, _EULER_WINDOW)
        start = n - _EULER_WINDOW - first
        estimates[n - done - 1:] = w[start:start + last - n + 1]
    return estimates, sums[1 - _EULER_WINDOW:]


def osc_tail(z, cosh, max_lobes=2000, tol=1e-12):
    """integral over [0, inf) of sin(z cosh t) (cosh true) or of
    sin(z sinh t) (cosh false), for finite z >= 1e-300.

    Returns (value, error_estimate, converged_flag, lobes_used) as
    (float, float, int, int).  The head [0, first zero] is summed on two
    panel counts; beyond it up to max_lobes alternating lobes are summed
    and accelerated with the Euler transform.  The first estimate from
    lobe 6 on whose last two changes are both below tol is accepted; its
    error is twice the largest of the last three changes, plus the head
    error, plus 1e-15 (|value| + 1).
    """
    z, tol = float(z), float(tol)
    max_lobes = max(int(max_lobes), 0)
    lo, total, head_err = _head(z, cosh)

    value = total
    last = math.inf                  # the estimate before the block
    changes = np.full(2, math.inf)   # the last two changes before it
    history = np.empty(0)
    done = 0                         # tail lobes so far
    size = _FIRST_BLOCK
    while done < max_lobes:
        count = min(size, max_lobes - done)
        j = np.arange(done + 2, done + 2 + count, dtype=np.float64)
        uppers = _zeros(j, z, cosh)
        partials = np.cumsum(np.concatenate(
            ((total,), _lobe_integrals(lo, uppers, z, cosh))))[1:]
        total, lo = partials[-1], uppers[-1]
        estimates, history = _euler_estimates(history, partials, done)
        changes = np.concatenate((
            changes[-2:], np.abs(np.diff(estimates, prepend=last))))
        n = np.arange(done + 1, done + count + 1)
        hits = np.flatnonzero((n >= 6) & (changes[1:-1] < tol)
                              & (changes[2:] < tol))
        if hits.size:
            i = hits[0]
            value = float(estimates[i])
            err = 2.0 * float(changes[i:i + 3].max()) + head_err
            return (value, err + 1e-15 * (abs(value) + 1.0), 1,
                    int(done + i + 1))
        value = last = float(estimates[-1])
        done += count
        size = min(2 * size, _MAX_BLOCK)
    err = 2.0 * float(changes[-3:].max()) + head_err
    return float(value), err + 1e-15 * (abs(value) + 1.0), 0, max_lobes
