"""The block-evaluated lobe quadrature does not depend on its blocks,
hands out Python scalars, converges in few lobes, and reports error
bounds that hold against mpmath: the Mehler-Sonine half-lines integral_0^inf sin(z cosh t) dt =
(pi/2) J_0(z) and integral_0^inf sin(z sinh t) dt = (pi/2) (I_0(z) -
L_0(z)) (DLMF 10.9.9 and 11.5.4 with nu = 0)."""

import math
import random

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder._kernels import _levin_estimates, _lobe_integrals, osc_tail

# z = 2 sqrt(q) over log-spaced q in [1e-6, 1e4], 12 points a decade
LOG_Z = tuple(2.0 * 10.0 ** (-3.0 + 5.0 * i / 60) for i in range(61))


def half_line_oracle(z, cosh):
    """The half-line integral from mpmath.  I_0 - L_0 cancels to about
    exp(-z) of its terms, hence the z extra digits."""
    with mpmath.workdps(30 + int(z)):
        if cosh:
            return float(mpmath.pi / 2 * mpmath.besselj(0, z))
        return float(mpmath.pi / 2 * (mpmath.besseli(0, z)
                                      - mpmath.struvel(0, z)))


def _assert_bounded(z, cosh):
    value, err, converged, lobes = osc_tail(z, cosh)
    assert converged == 1, (z, cosh)
    miss = abs(value - half_line_oracle(z, cosh))
    assert miss <= err, (z, cosh, value, miss, err, lobes)
    assert err < 1e-10, (z, cosh, err)


def test_half_lines_within_their_bounds():
    for cosh in (True, False):
        for z in LOG_Z:
            _assert_bounded(z, cosh)


@settings(max_examples=40, deadline=None)
@given(st.floats(-6.0, 4.0), st.booleans())
def test_half_lines_within_their_bounds_drawn(log_q, cosh):
    _assert_bounded(2.0 * math.sqrt(10.0 ** log_q), cosh)


def test_huge_arguments_converge_within_a_block():
    """The lobes start at closed-form zeros whatever z is, so no head
    lobes pile up: z = 2e12 (x = -1e12 or 1e12 at E = hbar = 1) takes at
    most 30 lobes in either family."""
    for cosh in (True, False):
        value, err, converged, lobes = osc_tail(2e12, cosh)
        assert converged == 1 and lobes <= 30, (cosh, lobes)
        assert err < 1e-10
    # (pi/2) J_0(z) ~ sqrt(pi / (2 z)) cos(z - pi/4) for large z
    with mpmath.workdps(40):
        want = float(mpmath.pi / 2 * mpmath.besselj(0, mpmath.mpf(2e12)))
    value, err, _, _ = osc_tail(2e12, True)
    assert abs(value - want) <= err


def test_lobe_count_stays_low():
    """The Levin u-transform accepts within 20 lobes over the whole log
    grid, in either family."""
    for cosh in (True, False):
        for z in LOG_Z:
            lobes = osc_tail(z, cosh)[3]
            assert lobes <= 20, (z, cosh, lobes)


def test_every_call_settles_within_its_block():
    """osc_tail sums one block of 24 lobes and never continues past it:
    over 2 000 seeded log-uniform z a family in [2e-6, 1e154], every call
    converges within that block, and a larger budget changes nothing."""
    rng = random.Random(13)
    most = {}
    for cosh in (True, False):
        for _ in range(2000):
            z = math.exp(rng.uniform(math.log(2e-6), math.log(1e154)))
            result = osc_tail(z, cosh)
            assert result[2] == 1 and result[3] <= 24, (z, cosh, result)
            assert osc_tail(z, cosh, max_lobes=2000) == result, (z, cosh)
            most[cosh] = max(most.get(cosh, 0), result[3])
    assert max(most.values()) <= 19, most


def test_abrupt_convergence_reports_a_tight_bound():
    """For the sinh family at large z the lobe sums settle within a few
    lobes; the reported error stays near the true one, not orders of
    magnitude above it."""
    value, err, converged, _ = osc_tail(2000.0, False)
    assert converged == 1 and err <= 1e-12
    assert abs(value - half_line_oracle(2000.0, False)) <= err


def _direct_levin(sums, terms, k):
    """The u-transform estimate from sums 0..k, formula by formula:
    sum_j (-1)^j C(k, j) (1 + j)^(k - 1) S_j / w_j over the same sum with
    1 / w_j, where w_j = (j + 1) a_j."""
    num = den = 0.0
    for j in range(k + 1):
        weight = (-1) ** j * math.comb(k, j) * (1.0 + j) ** (k - 1)
        omega = (j + 1) * terms[j]
        num += weight * sums[j] / omega
        den += weight / omega
    return num / den


def test_levin_estimates_match_the_formula():
    """The matrix form gives every estimate k = 4 .. n - 1 of the
    per-k formula, for a full block and for shorter ones."""
    rng = random.Random(7)
    terms = np.array([(-1) ** i * rng.uniform(0.5, 1.5) / math.sqrt(i + 1)
                      for i in range(24)])
    for n in (24, 13, 5, 4):
        sums = np.cumsum(terms[:n])
        got = _levin_estimates(sums, terms[:n])
        want = [_direct_levin(sums, terms, k) for k in range(4, n)]
        assert len(got) == len(want), n
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w), (n, g, w)


def test_levin_estimates_sum_ln2():
    """sum (-1)^k / (k + 1) = ln 2, a series whose partial sums are off
    by 1/(2n): the estimates reach 1e-14 within one block."""
    k = np.arange(24.0)
    terms = (-1.0) ** k / (k + 1.0)
    estimates = _levin_estimates(np.cumsum(terms), terms)
    assert np.min(np.abs(estimates - math.log(2.0))) <= 1e-14


def test_lobe_integrals_do_not_depend_on_the_blocks():
    """A lobe integrated alone or inside a block sums its nodes in the
    same order, so the two agree bit for bit."""
    rng = random.Random(11)
    for cosh in (True, False):
        z = rng.uniform(0.1, 50.0)
        edges = np.cumsum([rng.uniform(0.0, 0.5)] +
                          [rng.uniform(0.01, 0.3) for _ in range(40)])
        block = _lobe_integrals(edges[:-1], edges[1:], z, cosh)
        alone = [_lobe_integrals(edges[i:i + 1], edges[i + 1:i + 2], z,
                                 cosh)[0] for i in range(40)]
        assert block.tolist() == alone, cosh


def test_osc_tail_returns_python_scalars():
    for z, cosh in ((2.0, True), (1.5, False)):
        for max_lobes in (5, 2000):
            result = osc_tail(z, cosh, max_lobes=max_lobes)
            assert [type(v) for v in result] == [float, float, int, int]
