"""The block-evaluated lobe quadrature does not depend on its blocks,
hands out Python scalars, converges in few lobes, and reports error
bounds that hold against mpmath: the Mehler-Sonine half-line
integral_0^inf sin(z cosh t) dt = (pi/2) J_0(z) (DLMF 10.9.9)."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder._kernels import (_LEVIN, _NODE_COLUMN, _OMEGA_INDEX, _TOL,
                             _WEIGHT_COLUMN, _ZERO_INDEX, _head_fractions,
                             _levin_estimates, _levin_stop, _lobe_integrals,
                             osc_tail)

# z = 2 sqrt(q) over log-spaced q in [1e-6, 1e4], 12 points a decade
LOG_Z = tuple(2.0 * 10.0 ** (-3.0 + 5.0 * i / 60) for i in range(61))


def half_line_oracle(z):
    """The half-line integral from mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.pi / 2 * mpmath.besselj(0, z))


def _assert_bounded(z):
    value, err, converged, lobes = osc_tail(z)
    assert converged == 1, z
    miss = abs(value - half_line_oracle(z))
    assert miss <= err, (z, value, miss, err, lobes)
    assert err < 1e-10, (z, err)


def test_half_lines_within_their_bounds():
    for z in LOG_Z:
        _assert_bounded(z)


@settings(max_examples=40, deadline=None)
@given(st.floats(-6.0, 4.0))
def test_half_lines_within_their_bounds_drawn(log_q):
    _assert_bounded(2.0 * math.sqrt(10.0 ** log_q))


def test_huge_arguments_converge_within_a_block():
    """The lobes start at closed-form zeros whatever z is, so no head
    lobes pile up: z = 2e12 (x = 1e12 at E = hbar = 1) takes at most 30
    lobes."""
    value, err, converged, lobes = osc_tail(2e12)
    assert converged == 1 and lobes <= 30, lobes
    assert err < 1e-10
    # (pi/2) J_0(z) ~ sqrt(pi / (2 z)) cos(z - pi/4) for large z
    with mpmath.workdps(40):
        want = float(mpmath.pi / 2 * mpmath.besselj(0, mpmath.mpf(2e12)))
    assert abs(value - want) <= err


def test_lobe_count_stays_low():
    """The Levin u-transform accepts within 20 lobes over the whole log
    grid."""
    for z in LOG_Z:
        lobes = osc_tail(z)[3]
        assert lobes <= 20, (z, lobes)


def test_every_call_settles_within_its_block():
    """osc_tail sums one block of 24 lobes and never continues past it:
    over 2 000 seeded log-uniform z in [2e-6, 1e154], every call
    converges within that block, and a larger budget changes nothing."""
    rng = random.Random(13)
    most = 0
    for _ in range(2000):
        z = math.exp(rng.uniform(math.log(2e-6), math.log(1e154)))
        result = osc_tail(z)
        assert result[2] == 1 and result[3] <= 24, (z, result)
        assert osc_tail(z, max_lobes=2000) == result, z
        most = max(most, result[3])
    assert most <= 16, most


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


def _numpy_stop(estimates):
    """The stop rule of _levin_stop on numpy arrays, the reference."""
    with np.errstate(invalid="ignore"):     # inf - inf is NaN
        changes = np.abs(np.diff(np.array(estimates, dtype=float)))
    small = changes < _TOL
    hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    if hits.size:
        i = int(hits[0])
        return i + 3, float(changes[i:i + 3].max())
    return None, float(changes[-3:].max()) if changes.size >= 3 else math.inf


def test_levin_stop_matches_the_array_rule():
    """The plain-Python scan finds the same estimate and the same largest
    change as the same rule on arrays, NaN and infinities included, for
    every length from no estimate to a full block."""
    rng = random.Random(29)
    specials = (math.nan, math.inf, -math.inf, 0.0)
    for _ in range(4000):
        n = rng.randrange(21)
        value, estimates = rng.uniform(-1.0, 1.0), []
        for _ in range(n):
            value += rng.choice((1e-3, 1e-9, 1e-12, 5e-13, 1e-14, 0.0)) \
                * rng.uniform(-1.0, 1.0)
            estimates.append(rng.choice(specials) if rng.random() < 0.03
                             else value)
        got, want = _levin_stop(estimates), _numpy_stop(estimates)
        assert repr(got) == repr(want), (estimates, got, want)


def test_lobe_integrals_do_not_depend_on_the_blocks():
    """A lobe integrated alone or inside a block sums its nodes in the
    same order, so the two agree bit for bit."""
    rng = random.Random(11)
    for _ in range(2):
        z = rng.uniform(0.1, 50.0)
        edges = np.cumsum([rng.uniform(0.0, 0.5)] +
                          [rng.uniform(0.01, 0.3) for _ in range(40)])
        block = _lobe_integrals(edges[:-1], edges[1:], z)
        alone = [_lobe_integrals(edges[i:i + 1], edges[i + 1:i + 2], z)[0]
                 for i in range(40)]
        assert block.tolist() == alone, z


def test_osc_tail_returns_python_scalars():
    """Every budget gives Python scalars, also those with fewer than three
    changes of the Levin estimates: with no estimate (budgets 0 and 4) the
    value is the head alone, and with fewer than three changes the error
    is infinite and the call unconverged."""
    for z in (2.0, 1.5):
        for max_lobes in (0, 4, 5, 10, 24, 2000):
            result = osc_tail(z, max_lobes=max_lobes)
            assert [type(v) for v in result] == [float, float, int, int]
            assert result[3] <= max_lobes, (z, result)
        for max_lobes in (0, 4, 5):
            value, err, converged, lobes = osc_tail(z, max_lobes)
            assert (err, converged, lobes) == (math.inf, 0, max_lobes)
        assert osc_tail(z, 0)[0] == osc_tail(z, 4)[0]


def test_repeated_calls_share_no_state():
    """The arrays built at import and the head grids cached per panel
    count are shared by every call: a seeded sweep gives the same tuples
    again in reverse order with other arguments in between, and none of
    those arrays can be written to."""
    rng = random.Random(23)
    calls = [(math.exp(rng.uniform(math.log(1e-300), math.log(1e154))),
              rng.choice((0, 5, 10, 17, 24, 30)))
             for _ in range(300)]
    first = [osc_tail(*call) for call in calls]
    again = []
    for z, max_lobes in reversed(calls):
        osc_tail(rng.uniform(1e-6, 1e3), rng.randrange(25))
        again.append(osc_tail(z, max_lobes))
    assert again[::-1] == first
    shared = [_NODE_COLUMN, _WEIGHT_COLUMN, _LEVIN, _OMEGA_INDEX, _ZERO_INDEX,
              *_head_fractions(1), *_head_fractions(15)]
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
