"""The plain-Python lobe quadrature hands out Python scalars, converges in
few lobes, sums each lobe in the phase variable as a lobe in t would,
and reports error bounds that hold against mpmath: the Mehler-Sonine
half-line integral_0^inf sin(z cosh t) dt = (pi/2) J_0(z) (DLMF 10.9.9)."""

import math
import random

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder._kernels import (_CHECK_RULE, _HEAD_RULE, _LEVIN, _LOBE_RULE,
                             _TOL, _gauss_legendre, _head, _levin_estimates,
                             _levin_stop, _lobes, osc_tail)

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
    """osc_tail sums at most 24 lobes and never continues past them:
    over 2 000 seeded log-uniform z in [2e-6, 1e154], every call
    converges within 16 lobes, and a larger budget changes nothing."""
    rng = random.Random(13)
    most = 0
    for _ in range(2000):
        z = math.exp(rng.uniform(math.log(2e-6), math.log(1e154)))
        result = osc_tail(z)
        assert result[2] == 1 and result[3] <= 24, (z, result)
        assert osc_tail(z, max_lobes=2000) == result, z
        most = max(most, result[3])
    assert most <= 16, most


def test_gauss_legendre_rules_are_exact():
    """An n-point rule integrates x^k over [-1, 1] for every k < 2n, and
    the rules built from it keep that on [0, 1] and on the half-period
    [0, pi]: the lobe rule's cosine and sine weights sum to the integrals
    of cos and sin there, 0 and 2."""
    for n in (10, 12, 16, 24):
        nodes, weights = _gauss_legendre(n)
        assert nodes == sorted(nodes) and len(set(nodes)) == n
        for k in range(2 * n):
            got = math.fsum(w * x ** k for x, w in zip(nodes, weights))
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(got - want) <= 1e-14, (n, k, got)
    for rule in (_HEAD_RULE, _CHECK_RULE):
        for k in range(2 * len(rule)):
            got = math.fsum(w * u ** k for u, w in rule)
            assert abs(got - 1.0 / (k + 1)) <= 4e-15, (len(rule), k)
    assert abs(math.fsum(wc for _, wc, _ in _LOBE_RULE)) <= 4e-15
    assert abs(math.fsum(ws for _, _, ws in _LOBE_RULE) - 2.0) <= 4e-15


def test_gauss_legendre_weights_match_mpmath():
    """The weights of the kernel's rules agree with 40-digit ones from
    mpmath's Legendre polynomials to 5e-15 relative, also next to the
    ends, where 1 - x^2 is small."""
    for n in (10, 12, 16):
        nodes, weights = _gauss_legendre(n)
        with mpmath.workdps(40):
            for x, w in zip(nodes, weights):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), x)
                slope = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
                want = 2 / ((1 - root ** 2) * slope ** 2)
                assert abs(w / want - 1) <= 5e-15, (n, x, w)


def test_head_within_its_error():
    """The head's reported error, the difference of its 16- and 12-point
    sums, bounds its miss against mpmath wherever it stands above the
    rounding (which the 1e-15 (|value| + 1) of osc_tail covers): at more
    than 5 of 30 seeded z in [1, 1e6]."""
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        z = math.exp(rng.uniform(0.0, math.log(1e6)))
        zero = 2.0 * math.pi - math.fmod(z, math.pi)
        end = 2.0 * math.asinh(math.sqrt(0.5 * zero / z))
        value, err = _head(z, math.sin(z), math.cos(z), end)
        if err < 1e-14:
            continue
        with mpmath.workdps(30):
            want = mpmath.quad(lambda t: mpmath.sin(z * mpmath.cosh(t)),
                               [0, end / 2, end])
        assert abs(value - float(want)) <= err, (z, value, err)
        checked += 1
    assert checked > 5, checked


_T_RULE = _gauss_legendre(24)


def _t_lobe(z, lower, upper):
    """The lobe of sin(z cosh t) between the phases lower and upper, by a
    24-point Gauss-Legendre panel in t = 2 asinh(sqrt(phi / (2 z))), with
    sin(z + phi) formed from sin z and cos z."""
    t0, t1 = (2.0 * math.asinh(math.sqrt(0.5 * phi / z))
              for phi in (lower, upper))
    total = 0.0
    for x, w in zip(*_T_RULE):
        s = math.sinh(0.5 * (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x))
        phi = z * (2.0 * s * s)
        total += w * (math.sin(z) * math.cos(phi)
                      + math.cos(z) * math.sin(phi))
    return 0.5 * (t1 - t0) * total


def test_phi_lobes_match_t_lobes():
    """Each of the 24 lobes in phi of 40 seeded z in [2e-6, 1e6] agrees
    with the same lobe summed in t, to 2e-14 of the first lobe, and the
    lobes alternate in sign."""
    rng = random.Random(11)
    for _ in range(40):
        z = math.exp(rng.uniform(math.log(2e-6), math.log(1e6)))
        zero = 2.0 * math.pi - math.fmod(z, math.pi)
        lobes = list(_lobes(z, math.sin(z), math.cos(z), zero, 24))
        assert len(lobes) == 24
        for j, lobe in enumerate(lobes):
            lower = zero + j * math.pi
            want = _t_lobe(z, lower, lower + math.pi)
            assert abs(lobe - want) <= 2e-14 * abs(lobes[0]), (z, j, lobe)
            assert (-1) ** j * lobe * lobes[0] > 0, (z, j)


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
    """The coefficient rows give every estimate k = 4 .. n - 1 of the
    per-k formula, for a full budget and for shorter ones, from any
    start."""
    assert [len(row) for row in _LEVIN] == list(range(5, 25))
    rng = random.Random(7)
    terms = [(-1) ** i * rng.uniform(0.5, 1.5) / math.sqrt(i + 1)
             for i in range(24)]
    for start in (0.0, 0.75):
        sums = [start + math.fsum(terms[:i + 1]) for i in range(24)]
        for n in (24, 13, 5, 4):
            got = list(_levin_estimates(start, iter(terms[:n])))
            want = [_direct_levin(sums, terms, k) for k in range(4, n)]
            assert len(got) == len(want), n
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * abs(w), (n, g, w)


def test_levin_estimates_sum_ln2():
    """sum (-1)^k / (k + 1) = ln 2, a series whose partial sums are off
    by 1/(2n): the estimates reach 1e-14 within 24 terms."""
    terms = [(-1.0) ** k / (k + 1.0) for k in range(24)]
    estimates = list(_levin_estimates(0.0, terms))
    assert min(abs(e - math.log(2.0)) for e in estimates) <= 1e-14


def _list_stop(estimates):
    """The stop rule of _levin_stop read off the whole list, the
    reference: the first three changes in a row below _TOL, else the
    largest of the last three (inf with fewer, NaN with a NaN among
    them)."""
    changes = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    for i in range(len(changes) - 2):
        if all(c < _TOL for c in changes[i:i + 3]):
            return i + 3, estimates[i + 3], max(changes[i:i + 3])
    last = estimates[-1] if estimates else None
    if len(changes) < 3:
        return None, last, math.inf
    tail = changes[-3:]
    return None, last, math.nan if any(c != c for c in tail) else max(tail)


def test_levin_stop_matches_the_array_rule():
    """The one-at-a-time scan finds the same estimate and the same largest
    change as the same rule read off the whole list, NaN and infinities
    included, for every length from no estimate to a full budget, and
    reads no estimate past the one it accepts."""
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
        it = iter(estimates)
        got, want = _levin_stop(it), _list_stop(estimates)
        assert repr(got) == repr(want), (estimates, got, want)
        read = n if got[0] is None else got[0] + 1
        assert list(it) == estimates[read:]


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
    """The rules and coefficient rows built at import are shared by every
    call and are tuples, so no call can change them: a seeded sweep gives
    the same tuples again in reverse order with other arguments in
    between."""
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
    for shared in (_HEAD_RULE, _CHECK_RULE, _LOBE_RULE, _LEVIN):
        assert type(shared) is tuple
        assert all(type(row) is tuple for row in shared)
