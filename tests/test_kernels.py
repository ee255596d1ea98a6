"""The block-evaluated lobe quadrature agrees with the scalar
lobe-at-a-time reference in ``lobe_reference`` and hands out Python
scalars."""

import math
import random

import numpy as np

import lobe_reference
from qorder._kernels import _euler_estimates, _lobe_integrals, osc_tail


def _tail_calls(rng, count):
    """(c, a, q, mode, max_lobes) as sin_phase_integral and
    sin_cos_integral make them, for q log-spaced over [0.1, 100]."""
    calls = []
    for i in range(count):
        q = 10.0 ** (-1.0 + 3.0 * i / (count - 1))
        a = 10.0 ** rng.uniform(-2.0, math.log10(200.0))
        b = q / a
        mode = rng.randrange(3)
        max_lobes = rng.choice((5, 10, 2000, 2000))
        if mode == 0:
            calls.append((math.sqrt(q), 1.0, q, 0, max_lobes))
        elif rng.random() < 0.5:
            calls.append((math.sqrt(b / a), a, b, mode, max_lobes))  # split
        else:
            calls.append((math.sqrt(q), 1.0, q, mode, max_lobes))
    return calls


def _assert_same(got, want, label):
    value, err, converged, lobes = got
    assert (converged, lobes) == want[2:], (label, got, want)
    assert math.isclose(value, want[0], rel_tol=1e-15, abs_tol=0.0), \
        (label, got, want)
    assert math.isclose(err, want[1], rel_tol=1e-15, abs_tol=0.0), \
        (label, got, want)


def test_block_quadrature_matches_scalar_reference():
    calls = _tail_calls(random.Random(20240607), 2100)
    outcomes = set()
    for c, a, q, mode, max_lobes in calls:
        want = lobe_reference.osc_tail(c, a, q, mode, max_lobes=max_lobes)
        got = osc_tail(c, a, q, mode, max_lobes=max_lobes)
        _assert_same(got, want, (c, a, q, mode, max_lobes))
        outcomes.add((mode, want[2]))
    # every mode both converges and runs out of lobes somewhere
    assert outcomes == {(m, ok) for m in range(3) for ok in (0, 1)}


def test_block_quadrature_matches_reference_across_blocks():
    """tol=0 never converges, so the tail runs through several doubling
    blocks and past the 40-sum averaging window, and max_lobes=33 leaves
    a last block of one lobe; q = 2e4 puts more head lobes below 2q/pi
    than one block holds."""
    calls = [(1.0, 1.0, 1.0, 0, 300), (0.3, 5.0, 0.7, 1, 170),
             (0.9, 2.0, 0.5, 2, 33),
             (10.0, 1.0, 100.0, 2, 77), (math.sqrt(2e4), 1.0, 2e4, 1, 2000),
             (3.0, 0.5, 2e4, 2, 2000)]
    for c, a, q, mode, max_lobes in calls:
        tol = 0.0 if max_lobes < 2000 else 1e-12
        want = lobe_reference.osc_tail(c, a, q, mode, max_lobes, tol)
        got = osc_tail(c, a, q, mode, max_lobes, tol)
        _assert_same(got, want, (c, a, q, mode, max_lobes))


def _window_average(partials, n):
    """The estimate after n sums, one window at a time."""
    work = list(partials[max(0, n - 40):n])
    while len(work) > 1:
        work = [0.5 * (x + y) for x, y in zip(work, work[1:])]
    return work[0]


def test_euler_estimates_do_not_depend_on_the_blocks():
    """Fed in blocks of any size, the whole-array averaging gives every
    estimate bit for bit as the window-at-a-time loop does."""
    rng = random.Random(7)
    partials = np.cumsum([(-1) ** i * rng.uniform(0.5, 1.5) / (i + 1)
                          for i in range(260)])
    for sizes in ((1,) * 90, (32, 64, 128, 36), (5, 3, 41, 1, 39, 2, 170)):
        history, done, got = np.empty(0), 0, []
        for size in sizes:
            block = partials[done:done + size]
            estimates, history = _euler_estimates(history, block, done)
            got.extend(estimates.tolist())
            done += block.size
        want = [_window_average(partials, n) for n in range(1, done + 1)]
        assert got == want, sizes


def test_lobe_integrals_do_not_depend_on_the_blocks():
    """A lobe integrated alone or inside a block sums its nodes in the
    same order, so the two agree bit for bit."""
    rng = random.Random(11)
    for mode in range(3):
        a, q = rng.uniform(0.5, 3.0), rng.uniform(0.1, 50.0)
        edges = np.cumsum([rng.uniform(3.0, 5.0)] +
                          [rng.uniform(0.2, 2.0) for _ in range(40)])
        block = _lobe_integrals(edges[0], edges[1:], a, q, mode)
        alone = [_lobe_integrals(edges[i], edges[i + 1:i + 2], a, q, mode)[0]
                 for i in range(40)]
        assert block.tolist() == alone, mode


def test_osc_tail_returns_python_scalars():
    for c, a, q, mode in ((1.0, 1.0, 1.0, 0), (1.5, 2.0, 0.75, 1),
                          (0.8, 1.3, 0.64, 2)):
        for max_lobes in (5, 2000):
            result = osc_tail(c, a, q, mode, max_lobes=max_lobes)
            assert [type(v) for v in result] == [float, float, int, int]
