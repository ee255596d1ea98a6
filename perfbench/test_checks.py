"""Negative controls: every output check flags a deliberately wrong result.

    python3 -m pytest perfbench/test_checks.py

Each test first shows that the check accepts the program's own output,
then feeds it a wrong one, so that no check passes vacuously.
"""

import dataclasses
import math

import env

env.add_paths()

import pytest  # noqa: E402

import workloads as wl  # noqa: E402
from qorder import parser  # noqa: E402
from qorder.operators import OperatorExpr  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return wl.OrderingCorpus(1)


def _multi_word_op(corpus):
    for op in corpus.ops:
        out = corpus.run(op)
        if op.convention == "coordinate" and len(parser.parse_operator(out).words) >= 3:
            return op, out
    raise AssertionError("corpus has no op with three output words")


def test_normal_form_with_a_flipped_sign_is_flagged(corpus):
    op, out = _multi_word_op(corpus)
    assert wl.check_normal_form(op, out) is None
    words = list(parser.parse_operator(out).words)
    words[1] = dataclasses.replace(words[1], coefficient=-words[1].coefficient)
    flipped = parser.print_operator(OperatorExpr(words))
    assert flipped != out
    assert wl.check_normal_form(op, flipped) == \
        "differs from the differential-operator oracle"


def test_unordered_or_non_canonical_output_is_flagged():
    op = wl.WordOp("p * x", "coordinate", (("p", 1, 0), ("x", 1, 0)),
                   wl.Fraction(1), 2)
    assert wl.check_normal_form(op, "x * p - i * hbar") is None
    assert "stands left" in wl.check_normal_form(op, "p * x")
    # equal as an operator, but not the printed normal form
    assert "print -> parse" in wl.check_normal_form(op, "-i * hbar + x * p")


@pytest.mark.parametrize("op", [
    wl.ReconstructOp("psi", x=0.7, E=1.3, hbar=0.9),
    wl.ReconstructOp("psi", x=-0.7, E=1.3, hbar=0.9),
    wl.ReconstructOp("sin_cos", a=1.5, b=0.8, sin_fast=False),
])
def test_reconstruction_shifted_by_ten_reported_errors_is_flagged(op):
    value, err = wl.Reconstruct(1).run(op)
    assert wl.check_reconstruction(op, (value, err)) is None
    assert wl.check_reconstruction(op, (value + 10 * err, err)) is not None


def test_known_fault_ops_fail_their_check():
    bench = wl.Reconstruct(1)
    faults = [op for op in bench.ops if op.known_fault]
    assert len(faults) == len(wl.FAULT_BAND_PSI) + len(wl.FAULT_BAND_SIN_COS)
    for op in faults:
        assert wl.check_reconstruction(op, bench.run(op)) is not None


def test_wrong_normal_order_string_is_flagged():
    session = wl.CliSession(1)
    op = session.ops[0]
    code, stdout = session.run(op)
    assert wl.check_cli(op, (code, stdout)) is None
    wrong = stdout.replace("- i * hbar * p", "+ i * hbar * p")
    assert wrong != stdout
    assert "expected" in wl.check_cli(op, (code, wrong))
    assert wl.check_cli(op, (3, stdout)) == "exit code 3"


def test_verify_and_solve_checks_flag_wrong_outputs():
    session = wl.CliSession(1)
    verify = next(op for op in session.ops if op.expected == "eq14")
    code, stdout = session.run(verify)
    assert wl.check_cli(verify, (code, stdout)) is None
    assert wl.check_cli(verify, (code, stdout.replace("true", "false", 1)))
    assert wl.check_cli(verify, (code, stdout.replace("alpha * gamma",
                                                      "gamma * alpha")))
    solve = next(op for op in session.ops if op.kind == "solve")
    code, stdout = session.run(solve)
    assert wl.check_cli(solve, (code, stdout)) is None
    lines = stdout.splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-6))     # ratio off 2 pi i
    lines[2] = ",".join(cells)
    assert "ratio" in wl.check_cli(solve, (code, "\n".join(lines) + "\n"))


def test_order_scan_check_flags_an_order_off_by_1e5():
    session = wl.CliSession(1)
    scan = next(op for op in session.ops if op.kind == "order-scan")
    stdout = ('[{"alpha_gamma": %r, "fitted_order": %r, '
              '"fitted_residual": 1e-12}]' % (scan.expected,
                                              2 * math.sqrt(scan.expected)))
    assert wl.check_cli(scan, (0, stdout)) is None
    off = stdout.replace(repr(2 * math.sqrt(scan.expected)),
                         repr(2 * math.sqrt(scan.expected) + 1e-5))
    assert "fitted order" in wl.check_cli(scan, (0, off))
