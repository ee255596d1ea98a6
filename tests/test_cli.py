"""CLI contract: golden outputs, exit codes, determinism, formats."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time

import pytest

from qorder.cli import _parse_grid, main
from qorder.identities import IDENTITIES, suite


def run_cli(*args, env_extra=None, timeout=600):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qorder.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


# -- normal-order ---------------------------------------------------------------

def test_normal_order_golden():
    proc = run_cli("normal-order", "p * x", "--rep", "coordinate")
    assert proc.returncode == 0
    assert proc.stdout == "x * p - i * hbar\n"
    assert proc.stderr == ""


def test_normal_order_two_sided_family():
    proc = run_cli("normal-order",
                   "x^a * p * x^(1-a-g) * p * x^g"
                   " + x^g * p * x^(1-a-g) * p * x^a",
                   "--rep", "coordinate", "--hermitize-scale")
    assert proc.returncode == 0
    assert proc.stdout == "x * p^2 - i * hbar * p + a * g * hbar^2 * x^-1\n"


def test_normal_order_unbounded_moving_power():
    """A moving power of a billion is one Leibniz step, not a billion."""
    proc = subprocess.run([sys.executable, "-m", "qorder.cli", "normal-order",
                           "p^1000000000 * x"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("x * p^1000000000"
                           " - 1000000000 * i * hbar * p^999999999\n")


def test_normal_order_momentum_rejects_symbolic_power():
    proc = run_cli("normal-order", "x^q * p", "--rep", "momentum")
    assert proc.returncode == 3
    assert proc.stderr == ("ordering error: cannot normal-order x^q: the"
                           " moving operator needs a nonnegative integer"
                           " power\n")
    assert proc.stdout == ""


def test_normal_order_names_a_numeric_moving_power():
    """A negative or fractional moving power is named, not called
    symbolic."""
    for args, factor in ((("p^-1 * x",), "p^-1"),
                         (("p^(1/2) * x",), "p^(1/2)"),
                         (("x^-2 * p", "--rep", "momentum"), "x^-2")):
        proc = run_cli("normal-order", *args)
        assert proc.returncode == 3
        assert proc.stderr == (f"ordering error: cannot normal-order {factor}:"
                               " the moving operator needs a nonnegative"
                               " integer power\n")
        assert proc.stdout == ""


def test_normal_order_scalar_power_by_squaring():
    """A scalar power of a billion is about 60 products, not a billion."""
    for text in ("alpha^1000000000 * x", "hbar^-1000000000 * p"):
        proc = run_cli("normal-order", text, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text + "\n"


def test_normal_order_rejects_the_inverse_of_a_sum():
    """Coefficients are Laurent polynomials: a sum has no negative power,
    and the parse error points at the sum."""
    proc = run_cli("normal-order", "(1 + alpha)^-1 * x")
    assert proc.returncode == 2
    assert proc.stderr == ("parse error: cannot invert the sum (alpha + 1):"
                           " a coefficient divides only by a single term"
                           " at 0..11\n")
    assert proc.stdout == ""


def test_normal_order_pinned_sum_of_fractions_fails_fast():
    """The sum of fractions whose reduction by a polynomial gcd ran for
    minutes is a parse error at its first inverted sum, at once."""
    text = ("-3*i*alpha*beta*(2*beta*gamma - 3*i*alpha)^-1 * x"
            " - (48*alpha - 48*hbar)*(96*alpha^2*beta + 48*alpha*beta*gamma"
            " - 53*alpha*beta - 96*beta*gamma - 278*beta)^-1 * x")
    start = time.perf_counter()
    proc = run_cli("normal-order", text, timeout=20)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stderr == ("parse error: cannot invert the sum"
                           " (2 * beta * gamma - 3 * i * alpha): a coefficient"
                           " divides only by a single term at 16..42\n")


def test_normal_order_long_number_is_a_parse_error():
    """A NUMBER longer than the interpreter converts to an int is a parse
    error at its span (exit 2), in a coefficient and in an exponent."""
    digits = "1" * 4400
    for text, span in ((digits + " * x", "0..4400"),
                       ("x^" + digits, "2..4402"),
                       ("1/" + digits + " * x", "2..4402")):
        proc = run_cli("normal-order", text,
                       env_extra={"PYTHONINTMAXSTRDIGITS": "4300"})
        assert proc.returncode == 2
        assert proc.stderr == ("parse error: number of 4400 digits is too long"
                               f" at {span} (expected at most 4300 digits)\n")
        assert proc.stdout == ""


def test_normal_order_long_printed_number_is_named():
    """A coefficient or exponent of more than 4300 digits, which the
    grammar cannot read back, is an error that says so (exit 3)."""
    digits = "9" * 4300
    for text in ("2^20000 * x", f"(alpha^{digits})^{digits} * x",
                 f"x^{digits} * x^{digits}"):
        proc = run_cli("normal-order", text,
                       env_extra={"PYTHONINTMAXSTRDIGITS": "4300"})
        assert (proc.returncode, proc.stdout) == (3, ""), text[:20]
        assert proc.stderr == ("error: cannot print a number of more than"
                               " 4300 digits: the grammar would not read it"
                               " back\n"), text[:20]


def test_normal_order_exponent_beyond_float_range(capsys):
    """Word degrees are compared exactly, so an exponent of 400 digits,
    past the range of a float, orders like any other."""
    n = 10 ** 400 - 1
    assert main(["normal-order", f"p * x^{n}"]) == 0
    assert capsys.readouterr() == (
        f"x^{n} * p - {n} * i * hbar * x^{n - 1}\n", "")
    assert main(["normal-order", f"x^({n}*alpha) * p"]) == 0
    assert capsys.readouterr() == (f"x^({n}*alpha) * p\n", "")


def test_normal_order_exact_degree_tie_goes_by_text(capsys):
    """The g''(x) and g'(x)^2 words have exactly the same degrees, so the
    factors' text orders them: g''(x) first."""
    assert main(["normal-order", "p^2 * x^alpha * g(x)^(alpha/3)"]) == 0
    assert capsys.readouterr() == (
        "x^alpha * g(x)^(alpha/3) * p^2"
        " - 2/3 * i * alpha * hbar * x^alpha * g(x)^(-1 + alpha/3) * g'(x) * p"
        " - 2 * i * alpha * hbar * x^(-1 + alpha) * g(x)^(alpha/3) * p"
        " - 1/3 * alpha * hbar^2 * x^alpha * g(x)^(-1 + alpha/3) * g''(x)"
        " + (-1/9 * alpha^2 * hbar^2 + 1/3 * alpha * hbar^2)"
        " * x^alpha * g(x)^(-2 + alpha/3) * g'(x)^2"
        " - 2/3 * alpha^2 * hbar^2 * x^(-1 + alpha) * g(x)^(-1 + alpha/3)"
        " * g'(x)"
        " + (-alpha^2 * hbar^2 + alpha * hbar^2) * x^(-2 + alpha)"
        " * g(x)^(alpha/3)\n", "")


def test_normal_order_nesting_limit(capsys):
    """Parentheses nest at most 200 deep, in expressions and exponents
    together; the 201st '(' is a parse error (exit 2), not a
    RecursionError."""
    for text, span in (("(" * 1000 + "x" + ")" * 1000, "200..201"),
                       ("x^" + "(" * 1000 + "1" + ")" * 1000, "202..203"),
                       ("(" * 150 + "x^" + "(" * 51 + "1" + ")" * 201,
                        "202..203")):
        assert main(["normal-order", text]) == 2
        assert capsys.readouterr() == (
            "", f"parse error: parentheses nested more than 200 deep"
                f" at {span}\n")
    for text, out in (("(" * 200 + "p * x" + ")" * 200, "x * p - i * hbar"),
                      ("x^" + "(" * 200 + "1 - alpha" + ")" * 200,
                       "x^(1 - alpha)"),
                      ("(" * 150 + "x^" + "(" * 50 + "2" + ")" * 200, "x^2")):
        assert main(["normal-order", text]) == 0
        assert capsys.readouterr() == (out + "\n", "")


def test_normal_order_expansion_limit(capsys):
    """A product of sums past 4096 words, or a power of one word past
    4096 factors, is a parse error at the product or power (exit 2);
    (x + p)^12, 4096 words, still orders."""
    assert main(["normal-order", "x * (x+p)^13"]) == 2
    assert capsys.readouterr() == (
        "", "parse error: product expands to more than 4096 words"
            " at 4..12\n")
    assert main(["normal-order", "(x * p)^1000000000"]) == 2
    assert capsys.readouterr() == (
        "", "parse error: power expands to more than 4096 factors"
            " at 0..18\n")
    assert main(["normal-order", "(x+p)^12"]) == 0
    assert capsys.readouterr().out.startswith("p^12 + 12 * x * p^11 + 66 * x^2 * p^10")


def test_normal_order_parse_error_span():
    proc = run_cli("normal-order", "x^(1/2")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr
    assert "at 6..6" in proc.stderr


def test_normal_order_rejects_non_ascii_input():
    """Digits and letters outside ASCII are parse errors (exit 2) with
    their span, not an int() failure, a dropped exponent or a bad name."""
    for text, span in (("x^\u00b2", "2..3"), ("x^\u0661", "2..3"),
                       ("\u03b1x * p", "0..1")):
        proc = run_cli("normal-order", text)
        char = text[int(span[0])]
        assert proc.returncode == 2, text
        assert proc.stderr == (f"parse error: unexpected character {char!r}"
                               f" at {span} (expected operator, identifier,"
                               " number)\n")
        assert proc.stdout == ""


def test_normal_order_json():
    proc = run_cli("normal-order", "p * x", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["normal_form"] == "x * p - i * hbar"
    assert data["terms"] == 2


# -- verify -----------------------------------------------------------------------

_SYMBOLIC_SUITES = ("eq3", "eq4", "eq14", "eq18", "eq19")


def test_verify_symbolic_suites():
    for name in _SYMBOLIC_SUITES:
        proc = run_cli("verify", "--identity", name)
        assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
        assert "FAIL" not in proc.stdout
        assert "PASS" in proc.stdout


def test_verify_quadrature_suite():
    proc = run_cli("verify", "--identity", "eq11")
    assert proc.returncode == 0
    assert "max residual" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_all_json():
    proc = run_cli("verify", "--identity", "all", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert isinstance(data, list)
    assert all(set(entry) == {"id", "pass", "detail"} for entry in data)
    assert all(entry["pass"] for entry in data)
    assert [entry["id"] for entry in data] == [row.id for row in IDENTITIES]


def test_verify_unknown_identity():
    proc = run_cli("verify", "--identity", "eq99")
    assert proc.returncode == 2
    assert "unknown identity" in proc.stderr


# -- golden bytes of the symbolic commands ---------------------------------------

_TWO_SIDED = "x^a * p * x^(1-a-g) * p * x^g + x^g * p * x^(1-a-g) * p * x^a"
_EQ3 = (("eq3[x]", "x * p - 1/2 * i * hbar"),
        ("eq3[x^2]", "x^2 * p - i * hbar * x"),
        ("eq3[sqrt(x)]", "x^(1/2) * p - 1/4 * i * hbar * x^(-1/2)"),
        ("eq3[f]", "f(x) * p - 1/2 * i * hbar * f'(x)"))
_EQ14 = "x * p^2 - i * hbar * p + alpha * gamma * hbar^2 * x^-1"

# (argv, exit code, stdout, stderr), each byte pinned
_GOLDEN = [
    (["verify", "--identity", "eq3", "--format", "human"], 0,
     "".join(f"PASS {name}: {detail}\n" for name, detail in _EQ3), ""),
    (["verify", "--identity", "eq3", "--format", "json"], 0,
     '[{"id": "eq3[x]", "pass": true, "detail": "x * p - 1/2 * i * hbar"}, '
     '{"id": "eq3[x^2]", "pass": true, "detail": "x^2 * p - i * hbar * x"}, '
     '{"id": "eq3[sqrt(x)]", "pass": true, '
     '"detail": "x^(1/2) * p - 1/4 * i * hbar * x^(-1/2)"}, '
     '{"id": "eq3[f]", "pass": true, '
     '"detail": "f(x) * p - 1/2 * i * hbar * f\'(x)"}]\n', ""),
    (["verify", "--identity", "eq3", "--format", "csv"], 0,
     "id,pass,detail\n"
     + "".join(f'{name},true,"{detail}"\n' for name, detail in _EQ3), ""),
    (["verify", "--identity", "eq4", "--format", "human"], 0,
     "PASS eq4: p^2 * x + i * hbar * p\n", ""),
    (["verify", "--identity", "eq4", "--format", "json"], 0,
     '[{"id": "eq4", "pass": true, "detail": "p^2 * x + i * hbar * p"}]\n',
     ""),
    (["verify", "--identity", "eq4", "--format", "csv"], 0,
     'id,pass,detail\neq4,true,"p^2 * x + i * hbar * p"\n', ""),
    (["verify", "--identity", "eq14", "--format", "human"], 0,
     f"PASS eq14: {_EQ14}\nPASS eq14[gamma=0]: x * p^2 - i * hbar * p\n", ""),
    (["verify", "--identity", "eq14", "--format", "json"], 0,
     f'[{{"id": "eq14", "pass": true, "detail": "{_EQ14}"}}, '
     '{"id": "eq14[gamma=0]", "pass": true, '
     '"detail": "x * p^2 - i * hbar * p"}]\n', ""),
    (["verify", "--identity", "eq14", "--format", "csv"], 0,
     f'id,pass,detail\neq14,true,"{_EQ14}"\n'
     'eq14[gamma=0],true,"x * p^2 - i * hbar * p"\n', ""),
    (["verify", "--identity", "eq18", "--format", "human"], 0,
     "PASS eq18a: symbolic proof\nPASS eq18b: symbolic proof\n", ""),
    (["verify", "--identity", "eq18", "--format", "json"], 0,
     '[{"id": "eq18a", "pass": true, "detail": "symbolic proof"}, '
     '{"id": "eq18b", "pass": true, "detail": "symbolic proof"}]\n', ""),
    (["verify", "--identity", "eq18", "--format", "csv"], 0,
     'id,pass,detail\neq18a,true,"symbolic proof"\n'
     'eq18b,true,"symbolic proof"\n', ""),
    (["verify", "--identity", "eq19", "--format", "human"], 0,
     "PASS eq19: symbolic proof, alpha fully symbolic\n", ""),
    (["verify", "--identity", "eq19", "--format", "json"], 0,
     '[{"id": "eq19", "pass": true, '
     '"detail": "symbolic proof, alpha fully symbolic"}]\n', ""),
    (["verify", "--identity", "eq19", "--format", "csv"], 0,
     'id,pass,detail\neq19,true,"symbolic proof, alpha fully symbolic"\n', ""),
    (["normal-order", "p * x", "--rep", "coordinate", "--format", "human"], 0,
     "x * p - i * hbar\n", ""),
    (["normal-order", "p * x", "--rep", "coordinate", "--format", "json"], 0,
     '{"representation": "coordinate", "normal_form": "x * p - i * hbar", '
     '"terms": 2}\n', ""),
    (["normal-order", "p * x", "--rep", "coordinate", "--format", "csv"], 0,
     'representation,normal_form\ncoordinate,"x * p - i * hbar"\n', ""),
    (["normal-order", _TWO_SIDED, "--hermitize-scale", "--format", "human"], 0,
     "x * p^2 - i * hbar * p + a * g * hbar^2 * x^-1\n", ""),
    (["normal-order", _TWO_SIDED, "--hermitize-scale", "--format", "json"], 0,
     '{"representation": "coordinate", '
     '"normal_form": "x * p^2 - i * hbar * p + a * g * hbar^2 * x^-1", '
     '"terms": 3}\n', ""),
    (["normal-order", _TWO_SIDED, "--hermitize-scale", "--format", "csv"], 0,
     'representation,normal_form\n'
     'coordinate,"x * p^2 - i * hbar * p + a * g * hbar^2 * x^-1"\n', ""),
    (["normal-order", "x^(alpha/2)"], 0, "x^(alpha/2)\n", ""),
    (["normal-order", "p * x^(-alpha/2)"], 0,
     "x^(-alpha/2) * p + 1/2 * i * alpha * hbar * x^(-1 - alpha/2)\n", ""),
    (["normal-order", "x^(1/2"], 2, "",
     "parse error: unexpected token 'end of input' at 6..6"
     " (expected ')')\n"),
    (["normal-order", "x^-(a)"], 2, "",
     "parse error: invalid exponent at 3..4"
     " (expected number, identifier, '(')\n"),
    (["normal-order", "2^(1/2)"], 2, "",
     "parse error: scalar base requires an integer exponent at 1..2"
     " (expected integer)\n"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", _GOLDEN,
                         ids=[" ".join(case[0]) for case in _GOLDEN])
def test_symbolic_commands_golden_bytes(capsys, argv, code, stdout, stderr):
    """The exact stdout, stderr and exit code of the symbolic commands: the
    README's normal-order examples, exponents with a 1/d coefficient, each
    symbolic verify suite, and three malformed inputs, in process."""
    assert main(argv) == code
    assert capsys.readouterr() == (stdout, stderr)


# (argv, stdout) of the numeric commands, each byte pinned; every one
# exits 0 with nothing on stderr
_SCAN = ["order-scan", "--alpha-gamma", "0", "0.25", "--format"]
_SOLVE = ["solve", "--E", "1", "--x-grid=-1:2:4", "--format"]
_EQ11 = [(a, b, residual) for (a, b), residual in zip(
    [(a, b) for a in ("0.5", "1.0", "2.0") for b in ("0.5", "1.0", "2.0")],
    ("6.661e-16", "2.220e-16", "5.551e-17", "2.220e-16", "5.551e-17",
     "1.110e-16", "5.551e-17", "1.110e-16", "4.441e-16"))]
_NUMERIC_GOLDEN = [
    (_SCAN + ["human"],
     "alpha*gamma=0: fitted order 0.000000, 2*sqrt = 0.000000, "
     "coupling-as-index 0; residual fitted 1.79e-16, coupling 1.79e-16\n"
     "alpha*gamma=0.25: fitted order 1.000000, 2*sqrt = 1.000000, "
     "coupling-as-index 0.25; residual fitted 2.95e-16, coupling 9.38e-01\n"),
    (_SCAN + ["json"],
     '[{"alpha_gamma": 0.0, "fitted_order": 0.0, "two_sqrt_alpha_gamma": 0.0, '
     '"coupling_index": 0.0, "fitted_residual": 1.7896846186432773e-16, '
     '"coupling_index_residual": 1.7896846186432773e-16}, '
     '{"alpha_gamma": 0.25, "fitted_order": 1.0, '
     '"two_sqrt_alpha_gamma": 1.0, "coupling_index": 0.25, '
     '"fitted_residual": 2.9540274576998497e-16, '
     '"coupling_index_residual": 0.9375000000000001}]\n'),
    (_SCAN + ["csv"],
     "alpha_gamma,fitted_order,two_sqrt_alpha_gamma,coupling_index,"
     "fitted_residual,coupling_index_residual\n"
     "0.0,0.0,0.0,0.0,1.7896846186432773e-16,1.7896846186432773e-16\n"
     "0.25,1.0,1.0,0.25,2.9540274576998497e-16,"
     "0.9375000000000001\n"),
    (_SOLVE + ["csv"],
     "x,psi_re,psi_im,j0,ratio_re,ratio_im,failed\n"
     "-1.0,0.0,0.0,0.22389077914123567,0.0,0.0,false\n"
     "0.0,0.0,6.283185307173307,1.0,0.0,6.283185307173307,false\n"
     "1.0,0.0,1.4067472539132015,0.22389077914123567,0.0,"
     "6.283185307179585,false\n"
     "2.0,-0.0,-1.23494810435754,-0.19654809527046826,-0.0,"
     "6.283185307179588,false\n"),
    (_SOLVE + ["json"],
     '[{"x": -1.0, "psi_re": 0.0, "psi_im": 0.0, "j0": 0.22389077914123567, '
     '"ratio_re": 0.0, "ratio_im": 0.0, "failed": false}, '
     '{"x": 0.0, "psi_re": 0.0, "psi_im": 6.283185307173307, "j0": 1.0, '
     '"ratio_re": 0.0, "ratio_im": 6.283185307173307, "failed": false}, '
     '{"x": 1.0, "psi_re": 0.0, "psi_im": 1.4067472539132015, '
     '"j0": 0.22389077914123567, "ratio_re": 0.0, '
     '"ratio_im": 6.283185307179585, "failed": false}, '
     '{"x": 2.0, "psi_re": -0.0, "psi_im": -1.23494810435754, '
     '"j0": -0.19654809527046826, "ratio_re": -0.0, '
     '"ratio_im": 6.283185307179588, "failed": false}]\n'),
    (["verify", "--identity", "eq11", "--format", "json"],
     "[" + ", ".join(f'{{"id": "eq11[a={a},b={b}]", "pass": true, '
                     f'"detail": "max residual {residual}"}}'
                     for a, b, residual in _EQ11) + "]\n"),
]


@pytest.mark.parametrize("argv, stdout", _NUMERIC_GOLDEN,
                         ids=[" ".join(case[0]) for case in _NUMERIC_GOLDEN])
def test_numeric_commands_golden_bytes(capsys, argv, stdout):
    """The exact stdout of order-scan in every format, of solve over both
    signs of x and of the eq11 suite, in process."""
    assert main(argv) == 0
    assert capsys.readouterr() == (stdout, "")


# -- solve ------------------------------------------------------------------------

def test_solve_csv_ratio_constant():
    proc = run_cli("solve", "--E", "1", "--hbar", "1",
                   "--x-grid", "0:4:17", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,psi_re,psi_im,j0,ratio_re,ratio_im,failed"
    assert len(lines) == 18
    ratios = [float(line.split(",")[5]) for line in lines[1:]]
    base = ratios[0]
    assert all(abs(r - base) / abs(base) <= 1e-4 for r in ratios)
    assert all(line.split(",")[6] == "false" for line in lines[1:])


def test_solve_single_point_at_origin():
    proc = run_cli("solve", "--E", "1", "--hbar", "1", "--x-grid", "0:0:1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) == 1.0


def test_solve_rejects_nonpositive_energy():
    proc = run_cli("solve", "--E", "-1", "--x-grid", "0:1:2")
    assert proc.returncode == 2
    assert "E must be positive" in proc.stderr


def test_solve_rejects_nonfinite_energy():
    proc = run_cli("solve", "--E", "nan", "--x-grid", "0:1:2")
    assert proc.returncode == 2
    assert proc.stderr == "--E must be finite, got nan\n"
    assert proc.stdout == ""


def test_solve_rejects_infinite_hbar():
    proc = run_cli("solve", "--E", "1", "--hbar", "inf", "--x-grid", "0:1:3")
    assert proc.returncode == 2
    assert proc.stderr == "--hbar must be finite, got inf\n"
    assert proc.stdout == ""


def test_solve_rejects_nonfinite_grid_ends():
    for grid, message in (("nan:1:3", "--x-grid start must be finite, got nan"),
                          ("0:inf:3", "--x-grid stop must be finite, got inf")):
        proc = run_cli("solve", "--E", "1", "--x-grid", grid)
        assert proc.returncode == 2, grid
        assert message in proc.stderr
        assert proc.stdout == ""


def test_solve_negative_grid_with_equals_form():
    proc = run_cli("solve", "--E", "1", "--x-grid=-2:4:7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 8
    assert [float(line.split(",")[0]) for line in lines[1:]] == \
        [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]


def test_solve_far_negative_axis():
    """x = -1e6 has no pile of head lobes to sum: it takes as few lobes
    as x = 1 and no row is flagged."""
    proc = run_cli("solve", "--E", "1", "--x-grid=-1e6:0:2")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    assert [float(row[0]) for row in rows] == [-1e6, 0.0]
    assert [row[6] for row in rows] == ["false", "false"]
    assert float(rows[0][1]) == float(rows[0][2]) == 0.0


def test_solve_bad_grid():
    proc = run_cli("solve", "--E", "1", "--x-grid", "0:1")
    assert proc.returncode == 2
    assert "bad grid" in proc.stderr


def test_solve_grid_count_limit(capsys):
    """A count above the limit, or too long for int() to convert, is a
    bad grid that names the count or its length and the limit; no list
    of that many points is built."""
    with pytest.raises(ValueError, match=r"^grid count 1000001 is beyond "
                                         r"the limit of 1000000 points$"):
        _parse_grid("0:1:1000001")
    with pytest.raises(ValueError, match=r"^grid count of 5000 digits is "
                                         r"beyond the limit of 1000000 "
                                         r"points$"):
        _parse_grid("0:1:" + "9" * 5000)
    assert main(["solve", "--E", "1", "--x-grid", "0:1:" + "1" * 5000]) == 2
    assert capsys.readouterr() == (
        "", "bad grid: grid count of 5000 digits is beyond the limit of "
            "1000000 points\n")


def test_solve_rejects_a_grid_step_that_overflows(capsys):
    """A step (stop - start) / (count - 1) beyond the largest float would
    put nan and inf on the grid; it is a bad grid that names the step."""
    assert main(["solve", "--E", "1", "--x-grid=-1e308:1e308:3"]) == 2
    assert capsys.readouterr() == (
        "", "bad grid: step (1e+308 - -1e+308) / 2 is beyond the largest "
            "float\n")


def test_solve_partial_results_on_failure():
    """Rows whose phase coupling |x| E / hbar^2 overflows fail their
    quadrature; they are still emitted and flagged, with psi nan, and
    the row before them is computed as usual."""
    proc = run_cli("solve", "--E", "1e300", "--x-grid=0:1e300:3")
    assert proc.returncode == 4
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 4
    assert [line.split(",")[-1] for line in lines[1:]] \
        == ["false", "true", "true"]
    assert [line.split(",")[1:3] for line in lines[2:]] \
        == [["nan", "nan"], ["nan", "nan"]]


def test_solve_unconverged_rows_print_no_psi(monkeypatch, capsys):
    """With a 5-lobe cap no lobe sum settles, so every reconstruction on
    x > 0 fails: each row is flagged and prints psi as nan, null in
    JSON, not the unsettled half-line estimate."""
    from qorder import _kernels
    monkeypatch.setattr(_kernels, "_MAX_LOBES", 5)
    argv = ["solve", "--E", "1", "--x-grid", "0.5:2:4"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    assert all(row[1:3] == ["nan", "nan"] and row[-1] == "true"
               for row in rows), rows
    assert main(argv + ["--format", "json"]) == 4
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(row["psi_re"] is None and row["psi_im"] is None
               and row["failed"] for row in rows), rows


def test_solve_names_the_options_whose_ratio_overflows():
    """The reconstruction integrates Phi(x / hbar, E / hbar); a ratio
    beyond the largest float is a domain error that names the options,
    not the arguments of the integral."""
    for args, message in (
            (("--E", "1e300", "--hbar", "1e-300", "--x-grid", "0:4:3"),
             "error: domain error: --E 1e+300 and --hbar 1e-300 put E/hbar "
             "at inf; the reconstruction needs it finite\n"),
            (("--E", "1", "--hbar", "1e-10", "--x-grid", "0:1e308:2"),
             "error: domain error: --x-grid point 1e+308 and --hbar 1e-10 "
             "put x/hbar at inf; the reconstruction needs it finite\n")):
        proc = run_cli("solve", *args)
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (3, "", message), args


def test_solve_flags_out_of_domain_bessel_row():
    """At x = 4e7 the Bessel argument 2 sqrt(E x) / hbar is above 1e4: that
    row is flagged and the rows before it are unchanged.  NaN is not JSON,
    so with --format json the flagged values are null."""
    proc = run_cli("solve", "--E", "1", "--x-grid=0:4e7:3")
    assert proc.returncode == 4, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 4
    shorter = run_cli("solve", "--E", "1", "--x-grid=0:2e7:2")
    assert shorter.returncode == 0
    assert lines[:3] == shorter.stdout.strip().split("\n")
    x, psi_re, psi_im, j0, ratio_re, ratio_im, failed = lines[3].split(",")
    assert float(x) == 4e7 and math.isfinite(float(psi_im))
    assert (j0, ratio_re, ratio_im, failed) == ("nan", "nan", "nan", "true")

    proc = run_cli("solve", "--E", "1", "--x-grid=0:4e7:3", "--format", "json")
    assert proc.returncode == 4, proc.stderr

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    rows = json.loads(proc.stdout, parse_constant=refuse)
    assert [row["failed"] for row in rows] == [False, False, True]
    assert [rows[2][k] for k in ("j0", "ratio_re", "ratio_im")] == [None] * 3
    shorter = run_cli("solve", "--E", "1", "--x-grid=0:2e7:2",
                      "--format", "json")
    assert json.loads(shorter.stdout) == rows[:2]


def test_solve_out_file(tmp_path):
    out = tmp_path / "recon.csv"
    proc = run_cli("solve", "--E", "1", "--x-grid", "0:1:3",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text().startswith("x,psi_re")


def test_solve_out_unwritable_is_a_usage_error(tmp_path, capsys):
    """An --out path that cannot be opened for writing is named with the
    system's reason, exit 2, instead of a traceback."""
    missing = tmp_path / "missing" / "recon.csv"
    for out, reason in ((missing, "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert main(["solve", "--E", "1", "--x-grid", "0:1:2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"cannot write --out {str(out)!r}: {reason}\n")


# -- order-scan ---------------------------------------------------------------------

def test_order_scan_fits():
    proc = run_cli("order-scan", "--alpha-gamma", "0", "0.0625", "0.25",
                   "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    fitted = [row["fitted_order"] for row in rows]
    assert abs(fitted[0] - 0.0) <= 1e-6
    assert abs(fitted[1] - 0.5) <= 1e-6
    assert abs(fitted[2] - 1.0) <= 1e-6
    # at the degenerate point all candidate indices coincide
    assert rows[0]["coupling_index_residual"] <= 1e-8
    # away from it, using the coupling as the order fails
    assert rows[1]["coupling_index_residual"] > 1e-2


def test_order_scan_fits_at_large_energy_scale():
    """At E / hbar^2 = 8 the residual has several local minima on [0, 2];
    a golden section over all of it fitted 0.272045 here."""
    proc = run_cli("order-scan", "--alpha-gamma", "0.1", "--E", "2",
                   "--hbar", "0.5", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(proc.stdout)
    assert abs(row["fitted_order"] - 2.0 * math.sqrt(0.1)) <= 1e-6
    assert row["fitted_residual"] <= 1e-8


def test_order_scan_range_check():
    proc = run_cli("order-scan", "--alpha-gamma", "1.5")
    assert proc.returncode == 2
    assert "must lie in [0, 1]" in proc.stderr


def test_order_scan_rejects_nonfinite_coupling():
    proc = run_cli("order-scan", "--alpha-gamma", "0.25", "nan")
    assert proc.returncode == 2
    assert proc.stderr == "--alpha-gamma must be finite, got nan\n"
    assert proc.stdout == ""


def test_order_scan_rejects_nonpositive_energy_as_usage_error():
    for option, value in (("--E", "-1"), ("--hbar", "0")):
        proc = run_cli("order-scan", "--alpha-gamma", "0.1", option, value)
        assert proc.returncode == 2, option
        assert proc.stderr == \
            f"{option} must be positive, got {float(value)!r}\n"


def test_order_scan_names_the_options_beyond_the_bessel_range():
    """2 sqrt(E x) / hbar above 1e4 on the grid is a domain error that
    names --E and --hbar, not only the Bessel argument."""
    proc = run_cli("order-scan", "--alpha-gamma", "0.25", "--E", "1e8",
                   "--hbar", "0.5")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: domain error: --E 100000000.0 and --hbar 0.5 put the Bessel "
        "argument 2*sqrt(E*x)/hbar at 68702.3 for x = 2.95 of the order-scan "
        "grid, above its limit of 10000\n")


def test_order_scan_names_an_hbar_whose_square_overflows():
    """The coordinate ODE divides E by hbar^2; an hbar whose square
    overflows is a domain error that names --hbar, not a traceback."""
    proc = run_cli("order-scan", "--alpha-gamma", "0.25", "--E", "1",
                   "--hbar", "1e200")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: domain error: --hbar 1e+200 puts hbar^2, which the "
        "coordinate ODE divides E by, beyond the largest float\n")
    assert "Traceback" not in proc.stderr


def test_order_scan_names_a_coupling_it_cannot_form():
    """At E = 1e-300 the J_nu on the grid underflow; the fit stops with a
    domain error that names E and hbar, not a silent order."""
    proc = run_cli("order-scan", "--alpha-gamma", "0.25", "--E", "1e-300")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: domain error: the order fit "
                                  "cannot form the coupling")
    assert "E=1e-300, hbar=1.0" in proc.stderr


def test_cli_does_not_import_sympy():
    code = ("import sys, qorder.cli; "
            "qorder.cli.main(['normal-order', 'x * p']); "
            "assert 'sympy' not in sys.modules "
            "and 'mpmath' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "x * p\n"


def test_closed_stdout_ends_quietly():
    """With the read end of stdout closed before the child writes, the
    run ends with the documented exit code 141, no traceback and no
    "Exception ignored" line at shutdown."""
    for args in (("verify", "--identity", "eq11", "--format", "csv"),
                 ("normal-order", "p * x")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "qorder.cli", *args],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=600)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, ""), args


def test_traced_cli_child_writes_its_spans(tmp_path):
    """The benchmark's traced CLI runs go through perfbench/cli_child.py.
    Its Tracer.install() wraps ScalarExpr from sys.modules["qorder.scalars"],
    so that module must be loaded by `import qorder.cli`; without it the
    child dies before it writes its spans."""
    child = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench", "cli_child.py")
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, child, "--spans", str(spans_file),
                           "--", "normal-order", "x * p"],
                          capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, "x * p\n"), proc.stderr
    spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"]
    assert "cli.main" in [span[0] for span in spans]


_PROBED = ("numpy", "dataclasses", "inspect", "qorder.parser",
           "qorder.ordering", "qorder.identities", "qorder._kernels")


def run_probed(*args, setup=""):
    """run_cli through qorder.cli.main, plus the set of modules of _PROBED
    that ``import qorder.cli`` and the command loaded; ``setup``, if given,
    is run first and counts as the command's."""
    code = (f"import sys; before = set(sys.modules); {setup or 'pass'}; "
            "import qorder.cli; code = qorder.cli.main(sys.argv[1:]); "
            f"sys.stderr.write('\\n' + ' '.join(m for m in {_PROBED!r} "
            "if m in sys.modules and m not in before)); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=600)
    proc.stderr, _, loaded = proc.stderr.rpartition("\n")
    return proc, set(loaded.split())


def test_printing_a_scalar_loads_no_parser():
    """A coefficient prints from qorder.scalars alone."""
    code = ("import sys, qorder.scalars; "
            "text = str(qorder.scalars.ScalarExpr.param('alpha') ** -1); "
            "sys.exit(text != 'alpha^-1' or 'qorder.parser' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_symbolic_commands_do_not_import_numpy():
    golden = {"human": "x * p - i * hbar\n",
              "json": '{"representation": "coordinate", '
                      '"normal_form": "x * p - i * hbar", "terms": 2}\n',
              "csv": 'representation,normal_form\n'
                     'coordinate,"x * p - i * hbar"\n'}
    for fmt, expected in golden.items():
        proc, loaded = run_probed("normal-order", "p * x", "--format", fmt)
        assert (proc.returncode, proc.stdout) == (0, expected), fmt
        assert "numpy" not in loaded, fmt
    for name in _SYMBOLIC_SUITES:
        proc, loaded = run_probed("verify", "--identity", name)
        assert proc.returncode == 0, (name, proc.stderr)
        assert [line.split(":")[0] for line in proc.stdout.splitlines()] \
            == [f"PASS {row.id}" for row in IDENTITIES if suite(row) == name]
        assert "numpy" not in loaded, name


def test_order_scan_does_not_import_numpy():
    """order-scan needs only the plain-Python Bessel side and order fit;
    its rows are the ones run_cli prints, in every format."""
    for fmt in ("human", "json", "csv"):
        args = ("order-scan", "--alpha-gamma", "0", "0.25", "--format", fmt)
        proc, loaded = run_probed(*args)
        assert proc.returncode == 0, (fmt, proc.stderr)
        assert proc.stdout == run_cli(*args).stdout
        assert "numpy" not in loaded, fmt
        if fmt == "human":
            assert [line.split(",")[0] for line in proc.stdout.splitlines()] \
                == ["alpha*gamma=0: fitted order 0.000000",
                    "alpha*gamma=0.25: fitted order 1.000000"]
        elif fmt == "json":
            fitted = [row["fitted_order"] for row in json.loads(proc.stdout)]
            assert abs(fitted[0]) <= 1e-6 and abs(fitted[1] - 1.0) <= 1e-6
        else:
            assert len(proc.stdout.splitlines()) == 3


def test_no_command_imports_numpy():
    """No subcommand loads numpy: with the tests above for the symbolic
    commands and order-scan, the numeric ones, whose lobe quadrature is
    plain Python.  Nor does ``import qorder.verification``, the numeric
    layer as a library."""
    for args in (("solve", "--E", "1", "--x-grid", "0:1:2"),
                 ("verify", "--identity", "eq11")):
        proc, loaded = run_probed(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        assert "numpy" not in loaded, args
    code = ("import sys, qorder.verification; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_numeric_commands_load_the_kernel():
    """The control for the tests above: the probe does see the lobe
    kernel where solve and the eq11 rows of verify load it, and numpy
    where something does import it."""
    out = {}
    for args in (("verify", "--identity", "eq11"),
                 ("solve", "--E", "1", "--x-grid", "0:1:2")):
        proc, loaded = run_probed(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout == run_cli(*args).stdout
        assert "qorder._kernels" in loaded, args
        out[args[0]] = proc.stdout
    assert [line.split(":")[0] for line in out["verify"].splitlines()] \
        == [f"PASS {row.id}" for row in IDENTITIES if suite(row) == "eq11"]
    header, origin, _ = out["solve"].splitlines()
    assert header == "x,psi_re,psi_im,j0,ratio_re,ratio_im,failed"
    assert origin.split(",")[0::3] == ["0.0", "1.0", "false"]
    if importlib.util.find_spec("numpy") is not None:
        # where numpy is not installed, nothing can load it
        proc, loaded = run_probed("normal-order", "p * x",
                                  setup="import numpy")
        assert proc.returncode == 0, proc.stderr
        assert "numpy" in loaded


def test_each_command_loads_only_its_layer():
    """The symbolic commands load no dataclasses, and with it no inspect;
    the numeric ones load neither the parser, the ordering engine nor the
    identity table, and the numeric ``verify`` suite eq11 reads the
    identity table without the parser or the ordering engine.
    ``import qorder.cli`` still loads qorder.scalars, whose ScalarExpr
    the benchmark's traced CLI runs wrap.  The probe sees each of these
    modules where a command, or for dataclasses and inspect, which no
    command loads, an import before it, does load it."""
    symbolic = [("normal-order", "p * x", "--format", fmt)
                for fmt in ("human", "json", "csv")]
    symbolic += [("verify", "--identity", name) for name in _SYMBOLIC_SUITES]
    for args in symbolic:
        proc, loaded = run_probed(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        assert not loaded & {"dataclasses", "inspect"}, args
        assert {"qorder.parser", "qorder.ordering"} <= loaded, args
    for args in (("order-scan", "--alpha-gamma", "0.25"),
                 ("solve", "--E", "1", "--x-grid", "0:1:2")):
        proc, loaded = run_probed(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        assert not loaded & {"qorder.parser", "qorder.ordering",
                             "qorder.identities"}, args
        assert not loaded & {"dataclasses", "inspect"}, args
    proc, loaded = run_probed("verify", "--identity", "eq11")
    assert proc.returncode == 0, proc.stderr
    assert not loaded & {"qorder.parser", "qorder.ordering"}
    assert {"qorder.identities", "qorder._kernels"} <= loaded
    proc, loaded = run_probed("order-scan", "--alpha-gamma", "0.25",
                              setup="import dataclasses")
    assert proc.returncode == 0, proc.stderr
    assert {"dataclasses", "inspect"} <= loaded
    code = "import sys, qorder.cli; sys.exit('qorder.scalars' not in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


# -- determinism ---------------------------------------------------------------------

def test_outputs_are_byte_identical():
    for args in (("verify", "--identity", "eq11", "--format", "json"),
                 ("solve", "--E", "1", "--x-grid", "0:2:5", "--format", "csv"),
                 ("normal-order", "p * x^2", "--format", "csv")):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
