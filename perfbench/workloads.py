"""The three workloads: seeded inputs, one op, and an independent check.

Each workload is built from its seed alone and hands ``qorder`` only the
generated inputs.  ``run(op)`` is the unit of timed work; ``check(op,
output)`` returns None when the output is right and a reason otherwise.
The checks never trust the engine's own answer: they compare with the
differential-operator oracle in ``tests/oracles.py``, with
``mpmath.besselj``, with ``2*sqrt(alpha*gamma)``, or with the paper's
hand-written normal forms.

Ops whose ``known_fault`` is set fail their check on every run because
of a fault in the program; they are fixed inputs that do not depend on
the seed, and the benchmark counts them as failed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import sympy

from qorder import ordering, parser, quadrature, verification
from qorder.operators import (BaseKind, OperatorExpr, func_power, p_power,
                              x_power)
from qorder.scalars import ScalarExpr

import env
from oracles import X, apply_operator

TWO_PI_I = 2j * math.pi


def _bessel_j(nu, z) -> float:
    with mpmath.workdps(30):
        return float(mpmath.besselj(nu, z))


def _log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _stratified_log(rng, lo, hi, n):
    """n points, one drawn uniformly in each of n equal log-bins of [lo, hi]."""
    return [lo * (hi / lo) ** ((i + rng.random()) / n) for i in range(n)]


# ---------------------------------------------------------------------------
# ordering-corpus
# ---------------------------------------------------------------------------
# A word's cost is set by the number of leaves of the swap tree that
# normal ordering walks (about 2.3 ms a leaf here), and under the
# tests/test_ordering.py::_random_word distribution that number is heavy
# tailed: on the seed-20240817 corpus one word in 200 has 5152 leaves and
# takes 12.6 s of 29 s.  A pass of plain draws would cost whatever its
# heaviest word costs, so a pass holds round(share * DRAWS) words of each
# leaf band, with the share each band has of _random_word draws, and the
# bands from 128 leaves up are left out.  The shares were counted with
# swap_leaves on 200 000 draws of random.Random(0); the momentum share
# counts the draws that are also momentum words.  Left out: 5.36% of the
# draws in the coordinate convention and 0.13% in the momentum one.  The
# p^n * x^n ladder (2^n leaves in the coordinate convention) stands in
# for that tail at fixed sizes.

# (lowest leaves, highest leaves, coordinate share, momentum share)
LEAF_SHARES = ((1, 1, 0.52475, 0.14513), (2, 2, 0.06854, 0.00694),
               (3, 3, 0.04607, 0.00594), (4, 5, 0.08156, 0.00909),
               (6, 7, 0.01567, 0.00345), (8, 11, 0.06143, 0.00443),
               (12, 15, 0.01851, 0.00186), (16, 23, 0.03250, 0.00261),
               (24, 31, 0.02734, 0.00142), (32, 47, 0.02482, 0.00143),
               (48, 63, 0.01047, 0.00063), (64, 95, 0.02296, 0.00065),
               (96, 127, 0.01183, 0.00047))
DRAWS = 64
POOL_DRAWS = 16 * DRAWS
LADDER = range(1, 7)
MAX_DRAWS = 200_000


def _random_word(rng):
    """Same draws, in the same order, as tests/test_ordering.py::_random_word."""
    factors = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice("xpf")
        if kind == "x":
            factors.append(("x", rng.choice([-2, -1, 1, 2, 3]), 0))
        elif kind == "p":
            factors.append(("p", rng.choice([1, 1, 2, 3]), 0))
        else:
            power = rng.choice([1, 1, 2])
            factors.append(("f", power, rng.choice([0, 0, 1])))
    coeff = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return tuple(factors), coeff


def swap_leaves(factors, moving, cap):
    """Leaves of the swap tree for integer exponents, counted up to cap + 1.

    Mirrors the rewrite rules on (kind, exponent, derivative) triples:
    one unit of the moving operator passes the carrier to its right,
    giving the swapped word and the commutator word with the carrier's
    exponent lowered by one (an abstract carrier also gains f').
    """
    count = 0
    stack = [factors]
    while stack:
        word = stack.pop()
        for i in range(len(word) - 1):
            left, right = word[i], word[i + 1]
            if left[0] == moving and right[0] != moving:
                break
        else:
            count += 1
            if count > cap:
                return count
            continue
        rest = ((moving, left[1] - 1, 0),) if left[1] > 1 else ()
        swapped = word[:i] + rest + (right, (moving, 1, 0)) + word[i + 2:]
        lowered = ((right[0], right[1] - 1, right[2]),) if right[1] != 1 else ()
        if right[0] == "f":
            lowered += (("f", 1, right[2] + 1),)
        stack.append(word[:i] + rest + lowered + word[i + 2:])
        stack.append(swapped)
    return count


def word_text(factors, coeff: Fraction) -> str:
    pieces = []
    for kind, power, deriv in factors:
        base = "f" + "'" * deriv + "(x)" if kind == "f" else kind
        pieces.append(base if power == 1 else f"{base}^{power}")
    body = " * ".join(pieces)
    if coeff == 1:
        return body
    return f"{coeff} * {body}"


def _momentum_ok(factors):
    # the momentum convention moves x, which must carry a nonnegative
    # integer power, and has no abstract functions of x
    return all(k == "p" or (k == "x" and power >= 0) for k, power, _ in factors)


@dataclass(frozen=True)
class WordOp:
    text: str
    convention: str
    factors: tuple
    coeff: Fraction
    leaves: int
    known_fault = False

    def expr(self) -> OperatorExpr:
        """The input built factor by factor, without the parser."""
        made = []
        for kind, power, deriv in self.factors:
            if kind == "x":
                made.append(x_power(power))
            elif kind == "p":
                made.append(p_power(power))
            else:
                made.append(func_power("f", power, deriv))
        coeff = ScalarExpr.number(self.coeff.numerator, self.coeff.denominator)
        return OperatorExpr.from_factors(*made, coeff=coeff)


_CONVENTIONS = {"coordinate": ordering.Convention.COORDINATE,
                "momentum": ordering.Convention.MOMENTUM}
_MOVING = {"coordinate": BaseKind.P, "momentum": BaseKind.X}


def band_counts(convention: str) -> list:
    """(lowest leaves, highest leaves, words a pass) of the bands in use."""
    column = 2 if convention == "coordinate" else 3
    counts = [(row[0], row[1], round(row[column] * DRAWS))
              for row in LEAF_SHARES]
    return [band for band in counts if band[2]]


def ordering_corpus(seed: int) -> list[WordOp]:
    """The words of a pass, from a pool of POOL_DRAWS seeded draws.

    Each draw goes to the pool of its leaf band, in the coordinate
    convention and, if it is a momentum word, in the momentum one too.
    A band that keeps n words a pass takes, from its pool sorted by
    leaves and text length, the middle word of each of n equal slices,
    so that a pass follows the distribution within the band as well.
    """
    rng = random.Random(seed)
    wanted = {(convention, lo, hi): count for convention in _CONVENTIONS
              for lo, hi, count in band_counts(convention)}
    pools = {key: [] for key in wanted}
    cap = LEAF_SHARES[-1][1]
    for draws in range(MAX_DRAWS):
        if draws >= POOL_DRAWS and all(len(pools[key]) >= count
                                       for key, count in wanted.items()):
            break
        factors, coeff = _random_word(rng)
        for convention, moving in (("coordinate", "p"), ("momentum", "x")):
            if convention == "momentum" and not _momentum_ok(factors):
                continue
            leaves = swap_leaves(factors, moving, cap)
            for key in pools:
                if key[0] == convention and key[1] <= leaves <= key[2]:
                    pools[key].append(WordOp(word_text(factors, coeff),
                                             convention, factors, coeff,
                                             leaves))
    else:
        raise RuntimeError("too few words in some leaf band")
    ops = []
    for key, count in wanted.items():
        pool = sorted(pools[key], key=lambda op: (op.leaves, len(op.text),
                                                  op.text))
        ops += [pool[(2 * k + 1) * len(pool) // (2 * count)]
                for k in range(count)]
    for n in LADDER:
        factors = (("p", n, 0), ("x", n, 0))
        ops.append(WordOp(word_text(factors, Fraction(1)), "coordinate",
                          factors, Fraction(1),
                          swap_leaves(factors, "p", 1 << 20)))
    rng.shuffle(ops)
    return ops


class OrderingCorpus:
    name = "ordering-corpus"

    def __init__(self, seed: int):
        self.ops = ordering_corpus(seed)
        self.warmup = next(op for op in self.ops if op.text == "p^4 * x^4")

    def describe(self) -> str:
        coord = [op for op in self.ops if op.convention == "coordinate"]
        leaves = sum(op.leaves for op in self.ops)
        ladder = sum(2 ** n for n in LADDER)
        return (f"{len(self.ops)} ops a pass: {len(coord)} coordinate "
                f"({len(LADDER)} of them the ladder), "
                f"{len(self.ops) - len(coord)} momentum, {leaves} swap-tree "
                f"leaves in all, {ladder} of them in the ladder")

    def run(self, op: WordOp) -> str:
        expr = parser.parse_operator(op.text)
        nf = ordering.normal_order(expr, _CONVENTIONS[op.convention])
        return parser.print_operator(nf.as_operator_expr())

    def check(self, op: WordOp, out: str):
        return check_normal_form(op, out)


def check_normal_form(op: WordOp, out: str):
    convention = _CONVENTIONS[op.convention]
    moving = _MOVING[op.convention]
    try:
        printed = parser.parse_operator(out)
    except parser.ParseError as err:
        return f"output does not parse: {err}"
    for word in printed.words:
        kinds = [f.kind is moving for f in word.factors]
        if any(kinds[i] and not kinds[i + 1] for i in range(len(kinds) - 1)):
            return f"a {moving.value} stands left of a carrier"
    again = parser.print_operator(
        ordering.normal_order(printed, convention).as_operator_expr())
    if again != out:
        return f"print -> parse -> normal-order gives {again!r}"
    phi = sympy.Function("phi")(X)
    diff = sympy.expand(apply_operator(op.expr(), phi)
                        - apply_operator(printed, phi))
    if diff != 0:
        return "differs from the differential-operator oracle"
    return None


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------
# q = |x| E / hbar^2 (or a*b for sin_cos_integral) sets the lobe
# structure.  Below q ~ 0.09 the single 24-point head panel of
# _kernels._osc_tail is not resolved and the reported error no longer
# bounds the true error, so the seeded grids start at q = 0.1, and a fixed
# band at q <= 0.03, x = 0 included, is kept as known faults.  The
# sin_cos_integral bound also fails, for either ordering and any split of
# q = a*b, in bands near q = 4.5-6.2 and 19.7-25 and at scattered q up to
# 100: about one draw in 40 over [0.1, 100], none below q = 4.3.  A seeded
# q there would fail on some seeds only, so the seeded sin_cos grid stops
# at q = 4 and fixed ops in those bands are kept as known faults.

SPEC = quadrature.QuadratureSpec()
PSI_Q = (0.1, 100.0)
SIN_COS_Q = (0.1, 4.0)
PER_KIND = 24
FAULT_BAND_PSI = (0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.03)
FAULT_BAND_SIN_COS = (1e-4, 1e-2, 0.03, 4.9, 5.84, 20.8, 21.86, 26.24)


@dataclass(frozen=True)
class ReconstructOp:
    kind: str                 # "psi" or "sin_cos"
    x: float = 0.0
    E: float = 1.0
    hbar: float = 1.0
    a: float = 0.0
    b: float = 0.0
    sin_fast: bool = True
    known_fault: bool = False

    @property
    def q(self) -> float:
        if self.kind == "psi":
            return abs(self.x) * self.E / self.hbar ** 2
        return self.a * self.b


def reconstruct_inputs(seed: int) -> list[ReconstructOp]:
    rng = random.Random(seed)
    ops = []
    for sign in (1.0, -1.0):
        for q in _stratified_log(rng, *PSI_Q, PER_KIND):
            E = _log_uniform(rng, 0.5, 2.0)
            hbar = _log_uniform(rng, 0.5, 1.5)
            ops.append(ReconstructOp("psi", x=sign * q * hbar ** 2 / E,
                                     E=E, hbar=hbar))
    for i, q in enumerate(_stratified_log(rng, *SIN_COS_Q, PER_KIND)):
        b = _log_uniform(rng, 0.5, 2.0)
        ops.append(ReconstructOp("sin_cos", a=q / b, b=b, sin_fast=i % 2 == 0))
    for q in FAULT_BAND_PSI:
        ops.append(ReconstructOp("psi", x=q, known_fault=True))
    for i, q in enumerate(FAULT_BAND_SIN_COS):
        ops.append(ReconstructOp("sin_cos", a=math.sqrt(q), b=math.sqrt(q),
                                 sin_fast=i % 2 == 0, known_fault=True))
    rng.shuffle(ops)
    return ops


class Reconstruct:
    name = "reconstruct"

    def __init__(self, seed: int):
        self.ops = reconstruct_inputs(seed)
        self.warmup = ReconstructOp("psi", x=1.0)

    def describe(self) -> str:
        faults = sum(op.known_fault for op in self.ops)
        return (f"{len(self.ops)} ops a pass: {2 * PER_KIND} reconstructions "
                f"(x > 0 and x < 0, q in {PSI_Q}), {PER_KIND} sin_cos_integral "
                f"(q in {SIN_COS_Q}), {faults} fixed ops kept as failed")

    def run(self, op: ReconstructOp):
        if op.kind == "psi":
            psi = verification.MomentumEigenfunction(op.E, op.hbar)
            rec = verification.fourier_reconstruct_detailed(psi, op.x, SPEC)
            return rec.value, rec.abs_error
        value, err = quadrature.sin_cos_integral(op.a, op.b, SPEC,
                                                 sin_fast=op.sin_fast)
        return complex(value), err

    def check(self, op: ReconstructOp, out):
        return check_reconstruction(op, out)


def check_reconstruction(op: ReconstructOp, out):
    value, err = out
    if op.kind == "sin_cos":
        target = 0.5 * math.pi * _bessel_j(0, 2 * mpmath.sqrt(
            mpmath.mpf(op.a) * op.b))
    elif op.x < 0:
        target = 0.0     # the symmetric sector pairing cancels exactly
    else:
        target = TWO_PI_I * _bessel_j(0, 2 * mpmath.sqrt(
            mpmath.mpf(op.E) * op.x) / op.hbar)
    miss = abs(value - target)
    if not miss <= err:
        return f"error {miss:.3e} exceeds the reported {err:.3e} at q={op.q:.3g}"
    return None


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------
# The paper's hand-written normal forms; parameter names are drawn from
# pairs that print in this order (the printer sorts symbols by name).

NAME_PAIRS = (("a", "g"), ("alpha", "gamma"), ("a", "b"), ("b", "c"),
              ("beta", "delta"))

VERIFY_SUITES = {
    "eq3": (("eq3[x]", "x * p - 1/2 * i * hbar"),
            ("eq3[x^2]", "x^2 * p - i * hbar * x"),
            ("eq3[sqrt(x)]", "x^(1/2) * p - 1/4 * i * hbar * x^(-1/2)"),
            ("eq3[f]", "f(x) * p - 1/2 * i * hbar * f'(x)")),
    "eq4": (("eq4", "p^2 * x + i * hbar * p"),),
    "eq11": tuple((f"eq11[a={a},b={b}]", None)
                  for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)),
    "eq14": (("eq14", "x * p^2 - i * hbar * p + alpha * gamma * hbar^2 * x^-1"),
             ("eq14[gamma=0]", "x * p^2 - i * hbar * p")),
    "eq18": (("eq18a", None), ("eq18b", None)),
    "eq19": (("eq19", None),),
}

SOLVE_POINTS = 5
SOLVE_TOL = 1e-9
ORDER_TOL = 1e-6        # |fitted order - 2 sqrt(alpha gamma)|
RESIDUAL_TOL = 1e-8     # the fitted order's ODE residual


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple
    expected: object = None
    known_fault = False


def cli_inputs(seed: int) -> list[CliOp]:
    rng = random.Random(seed)
    a, g = NAME_PAIRS[rng.randrange(len(NAME_PAIRS))]
    ops = [
        CliOp("normal-order", ("normal-order",
              f"x^{a} * p * x^(1-{a}-{g}) * p * x^{g} + "
              f"x^{g} * p * x^(1-{a}-{g}) * p * x^{a}", "--hermitize-scale"),
              f"x * p^2 - i * hbar * p + {a} * {g} * hbar^2 * x^-1"),
        CliOp("normal-order", ("normal-order",
              f"x^{a} * p * x^(1-{a}) + x^(1-{a}) * p * x^{a}",
              "--hermitize-scale"), "x * p - 1/2 * i * hbar"),
        CliOp("normal-order", ("normal-order",
              f"f(x)^{g} * p * f(x)^(1-{g}) + f(x)^(1-{g}) * p * f(x)^{g}",
              "--hermitize-scale"), "f(x) * p - 1/2 * i * hbar * f'(x)"),
        CliOp("normal-order", ("normal-order",
              f"p^(2*{a}) * x * p^(2-2*{a}) + p^(2-2*{a}) * x * p^(2*{a})",
              "--rep", "momentum", "--hermitize-scale"),
              "p^2 * x + i * hbar * p"),
    ]
    for suite in VERIFY_SUITES:
        ops.append(CliOp("verify", ("verify", "--identity", suite,
                                    "--format", "json"), suite))
    E = _log_uniform(rng, 1.0, 2.5)
    hbar = _log_uniform(rng, 0.6, 1.0)
    stop = 3.0 + 2.0 * rng.random()
    ops.append(CliOp("solve", ("solve", "--E", repr(E), "--hbar", repr(hbar),
                               f"--x-grid=0.25:{stop!r}:{SOLVE_POINTS}",
                               "--format", "csv"), (E, hbar, 0.25, stop)))
    ag = rng.random()
    ops.append(CliOp("order-scan", ("order-scan", "--alpha-gamma", repr(ag),
                                    "--format", "json"), ag))
    return ops


class CliSession:
    name = "cli-session"

    def __init__(self, seed: int):
        self.ops = cli_inputs(seed)
        self.warmup = self.ops[0]
        self.command = [sys.executable, "-m", "qorder.cli"]
        self.env = env.child_env(os.environ)

    def describe(self) -> str:
        kinds = [op.kind for op in self.ops]
        return (f"{len(self.ops)} subprocesses a pass: "
                + ", ".join(f"{kinds.count(k)} {k}" for k in dict.fromkeys(kinds)))

    def run(self, op: CliOp):
        proc = subprocess.run(self.command + list(op.argv),
                              env=self.env, capture_output=True, text=True,
                              timeout=120, check=False)
        return proc.returncode, proc.stdout

    def check(self, op: CliOp, out):
        return check_cli(op, out)


def check_cli(op: CliOp, out):
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    if op.kind == "normal-order":
        if stdout.strip() != op.expected:
            return f"printed {stdout.strip()!r}, expected {op.expected!r}"
        return None
    if op.kind == "verify":
        rows = json.loads(stdout)
        want = VERIFY_SUITES[op.expected]
        if [r["id"] for r in rows] != [i for i, _ in want]:
            return f"ids {[r['id'] for r in rows]}"
        for row, (_, detail) in zip(rows, want):
            if row["pass"] is not True:
                return f"{row['id']} did not pass"
            if detail is not None and row["detail"] != detail:
                return f"{row['id']} printed {row['detail']!r}"
        return None
    if op.kind == "solve":
        return _check_solve(op.expected, stdout)
    rows = json.loads(stdout)
    ag = op.expected
    if len(rows) != 1 or rows[0]["alpha_gamma"] != ag:
        return "order-scan rows do not match the input"
    row = rows[0]
    expected = 2 * math.sqrt(ag)
    if not abs(row["fitted_order"] - expected) <= ORDER_TOL:
        return f"fitted order {row['fitted_order']!r}, expected {expected!r}"
    if not row["fitted_residual"] <= RESIDUAL_TOL:
        return f"fitted residual {row['fitted_residual']!r}"
    return None


def _check_solve(params, stdout):
    E, hbar, start, stop = params
    lines = stdout.strip().splitlines()
    if lines[0] != "x,psi_re,psi_im,j0,ratio_re,ratio_im,failed":
        return f"header {lines[0]!r}"
    if len(lines) != SOLVE_POINTS + 1:
        return f"{len(lines) - 1} rows"
    step = (stop - start) / (SOLVE_POINTS - 1)
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        x, psi_re, psi_im, j0, ratio_re, ratio_im = map(float, cells[:6])
        if cells[6] != "false" or abs(x - (start + step * k)) > 1e-12:
            return f"row {k}: {line}"
        ref = _bessel_j(0, 2 * mpmath.sqrt(mpmath.mpf(E) * x) / hbar)
        if abs(j0 - ref) > 1e-12:
            return f"row {k}: j0 {j0!r}, mpmath {ref!r}"
        # the ratio column equals 2 pi i to within SOLVE_TOL / |j0|
        if abs(complex(ratio_re, ratio_im) - TWO_PI_I) * abs(ref) > SOLVE_TOL:
            return f"row {k}: ratio {ratio_re!r}+{ratio_im!r}i"
        if abs(complex(psi_re, psi_im) - TWO_PI_I * ref) > SOLVE_TOL:
            return f"row {k}: psi {psi_re!r}+{psi_im!r}i"
    return None


WORKLOADS = {cls.name: cls for cls in (OrderingCorpus, Reconstruct, CliSession)}
