"""Command-line front end: ordering, identity verification, and solving.

Exit codes: 0 success, 2 usage/parse error, 3 domain/ordering error,
4 numeric non-convergence, 141 stdout closed by its reader (as in
``qorder ... | head -1``; 128 + SIGPIPE, what a shell reports for a
process that SIGPIPE ended), which ends the run with no message.  Data
goes to stdout, diagnostics to stderr.
Each command imports only the layer it uses and catches every layer's
errors from :mod:`qorder.errors`: ``normal-order`` and the symbolic
``verify`` suites load no numeric module, ``order-scan``, ``solve``
and ``verify --identity eq11`` no parser or ordering engine, and only
``solve`` and ``verify``'s ``eq11`` rows load the lobe quadrature.
Every layer is plain Python; no command loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (BesselDomainError, OrderingError, ParseError,
                     QuadratureError)
from .scalars import ScalarError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_PIPE = 141

_FORMATS = ("human", "json", "csv")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _float_text(v: float) -> str:
    return repr(float(v))


def _json_float(v: float):
    """v, or None (JSON null) where v is not finite: NaN is not JSON."""
    return v if math.isfinite(v) else None


class _UsageError(ValueError):
    """A command-line value out of its documented range (exit 2)."""


def _check_number(option: str, value: float, positive: bool = False) -> None:
    """Reject a non-finite value, or a value <= 0 where positive=True,
    with a message that names the option and the value."""
    if not math.isfinite(value):
        raise _UsageError(f"{option} must be finite, got {value!r}")
    if positive and value <= 0:
        raise _UsageError(f"{option} must be positive, got {value!r}")


# ---------------------------------------------------------------------------
# normal-order
# ---------------------------------------------------------------------------

def _cmd_normal_order(args) -> int:
    from .ordering import Convention, normal_order
    from .parser import parse_operator, print_operator
    expr = parse_operator(args.expr)
    if args.hermitize_scale:
        expr = expr.scaled(Fraction(1, 2))
    convention = (Convention.COORDINATE if args.rep == "coordinate"
                  else Convention.MOMENTUM)
    nf = normal_order(expr, convention)
    text = print_operator(nf.as_operator_expr())
    if args.format == "json":
        _emit_json({"representation": args.rep, "normal_form": text,
                    "terms": len(nf.words)})
    elif args.format == "csv":
        sys.stdout.write("representation,normal_form\n")
        sys.stdout.write(f"{args.rep},\"{text}\"\n")
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import identities
    rows = [row for row in identities.IDENTITIES
            if args.identity in ("all", identities.suite(row))]
    if not rows:
        raise _UsageError(f"unknown identity {args.identity!r}")
    results = []
    for row in rows:
        try:
            results.append((row.id, *identities.check(row)))
        except QuadratureError as err:
            print(f"quadrature error in {identities.suite(row)}: {err}",
                  file=sys.stderr)
            return EXIT_NUMERIC
    all_pass = all(ok for _, ok, _ in results)
    if args.format == "json":
        _emit_json([{"id": name, "pass": ok, "detail": detail}
                    for name, ok, detail in results])
    elif args.format == "csv":
        sys.stdout.write("id,pass,detail\n")
        for name, ok, detail in results:
            sys.stdout.write(f"{name},{str(ok).lower()},\"{detail}\"\n")
    else:
        for name, ok, detail in results:
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    return EXIT_OK if all_pass else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# the most points --x-grid may ask for: the grid is built as a list and
# every point runs a reconstruction, so a larger count would hold memory
# and time out of proportion to a table that anyone reads
_GRID_MAX = 1_000_000


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be start:stop:count")
    # a count too long for int() (4300 digits from Python 3.11 on) is
    # named by its length, before int() gets to it
    digits = parts[2].strip().lstrip("+-").replace("_", "")
    if digits.isdecimal() and len(digits) > len(str(_GRID_MAX)):
        raise ValueError(f"grid count of {len(digits)} digits is beyond the "
                         f"limit of {_GRID_MAX} points")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    _check_number("--x-grid start", start)
    _check_number("--x-grid stop", stop)
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count > _GRID_MAX:
        raise ValueError(f"grid count {count} is beyond the limit of "
                         f"{_GRID_MAX} points")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    if not math.isfinite(step):
        raise ValueError(f"step ({stop!r} - {start!r}) / {count - 1} "
                         "is beyond the largest float")
    return [start + step * k for k in range(count)]


def _cmd_solve(args) -> int:
    from .bessel import bessel_j
    from .verification import (MomentumEigenfunction,
                               fourier_reconstruct_detailed)
    _check_number("--E", args.E, positive=True)
    _check_number("--hbar", args.hbar, positive=True)
    try:
        grid = _parse_grid(args.x_grid)
    except ValueError as err:
        raise _UsageError(f"bad grid: {err}") from None
    # the reconstruction integrates Phi(x / hbar, E / hbar); name the
    # options that put either ratio beyond the largest float
    if not math.isfinite(args.E / args.hbar):
        raise ValueError(
            f"domain error: --E {args.E!r} and --hbar {args.hbar!r} put "
            f"E/hbar at {args.E / args.hbar!r}; the reconstruction needs "
            "it finite")
    for x in grid:
        if not math.isfinite(x / args.hbar):
            raise ValueError(
                f"domain error: --x-grid point {x!r} and --hbar "
                f"{args.hbar!r} put x/hbar at {x / args.hbar!r}; the "
                "reconstruction needs it finite")
    psi = MomentumEigenfunction(E=args.E, hbar=args.hbar)
    rows = []
    any_failed = False
    for x in grid:
        try:
            rec = fourier_reconstruct_detailed(psi, x)
            value, failed = rec.value, False
        except QuadratureError:
            # no value to print: the row is flagged, its psi nan (null)
            value, failed = complex(math.nan, math.nan), True
        try:
            j0 = bessel_j(0.0, 2.0 * math.sqrt(args.E * abs(x))
                          / args.hbar).value
        except BesselDomainError:
            # the row's Bessel target is out of range; flag it like a
            # quadrature failure and go on
            j0, failed = math.nan, True
        any_failed = any_failed or failed
        ratio = value / j0 if j0 != 0 else complex("nan")
        rows.append((x, value, j0, ratio, failed))

    def render(stream):
        if args.format == "json":
            stream.write(json.dumps([{
                "x": x, "psi_re": _json_float(v.real),
                "psi_im": _json_float(v.imag), "j0": _json_float(j0),
                "ratio_re": _json_float(r.real),
                "ratio_im": _json_float(r.imag), "failed": failed,
            } for x, v, j0, r, failed in rows], allow_nan=False) + "\n")
        else:
            stream.write("x,psi_re,psi_im,j0,ratio_re,ratio_im,failed\n")
            for x, v, j0, r, failed in rows:
                stream.write(",".join([
                    _float_text(x), _float_text(v.real), _float_text(v.imag),
                    _float_text(j0), _float_text(r.real), _float_text(r.imag),
                    str(failed).lower()]) + "\n")

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                render(fh)
        except OSError as err:
            raise _UsageError(f"cannot write --out {args.out!r}: "
                              f"{err.strerror or err}") from None
    else:
        render(sys.stdout)
    return EXIT_NUMERIC if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# order-scan
# ---------------------------------------------------------------------------

def _cmd_order_scan(args) -> int:
    from .bessel import _Z_MAX
    from .coordinate import (ORDER_SCAN_GRID, determine_bessel_order,
                             order_residual)
    values = args.alpha_gamma
    for v in values:
        _check_number("--alpha-gamma", v)
    _check_number("--E", args.E, positive=True)
    _check_number("--hbar", args.hbar, positive=True)
    if any(v < 0 or v > 1 for v in values):
        raise _UsageError("alpha*gamma values must lie in [0, 1]")
    try:
        args.hbar ** 2      # the coordinate ODE's E/hbar^2 divides by it
    except OverflowError:
        raise ValueError(
            f"domain error: --hbar {args.hbar!r} puts hbar^2, which the "
            "coordinate ODE divides E by, beyond the largest float") from None
    x_top = ORDER_SCAN_GRID[-1]
    z_top = 2.0 * math.sqrt(args.E * x_top) / args.hbar
    if not z_top <= _Z_MAX:
        raise ValueError(
            f"domain error: --E {args.E!r} and --hbar {args.hbar!r} put the "
            f"Bessel argument 2*sqrt(E*x)/hbar at {z_top:g} for x = "
            f"{x_top:g} of the order-scan grid, above its limit of "
            f"{_Z_MAX:g}")
    rows = []
    for ag in values:
        fitted = determine_bessel_order(ag, args.E, args.hbar)
        sqrt_index = 2.0 * math.sqrt(ag)
        res_fitted = order_residual(fitted, ag, args.E, args.hbar)
        res_coupling = order_residual(ag, ag, args.E, args.hbar)
        rows.append((ag, fitted, sqrt_index, ag, res_fitted, res_coupling))
    if args.format == "json":
        _emit_json([{
            "alpha_gamma": ag, "fitted_order": fitted,
            "two_sqrt_alpha_gamma": sq, "coupling_index": coupling,
            "fitted_residual": rf, "coupling_index_residual": rc,
        } for ag, fitted, sq, coupling, rf, rc in rows])
    elif args.format == "csv":
        sys.stdout.write("alpha_gamma,fitted_order,two_sqrt_alpha_gamma,"
                         "coupling_index,fitted_residual,"
                         "coupling_index_residual\n")
        for row in rows:
            sys.stdout.write(",".join(_float_text(v) for v in row) + "\n")
    else:
        for ag, fitted, sq, coupling, rf, rc in rows:
            sys.stdout.write(
                f"alpha*gamma={ag:g}: fitted order {fitted:.6f}, "
                f"2*sqrt = {sq:.6f}, coupling-as-index {coupling:g}; "
                f"residual fitted {rf:.2e}, coupling {rc:.2e}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qorder",
        description="Heisenberg-algebra ordering engine and verification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-order", help="normal-order an operator")
    p.add_argument("expr")
    p.add_argument("--rep", choices=("coordinate", "momentum"),
                   default="coordinate")
    p.add_argument("--hermitize-scale", action="store_true",
                   help="multiply the parsed expression by 1/2")
    p.add_argument("--format", choices=_FORMATS, default="human")
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("verify", help="run named identity suites")
    p.add_argument("--identity", default="all")
    p.add_argument("--format", choices=_FORMATS, default="human")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve",
                       help="reconstruct the coordinate eigenfunction")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--x-grid", default="0:4:17",
                   help="start:stop:count; write a grid that starts below "
                        "zero as --x-grid=-2:4:7 (default 0:4:17)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("order-scan",
                       help="fit the Bessel order of the coordinate ODE")
    p.add_argument("--alpha-gamma", type=float, nargs="+", required=True)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--format", choices=_FORMATS, default="human")
    p.set_defaults(func=_cmd_order_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except _UsageError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:  # a ValueError, so before that clause
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OrderingError as err:
        print(f"ordering error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ScalarError, BesselDomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except QuadratureError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
