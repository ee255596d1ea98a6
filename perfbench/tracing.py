"""Spans around the calls into each qorder layer, recorded from outside.

The tracer replaces each public function of a layer with a wrapper, in
every ``qorder`` module namespace where that function is bound, because
callers look functions up there at call time (``qorder.quadrature``
calls ``osc_tail`` through its own globals, ``qorder.cli`` calls
``bessel_j`` through its own, and so on).  ``ScalarExpr`` arithmetic and
equality are wrapped on the class.  Nothing under ``src/`` changes.

A span is (name, parent span, op, start, end); spans are kept in memory
and written out when the run ends.  A layer's self time is its span
time minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); each function is wrapped wherever a
# qorder module binds it
TARGETS = (
    ("qorder.parser", "parse_operator", "parser.parse"),
    ("qorder.parser", "print_operator", "parser.print"),
    ("qorder.ordering", "normal_order", "ordering.normal_order"),
    ("qorder.bessel", "bessel_j", "bessel"),
    ("qorder.bessel", "bessel_j_derivatives", "bessel"),
    ("qorder.bessel", "bessel_first_zero", "bessel"),
    ("qorder._kernels", "osc_tail", "_kernels.osc_tail"),
    ("qorder.quadrature", "sin_phase_integral", "quadrature"),
    ("qorder.quadrature", "sin_cos_integral", "quadrature"),
    ("qorder.verification", "fourier_reconstruct_detailed",
     "verification.reconstruct"),
    ("qorder.verification", "determine_bessel_order", "verification.fit"),
    ("qorder.verification", "coordinate_ode_residual",
     "verification.residual"),
    ("qorder.cli", "main", "cli.main"),
)

SCALAR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                  "__pow__", "__eq__")


def _count_words(counts, result):
    counts["ordering.output_words"] += len(result.words)


def _count_lobes(counts, result):
    counts["_kernels.lobes"] += result[3]


COUNTERS = {"ordering.normal_order": _count_words,
            "_kernels.osc_tail": _count_lobes}


class Tracer:
    """In-memory span store; ``active`` is False outside the timed loop."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, func):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = len(tracer.starts)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qorder" or n.startswith("qorder.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            func = getattr(module, attr, None) if module else None
            if func is None:
                continue
            wrapper = self.wrap(name, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
        scalar_cls = sys.modules["qorder.scalars"].ScalarExpr
        for method in SCALAR_METHODS:
            setattr(scalar_cls, method,
                    self.wrap("scalars", getattr(scalar_cls, method)))

    def spans(self) -> list[list]:
        return [[n, p, o, s, e] for n, p, o, s, e in zip(
            self.names, self.parents, self.ops, self.starts, self.ends)]


def layer_totals(spans) -> tuple[Counter, dict, dict]:
    """(calls, inclusive seconds, self seconds) per span name.

    Inclusive time counts only the outermost span of a name, so a layer
    that re-enters itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, parent, _op, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    inclusive: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for i, (name, parent, _op, start, end) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        own[name] += dur - child[i]
        if parent < 0 or spans[parent][0] != name:
            inclusive[name] += dur
    return calls, inclusive, own


def per_layer_metrics(spans, counts, passes: int, imports: dict) -> dict:
    """The per-layer metrics, per whole pass of the workload's input set.

    ``import.*`` are seconds per interpreter start instead.
    """
    calls, inclusive, own = layer_totals(spans)
    counts = Counter(counts)

    def per_pass(value):
        return value / passes

    return {
        "import.qorder_s": (imports["qorder"], "s"),
        "import.sympy_s": (imports["sympy"], "s"),
        "parser.parse_calls": (per_pass(calls["parser.parse"]), "count"),
        "parser.parse_s": (per_pass(inclusive["parser.parse"]), "s"),
        "parser.print_s": (per_pass(inclusive["parser.print"]), "s"),
        "ordering.normal_order_calls":
            (per_pass(calls["ordering.normal_order"]), "count"),
        "ordering.normal_order_self_s":
            (per_pass(own["ordering.normal_order"]), "s"),
        "ordering.output_words":
            (per_pass(counts["ordering.output_words"]), "count"),
        "scalars.ops": (per_pass(calls["scalars"]), "count"),
        "scalars.s": (per_pass(inclusive["scalars"]), "s"),
        "bessel.calls": (per_pass(calls["bessel"]), "count"),
        "bessel.s": (per_pass(inclusive["bessel"]), "s"),
        "kernels.osc_tail_calls":
            (per_pass(calls["_kernels.osc_tail"]), "count"),
        "kernels.lobes": (per_pass(counts["_kernels.lobes"]), "count"),
        "kernels.osc_tail_s": (per_pass(inclusive["_kernels.osc_tail"]), "s"),
        "quadrature.calls": (per_pass(calls["quadrature"]), "count"),
        "quadrature.self_s": (per_pass(own["quadrature"]), "s"),
        "verification.reconstruct_s":
            (per_pass(inclusive["verification.reconstruct"]), "s"),
        "verification.fit_s": (per_pass(inclusive["verification.fit"]), "s"),
        "verification.residual_evals":
            (per_pass(calls["verification.residual"]), "count"),
        "cli.main_s": (per_pass(inclusive["cli.main"]), "s"),
    }
