"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --t0 MONOTONIC [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so set-up time covers interpreter start, the import,
generating the inputs and one warm-up op.  The timed loop then runs
whole passes over the input set, one op at a time, until ``--seconds``
have passed and at least three passes are done.  Outputs are checked
after the loop.  The last line of stdout is one JSON object with the raw
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

import env

# every op runs in at least three passes, on more than one CPU
MIN_PASSES = 3


def allowed_cpus() -> list:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def pin(cpus) -> None:
    """Restricts this process to ``cpus``; a no-op where that is refused."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_imports() -> dict:
    start = perf_counter()
    import sympy  # noqa: F401
    sympy_s = perf_counter() - start
    start = perf_counter()
    import qorder
    qorder_s = perf_counter() - start
    env.check_imported(qorder)
    return {"sympy": sympy_s, "qorder": qorder_s}


class CliTrace:
    """Runs cli-session ops through perfbench/cli_child.py, which traces
    inside the child and leaves its spans in a file per op."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.dir = env.OUT / f"cli-spans-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for old in self.dir.glob("*.json"):
            old.unlink()
        self.files = []

    def prepare(self, op_index):
        path = self.dir / f"{op_index}.json"
        self.files.append((op_index, path))
        self.workload.command = [sys.executable, str(env.BENCH / "cli_child.py"),
                                 "--spans", str(path), "--"]

    def collect(self):
        spans, counts, imports = [], {}, {"sympy": [], "qorder": []}
        for op_index, path in self.files:
            child = json.loads(path.read_text())
            offset = len(spans)
            for name, parent, _op, start, end in child["spans"]:
                spans.append([name, parent + offset if parent >= 0 else -1,
                              op_index, start, end])
            for key, value in child["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key in imports:
                imports[key].append(child["imports"][key])
            path.unlink()
        return spans, counts, {k: statistics.median(v) for k, v in imports.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    env.add_paths()
    imports = _timed_imports()
    import workloads
    from tracing import Tracer, per_layer_metrics

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.ops
    tracer = cli_trace = None
    if args.trace:
        if args.workload == "cli-session":
            cli_trace = CliTrace(workload, args.seed)
        else:
            tracer = Tracer()
            tracer.install()
    workload.run(workload.warmup)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.active = True
    pass_ms = []                             # per pass, per op
    outputs = [dict() for _ in ops]          # distinct output -> occurrences
    op_counter = 0
    # Load from elsewhere on a shared host slows one core at a time, often
    # for seconds: each pass runs on the next allowed CPU in turn, so that
    # every op also runs on a quiet core
    cpus = allowed_cpus()
    loop_start = perf_counter()
    while True:
        if cpus:
            pin({cpus[len(pass_ms) % len(cpus)]})
        op_ms = []
        pass_ms.append(op_ms)
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = op_counter
            elif cli_trace:
                cli_trace.prepare(op_counter)
            start = perf_counter()
            try:
                out = workload.run(op)
            except Exception as err:       # a failed op is counted, not fatal
                out = ("raised", type(err).__name__, str(err))
            op_ms.append((perf_counter() - start) * 1e3)
            outputs[i][out] = outputs[i].get(out, 0) + 1
            op_counter += 1
        if (len(pass_ms) >= MIN_PASSES
                and perf_counter() - loop_start >= args.seconds):
            break
    loop_s = perf_counter() - loop_start
    if cpus:
        pin(cpus)
    if tracer:
        tracer.active = False
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN if args.workload == "cli-session"
                        else resource.RUSAGE_SELF)

    failed = unexpected = 0
    reasons = []
    for op, seen in zip(ops, outputs):
        for out, times in seen.items():
            if isinstance(out, tuple) and out and out[0] == "raised":
                reason = f"raised {out[1]}: {out[2]}"
            else:
                reason = workload.check(op, out)
            if reason is None:
                continue
            failed += times
            if not op.known_fault:
                unexpected += times
                reasons.append(f"{op}: {reason}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": workload.describe(), "passes": len(pass_ms),
        "attempted": op_counter, "failed": failed, "unexpected": unexpected,
        "reasons": reasons[:20], "setup_s": setup_s, "loop_s": loop_s,
        "pass_ms": pass_ms, "peak_rss_mb": peak,
    }
    if args.trace:
        if cli_trace:
            spans, counts, imports = cli_trace.collect()
        else:
            spans, counts = tracer.spans(), dict(tracer.counts)
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in per_layer_metrics(
                                spans, counts, len(pass_ms), imports).items()}
        names = sorted({s[0] for s in spans})
        index = {name: i for i, name in enumerate(names)}
        env.OUT.mkdir(exist_ok=True)
        trace_file = env.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "fields": ["name", "parent", "op", "start_s", "end_s"],
            "names": names,
            "spans": [[index[n], p, o, s, e] for n, p, o, s, e in spans],
        }))
        result["trace_file"] = str(trace_file.relative_to(env.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except env.MissingSources as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
