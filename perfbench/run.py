"""qorder's benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --steadiness RUNS [--sets 2] [--workload ...]

Each workload run happens in fresh interpreters started one after the
other (a closed loop, one client, nothing in parallel): two that stop
after set-up and one that also runs the timed loop and checks every
output.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Each metric is printed by
name with its unit and sample count, with the ops attempted and failed,
and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results go to
``perfbench/out/``.

``--steadiness RUNS`` repeats each chosen workload on seeds 1..RUNS, in
``--sets`` sets, each run as its own ``run.py`` process, and reports
each end-to-end metric's median, quartiles and spread against the bound
in BENCHMARK.json, and how far the sets' medians differ.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
from worker import allowed_cpus, pin

WORKLOADS = ("ordering-corpus", "reconstruct", "cli-session")
SETUPS = 5                     # set-ups measured per run, the fastest reported
RUN_LIMIT_S = 170.0            # a run must end within 180 s
P90_MIN_OPS = 100
MANIFEST = env.ROOT / "BENCHMARK.json"


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


class RunFailed(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, setup_only, deadline,
            cpu=None) -> dict:
    cmd = [sys.executable, str(env.BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0),
                              check=False,
                              preexec_fn=None if cpu is None
                              else functools.partial(pin, {cpu}))
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"{workload} did not finish in time") from err
    if proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited {proc.returncode}:\n"
                        + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    """Run one workload; returns the worker's figures plus the metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # set-up is the same work every time and runs once a process, so it is
    # timed as its fastest over several processes.  The host's slow spells
    # last seconds, so half of them run before the measuring process and
    # half after it, and they take the CPUs in turn.  (The measuring
    # process is not pinned: it moves between CPUs by itself.)
    cpus = allowed_cpus() or [None]
    extra = 0 if trace else SETUPS - 1

    def setup_only(tries):
        return [_worker(workload, seed, seconds, 0, True, deadline,
                        cpus[i % len(cpus)])["setup_s"] for i in tries]

    before = setup_only(range(extra // 2))
    result = _worker(workload, seed, seconds, trace, False, deadline)
    setups = before + [result["setup_s"]] + setup_only(range(extra // 2, extra))
    pass_ms = result.pop("pass_ms")
    # each op's fastest time over the passes: the ops are deterministic,
    # and on a shared host, where each CPU flips between a fast and a
    # slow state, load from elsewhere only ever adds time
    op_ms = [min(times) for times in zip(*pass_ms)]
    per_pass = len(op_ms)
    shape = f"{per_pass} ops x {len(pass_ms)} passes"
    # with --trace 1 this is printed, not reported: set against an
    # untraced run it gives the tracing overhead
    result["ops_per_s"] = 1e3 * per_pass / sum(op_ms)
    result["shape"] = shape
    if trace:
        metrics = result.pop("layers")
        samples = {name: f"{len(pass_ms)} passes" for name in metrics}
    else:
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s"},
            "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"setup_s": f"{len(setups)} set-ups", "ops_per_s": shape,
                   "op_ms_p50": shape, "peak_rss_mb": "1 process tree"}
        every = [t for times in pass_ms for t in times]
        if len(every) >= P90_MIN_OPS:
            result["op_ms_p90"] = statistics.quantiles(every, n=10)[-1]
        result["setups_s"] = setups
    result["metrics"] = metrics
    result["samples"] = samples
    result["correct"] = result["unexpected"] == 0 and result["attempted"] > 0
    return result


def _print_run(result) -> None:
    trace = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']} (seed {result['seed']}, {trace}): "
          f"{result['inputs']}")
    print(f"  {result['passes']} passes, {result['attempted']} ops attempted, "
          f"{result['failed']} failed"
          + ("" if result["correct"] else
             f", {result['unexpected']} of them wrong outside the known faults"))
    for reason in result["reasons"]:
        print(f"  WRONG {reason}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"(n = {result['samples'][name]})")
    if "op_ms_p90" in result:
        print(f"  {'op_ms_p90':30s} {result['op_ms_p90']:14.6g} {'ms':6s} "
              f"(n = {result['attempted']} ops)")
    if "trace_file" in result:
        print(f"  {'ops_per_s under tracing':30s} {result['ops_per_s']:14.6g} "
              f"ops/s  (n = {result['shape']})")
        print(f"  spans: {result['trace_file']}")


def _save(name, data) -> Path:
    env.OUT.mkdir(exist_ok=True)
    path = env.OUT / name
    path.write_text(json.dumps(data, indent=1))
    return path


def measure(workloads, seed, seconds, trace) -> int:
    results = []
    for workload in workloads:
        result = run_workload(workload, seed, seconds, trace)
        _save(f"result-{workload}-seed{seed}-trace{trace}.json", result)
        _print_run(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# steadiness
# ---------------------------------------------------------------------------

def _one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(env.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=False)
    if proc.returncode != 0:
        raise RunFailed(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values):
    """(median, q1, q3, (q3 - q1) / median), as the acceptance rule takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def steadiness(workloads, runs, sets, seconds, trace) -> int:
    manifest = _manifest()
    metrics = manifest["per_layer" if trace else "end_to_end"]
    ok = True
    for workload in workloads:
        table = []
        for s in range(sets):
            table.append([_one_run(workload, seed, seconds, trace)
                          for seed in range(1, runs + 1)])
        report = {"workload": workload, "runs": runs, "sets": sets,
                  "seconds": seconds, "trace": trace, "metrics": {}}
        shares = [sum(r["failed"] for r in t) / sum(r["attempted"] for r in t)
                  for t in table]
        report["failed_share"] = shares
        report["correct"] = all(r["correct"] for t in table for r in t)
        print(f"{workload}: {runs} runs x {sets} sets, failed share "
              + " / ".join(f"{x:.6f}" for x in shares)
              + ("" if report["correct"] else ", WRONG OUTPUTS"))
        ok &= report["correct"] and len(set(shares)) == 1
        for spec in metrics:
            name = spec["name"]
            per_set = [[r["metrics"][name]["value"] for r in t] for t in table]
            entry = {"values": per_set}
            if trace:
                # per seed, the same value in every set
                entry["repeats"] = all(len(set(vals)) == 1
                                       for vals in zip(*per_set))
                if spec["unit"] == "count":
                    ok &= entry["repeats"]
                print(f"  {name:30s} " + " ".join(
                    f"{v:.6g}" for v in per_set[0][:4])
                    + ("  repeats" if entry["repeats"] else "  VARIES"))
            else:
                stats = [_spread(v) for v in per_set]
                bound = spec["bound"]
                entry["sets"] = [dict(zip(("median", "q1", "q3", "spread"), st))
                                 for st in stats]
                sign = 1 if spec["better"] == "lower" else -1
                drift = [sign * (st[0] - stats[0][0]) / stats[0][0]
                         for st in stats[1:]]
                entry["drift"] = drift
                steady = all(st[3] < bound / 3 for st in stats)
                held = all(d <= bound for d in drift)
                ok &= all(st[3] <= bound for st in stats) and held
                print(f"  {name:12s} bound {bound:.2f}: " + "; ".join(
                    f"median {st[0]:.5g} [{st[1]:.5g}, {st[2]:.5g}] "
                    f"spread {st[3]:.3f}" for st in stats)
                    + "".join(f"; drift {d:+.3f}" for d in drift)
                    + ("" if steady else "  (spread above bound/3)"))
            report["metrics"][name] = entry
        _save(f"steadiness-{workload}-trace{trace}.json", report)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    env.check_sources()
    seconds = (args.seconds if args.seconds is not None
               else _manifest()["run_seconds"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.steadiness:
        return steadiness(workloads, args.steadiness, args.sets, seconds,
                          args.trace)
    return measure(workloads, args.seed, seconds, args.trace)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (env.MissingSources, RunFailed) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
