"""One benchmark worker process: set up, time one workload, write the result.

Started by ``run.py``, one at a time.  The worker imports numpy and
qslkit, makes one untimed warm-up call and prints ``READY`` on its
standard output; the parent times set-up up to that line.  With
``--setup-only`` it exits there.  Otherwise it runs passes of the
workload until ``--seconds`` have elapsed and writes one JSON result
file:

* ``--trace 0``: pass walls, per-call latencies, peak resident memory
  and the operation counts, all with tracing off.
* ``--trace 1``: pairs of passes over the inputs of pass 0, the first
  untraced and the second traced; per-layer metrics per traced pass, the
  tracing overhead, and the spans written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

READY = "READY"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scenario latency samples needed so that ten lie beyond the 90th percentile.
MIN_SCENARIO_CALLS = 100


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--reference-dir", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_source() -> None:
    """Import qslkit from the checkout's ``src`` and refuse any other copy."""
    sys.path.insert(0, SRC)
    import qslkit

    where = os.path.realpath(os.path.dirname(qslkit.__file__))
    if os.path.commonpath([where, os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise SystemExit(f"qslkit imported from {where}, not from {SRC}")


def measure(workload, seconds: float, min_calls: int) -> dict:
    """Untraced passes with fresh inputs until ``seconds`` have elapsed."""
    walls, calls, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds or len(calls) < min_calls:
        res = workload.run_pass(k)
        walls.append(res.wall_s)
        calls.extend(res.call_s)
        attempted += res.attempted
        failed += res.failed
        for message in res.messages:
            print(f"FAILED {message}", file=sys.stderr, flush=True)
        k += 1
    return {"walls": walls, "calls": calls, "attempted": attempted, "failed": failed}


def measure_traced(workload, seconds: float, spans_path) -> dict:
    """Pairs of untraced and traced passes over the inputs of pass 0."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for record in (False, True):
            if record:
                tracer.pass_id = len(traced)
                tracer.install()
            try:
                res = workload.run_pass(0)
            finally:
                if record:
                    tracer.uninstall()
            (traced if record else plain).append(res.wall_s)
            attempted += res.attempted
            failed += res.failed
            for message in res.messages:
                print(f"FAILED {message}", file=sys.stderr, flush=True)
    passes = len(traced)
    metrics = tracer.metrics(passes)
    wall = statistics.fmean(traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.loop_s"] = wall - sum(tracer.self_s) / passes
    metrics["trace.overhead_s"] = wall - statistics.fmean(plain)
    if spans_path:
        tracer.write_spans(spans_path)
    return {"metrics": metrics, "absent": tracer.absent, "passes": passes, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, args.work_dir, args.reference_dir)
    workload.warm_up()
    print(READY, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out = measure_traced(workload, args.seconds, args.spans)
    else:
        min_calls = MIN_SCENARIO_CALLS if args.workload == "scenarios" and args.size == "full" else 0
        out = measure(workload, args.seconds, min_calls)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = workload.final_check()
    for message in final.messages:
        print(f"FAILED {message}", file=sys.stderr, flush=True)
    out["attempted"] += final.attempted
    out["failed"] += final.failed
    out["numpy"] = sys.modules["numpy"].__version__
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
