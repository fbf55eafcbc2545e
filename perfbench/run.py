"""Outside-in benchmark of qslkit: figures, validate and one-at-a-time scenarios.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

The benchmark drives qslkit only through its public functions, in one
worker process per workload (see ``worker.py``); workers run one at a
time with BLAS threading pinned to one thread.  Set-up is measured
``SETUPS`` times per run, each in a fresh worker, and reported as the
median.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (all times measured with tracing off); with
``--trace 1`` it holds the per-layer metrics of the traced run instead.
A table of the metrics, with units and sample counts, goes to standard
error, as does every failed operation.  Scratch files and span dumps go
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("figures", "validate", "scenarios")

#: Worker set-ups per run (one of them is the measuring worker).
SETUPS = 3

#: Hard limit on one run, in seconds; a worker still running then is killed.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "call_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--size", choices=("full", "small"), default="full", help="small: the self-test's reduced passes")
    ap.add_argument(
        "--reference-dir",
        default=os.path.join(HERE, "reference"),
        help="directory of the reference outputs the results are checked against",
    )
    return ap.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    return env


class Worker:
    """One worker process; set-up is timed from its start to its READY line.

    A timer kills the worker once the run's deadline passes.
    """

    def __init__(self, argv: list, deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        self.timer.start()
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY":
                    self.setup_s = time.perf_counter() - t0
                    break
            else:
                raise BenchError(f"worker exited during set-up (status {self.proc.wait()})")
        except BaseException:
            self.stop()
            raise

    def finish(self) -> None:
        """Drain the worker's output until it exits."""
        try:
            for _ in self.proc.stdout:
                pass
            code = self.proc.wait()
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"worker exited with status {code}")

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result: dict, setups: list) -> tuple:
    """End-to-end metrics, sample counts, and the ungated call p90 for the summary."""
    calls = result["calls"]
    metrics = {
        "wall_s": statistics.median(result["walls"]),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "wall_s": f"median of {len(result['walls'])} passes",
        "call_p50_ms": f"median of {len(calls)} calls",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "1 worker",
    }
    beyond = len(calls) - math.ceil(0.9 * len(calls))
    extra = [("call_p90_ms", 1e3 * p90(calls), "ms", f"{len(calls)} calls, {beyond} beyond it; not gated")]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, samples, extra


def per_layer(result: dict) -> tuple:
    from tracer import per_layer_units

    units = per_layer_units()
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    samples = {name: f"per traced pass, {result['passes']} passes" for name in units}
    return metrics, samples, []


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "qslkit", "__init__.py")):
        raise BenchError(f"no qslkit sources under {os.path.join(ROOT, 'src')}")
    deadline = time.perf_counter() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}")
    os.makedirs(work_dir, exist_ok=True)
    base = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--reference-dir", os.path.abspath(args.reference_dir),
        "--work-dir", work_dir,
    ]
    try:
        setups = []
        for _ in range(SETUPS - 1):
            probe = Worker(base + ["--setup-only"], deadline)
            setups.append(probe.setup_s)
            probe.finish()
        result_path = os.path.join(work_dir, "result.json")
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        worker = Worker(base + ["--result", result_path, "--spans", spans], deadline)
        setups.append(worker.setup_s)
        worker.finish()
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, samples, extra = per_layer(result) if args.trace else end_to_end(result, setups)
    attempted, failed = result["attempted"], result["failed"]
    if attempted < 1:
        raise BenchError("no operation was attempted")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} nproc={os.cpu_count()}"
        f" python={platform.python_version()} numpy={result['numpy']}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:16.6g} {m['unit']:6s} ({samples[name]})", file=sys.stderr)
    for name, value, unit, note in extra:
        print(f"{name:42s} {value:16.6g} {unit:6s} ({note})", file=sys.stderr)
    print(f"{'failed_ratio':42s} {failed / attempted:16.6g} {'ratio':6s} ({failed} of {attempted} operations)", file=sys.stderr)
    for name in result.get("absent", []):
        print(f"absent layer: {name} (reported with count 0)", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
