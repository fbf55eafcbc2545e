"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload validate --seeds 1 2 3 4 5 --seconds 30

For every metric it prints the median over the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, and for end-to-end metrics whether that spread is
below a third of the bound in ``BENCHMARK.json``.  ``--json PATH`` also
writes every run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        out = run_once(args.workload, seed, seconds, args.trace)
        runs.append(out)
        print(f"seed {seed}: correct={out['correct']} {out['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
    print(f"{args.workload}: {len(runs)} runs, longest {max(r['elapsed_s'] for r in runs):.1f} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        verdict = ""
        if name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else f"ABOVE a third of bound {bounds[name]}"
        print(f"{name:42s} median {median:14.6g}  spread {spread:8.4f}  {verdict}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
