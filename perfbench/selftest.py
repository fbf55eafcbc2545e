"""Self-test of the benchmark at small sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that

* every workload, traced and untraced, prints one JSON result line whose
  metrics are exactly those named in ``BENCHMARK.json``, each with its
  unit, and that the untouched outputs all pass;
* on ``validate`` the fidelity bound is never called;
* one deliberately perturbed reference cell is counted as a failed
  operation, so the correctness check is live;
* a layer function that does not exist is reported as absent with count
  0 instead of failing the traced run.

Exits 0 when every check holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")


def bench(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out["attempted"]
    assert isinstance(out["failed"], int), out["failed"]
    return out


def check_metrics(out: dict, expected: list, label: str) -> None:
    names = {m["name"]: m["unit"] for m in expected}
    assert set(out["metrics"]) == set(names), f"{label}: metric names differ: {sorted(set(out['metrics']) ^ set(names))}"
    for name, metric in out["metrics"].items():
        assert set(metric) == {"value", "unit"}, f"{label}: {name} has keys {sorted(metric)}"
        assert metric["unit"] == names[name], f"{label}: {name} unit {metric['unit']} != {names[name]}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), f"{label}: {name}"


def check_emission(spec: dict) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            out = bench(workload, trace)
            label = f"{workload} trace={trace}"
            assert out["correct"] and out["failed"] == 0, f"{label}: {out['failed']} failed operations"
            check_metrics(out, spec["per_layer"] if trace else spec["end_to_end"], label)
            if trace:
                values = {k: v["value"] for k, v in out["metrics"].items()}
                assert values["generators.propagate.calls"] > 0, label
                if workload == "validate":
                    assert values["bounds.tau_b_fidelity.calls"] == 0, values["bounds.tau_b_fidelity.calls"]
            print(f"ok  {label}: {len(out['metrics'])} metrics with units, {out['attempted']} operations")


def check_perturbed_reference() -> None:
    ref = os.path.join(SCRATCH, "reference")
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), ref)
    path = os.path.join(ref, "fig1.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    col = header.index("tau_q_numeric")
    row[col] = repr(float(row[col]) * (1.0 + 1e-9))
    lines[5] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out = bench("figures", 0, "--reference-dir", ref)
    passes = out["attempted"] // (len(lines) - 1)
    assert not out["correct"], "a perturbed reference cell went unnoticed"
    assert out["failed"] == passes, f"expected one failed row per pass ({passes}), got {out['failed']}"
    print(f"ok  perturbed reference cell: failed_ratio {out['failed']}/{out['attempted']}")


def check_absent_layer() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer

    saved = tracer.LAYERS
    tracer.LAYERS = saved + (("memory", "no_such_function", (), ""), ("no_such_module", "f", (), ""))
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        metrics = t.metrics(1)
    finally:
        tracer.LAYERS = saved
    assert t.absent == ["memory.no_such_function", "no_such_module.f"], t.absent
    assert metrics["memory.no_such_function.calls"] == 0 and metrics["no_such_module.f.self_s"] == 0
    print("ok  absent layers reported with count 0")


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_absent_layer()
        check_perturbed_reference()
        check_emission(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
