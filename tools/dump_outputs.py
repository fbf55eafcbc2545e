"""Write the outputs that a change should keep byte-identical, for ``diff -r``.

Run from the root of a checkout:

    python3 tools/dump_outputs.py OUTDIR

OUTDIR (created if missing) receives, all through ``qslkit.cli.main``:

* ``fig1.csv``, ``fig2.csv``, ``fig3.csv`` at their defaults;
* ``validate.txt``, the standard output of ``validate --seed 0 --cases 200``
  followed by a line with its exit status;
* for each of the 16 configs of ``perfbench.workloads.scenario_configs(seed, 0, 2)``
  at seeds 0 and 7: the config as ``run-<seed>-<i>.json`` and the ``run``
  CSV and ``--report`` JSON beside it.

Status lines, which name the output paths, are not kept.  Dump two
checkouts into two directories and compare them with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import scenario_configs  # noqa: E402
from qslkit.cli import main  # noqa: E402

RUN_SEEDS = (0, 7)


def _cli(argv: list) -> tuple:
    """Exit status and standard output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def dump(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name in ("fig1", "fig2", "fig3"):
        status, _ = _cli([name, "--out", os.path.join(outdir, f"{name}.csv")])
        if status != 0:
            raise SystemExit(f"{name} exited {status}")
    status, text = _cli(["validate", "--seed", "0", "--cases", "200"])
    with open(os.path.join(outdir, "validate.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{text}exit status {status}\n")
    for seed in RUN_SEEDS:
        for i, cfg in enumerate(scenario_configs(seed, 0, 2)):
            base = os.path.join(outdir, f"run-{seed}-{i:02d}")
            with open(base + ".json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            status, _ = _cli(["run", "--config", base + ".json", "--out", base + ".csv", "--report", base + ".report.json"])
            if status != 0:
                raise SystemExit(f"run of {base}.json exited {status}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    dump(sys.argv[1])
