"""Write the outputs that a change should keep byte-identical, for ``diff -r``.

Run from the root of a checkout:

    python3 tools/dump_outputs.py OUTDIR

OUTDIR (created if missing) receives, through ``qslkit.cli.main`` unless noted:

* ``fig1.csv``, ``fig2.csv``, ``fig3.csv`` at their defaults;
* ``ghz.csv`` and ``ghz.json``, the slopes ``ghz`` prints after its status
  line, at the defaults;
* ``validate.txt``, the standard output of ``validate --seed 0 --cases 200``
  followed by a line with its exit status, and ``validate-<seed>.txt``, the
  same for ``--cases 10`` at seeds 1 to 9;
* for each of the 16 configs of ``perfbench.workloads.scenario_configs(seed, 0, 2)``
  at seeds 0 and 7: the config as ``run-<seed>-<i>.json`` and the ``run``
  CSV and ``--report`` JSON beside it;
* ``trajectories.txt``: per run config, the sha256 digests of the
  trajectory's ``states``, ``q_samples`` and ``speed_samples``
  (``harness.run_scenario``), which show a moved bit in samples that no
  CSV cell reads.

Status lines, which name the output paths, are not kept.  Dump two
checkouts into two directories and compare them with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import scenario_configs  # noqa: E402
from qslkit.cli import main  # noqa: E402
from qslkit.harness import ScenarioConfig, run_scenario  # noqa: E402

RUN_SEEDS = (0, 7)
VALIDATE_SEEDS = range(1, 10)


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
    status, text = _cli(["ghz", "--out", os.path.join(outdir, "ghz.csv")])
    if status != 0:
        raise SystemExit(f"ghz exited {status}")
    with open(os.path.join(outdir, "ghz.json"), "w", encoding="utf-8") as fh:
        fh.write(text.split("\n", 1)[1])  # after the status line
    for name, seed, cases in [("validate", 0, 200)] + [(f"validate-{s}", s, 10) for s in VALIDATE_SEEDS]:
        status, text = _cli(["validate", "--seed", str(seed), "--cases", str(cases)])
        with open(os.path.join(outdir, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{text}exit status {status}\n")
    digests = []
    for seed in RUN_SEEDS:
        for i, cfg in enumerate(scenario_configs(seed, 0, 2)):
            name = f"run-{seed}-{i:02d}"
            base = os.path.join(outdir, name)
            with open(base + ".json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            status, _ = _cli(["run", "--config", base + ".json", "--out", base + ".csv", "--report", base + ".report.json"])
            if status != 0:
                raise SystemExit(f"run of {base}.json exited {status}")
            traj = run_scenario(ScenarioConfig.from_dict(cfg)).trajectory
            for field in ("states", "q_samples", "speed_samples"):
                digest = hashlib.sha256(getattr(traj, field).tobytes()).hexdigest()
                digests.append(f"{name} {field} {digest}\n")
    with open(os.path.join(outdir, "trajectories.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(digests)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    dump(sys.argv[1])
