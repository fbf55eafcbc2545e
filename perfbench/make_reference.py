"""Regenerate the reference outputs the benchmark checks results against.

Run from the root of a checkout, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/fig{1,2,3}.csv`` (library defaults) and, for
the scenarios of the default seed's first pass, one CSV per scenario plus
``scenarios/reports.json`` with each config and its per-target report
entries.  Any change to these files changes what the benchmark accepts
and must be stated with its reason.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qslkit import harness  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REPORT_FIELDS,
    SIZES,
    scenario_configs,
    scenario_name,
)


def main() -> int:
    ref = os.path.join(HERE, "reference")
    scen_dir = os.path.join(ref, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    for name in ("fig1", "fig2", "fig3"):
        getattr(harness, name)(os.path.join(ref, f"{name}.csv"))
    reports = {}
    for i, cfg in enumerate(scenario_configs(DEFAULT_SEED, 0, SIZES["full"]["per_variant"])):
        name = scenario_name(i, cfg)
        result = harness.run_to_files(harness.ScenarioConfig.from_dict(dict(cfg)), os.path.join(scen_dir, name + ".csv"))
        reports[name] = {
            "config": cfg,
            "reports": [{key: getattr(rep, key) for key in REPORT_FIELDS} for rep in result.reports],
        }
    with open(os.path.join(scen_dir, "reports.json"), "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote references for 3 figures and {len(reports)} scenarios to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
