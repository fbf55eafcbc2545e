"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with a single caller: one public qslkit
call starts only after the previous one has returned.  A workload runs in
passes; ``run_pass(k)`` makes the inputs of pass ``k`` from the run's
seed, times the calls with ``time.perf_counter`` and then, outside the
timed region, checks every output.

* ``figures``: ``harness.fig1``, ``fig2`` and ``fig3`` at their library
  defaults.  The seed sets the order of the three calls in each pass;
  the latency of a pass is that of the whole sweep.  Every CSV is
  compared with the reference CSVs stored with the benchmark.
  Operations are CSV rows.
* ``validate``: ``harness.validate(s, cases=N)`` with a pass seed ``s``
  derived from the run seed.  Operations are the property checks of the
  returned report.
* ``scenarios``: scenario configs across all five models, each run alone
  through ``cli.main(["run", ...])``.  Operations are scenarios.  After
  the timed loop the scenarios of the default seed are run once more and
  compared with stored reference outputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from qslkit import cli, harness

DEFAULT_SEED = 0

#: Speed-limit invariant on every reached row: tau_q_numeric <= tau_exact + SLACK.
SPEED_LIMIT_SLACK = 1e-4

#: Relative tolerance of the figure references; fig3 rests on the Riccati integrator.
FIGURE_TOLERANCE = {"fig1": 1e-12, "fig2": 1e-12, "fig3": 1e-9}

#: Relative tolerance of the scenario references (1e-9 where the Riccati integrator enters).
SCENARIO_TOLERANCE = 1e-12
RICCATI_TOLERANCE = 1e-9

#: Model variants of the scenarios workload: (model, markov).
VARIANTS = (
    ("dephasing", True),
    ("dephasing", False),
    ("dissipation", True),
    ("dissipation", False),
    ("ghz", True),
    ("ghz", False),
    ("unitary2l", False),
    ("stirap", False),
)

#: Per size: validate cases per call, scenario configs per variant and pass,
#: figure calls per pass.
SIZES = {
    "full": {"cases": 10, "per_variant": 2, "figures": ("fig1", "fig2", "fig3")},
    "small": {"cases": 1, "per_variant": 1, "figures": ("fig1",)},
}


@dataclass
class PassResult:
    """One pass: its wall time, the latency of each closed-loop call, and its checks."""

    wall_s: float
    call_s: list
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_csv(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _cell_matches(actual: str, expected: str, rel_tol: float) -> bool:
    if actual == expected:
        return True
    if "NA" in (actual, expected):
        return False
    try:
        return math.isclose(float(actual), float(expected), rel_tol=rel_tol, abs_tol=0.0)
    except ValueError:
        return False


def speed_limit_holds(header: list, row: list) -> bool:
    """A reached row must satisfy tau_q_numeric <= tau_exact + SPEED_LIMIT_SLACK."""
    try:
        exact = row[header.index("tau_exact")]
        numeric = row[header.index("tau_q_numeric")]
    except (ValueError, IndexError):
        return False
    if exact == "NA" or numeric == "NA":
        return exact == numeric
    return float(numeric) <= float(exact) + SPEED_LIMIT_SLACK


def compare_table(actual_path: str, reference_path: str, rel_tol: float) -> tuple:
    """Rows attempted, rows failed and messages for one CSV against its reference.

    A row fails when its NA pattern differs, a numeric cell is off by more
    than ``rel_tol`` relative, or a reached row breaks the speed limit.
    Missing and extra rows fail; a wrong header fails every row.
    """
    header, rows = read_csv(actual_path)
    ref_header, ref_rows = read_csv(reference_path)
    attempted = max(len(rows), len(ref_rows))
    name = os.path.basename(reference_path)
    if header != ref_header:
        return attempted, attempted, [f"{name}: header {header} != reference {ref_header}"]
    failed = abs(len(rows) - len(ref_rows))
    messages = [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"] if failed else []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        ok = len(row) == len(ref) and all(_cell_matches(a, e, rel_tol) for a, e in zip(row, ref))
        if ok and not speed_limit_holds(header, row):
            ok = False
        if not ok:
            failed += 1
            messages.append(f"{name} row {i + 1}: {','.join(row)} (reference {','.join(ref)})")
    return attempted, failed, messages


def _values_match(actual, expected, rel_tol: float) -> bool:
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return actual == expected
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return False
    return actual == expected or math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0)


REPORT_FIELDS = ("q_target", "reached", "tau_exact", "tau_q_numeric", "tau_q_closed", "tau_b", "tau_b_avg")


def compare_report(actual_path: str, reference: list, rel_tol: float) -> list:
    """Messages for a run report whose per-target entries differ from the reference."""
    with open(actual_path, "r", encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    if len(reports) != len(reference):
        return [f"report has {len(reports)} targets, reference has {len(reference)}"]
    return [
        f"report target {i}: {key} = {rep.get(key)!r}, reference {ref[key]!r}"
        for i, (rep, ref) in enumerate(zip(reports, reference))
        for key in REPORT_FIELDS
        if not _values_match(rep.get(key), ref[key], rel_tol)
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Figures:
    """The paper's figure path: fig1, fig2 and fig3 at their library defaults."""

    def __init__(self, seed: int, size: str, work_dir: str, reference_dir: str):
        self.names = SIZES[size]["figures"]
        self.rng = random.Random(f"figures:{seed}")
        self.work_dir = work_dir
        self.reference_dir = reference_dir
        self._orders = {}

    def warm_up(self) -> None:
        for name in self.names:
            getattr(harness, name)(os.path.join(self.work_dir, f"warm-{name}.csv"), grid_points=201)

    def run_pass(self, k: int) -> PassResult:
        if k not in self._orders:
            self._orders[k] = self.rng.sample(self.names, len(self.names))
        paths = {name: os.path.join(self.work_dir, f"{name}.csv") for name in self.names}
        t0 = time.perf_counter()
        for name in self._orders[k]:
            getattr(harness, name)(paths[name])
        wall = time.perf_counter() - t0
        result = PassResult(wall, [wall])
        for name in self.names:
            ref = os.path.join(self.reference_dir, f"{name}.csv")
            attempted, failed, messages = compare_table(paths[name], ref, FIGURE_TOLERANCE[name])
            result.attempted += attempted
            result.failed += failed
            result.messages += messages
        return result

    def final_check(self) -> PassResult:
        return PassResult(0.0, [])


class Validate:
    """The randomized speed-limit validation, one call per pass."""

    def __init__(self, seed: int, size: str, work_dir: str, reference_dir: str):
        self.seed = seed
        self.cases = SIZES[size]["cases"]

    def pass_seed(self, k: int) -> int:
        return random.Random(f"validate:{self.seed}:{k}").randrange(2**31)

    def warm_up(self) -> None:
        harness.validate(seed=random.Random(f"validate-warm-up:{self.seed}").randrange(2**31), cases=1)

    def run_pass(self, k: int) -> PassResult:
        seed = self.pass_seed(k)
        t0 = time.perf_counter()
        report = harness.validate(seed=seed, cases=self.cases)
        wall = time.perf_counter() - t0
        failed = [c for c in report.checks if not c.passed]
        messages = [f"validate(seed={seed}, cases={self.cases}): {c.line()}" for c in failed]
        return PassResult(wall, [wall], len(report.checks), len(failed), messages)

    def final_check(self) -> PassResult:
        return PassResult(0.0, [])


def _angle(rng: random.Random, lo: float, avoid_quarter: bool) -> float:
    theta = rng.uniform(lo, math.pi / 2.0 - lo)
    while avoid_quarter and abs(theta - math.pi / 4.0) < 0.1:
        theta = rng.uniform(lo, math.pi / 2.0 - lo)
    return theta


def scenario_config(rng: random.Random, model: str, markov: bool) -> dict:
    """One scenario config; the memory ratio sets a grid fine enough for its rise time."""
    cfg = {"model": model, "grid_points": rng.randint(801, 1601), "q_grid": 20}
    if model in ("unitary2l", "stirap"):
        tau_max = rng.uniform(1.0, 2.0)
        if model == "unitary2l":
            theta0 = rng.uniform(0.0, 0.3)
            cfg.update(theta=theta0, theta0=theta0, theta_rate=rng.uniform(0.3, 1.0))
            cfg.update(alpha0=rng.uniform(0.0, 2.0 * math.pi), alpha_rate=rng.uniform(-1.0, 1.0))
        else:
            cfg.update(theta0=0.0, theta_rate=0.5 * math.pi / tau_max, alpha_rate=rng.uniform(0.5, 2.0))
        cfg["tau_max"] = tau_max
        return cfg
    cfg["theta"] = _angle(rng, 0.15, avoid_quarter=model != "dissipation")
    cfg["tau_max"] = rng.uniform(0.4, 1.2) if model == "ghz" else rng.uniform(1.5, 3.0)
    if model == "ghz":
        cfg["n"] = rng.randint(2, 4)
    if markov:
        cfg["markov"] = True
    else:
        gamma = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        cfg["gamma"] = gamma
        cfg["grid_points"] = max(cfg["grid_points"], int(math.ceil(150.0 * gamma)) + 1)
    return cfg


def scenario_configs(seed: int, k: int, per_variant: int) -> list:
    """The configs of pass ``k``: ``per_variant`` of each model variant, in seeded order."""
    rng = random.Random(f"scenarios:{seed}:{k}")
    configs = [scenario_config(rng, model, markov) for model, markov in VARIANTS for _ in range(per_variant)]
    rng.shuffle(configs)
    return configs


def scenario_name(i: int, cfg: dict) -> str:
    tag = "markov" if cfg.get("markov") else ("memory" if "gamma" in cfg else "unitary")
    return f"{i:02d}-{cfg['model']}-{tag}"


class Scenarios:
    """One scenario per CLI call, as a command-line user runs them."""

    def __init__(self, seed: int, size: str, work_dir: str, reference_dir: str):
        self.seed = seed
        self.per_variant = SIZES[size]["per_variant"]
        self.work_dir = work_dir
        self.reference_dir = reference_dir
        self._configs = {}

    def _run(self, configs: list, prefix: str) -> tuple:
        """Write the configs, then time one ``cli.main`` run call per config."""
        jobs = []
        for i, cfg in enumerate(configs):
            base = os.path.join(self.work_dir, f"{prefix}-{i:02d}")
            with open(base + ".json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            jobs.append((cfg, base))
        calls, outcomes = [], []
        t0 = time.perf_counter()
        for cfg, base in jobs:
            argv = ["run", "--config", base + ".json", "--out", base + ".csv", "--report", base + ".report.json"]
            t = time.perf_counter()
            try:
                status = cli.main(argv)
            except Exception as err:  # a failing scenario is counted and logged, not fatal
                status = f"{type(err).__name__}: {err}"
            calls.append(time.perf_counter() - t)
            outcomes.append(status)
        return time.perf_counter() - t0, calls, jobs, outcomes

    def _check(self, jobs: list, outcomes: list, result: PassResult, references: dict = None) -> None:
        for i, ((cfg, base), status) in enumerate(zip(jobs, outcomes)):
            result.attempted += 1
            problems = [] if status == 0 else [f"cli.main returned {status!r}"]
            if not problems:
                header, rows = read_csv(base + ".csv")
                bad = [r for r in rows if not speed_limit_holds(header, r)]
                problems += [f"speed limit broken: {','.join(r)}" for r in bad]
                if references is not None:
                    problems += self._compare_reference(i, cfg, base, references)
            if problems:
                result.failed += 1
                result.messages.append(f"scenario {json.dumps(cfg)}: " + "; ".join(problems))

    def _compare_reference(self, i: int, cfg: dict, base: str, references: dict) -> list:
        name = scenario_name(i, cfg)
        expected = references.get(name)
        if expected is None or expected["config"] != cfg:
            return [f"no stored reference for {name} with this config"]
        tol = RICCATI_TOLERANCE if cfg["model"] == "dissipation" and not cfg.get("markov") else SCENARIO_TOLERANCE
        ref_csv = os.path.join(self.reference_dir, "scenarios", name + ".csv")
        messages = compare_table(base + ".csv", ref_csv, tol)[2]
        try:
            messages += compare_report(base + ".report.json", expected["reports"], tol)
        except (OSError, ValueError, KeyError) as err:
            messages.append(f"unreadable report: {err}")
        return messages

    def warm_up(self) -> None:
        self._run([dict(cfg, grid_points=201) for cfg in scenario_configs(self.seed, -1, 1)], "warm")

    def run_pass(self, k: int) -> PassResult:
        if k not in self._configs:
            self._configs[k] = scenario_configs(self.seed, k, self.per_variant)
        wall, calls, jobs, outcomes = self._run(self._configs[k], "pass")
        result = PassResult(wall, calls)
        self._check(jobs, outcomes, result)
        return result

    def final_check(self) -> PassResult:
        """Run the default seed's first pass untimed and compare it with the stored outputs."""
        with open(os.path.join(self.reference_dir, "scenarios", "reports.json"), "r", encoding="utf-8") as fh:
            references = json.load(fh)
        _, _, jobs, outcomes = self._run(scenario_configs(DEFAULT_SEED, 0, SIZES["full"]["per_variant"]), "reference")
        result = PassResult(0.0, [])
        self._check(jobs, outcomes, result, references)
        return result


WORKLOADS = {"figures": Figures, "validate": Validate, "scenarios": Scenarios}
