"""Span recorder that wraps qslkit's public functions from the outside.

Each wrapped function records one span per call: its name, start, end,
parent span and the id of the pass it belongs to.  Spans are kept in
memory (compact arrays) and written out once, at the end of a run.
Self time is a span's duration minus the time its direct child spans
cover; it is accumulated per name while the spans close.

``from ... import`` binds a function under a second name at import time,
so a function is wrapped under every ``qslkit`` module attribute that is
bound to it (for example ``qslkit.harness.propagate`` as well as
``qslkit.generators.propagate``).  A layer function that does not exist
at some commit is reported as absent, with zero counts, instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from array import array
from bisect import bisect_left

# (module, function, extra stats beyond calls and self_s, prediction).
# The prediction names the end-to-end metric the layer should move, and on
# which workload.  Stats: see Tracer.metrics.
LAYERS = (
    ("matcore", "min_eigenvalue", (), "wall_s on validate; call p90 on scenarios, printed but not gated (3x3 eigensolver path)"),
    ("witness", "quantumness", (), "wall_s on validate"),
    ("memory", "riccati_p", ("points",), "wall_s on validate and figures; little on scenarios"),
    (
        "generators",
        "propagate",
        ("steps", "us_per_step", "useful_step_ratio"),
        "wall_s on validate and figures; call_p50_ms on scenarios",
    ),
    ("bounds", "first_crossing_time", ("reached_ratio",), "small on all workloads"),
    ("bounds", "tau_q_at_crossing", (), "small on all workloads"),
    (
        "bounds",
        "tau_b_fidelity",
        ("errors",),
        "wall_s on figures; call_p50_ms on scenarios; no change on validate (0 calls)",
    ),
    ("harness", "build_scenario", (), "wall_s on figures and validate; call_p50_ms on scenarios"),
    ("harness", "evaluate_targets", (), "wall_s on figures; call_p50_ms on scenarios"),
    ("harness", "run_scenario", (), "wall_s on figures; call_p50_ms on scenarios"),
    ("harness", "run_to_files", (), "call_p50_ms on scenarios"),
    ("harness", "write_csv", ("bytes",), "wall_s on figures; call_p50_ms on scenarios"),
    ("harness", "validate", (), "wall_s on validate"),
    ("harness", "fig1", (), "wall_s on figures"),
    ("harness", "fig2", (), "wall_s on figures"),
    ("harness", "fig3", (), "wall_s on figures"),
    ("cli", "main", (), "call_p50_ms on scenarios only"),
)

# Whole-pass figures of the traced run (see worker.trace_metrics).
TRACE_TOTALS = (
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.loop_s", "s"),
)

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "points": "count",
    "steps": "count",
    "us_per_step": "us",
    "useful_step_ratio": "ratio",
    "reached_ratio": "ratio",
    "errors": "count",
    "bytes": "bytes",
}


def per_layer_units() -> dict:
    """Every per-layer metric name mapped to its unit, in a fixed order."""
    units = {}
    for module, func, extra, _ in LAYERS:
        for stat in ("calls", "self_s") + extra:
            units[f"{module}.{func}.{stat}"] = STAT_UNITS[stat]
    units.update(TRACE_TOTALS)
    return units


class Tracer:
    """Wraps the layer functions and records spans while installed."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _, _ in LAYERS]
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.absent = []
        self.points = 0
        self.csv_bytes = 0
        self.crossings = 0
        self.reached = 0
        self.steps = 0
        self.useful_steps = 0
        self._live = {}  # id(trajectory) -> [steps, steps up to last reached crossing]
        self._patches = []  # (module object, attribute, original, wrapper)
        # span storage: parallel arrays, one entry per closed span
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open spans: [span id, name index, start, child time]
        self._next_id = 0
        self.pass_id = -1
        self._find_targets()

    # -- wrapping --------------------------------------------------------

    def _find_targets(self):
        self._targets = []
        for idx, (module, func, _, _) in enumerate(LAYERS):
            try:
                mod = importlib.import_module(f"qslkit.{module}")
            except ImportError:
                mod = None
            fn = getattr(mod, func, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(self.names[idx])
                continue
            self._targets.append((idx, fn))

    def install(self):
        hooks = {
            "memory.riccati_p": self._after_riccati,
            "generators.propagate": self._after_propagate,
            "bounds.first_crossing_time": self._after_crossing,
            "harness.write_csv": self._after_write_csv,
        }
        modules = [m for name, m in list(sys.modules.items()) if m is not None and (name == "qslkit" or name.startswith("qslkit."))]
        for idx, fn in self._targets:
            wrapper = self._wrap(idx, fn, hooks.get(self.names[idx]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        self.flush_trajectories()

    def _wrap(self, idx, fn, hook):
        begin, end = self._begin, self._end
        errors = self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                end()
                raise
            end()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    # -- spans -----------------------------------------------------------

    def _begin(self, idx):
        self._stack.append([self._next_id, idx, time.perf_counter(), 0.0])
        self._next_id += 1

    def _end(self):
        t_end = time.perf_counter()
        span_id, idx, t_start, child = self._stack.pop()
        dur = t_end - t_start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.span_id.append(span_id)
        self.span_name.append(idx)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_pass.append(self.pass_id)
        self.span_start.append(t_start)
        self.span_end.append(t_end)

    # -- per-layer counters ------------------------------------------------

    def _after_riccati(self, args, kwargs, out):
        grid = getattr(out, "grid", None)
        if grid is None:
            grid = args[0] if args else kwargs.get("grid", ())
        self.points += len(grid)

    def _after_propagate(self, args, kwargs, traj):
        grid = getattr(traj, "grid", None)
        if grid is None:
            return
        entry = [len(grid) - 1, 0]
        key = id(traj)
        try:
            weakref.finalize(traj, self._retire, key)
        except TypeError:
            self.steps += entry[0]
            return
        self._live[key] = entry

    def _after_crossing(self, args, kwargs, crossing):
        self.crossings += 1
        if not getattr(crossing, "reached", False):
            return
        self.reached += 1
        traj = args[0] if args else kwargs.get("traj")
        entry = self._live.get(id(traj))
        if entry is not None:
            entry[1] = max(entry[1], bisect_left(traj.grid, crossing.time))

    def _after_write_csv(self, args, kwargs, out):
        path = args[0] if args else kwargs.get("path")
        try:
            self.csv_bytes += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    def _retire(self, key):
        entry = self._live.pop(key, None)
        if entry is not None:
            self.steps += entry[0]
            self.useful_steps += min(entry[1], entry[0])

    def flush_trajectories(self):
        for key in list(self._live):
            self._retire(key)

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, each a per-pass average over ``passes`` traced passes."""
        out = {}
        for idx, (module, func, extra, _) in enumerate(LAYERS):
            key = f"{module}.{func}"
            out[f"{key}.calls"] = self.calls[idx] / passes
            out[f"{key}.self_s"] = self.self_s[idx] / passes
            for stat in extra:
                out[f"{key}.{stat}"] = self._extra(idx, stat, passes)
        return out

    def _extra(self, idx, stat, passes):
        if stat == "points":
            return self.points / passes
        if stat == "steps":
            return self.steps / passes
        if stat == "us_per_step":
            return 1e6 * self.total_s[idx] / self.steps if self.steps else 0.0
        if stat == "useful_step_ratio":
            return self.useful_steps / self.steps if self.steps else 0.0
        if stat == "reached_ratio":
            return self.reached / self.crossings if self.crossings else 0.0
        if stat == "errors":
            return self.errors[idx] / passes
        if stat == "bytes":
            return self.csv_bytes / passes
        raise KeyError(stat)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_pass[i]}\t{self.span_id[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )
