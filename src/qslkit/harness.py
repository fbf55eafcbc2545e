"""Scenario runner: config ingestion, figure sweeps, scaling study, validation.

Everything here is deterministic for a fixed configuration and seed.
Units follow the package convention ``hbar = 1`` with the coupling rate
defaulting to one, so all times are reported in units of the inverse
coupling; the bath memory rate is accepted as the dimensionless ratio
``gamma / Gamma``.

A config is checked once, when built; each model takes only the fields
it reads (``MODEL_FIELDS``).  One pipeline serves ``run_scenario``, the
figures and ``validate``: it builds scenarios from configs, propagates
them in one batch per generator family and grid and evaluates their
targets through :func:`evaluate_targets`; the fuzz takes the bare
:func:`~qslkit.bounds.evaluate_crossings` pass, without the closed form
and the fidelity bound.

CSV output is plot-tool-ready: a single header line, comma separators,
floats in scientific notation with 17 significant digits, and the
sentinel ``NA`` for cells whose quantumness target was never reached.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import stat
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import (
    BoundReport,
    evaluate_crossings,
    quantumness_dephasing,
    tau_q_dephasing,
)
from .generators import (
    Dephasing,
    Dissipation,
    PositivityLossError,
    Stirap,
    Trajectory,
    UnitaryControl,
    UnitaryTwoLevel,
    dephasing_closed_state,
    dissipation_closed_state,
    propagate,
    propagate_many,
    unitary_state,
)
from .matcore import _check_number, commutator, from_pure, hermiticity_defect, hs_norm, min_eigenvalue, purity
from .memory import MemoryFunctions, RiccatiBlowupError
from .witness import (
    pure_state_quantumness,
    quantumness,
    quantumness_rate,
    random_density_matrix,
    random_pure_state,
)

_READ_BY_ALL = ("model", "tau_max", "grid_points", "q_grid")
_BATH_FIELDS = ("theta", "Gamma", "gamma", "markov")
#: The config fields each model reads (a CSV row label counts); any other field must keep its default.
MODEL_FIELDS = {
    "unitary2l": _READ_BY_ALL + ("theta", "theta0", "theta_rate", "alpha0", "alpha_rate"),
    "stirap": _READ_BY_ALL + ("theta0", "theta_rate", "alpha_rate"),
    "dephasing": _READ_BY_ALL + _BATH_FIELDS,
    "dissipation": _READ_BY_ALL + _BATH_FIELDS,
    "ghz": _READ_BY_ALL + _BATH_FIELDS + ("n",),
}
MODELS = tuple(MODEL_FIELDS)
OPEN_MODELS = tuple(m for m, names in MODEL_FIELDS.items() if "gamma" in names)  # a bath, hence a memory ratio

#: Figure-sweep memory ratios shared by the non-Markovian studies.
SWEEP_GAMMA_RATIOS = (0.1, 0.5, 1.0, 2.0)

_NA = "NA"

#: Fuzz cases propagated together (see ``_fuzz_cases``).
FUZZ_WINDOW = 16


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable scenario, checked when built; ``dataclasses.replace`` makes a checked copy."""

    model: str
    theta: float = math.pi / 8.0
    Gamma: float = 1.0
    gamma: Optional[float] = None  # memory ratio gamma / Gamma
    markov: bool = False
    tau_max: float = 3.0
    grid_points: int = 2001
    q_grid: int = 20
    n: int = 1
    theta0: float = 0.0
    theta_rate: float = 0.5
    alpha0: float = 0.0
    alpha_rate: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "model" not in raw:
            raise ValueError("config requires the field 'model'")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must contain a JSON object")
        return cls.from_dict(raw)

    def __post_init__(self) -> None:
        if self.model not in MODELS:  # a tuple, so an unhashable value is compared, not hashed
            raise ValueError(f"invalid field 'model': {self.model!r} (choose from {MODELS})")
        for f in dataclasses.fields(self)[1:]:
            value = getattr(self, f.name)
            if f.type == "Optional[float]" and value is None:
                continue
            if f.type not in ("bool", "int"):
                _check_number(value, f.name, "field")
            elif isinstance(value, bool) != (f.type == "bool") or not isinstance(value, numbers.Integral):
                # a bool is an Integral: a bool field takes bools only, an int field integers but no bool
                kind = "a bool" if f.type == "bool" else "an integer"
                raise ValueError(f"invalid field {f.name!r}: must be {kind}, got {value!r}")
            if f.name not in MODEL_FIELDS[self.model] and value != f.default:  # typed first: False == 0.0
                must = "unset" if f.default is None else repr(f.default)
                readers = " or ".join(repr(m) for m, names in MODEL_FIELDS.items() if f.name in names)
                raise ValueError(f"invalid field {f.name!r}: must be {must} unless 'model' is {readers}, got {value!r}")
        if not self.tau_max > 0.0:
            raise ValueError(f"invalid field 'tau_max': must be positive, got {self.tau_max}")
        if self.grid_points < 100:
            raise ValueError(f"invalid field 'grid_points': must be >= 100, got {self.grid_points}")
        if not self.Gamma > 0.0:
            raise ValueError(f"invalid field 'Gamma': must be positive, got {self.Gamma}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"invalid field 'gamma': must be positive, got {self.gamma}")
        if self.q_grid < 1:
            raise ValueError(f"invalid field 'q_grid': must be >= 1, got {self.q_grid}")
        if self.n < 1:
            raise ValueError(f"invalid field 'n': must be >= 1, got {self.n}")
        try:
            finite = math.isfinite(self.Gamma * (self.n * self.n))  # the coupling of _memory
        except OverflowError:  # n^2 beyond the float range
            finite = False
        if not finite:
            raise ValueError("invalid field 'n': the coupling Gamma * n^2 overflows double precision")
        if self.markov and self.gamma is not None:
            raise ValueError(f"invalid field 'gamma': must be unset when 'markov' is true, got {self.gamma}")
        if self.model in OPEN_MODELS and not self.markov and self.gamma is None:
            raise ValueError("invalid field 'gamma': required unless markov is true")
        if self.model == "dissipation" and not self.markov:
            try:
                self._memory().p(self.tau_max)
            except RiccatiBlowupError as err:
                raise ValueError(f"invalid field 'tau_max': {self.tau_max} is past the memory horizon: {err}") from None

    def _memory(self) -> MemoryFunctions:
        """Bath memory of the open-system models (coupling scaled by ``n^2`` for ``ghz``)."""
        coupling = self.Gamma * (self.n * self.n)  # n is 1 off ghz
        return MemoryFunctions(coupling, math.inf if self.markov else self.gamma * self.Gamma)

    @property
    def gamma_ratio(self) -> Optional[float]:
        """Memory ratio of the open-system models (``inf``: memoryless); ``None`` where ``gamma`` does not apply."""
        if self.model not in OPEN_MODELS:
            return None
        return math.inf if self.markov else float(self.gamma)


# ---------------------------------------------------------------------------
# scenario construction and evaluation
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trajectory: Trajectory
    reports: list
    diagnostics: dict = field(default_factory=dict)


def build_scenario(cfg: ScenarioConfig):
    """Construct the ``(generator, rho0, grid)`` of a config, which was checked when it was built."""
    grid = np.linspace(0.0, cfg.tau_max, cfg.grid_points)

    if cfg.model in OPEN_MODELS:
        mem = cfg._memory()
        rho0 = from_pure([math.cos(cfg.theta), math.sin(cfg.theta)])
        if cfg.model != "dissipation":
            return Dephasing(mem), rho0, grid
        if not cfg.markov:
            # the step resolves both rates: h <= 1 / (25 max(gamma, Gamma))
            h_max = 1.0 / (25.0 * max(mem.memory_rate, cfg.Gamma))
            n = max(cfg.grid_points, int(math.ceil(cfg.tau_max / h_max)) + 1)
            grid = np.linspace(0.0, cfg.tau_max, n)
        return Dissipation(mem), rho0, grid

    control = UnitaryControl(
        theta0=cfg.theta0, theta_rate=cfg.theta_rate, alpha0=cfg.alpha0, alpha_rate=cfg.alpha_rate
    )
    if cfg.model == "unitary2l":
        gen = UnitaryTwoLevel(control)
        rho0 = from_pure(unitary_state(cfg.theta0, cfg.alpha0))
        return gen, rho0, grid

    gen = Stirap(control)
    rho0 = from_pure(np.array([0.0, 0.0, 1.0], dtype=complex))
    return gen, rho0, grid


def auto_targets(q_max: float, count: int) -> np.ndarray:
    """Log-spaced quantumness targets in ``(0, 0.95 * q_max]``.

    Three decades resolve the steep late growth of the bound near the
    steady state; an empty array is returned for trajectories that never
    generate quantumness.
    """
    q_hi = 0.95 * q_max
    if q_hi <= 1e-12:
        return np.array([])
    return np.geomspace(q_hi * 1e-3, q_hi, count)


def _or_none(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or ``None`` where it rejects its input with a ``ValueError``."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


def evaluate_targets(traj: Trajectory, targets, cfg: ScenarioConfig) -> list:
    """One :class:`BoundReport` per target, unreached targets included, from one
    :func:`~qslkit.bounds.evaluate_crossings` pass with the fidelity bounds.

    The closed-form column exists for the dephasing models only; there, as
    for the fidelity bounds, a timescale the formula rejects is ``None``.
    """
    reports = evaluate_crossings(traj, targets, fidelity=True)
    if cfg.model not in ("dephasing", "ghz"):
        return reports
    memory = traj.generator.memory
    return [
        dataclasses.replace(rep, tau_q_closed=_or_none(tau_q_dephasing, rep.q_target, cfg.theta, memory))
        if rep.reached else rep
        for rep in reports
    ]


def _propagate_built(built: list) -> list:
    """Trajectories of built scenarios, in order: one batch per generator family and grid."""
    batches = {}
    for i, (gen, _, grid) in enumerate(built):
        batches.setdefault((type(gen), grid.tobytes()), []).append(i)
    trajectories = [None] * len(built)
    for members in batches.values():
        gens, rho0s, _ = zip(*(built[i] for i in members))
        for i, traj in zip(members, propagate_many(gens, rho0s, built[members[0]][2])):
            trajectories[i] = traj
    return trajectories


def _run_scenarios(configs: list, shared_targets: bool = False) -> list:
    """The scenario pipeline: one :class:`ScenarioResult` per config, in order.

    Every scenario is built before any is propagated; the
    scenarios are then stepped in one batch per generator family and grid,
    and each is evaluated on its own q-grid.  With ``shared_targets`` (the
    figure sweeps) all scenarios share one q-grid, capped by the lowest
    maximum quantumness, so their rows compare target by target.
    """
    built = [build_scenario(cfg) for cfg in configs]
    trajectories = _propagate_built(built)
    q_maxes = [float(np.max(traj.q_samples)) for traj in trajectories]
    shared = auto_targets(min(q_maxes), configs[0].q_grid) if shared_targets else None
    results = []
    for cfg, traj, q_max in zip(configs, trajectories, q_maxes):
        targets = auto_targets(q_max, cfg.q_grid) if shared is None else shared
        diagnostics = {"q_max": q_max, "targets": len(targets)}
        if cfg.model == "dissipation":
            mem = traj.generator.memory
            diagnostics.update(
                p_end=mem.p(cfg.tau_max),
                p_inf_markov=0.5 * cfg.Gamma,
                memory_horizon=mem.horizon if math.isfinite(mem.horizon) else None,
            )
        results.append(ScenarioResult(cfg, traj, evaluate_targets(traj, targets, cfg), diagnostics))
    return results


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Propagate one configured scenario and evaluate bounds on its q-grid."""
    return _run_scenarios([cfg])[0]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def format_cell(value) -> str:
    """Full-precision scientific notation (17 significant digits) or ``NA``."""
    if value is None:
        return _NA
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _check_outputs(**paths) -> None:
    """Before any work, reject an output path with no directory or naming one; create nothing."""
    for name, path in paths.items():
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"invalid argument {name!r}: no directory {parent!r} to write {path!r} into")
        if os.path.isdir(path):
            raise IsADirectoryError(f"invalid argument {name!r}: {path!r} is a directory")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends, rewriting an existing file in place.

    The file is opened without ``O_TRUNC``, written from the start and cut
    at the end of the new text.  Truncating a file to zero length and
    writing it again makes ext4 (``auto_da_alloc``) flush the new blocks on
    close, about 50 ms per output; so does renaming a new file over it.
    Only a regular file is cut: ``/dev/null`` and pipes (``/dev/stdout``)
    take the write but not a truncate.  An existing file keeps its inode,
    its mode and any links to it; a new one gets ``0o666`` under the umask.

    Nothing is fsynced, as with ``open(path, "w")``.  A crash in the middle
    of a rewrite can leave old and new bytes mixed, where a truncating
    write would leave a prefix of the new text; outputs are deterministic,
    so such a file is regenerated by running the command again.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


#: CSV columns; each names a :class:`BoundReport` field or a label of the scenario's config.
FIG1_HEADER = ["theta", "gamma_ratio", "q_target", "tau_exact", "tau_q_numeric", "tau_q_closed", "tau_b"]
SWEEP_HEADER = ["theta", "gamma_ratio", "q_target", "tau_exact", "tau_q_numeric", "tau_q_closed", "tau_b_avg"]
RUN_HEADER = [
    "model",
    "theta",
    "gamma_ratio",
    "q_target",
    "tau_exact",
    "tau_q_numeric",
    "tau_q_closed",
    "tau_b",
    "tau_b_avg",
]
GHZ_HEADER = ["n", "offdiagonal_factor", "q", "sqrt_q_ratio", "tau_q_fixed_target"]

FIG1_THETAS = (math.pi / 8.0, math.pi / 6.0, math.pi / 5.0)

#: Per-target entries of the JSON run report, in order.
_REPORT_KEYS = tuple(f.name for f in dataclasses.fields(BoundReport)) + ("slack",)


def _report_rows(header: list, results: list) -> list:
    """One row per report of the results: the columns the header names, a label (``model``, ``theta``,
    ``gamma_ratio``) from the result's config and any other column from the report."""
    return [
        [getattr(rep if column in _REPORT_KEYS else result.config, column) for column in header]
        for result in results
        for rep in result.reports
    ]


def _sweep(out_path: str, header: list, configs: list, shared_targets: bool = False) -> list:
    """Run the configs through one pipeline call; write and return their rows."""
    _check_outputs(out_path=out_path)
    rows = _report_rows(header, _run_scenarios(configs, shared_targets))
    write_csv(out_path, header, rows)
    return rows


def fig1(out_path: str, grid_points: int = 2001, tau_max: float = 3.0) -> list:
    """Memoryless dephasing sweep: both timescales versus quantumness, three initial angles."""
    configs = [
        ScenarioConfig(model="dephasing", theta=theta, markov=True, tau_max=tau_max, grid_points=grid_points)
        for theta in FIG1_THETAS
    ]
    return _sweep(out_path, FIG1_HEADER, configs)


def _memory_sweep(out_path: str, model: str, theta: float, grid_points: int, tau_max: float) -> list:
    """Sweep the memory ratio of one open-system model at a fixed angle; write and return the rows.

    Targets are common across the memory ratios (capped by the slowest
    trajectory) so rows are directly comparable curve against curve.  The
    fidelity-bound column uses the time-averaged denominator variant: the
    literal initial-state denominator vanishes identically for this kernel
    (zero rate at ``t = 0``).
    """
    configs = [
        ScenarioConfig(model=model, theta=theta, gamma=ratio, tau_max=tau_max, grid_points=grid_points)
        for ratio in SWEEP_GAMMA_RATIOS
    ]
    return _sweep(out_path, SWEEP_HEADER, configs, shared_targets=True)


def fig2(out_path: str, grid_points: int = 4001, tau_max: float = 5.0) -> list:
    """Finite-memory dephasing sweep at ``theta = pi/5``."""
    return _memory_sweep(out_path, "dephasing", math.pi / 5.0, grid_points, tau_max)


def fig3(out_path: str, grid_points: int = 2001, tau_max: float = 3.0) -> list:
    """Finite-memory dissipation sweep at the equal-superposition angle.

    No closed-form bound exists for dissipation, so that column is ``NA``
    and the numeric route carries the comparison.
    """
    return _memory_sweep(out_path, "dissipation", math.pi / 4.0, grid_points, tau_max)


def run_to_files(cfg: ScenarioConfig, out_path: str, report_path: Optional[str] = None) -> ScenarioResult:
    """Run one scenario, emit its sweep CSV and an optional JSON report.

    The report is strict JSON: the config is validated finite, an infinite
    ``memory_horizon`` is ``null`` and the bounds reject a zero denominator.
    """
    _check_outputs(out_path=out_path, report_path=report_path)
    result = run_scenario(cfg)
    write_csv(out_path, RUN_HEADER, _report_rows(RUN_HEADER, [result]))
    if report_path is not None:
        payload = {
            "config": dataclasses.asdict(cfg),
            "diagnostics": result.diagnostics,
            "reports": [{key: getattr(rep, key) for key in _REPORT_KEYS} for rep in result.reports],
        }
        _write_text(report_path, json.dumps(payload, indent=2, allow_nan=False))
    return result


# ---------------------------------------------------------------------------
# cat-state scaling study
# ---------------------------------------------------------------------------


GHZ_NOTE = (
    "The coherence suppression exponent grows as n^2. To leading order in the "
    "exponent this makes sqrt(Q) grow as n^2 (hence Q itself as n^4) while the "
    "time to reach any fixed small quantumness shrinks as n^-2. Fitted "
    "exponents for Q, sqrt(Q) and tau_Q are reported side by side so either "
    "reading of an 'n^2 scaling' statement can be checked against the data."
)


@dataclass
class GhzScalingReport:
    theta: float
    beta: float
    q_fix: float
    rows: list
    slope_q: Optional[float]
    slope_sqrt_q: Optional[float]
    slope_tau_q: Optional[float]
    note: str = GHZ_NOTE


def ghz_scaling(
    theta: float,
    beta: float,
    n_max: int,
    out_path: Optional[str] = None,
    q_fix: float = 1e-6,
) -> GhzScalingReport:
    """Scaling of the witness and its bound with the qubit count.

    Per ``n``: the off-diagonal suppression factor ``exp(-n^2 beta)``, the
    witness value, its square root relative to ``n = 1``, and the
    memoryless-limit time to reach the fixed target ``q_fix``.  Log-log
    slopes are fitted over all rows.
    """
    _check_number(theta, "theta")
    if not _check_number(q_fix, "q_fix") > 0.0:
        raise ValueError(f"invalid argument 'q_fix': must be finite and positive, got {q_fix}")
    if not 0.0 < _check_number(beta, "beta") <= 1e-4:
        raise ValueError(f"invalid argument 'beta': must be a number in (0, 1e-4], got {beta}")
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) or not 1 <= n_max <= 12:
        raise ValueError(f"invalid argument 'n_max': must be an integer in 1..12, got {n_max!r}")
    _check_outputs(out_path=out_path)
    ns = np.arange(1, n_max + 1)
    q_values = [quantumness_dephasing(theta, float(n * n) * beta) for n in ns]
    tau_values = [tau_q_dephasing(q_fix, theta, MemoryFunctions.markov_limit(float(n * n))) for n in ns]
    if q_values[0] < np.finfo(float).tiny:  # the ratio column divides by it; tau_q_dephasing rejected sin 4theta = 0
        raise ValueError(f"invalid argument 'beta': the n = 1 witness {q_values[0]!r} underflows, got {beta!r}")
    rows = [
        [int(n), math.exp(-float(n * n) * beta), q_n, math.sqrt(q_n / q_values[0]), tau_n]
        for n, q_n, tau_n in zip(ns, q_values, tau_values)
    ]
    logn, log_q = [math.log(n) for n in ns.tolist()], [math.log(v) for v in q_values]
    slope_q, slope_sqrt_q = _slope(logn, log_q), _slope(logn, [0.5 * v for v in log_q])
    slope_tau_q = _slope(logn, [math.log(v) for v in tau_values])
    if out_path is not None:
        write_csv(out_path, GHZ_HEADER, rows)
    return GhzScalingReport(theta, beta, q_fix, rows, slope_q, slope_sqrt_q, slope_tau_q)


def _slope(xs: list, ys: list) -> Optional[float]:
    """Least-squares slope of ``ys`` over ``xs``, ``None`` for one point, in Python floats that no BLAS kernel moves."""
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - x_bar for x in xs]
    sxx = math.fsum(d * d for d in dx)
    return math.fsum(d * (y - y_bar) for d, y in zip(dx, ys)) / sxx if sxx else None


# ---------------------------------------------------------------------------
# randomized validation suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one randomized property, with its worst observed margin."""

    name: str
    passed: bool
    worst: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  worst_margin={self.worst:.3e}  {self.detail}"


@dataclass
class ValidationReport:
    seed: int
    cases: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = [c.line() for c in self.checks]
        out.append(f"{'PASS' if self.passed else 'FAIL'}  overall ({self.cases} cases, seed {self.seed})")
        return out


def _check_witness_properties(seed: int, cases: int) -> list:
    """Range, symmetry, dual-form agreement, pure-pair formula, zero-iff-commuting.

    Pair ``i`` has dimension ``(2, 3, 4)[i % 3]``, is pure for even ``i``
    and brings a commuting pair for ``i % 10 == 0``.  Each dimension's pairs
    come from one generator ``[seed, 1, dim]`` (mixed, then pure, then
    commuting; a pair's two states in turn) and are checked as one stack.
    """
    n_pairs = min(10_000, max(50, 50 * cases))
    q_min, q_max_seen = math.inf, -math.inf
    worst_sym = 0.0
    worst_pure = 0.0
    zero_iff_ok = True
    worst_commuting_q = 0.0
    for dim in (2, 3, 4):
        mine = np.arange(dim - 2, n_pairs, 3)
        n_mixed, n_commuting = np.count_nonzero(mine % 2), np.count_nonzero(mine % 10 == 0)
        rng = np.random.default_rng([seed, 1, dim])
        mixed = np.array([random_density_matrix(dim, rng) for _ in range(2 * n_mixed)])
        vs = np.array([random_pure_state(dim, rng) for _ in range(2 * (len(mine) - n_mixed))])
        states = np.concatenate([mixed, vs[:, :, None] * vs[:, None, :].conj()])  # |v><v| as from_pure takes it
        a, b = states[0::2], states[1::2]
        # constructed commuting pairs: random spectra in a shared eigenbasis
        w = np.abs(rng.standard_normal((n_commuting, 2, dim))) + 0.1
        w /= w.sum(axis=-1, keepdims=True)
        da, db = w[:, 0, :, None] * np.eye(dim), w[:, 1, :, None] * np.eye(dim)
        q_ab = quantumness(a, b)
        q_ba = quantumness(b, a)
        overlaps = np.abs(np.vecdot(vs[0::2], vs[1::2])) ** 2
        worst_pure = max(worst_pure, float(np.max(np.abs(q_ab[n_mixed:] - pure_state_quantumness(overlaps)))))
        q_min = min(q_min, float(np.min(q_ab)))
        q_max_seen = max(q_max_seen, float(np.max(q_ab)))
        worst_sym = max(worst_sym, float(np.max(np.abs(q_ab - q_ba))))
        zero_iff_ok &= bool(np.array_equal(q_ab < 1e-12, hs_norm(commutator(a, b)) < 1e-7))
        qc = quantumness(da, db)
        worst_commuting_q = max(worst_commuting_q, float(np.max(qc)))
        zero_iff_ok &= bool(np.array_equal(qc < 1e-12, hs_norm(commutator(da, db)) < 1e-7))
    range_ok = q_min >= 0.0 and q_max_seen <= 1.0 + 1e-9
    return [
        PropertyCheck(
            "witness_range",
            range_ok,
            max(0.0 - q_min, q_max_seen - 1.0),
            f"q in [{q_min:.3e}, {q_max_seen:.6f}] over {n_pairs} pairs",
        ),
        PropertyCheck("witness_symmetry", worst_sym <= 1e-12, worst_sym, "max |q(a,b) - q(b,a)|"),
        PropertyCheck("witness_pure_formula", worst_pure <= 1e-10, worst_pure, "max |q - 4c(1-c)|"),
        PropertyCheck(
            "witness_zero_iff_commuting",
            zero_iff_ok,
            worst_commuting_q,
            "q < 1e-12 iff commutator norm < 1e-7",
        ),
    ]


def _random_scenario(seed: int, index: int) -> ScenarioConfig:
    """Deterministic random scenario for the speed-limit fuzz."""
    rng = np.random.default_rng([seed, 2, index])
    model = ("dephasing", "dissipation", "unitary2l")[index % 3]
    theta = float(rng.uniform(0.1, math.pi / 2.0 - 0.1))
    if model == "dephasing":
        while abs(theta - math.pi / 4.0) < 0.1:
            theta = float(rng.uniform(0.1, math.pi / 2.0 - 0.1))
    gamma = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
    if model == "unitary2l":
        tau_max = 1.0
        theta_target = theta
        alpha_rate = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
        return ScenarioConfig(
            model=model,
            theta=theta,
            tau_max=tau_max,
            grid_points=801,
            theta0=0.0,
            theta_rate=theta_target / tau_max,
            alpha0=float(rng.uniform(0.0, 2.0 * math.pi)),
            alpha_rate=alpha_rate,
        )
    # resolve the initial rise of the memory rate (timescale 1/gamma) so the
    # trapezoidal speed average keeps the speed-limit check well inside 1e-4
    grid_points = max(801, int(math.ceil(150.0 * gamma)) + 1)
    return ScenarioConfig(
        model=model,
        theta=theta,
        gamma=gamma,
        tau_max=3.0,
        grid_points=grid_points,
    )


def _fuzz_cases(seed: int, cases: int):
    """Yield ``(cfg, trajectory)`` per fuzz case, in case order.

    Cases are propagated ``FUZZ_WINDOW`` at a time, which bounds the states
    held at once; within a window the cases of one model and grid are one
    batch.  Each case keeps the grid ``build_scenario`` gives it.
    """
    for start in range(0, cases, FUZZ_WINDOW):
        configs = [_random_scenario(seed, j) for j in range(start, min(start + FUZZ_WINDOW, cases))]
        yield from zip(configs, _propagate_built([build_scenario(cfg) for cfg in configs]))


def _check_dynamics_properties(seed: int, cases: int) -> list:
    """Speed-limit validity, conservation laws, and the rate inequality."""
    worst_qsl = math.inf  # min of (crossing - tau_q); must stay > -1e-4
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = math.inf
    worst_pop = 0.0
    worst_purity = 0.0
    worst_rate_slack = math.inf  # min of (2 sqrt(2q) speed + 1e-9 - |dq/dt|)
    worst_fd = 0.0
    checked_cells = 0
    for cfg, traj in _fuzz_cases(seed, cases):
        sample = traj.states[:: max(1, len(traj.states) // 40)]
        trace = np.trace(sample, axis1=-2, axis2=-1).real
        worst_trace = max(worst_trace, float(np.max(np.abs(trace - 1.0))))
        worst_herm = max(worst_herm, hermiticity_defect(sample))
        worst_eig = min(worst_eig, float(np.min(min_eigenvalue(sample))))
        if cfg.model == "dephasing":
            pops0 = np.diag(traj.states[0]).real
            pops_end = np.diag(traj.states[-1]).real
            worst_pop = max(worst_pop, float(np.max(np.abs(pops_end - pops0))))
        if cfg.model == "unitary2l":
            worst_purity = max(worst_purity, abs(purity(traj.states[-1]) - 1.0))

        targets = auto_targets(float(np.max(traj.q_samples)), 20)
        for rep in evaluate_crossings(traj, targets):  # no fidelity bounds: the fuzz checks the speed limit
            if rep.reached:
                checked_cells += 1
                worst_qsl = min(worst_qsl, rep.slack)

        stride = max(2, len(traj.grid) // 25)
        ks = np.arange(stride, len(traj.grid) - 2, stride)
        states = traj.states[ks]
        rate = quantumness_rate(traj.rho0, states, traj.generator.action(states, traj.coefficients[ks]))
        qs = traj.q_samples
        slack = 2.0 * np.sqrt(2.0 * qs[ks]) * traj.speed_samples[ks] + 1e-9 - np.abs(rate)
        worst_rate_slack = min(worst_rate_slack, np.min(slack))
        # five-point stencil keeps the truncation error far below the
        # 1e-5 agreement budget even near the early-time memory kink
        fd = (qs[ks - 2] - 8.0 * qs[ks - 1] + 8.0 * qs[ks + 1] - qs[ks + 2]) / (12.0 * traj.step)
        worst_fd = max(worst_fd, np.max(np.abs(rate - fd)))
    return [
        PropertyCheck(
            "qsl_validity",
            worst_qsl >= -1e-4,
            worst_qsl,
            f"min(crossing - tau_q) over {checked_cells} reached cells",
        ),
        PropertyCheck("trace_preservation", worst_trace < 1e-9, worst_trace, "max |Tr rho - 1|"),
        PropertyCheck("hermiticity", worst_herm < 1e-9, worst_herm, "max entrywise |rho - rho^dag|"),
        PropertyCheck("positivity", worst_eig >= -1e-7, worst_eig, "min eigenvalue over states"),
        PropertyCheck(
            "dephasing_population_conservation", worst_pop < 1e-10, worst_pop, "max diagonal drift"
        ),
        PropertyCheck("unitary_purity", worst_purity < 1e-8, worst_purity, "max |Tr rho^2 - 1|"),
        PropertyCheck(
            "rate_inequality",
            worst_rate_slack >= 0.0,
            worst_rate_slack,
            "min(2 sqrt(2Q) speed + 1e-9 - |dQ/dt|)",
        ),
        PropertyCheck(
            "rate_finite_difference", worst_fd <= 1e-5, worst_fd, "max |dQ/dt - centered difference|"
        ),
    ]


#: The closed-form oracle: one config per angle and per branch (of ``P``: markov, trigonometric, critical, hyperbolic).
_ORACLE_CASES = tuple(
    ScenarioConfig(model=model, theta=theta, gamma=gamma, markov=gamma is None, tau_max=2.0)
    for model, gammas in (("dephasing", (None, 0.5)), ("dissipation", (None, 0.5, 2.0, 10.0)))
    for theta in (math.pi / 8.0, math.pi / 5.0)
    for gamma in gammas
)
_CLOSED_STATES = {"dephasing": dephasing_closed_state, "dissipation": dissipation_closed_state}


def _check_oracle_equivalence() -> list:
    """Closed-form states versus propagated states at the midpoint and the end of each oracle case."""
    worst = 0.0
    for cfg, traj in zip(_ORACLE_CASES, _propagate_built([build_scenario(cfg) for cfg in _ORACLE_CASES])):
        n = len(traj.grid)
        for k in (n // 2, n - 1):
            closed = _CLOSED_STATES[cfg.model](cfg.theta, float(traj.grid[k]), traj.generator.memory)
            worst = max(worst, float(np.max(np.abs(closed - traj.states[k]))))
    return [PropertyCheck("oracle_equivalence", worst < 1e-9, worst, "max entrywise |closed - propagated|")]


class _TamperedDephasing(Dephasing):
    """Deliberately sign-flipped dephasing rate; must be caught by the checks."""

    def coefficients(self, times) -> np.ndarray:
        return -super().coefficients(times)


def _check_mutation_canary() -> list:
    """The suite must detect a generator with a sign-flipped rate: by positivity, else by the witness range.

    The speed limit is not read: it holds for any linear generator, so a tampered rate cannot break it.
    """
    gen, rho0, grid = build_scenario(ScenarioConfig(model="dephasing", markov=True, grid_points=1001))
    try:
        q_max = float(np.max(propagate(_TamperedDephasing(gen.memory), rho0, grid).q_samples))
    except PositivityLossError as err:
        caught, detail = True, f"positivity abort at t = {err.time:.3f}"
    else:
        caught = q_max > 1.0 + 1e-9
        detail = f"witness range violated (max q = {q_max:.3f})" if caught else "tampering went undetected"
    return [PropertyCheck("mutation_canary", caught, 1.0 if caught else 0.0, detail)]


def validate(seed: int = 0, cases: int = 200) -> ValidationReport:
    """Run the randomized property suites; failures are report content."""
    for name, value, least in (("seed", seed, 0), ("cases", cases, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"invalid argument {name!r}: must be an integer >= {least}, got {value!r}")
    checks = []
    checks.extend(_check_witness_properties(seed, cases))
    checks.extend(_check_dynamics_properties(seed, cases))
    checks.extend(_check_oracle_equivalence())
    checks.extend(_check_mutation_canary())
    return ValidationReport(seed=seed, cases=cases, checks=checks)
