"""Scenario runner: config ingestion, figure sweeps, scaling study, validation.

Everything here is deterministic for a fixed configuration and seed.
Units follow the package convention ``hbar = 1`` with the coupling rate
defaulting to one, so all times are reported in units of the inverse
coupling; the bath memory rate is accepted as the dimensionless ratio
``gamma / Gamma``.

CSV output is plot-tool-ready: a single header line, comma separators,
floats in scientific notation with 17 significant digits, and the
sentinel ``NA`` for cells whose quantumness target was never reached.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bounds import (
    BoundReport,
    first_crossing_time,
    quantumness_dephasing,
    tau_b_fidelity,
    tau_q_at_crossing,
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
    unitary_state,
)
from .matcore import from_pure, hermiticity_defect, min_eigenvalue, purity
from .memory import MemoryFunctions, OUParams, RiccatiBlowupError
from .witness import (
    pure_state_quantumness,
    quantumness,
    quantumness_rate,
    random_density_matrix,
    random_pure_state,
)

MODELS = ("unitary2l", "stirap", "dephasing", "dissipation", "ghz")

#: Figure-sweep memory ratios shared by the non-Markovian studies.
SWEEP_GAMMA_RATIOS = (0.1, 0.5, 1.0, 2.0)

_NA = "NA"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Validated description of one runnable scenario."""

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
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must contain a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "str" or (f.type == "Optional[float]" and value is None):
                continue
            if f.type == "bool":
                ok, kind = isinstance(value, bool), "a bool"
            elif f.type == "int":
                ok, kind = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
            else:
                # the comparison also rejects NaN and integers beyond the float range
                ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
                kind = "a finite number"
            if not ok:
                raise ValueError(f"invalid field {f.name!r}: must be {kind}, got {value!r}")
        if self.model not in MODELS:
            raise ValueError(f"invalid field 'model': {self.model!r} (choose from {MODELS})")
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
        if self.model in ("dephasing", "dissipation", "ghz") and not self.markov and self.gamma is None:
            raise ValueError("invalid field 'gamma': required unless markov is true")
        if self.model == "dissipation" and not self.markov:
            try:
                self._memory().p(self.tau_max)
            except RiccatiBlowupError as err:
                raise ValueError(f"invalid field 'tau_max': {self.tau_max} is past the memory horizon: {err}") from None

    def _memory(self) -> MemoryFunctions:
        """Bath memory of the open-system models (coupling scaled by ``n^2`` for ``ghz``)."""
        coupling = self.Gamma * (self.n * self.n if self.model == "ghz" else 1.0)
        if self.markov:
            return MemoryFunctions.markov_limit(coupling)
        return MemoryFunctions(OUParams(coupling, self.gamma * self.Gamma))

    @property
    def gamma_ratio(self) -> float:
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
    """Construct (generator, rho0, grid, closed_tau_q) for a config.

    ``closed_tau_q`` maps a (quantumness, crossing-time) pair to the
    closed-form bound where one exists, else returns ``None``.
    """
    cfg.validate()
    grid = np.linspace(0.0, cfg.tau_max, cfg.grid_points)
    closed: Callable[[float, float], Optional[float]] = lambda q, tau: None

    if cfg.model in ("dephasing", "ghz", "dissipation"):
        mem = cfg._memory()
        rho0 = from_pure([math.cos(cfg.theta), math.sin(cfg.theta)])
        if cfg.model == "dissipation":
            if not cfg.markov:
                # the step resolves both rates: h <= 1 / (25 max(gamma, Gamma))
                h_max = 1.0 / (25.0 * max(mem.params.memory_rate, cfg.Gamma))
                n = max(cfg.grid_points, int(math.ceil(cfg.tau_max / h_max)) + 1)
                grid = np.linspace(0.0, cfg.tau_max, n)
            return Dissipation(mem), rho0, grid, closed
        closed = lambda q, tau: tau_q_dephasing(q, cfg.theta, mem)  # noqa: E731
        return Dephasing(mem), rho0, grid, closed

    control = UnitaryControl.constant(
        theta_rate=cfg.theta_rate,
        alpha=cfg.alpha0,
        alpha_rate=cfg.alpha_rate,
        theta0=cfg.theta0,
    )
    if cfg.model == "unitary2l":
        gen = UnitaryTwoLevel(control)
        rho0 = from_pure(unitary_state(cfg.theta0, cfg.alpha0))
        return gen, rho0, grid, closed

    gen = Stirap(control)
    rho0 = from_pure(np.array([0.0, 0.0, 1.0], dtype=complex))
    return gen, rho0, grid, closed


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


def evaluate_targets(
    traj: Trajectory,
    targets,
    model: str,
    params: dict,
    closed: Callable[[float, float], Optional[float]],
) -> list:
    """One :class:`BoundReport` per target, unreached targets included."""
    reports = []
    for q_target in targets:
        crossing = first_crossing_time(traj, float(q_target))
        if not crossing.reached:
            reports.append(
                BoundReport(model, params, float(q_target), False, None, None, None, None, None)
            )
            continue
        tau = crossing.time
        try:
            tau_q_closed = closed(float(q_target), tau)
        except ValueError:
            tau_q_closed = None
        tau_b = {}
        for variant in ("initial", "averaged"):
            try:
                tau_b[variant] = tau_b_fidelity(traj, tau, denominator=variant)
            except ValueError:
                tau_b[variant] = None
        reports.append(
            BoundReport(
                model,
                params,
                float(q_target),
                True,
                tau,
                tau_q_at_crossing(traj, crossing),
                tau_q_closed,
                tau_b["initial"],
                tau_b["averaged"],
            )
        )
    return reports


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Propagate one configured scenario and evaluate bounds on its q-grid."""
    gen, rho0, grid, closed = build_scenario(cfg)
    traj = propagate(gen, rho0, grid)
    targets = auto_targets(float(np.max(traj.q_samples)), cfg.q_grid)
    params = {"theta": cfg.theta, "gamma_ratio": cfg.gamma_ratio if cfg.model in ("dephasing", "dissipation", "ghz") else None}
    reports = evaluate_targets(traj, targets, cfg.model, params, closed)
    diagnostics = {
        "q_max": float(np.max(traj.q_samples)),
        "targets": len(targets),
    }
    if cfg.model == "dissipation":
        mem = gen.memory
        diagnostics.update(
            p_end=mem.p(cfg.tau_max),
            p_inf_markov=0.5 * cfg.Gamma,
            memory_horizon=mem.horizon if math.isfinite(mem.horizon) else None,
        )
    return ScenarioResult(cfg, traj, reports, diagnostics)


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


def write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def fig1(out_path: str, grid_points: int = 2001, tau_max: float = 3.0, q_grid: int = 20) -> list:
    """Memoryless dephasing sweep: both timescales versus quantumness, three initial angles."""
    rows = []
    for theta in FIG1_THETAS:
        cfg = ScenarioConfig(
            model="dephasing",
            theta=theta,
            markov=True,
            tau_max=tau_max,
            grid_points=grid_points,
            q_grid=q_grid,
        )
        result = run_scenario(cfg)
        for rep in result.reports:
            rows.append(
                [theta, math.inf, rep.q_target, rep.tau_exact, rep.tau_q_numeric, rep.tau_q_closed, rep.tau_b]
            )
    write_csv(out_path, FIG1_HEADER, rows)
    return rows


def _memory_sweep(out_path: str, model: str, theta: float, grid_points: int, tau_max: float, q_grid: int) -> list:
    """Sweep the memory ratio of one open-system model at a fixed angle; write and return the rows.

    Every ratio is validated before any is propagated.  Targets are common
    across the memory ratios (capped by the slowest trajectory) so rows are
    directly comparable curve against curve.  The fidelity-bound column
    uses the time-averaged denominator variant: the literal initial-state
    denominator vanishes identically for this kernel (zero rate at
    ``t = 0``).
    """
    configs = [
        ScenarioConfig(model=model, theta=theta, gamma=ratio, tau_max=tau_max, grid_points=grid_points, q_grid=q_grid)
        for ratio in SWEEP_GAMMA_RATIOS
    ]
    built = [build_scenario(cfg) for cfg in configs]
    trajectories = [propagate(gen, rho0, grid) for gen, rho0, grid, _ in built]
    targets = auto_targets(min(float(np.max(traj.q_samples)) for traj in trajectories), q_grid)
    rows = []
    for cfg, traj, (_, _, _, closed) in zip(configs, trajectories, built):
        for rep in evaluate_targets(traj, targets, model, {"theta": theta, "gamma_ratio": cfg.gamma}, closed):
            rows.append(
                [theta, cfg.gamma, rep.q_target, rep.tau_exact, rep.tau_q_numeric, rep.tau_q_closed, rep.tau_b_avg]
            )
    write_csv(out_path, SWEEP_HEADER, rows)
    return rows


def fig2(out_path: str, grid_points: int = 4001, tau_max: float = 5.0, q_grid: int = 20) -> list:
    """Finite-memory dephasing sweep at ``theta = pi/5``."""
    return _memory_sweep(out_path, "dephasing", math.pi / 5.0, grid_points, tau_max, q_grid)


def fig3(out_path: str, grid_points: int = 2001, tau_max: float = 3.0, q_grid: int = 20) -> list:
    """Finite-memory dissipation sweep at the equal-superposition angle.

    No closed-form bound exists for dissipation, so that column is ``NA``
    and the numeric route carries the comparison.
    """
    return _memory_sweep(out_path, "dissipation", math.pi / 4.0, grid_points, tau_max, q_grid)


def run_to_files(cfg: ScenarioConfig, out_path: str, report_path: Optional[str] = None) -> ScenarioResult:
    """Run one scenario, emit its sweep CSV and an optional JSON report."""
    result = run_scenario(cfg)
    rows = []
    gamma_cell = cfg.gamma_ratio if cfg.model in ("dephasing", "dissipation", "ghz") else None
    for rep in result.reports:
        rows.append(
            [
                cfg.model,
                cfg.theta,
                gamma_cell,
                rep.q_target,
                rep.tau_exact,
                rep.tau_q_numeric,
                rep.tau_q_closed,
                rep.tau_b,
                rep.tau_b_avg,
            ]
        )
    write_csv(out_path, RUN_HEADER, rows)
    if report_path is not None:
        payload = {
            "config": dataclasses.asdict(cfg),
            "diagnostics": result.diagnostics,
            "reports": [
                {
                    "q_target": rep.q_target,
                    "reached": rep.reached,
                    "tau_exact": rep.tau_exact,
                    "tau_q_numeric": rep.tau_q_numeric,
                    "tau_q_closed": rep.tau_q_closed,
                    "tau_b": rep.tau_b,
                    "tau_b_avg": rep.tau_b_avg,
                    "slack": rep.slack,
                }
                for rep in result.reports
            ],
        }
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
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
    beta_small: float,
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
    if not 0.0 < beta_small <= 1e-4:
        raise ValueError(f"decay exponent must lie in (0, 1e-4], got {beta_small}")
    if not 1 <= n_max <= 12:
        raise ValueError(f"qubit count cap must lie in 1..12, got {n_max}")
    ns = np.arange(1, n_max + 1)
    rows = []
    q_values = []
    tau_values = []
    for n in ns:
        exponent = float(n * n) * beta_small
        off = math.exp(-float(n * n) * beta_small)
        q_n = quantumness_dephasing(theta, exponent)
        tau_n = tau_q_dephasing(q_fix, theta, MemoryFunctions.markov_limit(float(n * n)))
        q_values.append(q_n)
        tau_values.append(tau_n)
        rows.append([int(n), off, q_n, math.sqrt(q_n / q_values[0]), tau_n])
    if n_max >= 2:
        logn = np.log(ns.astype(float))
        slope_q = float(np.polyfit(logn, np.log(q_values), 1)[0])
        slope_sqrt_q = float(np.polyfit(logn, 0.5 * np.log(q_values), 1)[0])
        slope_tau_q = float(np.polyfit(logn, np.log(tau_values), 1)[0])
    else:
        slope_q = slope_sqrt_q = slope_tau_q = None
    if out_path is not None:
        write_csv(out_path, GHZ_HEADER, rows)
    return GhzScalingReport(theta, beta_small, q_fix, rows, slope_q, slope_sqrt_q, slope_tau_q)


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
    """Range, symmetry, dual-form agreement, pure-pair formula, zero-iff-commuting."""
    n_pairs = min(10_000, max(50, 50 * cases))
    q_min, q_max_seen = math.inf, -math.inf
    worst_sym = 0.0
    worst_pure = 0.0
    zero_iff_ok = True
    worst_commuting_q = 0.0
    for i in range(n_pairs):
        rng = np.random.default_rng([seed, 1, i])
        dim = (2, 3, 4)[i % 3]
        if i % 2:
            a = random_density_matrix(dim, rng)
            b = random_density_matrix(dim, rng)
        else:
            va = random_pure_state(dim, rng)
            vb = random_pure_state(dim, rng)
            a, b = from_pure(va), from_pure(vb)
            overlap = abs(np.vdot(va, vb)) ** 2
            worst_pure = max(worst_pure, abs(quantumness(a, b) - pure_state_quantumness(overlap)))
        q_ab = quantumness(a, b)
        q_ba = quantumness(b, a)
        q_min = min(q_min, q_ab)
        q_max_seen = max(q_max_seen, q_ab)
        worst_sym = max(worst_sym, abs(q_ab - q_ba))
        comm_norm = float(np.linalg.norm(a @ b - b @ a))
        if (q_ab < 1e-12) != (comm_norm < 1e-7):
            zero_iff_ok = False
        if i % 10 == 0:
            # constructed commuting pair: random spectra in a shared eigenbasis
            w = np.abs(rng.standard_normal(dim)) + 0.1
            w2 = np.abs(rng.standard_normal(dim)) + 0.1
            da = np.diag(w / w.sum()).astype(complex)
            db = np.diag(w2 / w2.sum()).astype(complex)
            qc = quantumness(da, db)
            worst_commuting_q = max(worst_commuting_q, qc)
            if (qc < 1e-12) != (float(np.linalg.norm(da @ db - db @ da)) < 1e-7):
                zero_iff_ok = False
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
    for j in range(cases):
        cfg = _random_scenario(seed, j)
        gen, rho0, grid, _closed = build_scenario(cfg)
        traj = propagate(gen, rho0, grid)

        for state in traj.states[:: max(1, len(traj.states) // 40)]:
            worst_trace = max(worst_trace, abs(float(np.trace(state).real) - 1.0))
            worst_herm = max(worst_herm, hermiticity_defect(state))
            worst_eig = min(worst_eig, min_eigenvalue(state))
        if cfg.model == "dephasing":
            pops0 = np.diag(traj.states[0]).real
            pops_end = np.diag(traj.states[-1]).real
            worst_pop = max(worst_pop, float(np.max(np.abs(pops_end - pops0))))
        if cfg.model == "unitary2l":
            worst_purity = max(worst_purity, abs(purity(traj.states[-1]) - 1.0))

        for q_target in auto_targets(float(np.max(traj.q_samples)), 20):
            crossing = first_crossing_time(traj, float(q_target))
            if not crossing.reached:
                continue
            checked_cells += 1
            tau_q = tau_q_at_crossing(traj, crossing)
            worst_qsl = min(worst_qsl, crossing.time - tau_q)

        h = traj.step
        stride = max(2, len(grid) // 25)
        for k in range(stride, len(grid) - 2, stride):
            state = traj.states[k]
            lrho = gen.apply(state, float(grid[k]))
            rate = quantumness_rate(rho0, state, lrho)
            q_k = traj.q_samples[k]
            speed_k = traj.speed_samples[k]
            slack = 2.0 * math.sqrt(2.0 * q_k) * speed_k + 1e-9 - abs(rate)
            worst_rate_slack = min(worst_rate_slack, slack)
            # five-point stencil keeps the truncation error far below the
            # 1e-5 agreement budget even near the early-time memory kink
            qs = traj.q_samples
            fd = (qs[k - 2] - 8.0 * qs[k - 1] + 8.0 * qs[k + 1] - qs[k + 2]) / (12.0 * h)
            worst_fd = max(worst_fd, abs(rate - fd))
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


def _check_oracle_equivalence() -> list:
    """Closed-form states versus propagated states on a fixed small ensemble."""
    worst = 0.0
    for theta in (math.pi / 8.0, math.pi / 5.0):
        for gamma in (0.5, 2.0, None):  # None = memoryless branch
            markov = gamma is None
            tau_max = 2.0
            n = 2001
            grid = np.linspace(0.0, tau_max, n)
            rho0 = from_pure([math.cos(theta), math.sin(theta)])

            mem = (
                MemoryFunctions.markov_limit(1.0)
                if markov
                else MemoryFunctions(OUParams(1.0, gamma))
            )
            traj = propagate(Dephasing(mem), rho0, grid)
            for tau in (0.5 * tau_max, tau_max):
                closed = dephasing_closed_state(theta, tau, mem)
                worst = max(worst, float(np.max(np.abs(closed - traj.state_at(tau)))))

            traj = propagate(Dissipation(mem), rho0, grid)
            for tau in (0.5 * tau_max, tau_max):
                closed = dissipation_closed_state(theta, tau, mem)
                worst = max(worst, float(np.max(np.abs(closed - traj.state_at(tau)))))
    return [
        PropertyCheck(
            "oracle_equivalence", worst < 1e-6, worst, "max entrywise |closed - propagated|"
        )
    ]


class _TamperedDephasing:
    """Deliberately sign-flipped dephasing rate; must be caught by the checks."""

    dim = 2

    def __init__(self, memory: MemoryFunctions):
        self.memory = memory

    def apply(self, rho, t):
        from .matcore import SIGMA_Z

        return -self.memory.f(t) * (SIGMA_Z @ rho @ SIGMA_Z - rho)


def _check_mutation_canary() -> list:
    """The suite must detect a generator with a sign-flipped rate."""
    theta = math.pi / 8.0
    rho0 = from_pure([math.cos(theta), math.sin(theta)])
    gen = _TamperedDephasing(MemoryFunctions.markov_limit(1.0))
    grid = np.linspace(0.0, 3.0, 1001)
    caught = False
    detail = ""
    try:
        traj = propagate(gen, rho0, grid)
        q_max = float(np.max(traj.q_samples))
        if q_max > 1.0 + 1e-9:
            caught = True
            detail = f"witness range violated (max q = {q_max:.3f})"
        else:
            crossing = first_crossing_time(traj, 0.5 * q_max)
            if crossing.reached:
                if crossing.time < tau_q_at_crossing(traj, crossing) - 1e-4:
                    caught = True
                    detail = "speed limit violated"
    except PositivityLossError as err:
        caught = True
        detail = f"positivity abort at t = {err.time:.3f}"
    return [PropertyCheck("mutation_canary", caught, 1.0 if caught else 0.0, detail or "tampering went undetected")]


def validate(seed: int = 0, cases: int = 200) -> ValidationReport:
    """Run the randomized property suites; failures are report content."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    checks = []
    checks.extend(_check_witness_properties(seed, cases))
    checks.extend(_check_dynamics_properties(seed, cases))
    checks.extend(_check_oracle_equivalence())
    checks.extend(_check_mutation_canary())
    return ValidationReport(seed=seed, cases=cases, checks=checks)
