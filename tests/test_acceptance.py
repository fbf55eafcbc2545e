"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the ``-v`` test names carry the same information).

Expected values are frozen from their stated derivations, evaluated
in-test; quoted decimal approximations in comments are rounded forms of
the same expressions.
"""

import math
import time

import numpy as np
import pytest

from qslkit.bounds import (
    evaluate_crossings,
    tau_b_fidelity,
    tau_q_dephasing,
    tau_q_from_trajectory,
    tau_q_unitary,
)
from qslkit.generators import (
    Dephasing,
    Dissipation,
    Stirap,
    UnitaryControl,
    UnitaryTwoLevel,
    dephasing_closed_state,
    dissipation_closed_state,
    propagate,
    unitary_state,
)
from qslkit.harness import (
    ScenarioConfig,
    _fuzz_cases,
    _random_scenario,
    auto_targets,
    fig1,
    fig2,
    fig3,
    ghz_scaling,
    run_scenario,
)
from qslkit.matcore import from_pure
from qslkit.memory import MemoryFunctions
from qslkit.witness import (
    pure_state_quantumness,
    quantumness,
    quantumness_rate,
    random_density_matrix,
    random_pure_state,
)

# frozen references, computed from their stated derivations
Q_REF = 0.25 * (1.0 - math.exp(-2.0)) ** 2  # ~0.186911
TAU_B_REF = abs(math.sin(math.pi / 4.0)) * (1.0 - math.exp(-2.0)) / (2.0 * math.sqrt(2.0))  # ~0.21617

FIG_GAMMAS = (0.1, 0.5, 1.0, 2.0)

# dissipation horizons stay clear of the finite-time memory divergence
DISSIPATION_TAU = {0.1: 5.0, 0.5: 4.0, 1.0: 3.5, 2.0: 5.0, 50.0: 5.0}


class _line:
    """Prints one pass/fail line per criterion, even when asserts fail."""

    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance {self.num:02d}] {self.name}: {status}")
        return False


@pytest.fixture(scope="module")
def dephasing_pi8():
    """Memoryless dephasing at theta = pi/8, horizon 1, for criteria 1, 2, 11."""
    theta = math.pi / 8.0
    mem = MemoryFunctions.markov_limit(1.0)
    rho0 = from_pure([math.cos(theta), math.sin(theta)])
    traj = propagate(Dephasing(mem), rho0, 1.0, 2001)
    return theta, mem, traj


@pytest.fixture(scope="module")
def fig_sweeps(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweeps")
    rows1 = fig1(str(base / "fig1.csv"))
    rows2 = fig2(str(base / "fig2.csv"))
    rows3 = fig3(str(base / "fig3.csv"))
    return rows1, rows2, rows3


@pytest.fixture(scope="module")
def stirap_trajectory():
    control = UnitaryControl(theta_rate=0.5)
    rho0 = from_pure([0.0, 0.0, 1.0])
    return propagate(Stirap(control), rho0, 1.0, 2001)


@pytest.fixture(scope="module")
def markov50_dissipation():
    cfg = ScenarioConfig(
        model="dissipation", theta=math.pi / 4.0, gamma=50.0, tau_max=1.0, grid_points=2501
    )
    return run_scenario(cfg)


def test_c01_dephasing_saturation(dephasing_pi8):
    with _line(1, "dephasing saturation (tight and reachable)"):
        start = time.monotonic()
        theta = math.pi / 8.0
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, 1.0, 2001)
        q_tau = float(traj.q_samples[-1])
        assert q_tau == pytest.approx(Q_REF, abs=1e-9)
        assert tau_q_from_trajectory(traj, 1.0) == pytest.approx(1.0, abs=1e-4)
        assert tau_q_dephasing(Q_REF, theta, mem) == pytest.approx(1.0, abs=1e-10)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_c02_bound_hierarchy(dephasing_pi8, fig_sweeps):
    with _line(2, "fidelity bound is weaker on every sweep cell"):
        _theta, _mem, traj = dephasing_pi8
        tau_b = tau_b_fidelity(traj, 1.0)
        assert tau_b == pytest.approx(TAU_B_REF, abs=1e-6)
        assert round(tau_b, 5) == 0.21617
        rows1, _, _ = fig_sweeps
        assert len(rows1) == 3 * 20
        for row in rows1:  # theta, gamma_ratio, q, tau_exact, tau_q, tau_q_closed, tau_b
            assert row[6] <= row[4] + 1e-6


def test_c03_unitary_saturation():
    with _line(3, "unitary saturation, phase-invariant"):
        values = []
        for alpha in (0.0, math.pi / 3.0, 1.2):
            control = UnitaryControl(theta_rate=0.5, alpha0=alpha)
            values.append(tau_q_unitary(control, 1.0))
        for v in values:
            assert v == pytest.approx(1.0, abs=1e-6)
        assert max(values) - min(values) < 1e-12


def test_c04_stirap_transfer(stirap_trajectory):
    with _line(4, "three-level passage avoids the middle level and saturates"):
        traj = stirap_trajectory
        middle = max(abs(s[1, 1].real) for s in traj.states)
        assert middle < 1e-10
        th = 0.5
        target = from_pure(np.array([-math.sin(th), 0.0, math.cos(th)], dtype=complex))
        assert np.max(np.abs(traj.states[-1] - target)) < 1e-8
        assert tau_q_from_trajectory(traj, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_c05_dephasing_memory_monotonicity(fig_sweeps):
    with _line(5, "memory slows dephasing: ordered curves, saturation at each ratio"):
        _, rows2, _ = fig_sweeps
        by_ratio = {}
        for row in rows2:
            by_ratio.setdefault(row[1], []).append(row)
        assert sorted(by_ratio) == list(FIG_GAMMAS)
        for ratio, rows in by_ratio.items():
            for row in rows:
                assert row[4] == pytest.approx(row[3], rel=1e-4), f"gamma={ratio}"
        n_targets = len(by_ratio[FIG_GAMMAS[0]])
        for k in range(n_targets):
            curve = [by_ratio[g][k][4] for g in FIG_GAMMAS]
            assert all(a > b for a, b in zip(curve, curve[1:]))


def test_c06_dissipation_memory_dependence(fig_sweeps, markov50_dissipation):
    with _line(6, "memory slows dissipation; memoryless limit cross-check"):
        _, _, rows3 = fig_sweeps
        by_ratio = {}
        for row in rows3:
            by_ratio.setdefault(row[1], []).append(row[4])
        n_targets = len(by_ratio[FIG_GAMMAS[0]])
        for k in range(n_targets):
            curve = [by_ratio[g][k] for g in FIG_GAMMAS]
            assert all(a > b for a, b in zip(curve, curve[1:]))
        result = markov50_dissipation
        p_end = result.diagnostics["p_end"].real
        assert abs(p_end - 0.5) <= 0.01  # within 1% of the coupling rate
        assert tau_q_from_trajectory(result.trajectory, 1.0) == pytest.approx(1.0, abs=1e-3)


def test_c07_speed_limit_fuzz():
    with _line(7, "speed limit holds on 200 randomized scenarios"):
        start = time.monotonic()
        worst = math.inf
        cells = 0
        cases = 0
        # batched per family and grid; each member's trajectory is the one it gets alone
        for j, (cfg, traj) in enumerate(_fuzz_cases(2026, 200)):
            assert cfg == _random_scenario(2026, j)
            cases += 1
            for rep in evaluate_crossings(traj, auto_targets(float(np.max(traj.q_samples)), 20)):
                if not rep.reached:
                    continue
                cells += 1
                worst = min(worst, rep.tau_exact - rep.tau_q_numeric)
        elapsed = time.monotonic() - start
        assert cases == 200
        assert cells > 2000
        assert worst >= -1e-4, f"worst margin {worst:.3e} over {cells} cells"
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_c08_witness_properties():
    with _line(8, "witness range, symmetry, dual forms, pure-pair overlap law"):
        n_pairs = 10_000
        worst_sym = 0.0
        worst_forms = 0.0
        worst_pure = 0.0
        for i in range(n_pairs):
            rng = np.random.default_rng([2026, 8, i])
            dim = (2, 3, 4)[i % 3]
            if i % 2:
                a = random_density_matrix(dim, rng)
                b = random_density_matrix(dim, rng)
            else:
                va, vb = random_pure_state(dim, rng), random_pure_state(dim, rng)
                a, b = from_pure(va), from_pure(vb)
                overlap = abs(np.vdot(va, vb)) ** 2
                worst_pure = max(
                    worst_pure, abs(quantumness(a, b) - pure_state_quantumness(overlap))
                )
            q_ab = quantumness(a, b)
            assert 0.0 <= q_ab <= 1.0 + 1e-9
            worst_sym = max(worst_sym, abs(q_ab - quantumness(b, a)))
            # dual algebraic forms, recomputed explicitly
            comm = a @ b - b @ a
            ab = a @ b
            q_trace = float((-4.0 * np.trace(ab @ ab - a @ a @ b @ b)).real)
            worst_forms = max(worst_forms, abs(q_ab - q_trace))
            assert (q_ab < 1e-12) == (float(np.linalg.norm(comm)) < 1e-7)
            if i % 10 == 0:
                w1 = np.abs(rng.standard_normal(dim)) + 0.1
                w2 = np.abs(rng.standard_normal(dim)) + 0.1
                da = np.diag(w1 / w1.sum()).astype(complex)
                db = np.diag(w2 / w2.sum()).astype(complex)
                q_c = quantumness(da, db)
                assert q_c < 1e-12
                assert float(np.linalg.norm(da @ db - db @ da)) < 1e-7
        assert worst_sym == 0.0
        assert worst_forms <= 1e-10
        assert worst_pure <= 1e-10


def test_c09_oracle_equivalence():
    with _line(9, "closed-form states match propagation; fourth-order convergence"):
        worst_closed = 0.0
        worst_halving = 0.0
        for theta in (math.pi / 8.0, math.pi / 5.0, math.pi / 4.0):
            rho0 = from_pure([math.cos(theta), math.sin(theta)])
            for gamma in (0.1, 0.5, 1.0, 2.0, 50.0):
                # dephasing over the full horizon
                mem = MemoryFunctions(1.0, gamma)
                tau = 5.0
                finals = []
                for n in (2501, 5001):
                    traj = propagate(Dephasing(mem), rho0, tau, n)
                    finals.append(traj.states[-1])
                    for frac in (0.25, 0.5, 0.75, 1.0):
                        k = int(frac * (n - 1))
                        closed = dephasing_closed_state(theta, float(traj.grid[k]), mem)
                        diff = np.max(np.abs(closed - traj.states[k]))
                        worst_closed = max(worst_closed, float(diff))
                worst_halving = max(worst_halving, float(np.max(np.abs(finals[0] - finals[1]))))

                # dissipation, horizon capped below the memory divergence
                tau = DISSIPATION_TAU[gamma]
                h_target = min(1e-3, 2.0 * min(1.0 / (50.0 * gamma), 1.0 / 50.0))
                n_base = int(math.ceil(tau / h_target)) + 1
                finals = []
                for n in (n_base, 2 * n_base - 1):
                    traj = propagate(Dissipation(mem), rho0, tau, n)
                    finals.append(traj.states[-1])
                    for frac in (0.25, 0.5, 0.75, 1.0):
                        k = int(frac * (n - 1))
                        diff = np.max(
                            np.abs(dissipation_closed_state(theta, float(traj.grid[k]), mem) - traj.states[k])
                        )
                        worst_closed = max(worst_closed, float(diff))
                worst_halving = max(worst_halving, float(np.max(np.abs(finals[0] - finals[1]))))
        assert worst_closed < 1e-6, f"worst closed-vs-propagated {worst_closed:.2e}"
        assert worst_halving < 1e-8, f"worst step-halving change {worst_halving:.2e}"


def test_c10_ghz_scaling(tmp_path):
    with _line(10, "cat-state scaling exponents"):
        beta = 1e-6
        report = ghz_scaling(math.pi / 8.0, beta, 5, str(tmp_path / "ghz.csv"))
        for row in report.rows:
            n = row[0]
            assert row[1] == math.exp(-(n * n) * beta)
        assert report.slope_sqrt_q == pytest.approx(2.0, abs=0.02)
        assert report.slope_tau_q == pytest.approx(-2.0, abs=0.05)
        # the report presents both readings of the square-law wording
        assert "n^2" in report.note and "tau_Q" in report.note
        assert report.slope_q is not None


def test_c11_rate_inequality(dephasing_pi8, stirap_trajectory, markov50_dissipation):
    with _line(11, "rate inequality and finite-difference cross-check"):
        trajectories = [dephasing_pi8[2], stirap_trajectory, markov50_dissipation.trajectory]
        # add finite-memory dephasing/dissipation and a driven-qubit trajectory
        theta = math.pi / 5.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        mem = MemoryFunctions(1.0, 0.5)
        trajectories.append(propagate(Dephasing(mem), rho0, 3.0, 2001))
        trajectories.append(propagate(Dissipation(mem), rho0, 2.0, 2001))
        control = UnitaryControl(theta_rate=0.5, alpha0=0.7)
        trajectories.append(
            propagate(UnitaryTwoLevel(control), from_pure(unitary_state(0.0, 0.7)), 1.0, 2001)
        )

        worst_slack = math.inf
        worst_fd = 0.0
        for traj in trajectories:
            grid = traj.grid
            h = float(grid[1] - grid[0])
            stride = max(2, len(grid) // 50)
            for k in range(stride, len(grid) - 2, stride):
                state = traj.states[k]
                lrho = traj.generator.apply(state, float(grid[k]))
                rate = quantumness_rate(traj.rho0, state, lrho)
                slack = (
                    2.0 * math.sqrt(2.0 * traj.q_samples[k]) * traj.speed_samples[k]
                    + 1e-9
                    - abs(rate)
                )
                worst_slack = min(worst_slack, slack)
                qs = traj.q_samples
                fd = (qs[k - 2] - 8.0 * qs[k - 1] + 8.0 * qs[k + 1] - qs[k + 2]) / (12.0 * h)
                worst_fd = max(worst_fd, abs(rate - fd))
        assert worst_slack >= 0.0, f"rate inequality violated by {worst_slack:.3e}"
        assert worst_fd <= 1e-5, f"worst finite-difference gap {worst_fd:.3e}"
