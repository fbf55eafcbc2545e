"""Bound evaluation: saturation, closed forms, hierarchy, crossing inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit.bounds import (
    _running_mean,
    first_crossing_time,
    quantumness_dephasing,
    quantumness_dissipation,
    speed_dissipation,
    tau_b_fidelity,
    tau_q_at_crossing,
    tau_q_dephasing,
    tau_q_from_trajectory,
    tau_q_unitary,
)
from qslkit.generators import (
    Dephasing,
    Dissipation,
    UnitaryControl,
    UnitaryTwoLevel,
    dissipation_closed_state,
    propagate,
    unitary_state,
)
from qslkit.harness import ScenarioConfig, build_scenario, ghz_scaling
from qslkit.matcore import from_pure
from qslkit.memory import MemoryFunctions, OUParams, RiccatiBlowupError
from qslkit.witness import generation_speed, quantumness


def markov_dephasing_trajectory(theta, tau=1.0, n=2001):
    mem = MemoryFunctions.markov_limit(1.0)
    rho0 = from_pure([math.cos(theta), math.sin(theta)])
    traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, tau, n))
    return traj, mem


class TestTauQFromTrajectory:
    def test_null_dynamics_returns_zero(self):
        # diagonal initial state: no coherence channel, Q and speed identically zero
        traj, _ = markov_dephasing_trajectory(0.0, tau=1.0, n=201)
        assert tau_q_from_trajectory(traj, 1.0) == 0.0

    def test_markov_dephasing_saturates(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0)
        assert tau_q_from_trajectory(traj, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_markov_dissipation_saturates(self):
        theta, tau, n = math.pi / 4.0, 1.0, 2001
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dissipation(mem), rho0, np.linspace(0.0, tau, n))
        assert tau_q_from_trajectory(traj, tau) == pytest.approx(1.0, abs=1e-3)

    def test_time_outside_grid_rejected(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        with pytest.raises(ValueError, match="outside trajectory grid"):
            tau_q_from_trajectory(traj, 2.0)


class TestRunningMean:
    def test_matches_trapezoid_at_and_between_grid_times(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        grid = traj.grid
        values = 2.0 + np.sin(7.0 * grid) + grid**2
        assert _running_mean(traj, values, 0.0) == values[0]
        for j in (1, 2, 57, 200):
            expected = np.trapezoid(values[: j + 1], grid[: j + 1]) / grid[j]
            assert _running_mean(traj, values, float(grid[j])) == pytest.approx(expected, rel=1e-12)
        for j, frac in ((0, 0.5), (41, 0.25), (199, 0.9)):
            tau = float(grid[j] + frac * traj.step)
            xs = np.append(grid[: j + 1], tau)
            ys = np.append(values[: j + 1], np.interp(tau, grid, values))
            assert _running_mean(traj, values, tau) == pytest.approx(np.trapezoid(ys, xs) / tau, rel=1e-12)


class TestQuantumnessDephasing:
    def test_zero_exponent(self):
        assert quantumness_dephasing(math.pi / 8.0, 0.0) == 0.0

    def test_full_dephasing_limit(self):
        assert quantumness_dephasing(math.pi / 8.0, 1e9) == pytest.approx(0.25, abs=1e-12)

    def test_reference_value(self):
        expected = 0.25 * (1.0 - math.exp(-2.0)) ** 2
        assert quantumness_dephasing(math.pi / 8.0, 2.0) == pytest.approx(expected, abs=1e-15)


class TestTauQDephasing:
    def test_vanishing_target(self):
        assert tau_q_dephasing(0.0, math.pi / 8.0, MemoryFunctions.markov_limit(1.0)) == 0.0

    def test_markov_closed_form_inverts_witness(self):
        mem = MemoryFunctions.markov_limit(1.0)
        q_val = 0.25 * (1.0 - math.exp(-2.0)) ** 2
        assert tau_q_dephasing(q_val, math.pi / 8.0, mem) == pytest.approx(1.0, abs=1e-10)

    def test_memory_slows_quantumness_generation(self):
        q_val = 0.1
        t_markov = tau_q_dephasing(q_val, math.pi / 8.0, MemoryFunctions.markov_limit(1.0))
        t_memory = tau_q_dephasing(q_val, math.pi / 8.0, MemoryFunctions(OUParams(1.0, 0.1)))
        assert t_memory > t_markov

    def test_bisection_solves_exponent_equation(self):
        mem = MemoryFunctions(OUParams(1.0, 0.4))
        theta, q_val = math.pi / 5.0, 0.05
        tau = tau_q_dephasing(q_val, theta, mem)
        beta_target = -math.log1p(-2.0 * math.sqrt(q_val) / abs(math.sin(4.0 * theta)))
        assert mem.beta(tau) == pytest.approx(beta_target, rel=1e-8)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="unreachable quantumness"):
            tau_q_dephasing(0.9, math.pi / 8.0, MemoryFunctions.markov_limit(1.0))

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError, match="no coherence channel"):
            tau_q_dephasing(0.1, math.pi / 4.0, MemoryFunctions.markov_limit(1.0))

    @pytest.mark.parametrize("theta", [math.pi / 5.0])
    def test_monotone_decreasing_in_memory_rate(self, theta):
        q_val = 0.02
        taus = [
            tau_q_dephasing(q_val, theta, MemoryFunctions(OUParams(1.0, g)))
            for g in (0.1, 0.3, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestTauQUnitary:
    def test_constant_drive_saturates(self):
        control = UnitaryControl(theta_rate=0.5, alpha0=0.0)
        assert tau_q_unitary(control, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_phase_invariance_is_exact(self):
        values = [
            tau_q_unitary(UnitaryControl(theta_rate=0.5, alpha0=a), 1.0)
            for a in (0.0, math.pi / 3.0, 1.2)
        ]
        assert max(values) - min(values) < 1e-12

    def test_commuting_endpoint_rejected(self):
        control = UnitaryControl(theta_rate=math.pi / 2.0, alpha0=0.0)
        with pytest.raises(ValueError, match="commuting endpoint"):
            tau_q_unitary(control, 1.0)  # theta(tau) = pi/2

    def test_negative_speed_argument_surfaced(self):
        # mixed-rate drive near the angle where the closed form turns negative
        control = UnitaryControl(theta0=0.76, theta_rate=1.0, alpha0=math.pi / 4.0, alpha_rate=0.1088)
        with pytest.raises(ValueError, match="negative speed argument"):
            tau_q_unitary(control, 1.0)

    def test_pinned_quarter_angle_report(self):
        # phase-only drive at theta = pi/4: the closed-form numerator degenerates, so the bound is fully numeric
        cfg = ScenarioConfig(
            model="unitary2l", theta0=math.pi / 4.0, theta_rate=0.0, alpha_rate=0.8, tau_max=1.0, grid_points=4001
        )
        tau_q = tau_q_from_trajectory(propagate(*build_scenario(cfg)), 1.0)
        assert tau_q == pytest.approx(1.0, abs=1e-4)
        # the bound must not exceed the exact elapsed time
        assert tau_q <= 1.0 + 1e-6


class TestQuantumnessDissipation:
    def test_zero_integrals(self):
        assert quantumness_dissipation(math.pi / 5.0, 0.0) == 0.0

    def test_equal_superposition_real_branch(self):
        b = 0.8
        expected = (1.0 - math.exp(-2.0 * b)) ** 2
        assert quantumness_dissipation(math.pi / 4.0, b) == pytest.approx(expected, abs=1e-12)

    def test_full_relaxation_reaches_maximum(self):
        assert quantumness_dissipation(math.pi / 4.0, 1e3) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            quantumness_dissipation(0.0, 1.0)

    def test_matches_witness_of_closed_state(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(OUParams(1.0, 0.5))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        for tau in (0.5, 1.0, 2.0):
            q_closed = quantumness_dissipation(theta, mem.xi(tau))
            q_witness = quantumness(rho0, dissipation_closed_state(theta, tau, mem))
            assert q_closed == pytest.approx(q_witness, abs=1e-9)


class TestSpeedDissipation:
    def test_markov_initial_speed(self):
        mem = MemoryFunctions.markov_limit(1.0)
        assert speed_dissipation(math.pi / 4.0, 0.0, mem) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_markov_exponential_decay(self):
        mem = MemoryFunctions.markov_limit(1.0)
        for t in (0.5, 1.0, 2.0):
            assert speed_dissipation(math.pi / 4.0, t, mem) == pytest.approx(
                math.exp(-t) / math.sqrt(2.0), abs=1e-12
            )

    def test_matches_compositional_route(self):
        theta, t = math.pi / 5.0, 1.0
        mem = MemoryFunctions(OUParams(1.0, 0.5))
        gen = Dissipation(mem)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        rho_t = dissipation_closed_state(theta, t, mem)
        composed = generation_speed(rho0, gen.apply(rho_t, t))
        assert speed_dissipation(theta, t, mem) == pytest.approx(composed, abs=1e-7)

    def test_time_past_memory_horizon_rejected(self):
        mem = MemoryFunctions(OUParams(1.0, 0.5))
        with pytest.raises(RiccatiBlowupError):
            speed_dissipation(math.pi / 4.0, mem.horizon, mem)


class TestTauBFidelity:
    def test_zero_time(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        assert tau_b_fidelity(traj, 0.0) == 0.0

    def test_markov_dephasing_closed_form(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0)
        expected = abs(math.sin(math.pi / 4.0)) * (1.0 - math.exp(-2.0)) / (2.0 * math.sqrt(2.0))
        assert tau_b_fidelity(traj, 1.0) == pytest.approx(expected, abs=1e-6)

    def test_weaker_than_commutator_bound(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0)
        assert tau_b_fidelity(traj, 1.0) < tau_q_from_trajectory(traj, 1.0)

    def test_frozen_initial_state_rejected(self):
        # finite-memory kernel: the rate vanishes at t = 0
        theta = math.pi / 5.0
        mem = MemoryFunctions(OUParams(1.0, 0.5))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 1.0, 201))
        with pytest.raises(ValueError, match="frozen initial state"):
            tau_b_fidelity(traj, 1.0, denominator="initial")
        assert tau_b_fidelity(traj, 1.0, denominator="averaged") > 0.0

    def test_unknown_variant_rejected(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        with pytest.raises(ValueError, match="unknown denominator"):
            tau_b_fidelity(traj, 1.0, denominator="endpoint")


class TestFirstCrossing:
    def test_zero_target(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        crossing = first_crossing_time(traj, 0.0)
        assert crossing.reached and crossing.time == 0.0

    def test_markov_dephasing_reference_crossing(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.5)
        q_val = 0.25 * (1.0 - math.exp(-2.0)) ** 2
        crossing = first_crossing_time(traj, q_val)
        assert crossing.reached
        assert crossing.time == pytest.approx(1.0, abs=1e-4)

    def test_unreached_target_reports_max(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=501)
        crossing = first_crossing_time(traj, 0.9)
        assert not crossing.reached
        assert crossing.time is None
        assert crossing.q_max == pytest.approx(float(np.max(traj.q_samples)), abs=0.0)

    def test_nonmonotone_witness_returns_first_crossing(self):
        # rotation drive through the half-filled angle: witness peaks then falls
        control = UnitaryControl(theta_rate=1.0, alpha0=0.0)
        rho0 = from_pure(unitary_state(0.0, 0.0))
        traj = propagate(UnitaryTwoLevel(control), rho0, np.linspace(0.0, 2.5, 2501))
        crossing = first_crossing_time(traj, 0.5)
        assert crossing.reached
        assert crossing.time == pytest.approx(math.pi / 8.0, abs=1e-6)  # sin^2(2t) = 1/2

    def test_negative_target_rejected(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError):
            first_crossing_time(traj, -0.1)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda traj, tau: traj.locate(tau),
            lambda traj, tau: traj.state_at(tau),
            lambda traj, tau: tau_q_from_trajectory(traj, tau),
            lambda traj, tau: tau_b_fidelity(traj, tau),
        ],
        ids=["locate", "state_at", "tau_q_from_trajectory", "tau_b_fidelity"],
    )
    def test_time_rejected_by_name(self, call, value):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError, match=f"invalid argument 'tau': must be a finite number, got {value}$"):
            call(traj, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_crossing_target_rejected_by_name(self, value):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError, match=f"invalid argument 'q_target': must be a finite number, got {value}$"):
            first_crossing_time(traj, value)

    @given(
        q=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=-1e-300)),
        markov=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_dephasing_target_rejected_by_name(self, q, markov):
        mem = MemoryFunctions.markov_limit(1.0) if markov else MemoryFunctions(OUParams(1.0, 0.4))
        with pytest.raises(ValueError, match="invalid argument 'q': quantumness must be finite and nonnegative, got"):
            tau_q_dephasing(q, math.pi / 8.0, mem)

    @pytest.mark.parametrize(
        "call,name,value",
        [
            (lambda v: tau_q_dephasing(0.01, v, MemoryFunctions.markov_limit(1.0)), "theta", math.nan),
            (lambda v: tau_q_dephasing(0.01, v, MemoryFunctions(OUParams(1.0, 0.4))), "theta", math.inf),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", math.nan),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", math.inf),
            (lambda v: quantumness_dephasing(v, 0.1), "theta", math.nan),
            (lambda v: quantumness_dephasing(math.pi / 8.0, v), "beta", -math.inf),
            (lambda v: ghz_scaling(0.3, 1e-6, v), "n_max", 2.5),
            (lambda v: ghz_scaling(0.3, 1e-6, v), "n_max", True),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", math.nan),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", 0.0),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", math.inf),
        ],
        ids=["tau_q_dephasing-nan", "tau_q_dephasing-inf", "tau_q_unitary-nan", "tau_q_unitary-inf",
             "quantumness_dephasing-theta", "quantumness_dephasing-beta", "ghz_scaling-float", "ghz_scaling-bool",
             "ghz_scaling-beta-nan", "ghz_scaling-beta-zero", "ghz_scaling-beta-inf"],
    )
    def test_closed_form_argument_rejected_by_name(self, call, name, value):
        with pytest.raises(ValueError, match=f"invalid (argument|field) '{name}': must be "):
            call(value)


class TestSaturationAndValidity:
    @pytest.mark.parametrize("theta", [math.pi / 8.0, math.pi / 5.0, math.pi / 6.0])
    @pytest.mark.parametrize("gamma", [None, 0.1, 0.5, 2.0])
    def test_dephasing_saturation(self, theta, gamma):
        if gamma is None:
            mem = MemoryFunctions.markov_limit(1.0)
        else:
            mem = MemoryFunctions(OUParams(1.0, gamma))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        n = max(2001, int(150 * (gamma or 1.0)) + 1)
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 3.0, n))
        for q_target in np.geomspace(1e-3, 0.95, 8) * float(np.max(traj.q_samples)):
            crossing = first_crossing_time(traj, float(q_target))
            assert crossing.reached
            tau_q = tau_q_at_crossing(traj, crossing)
            assert tau_q == pytest.approx(crossing.time, rel=1e-4)
