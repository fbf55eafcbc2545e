"""Bound evaluation: saturation, closed forms, hierarchy, crossing inversion."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit.bounds import (
    _refine_crossing,
    _running_mean,
    evaluate_crossings,
    quantumness_dephasing,
    quantumness_dissipation,
    speed_dissipation,
    tau_b_fidelity,
    tau_q_dephasing,
    tau_q_from_trajectory,
    tau_q_unitary,
    unitary_speed_squared,
)
from qslkit.generators import (
    Dephasing,
    Dissipation,
    UnitaryControl,
    UnitaryTwoLevel,
    dephasing_closed_state,
    dissipation_closed_state,
    propagate,
    unitary_state,
)
from qslkit.harness import ScenarioConfig, auto_targets, build_scenario, ghz_scaling
from qslkit.matcore import from_pure
from qslkit.memory import MemoryFunctions, RiccatiBlowupError
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

    def test_witness_without_speed_rejected(self):
        # a witness value the null dynamics never generated has no mean speed to divide by
        traj, _ = markov_dephasing_trajectory(0.0, tau=1.0, n=201)
        with pytest.raises(ValueError, match=r"no quantumness generation channel \(zero mean speed\)"):
            tau_q_from_trajectory(traj, 1.0, q_value=0.5)

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
        assert _running_mean(traj, values, np.array([0.0]))[0] == values[0]
        for j in (1, 2, 57, 200):
            expected = np.trapezoid(values[: j + 1], grid[: j + 1]) / grid[j]
            assert _running_mean(traj, values, grid[j : j + 1])[0] == pytest.approx(expected, rel=1e-12)
        for j, frac in ((0, 0.5), (41, 0.25), (199, 0.9)):
            tau = float(grid[j] + frac * traj.step)
            xs = np.append(grid[: j + 1], tau)
            ys = np.append(values[: j + 1], np.interp(tau, grid, values))
            expected = np.trapezoid(ys, xs) / tau
            assert _running_mean(traj, values, np.array([tau]))[0] == pytest.approx(expected, rel=1e-12)


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
        t_memory = tau_q_dephasing(q_val, math.pi / 8.0, MemoryFunctions(1.0, 0.1))
        assert t_memory > t_markov

    def test_bisection_solves_exponent_equation(self):
        mem = MemoryFunctions(1.0, 0.4)
        theta, q_val = math.pi / 5.0, 0.05
        tau = tau_q_dephasing(q_val, theta, mem)
        beta_target = -math.log1p(-2.0 * math.sqrt(q_val) / abs(math.sin(4.0 * theta)))
        assert mem.beta(tau) == pytest.approx(beta_target, rel=1e-8)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="unreachable quantumness"):
            tau_q_dephasing(0.9, math.pi / 8.0, MemoryFunctions.markov_limit(1.0))

    @pytest.mark.parametrize("memory_rate", [1.0, 1e-306])
    def test_bracket_holds_a_root_near_the_float_range(self, memory_rate):
        # the first bracket, 1e3 / coupling, overflows; the root does not
        mem = MemoryFunctions(1e-306, memory_rate)
        tau = tau_q_dephasing(0.01, 0.3, mem)
        assert math.isfinite(tau)
        assert quantumness_dephasing(0.3, mem.beta(tau)) == pytest.approx(0.01, rel=1e-9)

    def test_root_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match=r"^quantumness target q = 0.01 is unreachable in double precision"):
            tau_q_dephasing(0.01, 0.3, MemoryFunctions(1e-310, 1.0))

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError, match="no coherence channel"):
            tau_q_dephasing(0.1, math.pi / 4.0, MemoryFunctions.markov_limit(1.0))

    @pytest.mark.parametrize("theta", [math.pi / 5.0])
    def test_monotone_decreasing_in_memory_rate(self, theta):
        q_val = 0.02
        taus = [
            tau_q_dephasing(q_val, theta, MemoryFunctions(1.0, g))
            for g in (0.1, 0.3, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(taus, taus[1:]))


def speed_squared_per_time(c, t):
    """The squared speed of the two-angle control at one time, written out with ``math``."""
    th, thd, al, ald = c.theta(t), c.theta_rate, c.alpha(t), c.alpha_rate
    inner = ald * math.cos(al) ** 2 * math.sin(th) + thd * math.sin(2.0 * al)
    mixed = -2.0 * ald * math.sin(th) ** 2 * math.sin(4.0 * th) * inner
    return mixed + 2.0 * thd**2 * math.cos(2.0 * th) ** 2 + ald**2 * math.sin(th) ** 2


class TestTauQUnitary:
    @pytest.mark.parametrize(
        "control",
        [
            UnitaryControl(theta_rate=0.5, alpha0=1.2),
            UnitaryControl(theta0=0.3, theta_rate=0.7, alpha0=0.4, alpha_rate=0.3),
            UnitaryControl(theta0=-2.1, theta_rate=2.9, alpha0=2.8, alpha_rate=-1.7),
        ],
    )
    def test_speed_over_an_array_of_times_has_the_bits_of_each_time(self, control):
        ts = np.linspace(0.0, 5.0, 2001)
        expected = [speed_squared_per_time(control, t) for t in ts.tolist()]
        assert np.array_equal(unitary_speed_squared(control, ts), expected)
        assert [unitary_speed_squared(control, t) for t in ts[:50].tolist()] == expected[:50]
        assert type(unitary_speed_squared(control, 0.5)) is float

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

    def test_static_control_rejected(self):
        # theta stays at 0.3, so Q > 0, but nothing drives it
        control = UnitaryControl(theta0=0.3, theta_rate=0.0, alpha_rate=0.0)
        with pytest.raises(ValueError, match=r"no quantumness generation channel \(zero mean speed\)"):
            tau_q_unitary(control, 1.0)

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
        mem = MemoryFunctions(1.0, 0.5)
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
        mem = MemoryFunctions(1.0, 0.5)
        gen = Dissipation(mem)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        rho_t = dissipation_closed_state(theta, t, mem)
        composed = generation_speed(rho0, gen.apply(rho_t, t))
        assert speed_dissipation(theta, t, mem) == pytest.approx(composed, abs=1e-7)

    def test_time_past_memory_horizon_rejected(self):
        mem = MemoryFunctions(1.0, 0.5)
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
        mem = MemoryFunctions(1.0, 0.5)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 1.0, 201))
        with pytest.raises(ValueError, match="frozen initial state"):
            tau_b_fidelity(traj, 1.0, denominator="initial")
        assert tau_b_fidelity(traj, 1.0, denominator="averaged") > 0.0

    def test_unknown_variant_rejected(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        with pytest.raises(ValueError, match="unknown denominator"):
            tau_b_fidelity(traj, 1.0, denominator="endpoint")


def first_crossing(traj, q_target):
    """One target's report, from the evaluation pass."""
    return evaluate_crossings(traj, [q_target])[0]


class TestFirstCrossing:
    def test_zero_target(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.0, n=201)
        crossing = first_crossing(traj, 0.0)
        assert crossing.reached and crossing.tau_exact == 0.0

    def test_markov_dephasing_reference_crossing(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=1.5)
        q_val = 0.25 * (1.0 - math.exp(-2.0)) ** 2
        crossing = first_crossing(traj, q_val)
        assert crossing.reached
        assert crossing.tau_exact == pytest.approx(1.0, abs=1e-4)

    def test_unreached_target_reports_max(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=501)
        crossing = first_crossing(traj, 0.9)
        assert not crossing.reached
        assert crossing.tau_exact is None
        assert float(np.max(traj.q_samples)) < 0.9

    def test_nonmonotone_witness_returns_first_crossing(self):
        # rotation drive through the half-filled angle: witness peaks then falls
        control = UnitaryControl(theta_rate=1.0, alpha0=0.0)
        rho0 = from_pure(unitary_state(0.0, 0.0))
        traj = propagate(UnitaryTwoLevel(control), rho0, np.linspace(0.0, 2.5, 2501))
        crossing = first_crossing(traj, 0.5)
        assert crossing.reached
        assert crossing.tau_exact == pytest.approx(math.pi / 8.0, abs=1e-6)  # sin^2(2t) = 1/2

    def test_negative_target_rejected(self):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError):
            first_crossing(traj, -0.1)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda traj, tau: traj.locate(tau),
            lambda traj, tau: tau_q_from_trajectory(traj, tau),
            lambda traj, tau: tau_b_fidelity(traj, tau),
        ],
        ids=["locate", "tau_q_from_trajectory", "tau_b_fidelity"],
    )
    def test_time_rejected_by_name(self, call, value):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError, match=f"invalid argument 'tau': must be a finite number, got {value}$"):
            call(traj, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_crossing_target_rejected_by_name(self, value):
        traj, _ = markov_dephasing_trajectory(math.pi / 8.0, tau=0.5, n=101)
        with pytest.raises(ValueError, match=f"invalid argument 'q_target': must be a finite number, got {value}$"):
            first_crossing(traj, value)

    @given(
        q=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=-1e-300)),
        markov=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_dephasing_target_rejected_by_name(self, q, markov):
        mem = MemoryFunctions.markov_limit(1.0) if markov else MemoryFunctions(1.0, 0.4)
        # a non-finite target falls under the number rule; a finite negative one keeps its range message
        must = "must be a finite number" if not math.isfinite(q) else "quantumness must be finite and nonnegative"
        with pytest.raises(ValueError, match=f"invalid argument 'q': {must}, got"):
            tau_q_dephasing(q, math.pi / 8.0, mem)

    @pytest.mark.parametrize(
        "call,name,value",
        [
            (lambda v: tau_q_dephasing(0.01, v, MemoryFunctions.markov_limit(1.0)), "theta", math.nan),
            (lambda v: tau_q_dephasing(0.01, v, MemoryFunctions(1.0, 0.4)), "theta", math.inf),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", math.nan),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", math.inf),
            (lambda v: quantumness_dephasing(v, 0.1), "theta", math.nan),
            (lambda v: quantumness_dephasing(math.pi / 8.0, v), "beta", -math.inf),
            (lambda v: ghz_scaling(0.3, 1e-6, v), "n_max", 2.5),
            (lambda v: ghz_scaling(0.3, 1e-6, v), "n_max", True),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", math.nan),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", 0.0),
            (lambda v: ghz_scaling(0.3, v, 3), "beta", math.inf),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", 0.0),
            (lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v), "tau", -1.0),
        ],
        ids=["tau_q_dephasing-nan", "tau_q_dephasing-inf", "tau_q_unitary-nan", "tau_q_unitary-inf",
             "quantumness_dephasing-theta", "quantumness_dephasing-beta", "ghz_scaling-float", "ghz_scaling-bool",
             "ghz_scaling-beta-nan", "ghz_scaling-beta-zero", "ghz_scaling-beta-inf", "tau_q_unitary-zero",
             "tau_q_unitary-negative"],
    )
    def test_closed_form_argument_rejected_by_name(self, call, name, value):
        with pytest.raises(ValueError, match=f"invalid (argument|field) '{name}': must be "):
            call(value)


_MEM = MemoryFunctions.markov_limit(1.0)


def _traj():
    return markov_dephasing_trajectory(0.3, n=101)[0]


#: Every entry point that takes a scalar under the one number rule: (role, name, call with the value there).
_NUMBER_SITES = {
    **{
        f"UnitaryControl-{f}": ("field", f, lambda v, f=f: UnitaryControl(**{f: v}))
        for f in ("theta0", "theta_rate", "alpha0", "alpha_rate")
    },
    **{
        f"ScenarioConfig-{f}": ("field", f, lambda v, f=f: ScenarioConfig(**{"model": "dephasing", "gamma": 0.5, f: v}))
        for f in ("theta", "Gamma", "gamma", "tau_max", "theta0", "theta_rate", "alpha0", "alpha_rate")
    },
    "locate": ("argument", "tau", lambda v: _traj().locate(v)),
    "tau_q_from_trajectory": ("argument", "tau", lambda v: tau_q_from_trajectory(_traj(), v)),
    "tau_b_fidelity": ("argument", "tau", lambda v: tau_b_fidelity(_traj(), v)),
    "first_crossing_time": ("argument", "q_target", lambda v: first_crossing(_traj(), v)),
    "quantumness_dephasing-theta": ("argument", "theta", lambda v: quantumness_dephasing(v, 0.1)),
    "quantumness_dephasing-beta": ("argument", "beta", lambda v: quantumness_dephasing(0.3, v)),
    "tau_q_dephasing": ("argument", "theta", lambda v: tau_q_dephasing(0.01, v, _MEM)),
    "tau_q_dephasing-q": ("argument", "q", lambda v: tau_q_dephasing(v, 0.3, _MEM)),
    "tau_q_unitary": ("argument", "tau", lambda v: tau_q_unitary(UnitaryControl(theta_rate=0.5), v)),
    "ghz_scaling-theta": ("argument", "theta", lambda v: ghz_scaling(v, 1e-6, 2)),
    "ghz_scaling-q_fix": ("argument", "q_fix", lambda v: ghz_scaling(0.3, 1e-6, 2, q_fix=v)),
    "ghz_scaling-beta": ("argument", "beta", lambda v: ghz_scaling(0.3, v, 2)),
    "quantumness_dissipation": ("argument", "theta", lambda v: quantumness_dissipation(v, 0.5)),
    "quantumness_dissipation-xi": ("argument", "xi", lambda v: quantumness_dissipation(0.3, v)),
    "speed_dissipation": ("argument", "theta", lambda v: speed_dissipation(v, 0.5, _MEM)),
    "dephasing_closed_state": ("argument", "theta", lambda v: dephasing_closed_state(v, 0.5, _MEM)),
    "dephasing_closed_state-tau": ("argument", "tau", lambda v: dephasing_closed_state(0.3, v, _MEM)),
    "dissipation_closed_state": ("argument", "theta", lambda v: dissipation_closed_state(v, 0.5, _MEM)),
    "unitary_state-theta": ("argument", "theta", lambda v: unitary_state(v, 0.3)),
    "unitary_state-alpha": ("argument", "alpha", lambda v: unitary_state(0.3, v)),
}


@pytest.mark.parametrize(
    "site,value",
    # an unset gamma is valid: it marks the memoryless bath
    [(site, v) for site in _NUMBER_SITES for v in (True, "0.5", None, math.nan) if (site, v) != ("ScenarioConfig-gamma", None)],
)
def test_number_rule_names_the_rejected_value(site, value):
    role, name, call = _NUMBER_SITES[site]
    message = f"^invalid {role} '{name}': must be a finite number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


class TestSaturationAndValidity:
    @pytest.mark.parametrize("theta", [math.pi / 8.0, math.pi / 5.0, math.pi / 6.0])
    @pytest.mark.parametrize("gamma", [None, 0.1, 0.5, 2.0])
    def test_dephasing_saturation(self, theta, gamma):
        if gamma is None:
            mem = MemoryFunctions.markov_limit(1.0)
        else:
            mem = MemoryFunctions(1.0, gamma)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        n = max(2001, int(150 * (gamma or 1.0)) + 1)
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 3.0, n))
        targets = np.geomspace(1e-3, 0.95, 8) * float(np.max(traj.q_samples))
        for rep in evaluate_crossings(traj, targets):
            assert rep.reached
            assert rep.tau_q_numeric == pytest.approx(rep.tau_exact, rel=1e-4)


def reference_at(traj, tau, q_value, fidelity):
    """``tau_q`` and both ``tau_b`` at one time as the per-target code computed them: one
    ``np.trapezoid`` per mean and one ``rho0 @ state`` product per fidelity."""
    grid, h = traj.grid, traj.step
    clamped = min(max(tau, 0.0), float(grid[-1]))  # Trajectory.locate, one time at a time
    k = min(int(clamped / h), len(grid) - 2)
    w = (clamped - float(grid[k])) / h

    def mean(values):
        if tau == 0.0:
            return float(values[0])
        area = float(np.trapezoid(values[: k + 1], dx=h))
        if w > 0.0:
            area += 0.5 * (values[k] + ((1.0 - w) * values[k] + w * values[k + 1])) * (w * h)
        return area / tau

    numerator, speed = math.sqrt(max(q_value, 0.0) / 2.0), mean(traj.speed_samples)
    tau_q = 0.0 if speed < 1e-14 and numerator < 1e-14 else numerator / speed
    if not fidelity:
        return tau_q, None, None
    fid = [float(np.trace(traj.rho0 @ traj.states[j]).real) for j in (k, k + 1)]
    gap = abs(1.0 - ((1.0 - w) * fid[0] + w * fid[1] if w > 0.0 else fid[0]))
    denominators = float(traj.lrho0_norms[0]), mean(traj.lrho0_norms)
    return (tau_q, *(None if d < 1e-14 else gap / d for d in denominators))


def reference_target(traj, q_target, fidelity):
    """One target's ``(q_target, reached, tau_exact)`` and timescales as the per-target code computed them."""
    q, grid = traj.q_samples, traj.grid
    if q_target <= q[0]:
        time = float(grid[0])
    else:
        idx = np.nonzero(q >= q_target)[0]
        while len(idx) and q[idx[0] - 1] > q_target:
            idx = idx[1:]
        time = _refine_crossing(traj, int(idx[0]), q_target) if len(idx) else None
    crossing = (q_target, time is not None, time)
    if time is None:
        return crossing, None, None, None
    return (crossing, *reference_at(traj, time, q_target, fidelity))


def hex_or_none(x):
    return None if x is None else float(x).hex()


def pass_trajectories():
    """One trajectory per model, and two with their witness samples replaced: one with a
    nonmonotone start, one rising linearly so that crossings fall on grid times."""
    configs = [
        ScenarioConfig(model="dephasing", markov=True, grid_points=401, tau_max=2.0),
        ScenarioConfig(model="dephasing", theta=0.6, gamma=0.5, grid_points=401),
        ScenarioConfig(model="dissipation", theta=math.pi / 4.0, gamma=2.0, grid_points=401),
        ScenarioConfig(model="ghz", n=2, gamma=0.7, grid_points=401),
        ScenarioConfig(model="unitary2l", theta_rate=1.0, alpha0=0.3, alpha_rate=0.4, tau_max=2.5, grid_points=401),
        ScenarioConfig(model="stirap", theta_rate=0.5, alpha_rate=2.0, grid_points=401),
    ]
    trajs = [(cfg.model, propagate(*build_scenario(cfg))) for cfg in configs]
    base = trajs[1][1]
    n = len(base.grid)
    bumpy = np.concatenate([[0.0, 0.3, 0.5, 0.2, 0.1], np.linspace(0.15, 0.9, n - 5)])
    linear = base.grid / base.grid[-1]
    trajs.append(("nonmonotone start", dataclasses.replace(base, q_samples=bumpy)))
    trajs.append(("linear", dataclasses.replace(base, q_samples=linear)))
    return trajs


class TestEvaluationPass:
    @pytest.mark.parametrize("fidelity", [True, False])
    def test_every_field_has_the_bits_of_the_per_target_reference(self, fidelity):
        on_grid = 0
        for name, traj in pass_trajectories():
            q = traj.q_samples
            q_max = float(np.max(q))
            targets = [
                0.0,
                float(q[0]),  # at q[0]
                *auto_targets(q_max, 20).tolist(),
                0.5 * float(q[-2] + q[-1]),  # a crossing in the last interval, if the witness still rises there
                *(float(q[j]) for j in (1, 3, 7, len(q) // 2, len(q) - 1)),  # crossings at or next to grid times
                1.5 * q_max + 1e-3,  # unreached
                q_max + 1e-12,
            ]
            got = evaluate_crossings(traj, targets, fidelity)
            assert len(got) == len(targets)
            for target, rep in zip(targets, got):
                expected = reference_target(traj, target, fidelity)
                assert (rep.q_target, rep.reached, rep.tau_exact) == expected[0], (name, target)
                timescales = (rep.tau_q_numeric, rep.tau_b, rep.tau_b_avg)
                assert [hex_or_none(x) for x in timescales] == [hex_or_none(x) for x in expected[1:]], (name, target)
                assert rep.tau_q_closed is None  # the pass adds no closed form
                if rep.reached and rep.tau_exact > 0.0:
                    on_grid += traj.locate(rep.tau_exact)[1] == 0.0
            assert any(not rep.reached for rep in got)
        assert on_grid > 0  # some crossing time is a grid time, where no interpolation is taken

    def test_nonmonotone_start_takes_the_first_upcrossing(self):
        name, traj = pass_trajectories()[-2]
        reports = evaluate_crossings(traj, [0.25, 0.4, 0.6])
        # 0.25 and 0.4 are first reached on the early bump, 0.6 only on the later rise
        assert [rep.tau_exact < traj.grid[2] for rep in reports] == [True, True, False]
        assert reports[2].tau_exact > traj.grid[5]

    def test_crossing_in_the_last_interval(self):
        traj = pass_trajectories()[0][1]
        q = traj.q_samples
        assert q[-1] > q[-2]
        (rep,) = evaluate_crossings(traj, [0.5 * float(q[-2] + q[-1])], fidelity=True)
        assert traj.grid[-2] < rep.tau_exact <= traj.grid[-1]
        assert rep.tau_b is not None and rep.tau_b_avg is not None

    def test_crossing_on_a_two_sample_grid_is_linear(self):
        # no third sample for the quadratic stencil
        mem = MemoryFunctions.markov_limit(1.0)
        traj = propagate(Dephasing(mem), from_pure([math.cos(0.3), math.sin(0.3)]), np.linspace(0.0, 1.0, 2))
        (rep,) = evaluate_crossings(traj, [0.5 * float(traj.q_samples[1])])
        assert rep.tau_exact == 0.5

    def test_one_target_calls_match_the_pass(self):
        for _, traj in pass_trajectories()[:6]:
            targets = auto_targets(float(np.max(traj.q_samples)), 7).tolist()
            for target, rep in zip(targets, evaluate_crossings(traj, targets, fidelity=True)):
                assert tau_q_from_trajectory(traj, rep.tau_exact, q_value=target) == rep.tau_q_numeric
                for variant, expected in (("initial", rep.tau_b), ("averaged", rep.tau_b_avg)):
                    if expected is None:
                        with pytest.raises(ValueError, match="frozen initial state"):
                            tau_b_fidelity(traj, rep.tau_exact, variant)
                    else:
                        assert tau_b_fidelity(traj, rep.tau_exact, variant) == expected

    def test_one_target_calls_at_grid_times(self):
        for _, traj in pass_trajectories()[:6]:
            n = len(traj.grid)
            for j in (0, 1, 57, n // 2, n - 2, n - 1):
                tau, q_j = float(traj.grid[j]), float(traj.q_samples[j])
                tau_q, tau_b, tau_b_avg = reference_at(traj, tau, q_j, True)
                got = [
                    tau_q_from_trajectory(traj, tau, q_value=q_j),
                    _or_none(tau_b_fidelity, traj, tau, "initial"),
                    _or_none(tau_b_fidelity, traj, tau, "averaged"),
                ]
                assert [hex_or_none(x) for x in got] == [hex_or_none(x) for x in (tau_q, tau_b, tau_b_avg)]


def _or_none(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None
