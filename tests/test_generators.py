"""Generators and propagation: Hamiltonian oracles, closed states, conservation."""

import math
import warnings

import numpy as np
import pytest

from qslkit.generators import (
    Dephasing,
    Dissipation,
    PositivityLossError,
    Schedule,
    Stirap,
    UnitaryControl,
    UnitaryTwoLevel,
    apply_generator,
    dephasing_closed_state,
    dissipation_closed_state,
    ghz_dephased_state,
    hamiltonian_2l,
    hamiltonian_stirap,
    propagate,
    unitary_state,
)
from qslkit.matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    from_pure,
    hermiticity_defect,
    identity,
    purity,
)
from qslkit.memory import MemoryFunctions, OUParams, RiccatiBlowupError
from qslkit.witness import random_density_matrix

class SignFlippedDephasing:
    """Dephasing with its rate sign-flipped: coherences grow and positivity breaks."""

    def __init__(self, dim, rate):
        self.dim = dim
        self.rate = rate
        self.z = np.diag([(-1.0) ** i for i in range(dim)]).astype(complex)

    def apply(self, rho, t):
        return -self.rate * (self.z @ rho @ self.z - rho)


GAMMA_RATIOS = (0.1, 0.5, 1.0, 2.0, 50.0)
THETAS = (math.pi / 8.0, math.pi / 5.0, math.pi / 4.0)

# horizons kept clear of the finite-time divergence of the dissipation memory
DISSIPATION_TAU = {0.1: 5.0, 0.5: 4.0, 1.0: 3.5, 2.0: 5.0, 50.0: 5.0}


def closed_unitary(control, t):
    """Propagator of the two-angle control, used as a finite-difference oracle."""
    th = control.theta(t)
    al = control.alpha_value(t)
    return math.cos(th) * identity(2) + 1j * math.sin(th) * (
        math.cos(al) * SIGMA_X + math.sin(al) * SIGMA_Y
    )


def dissipation_setup(theta, gamma, tau, n):
    mem = MemoryFunctions.markov_limit(1.0) if gamma is None else MemoryFunctions(OUParams(1.0, gamma))
    rho0 = from_pure([math.cos(theta), math.sin(theta)])
    return Dissipation(mem), rho0, np.linspace(0.0, tau, n), mem


class TestSchedule:
    def test_constant(self):
        s = Schedule.constant(0.7)
        assert s.value(3.0) == 0.7
        assert s.rate(3.0) == 0.0
        assert s.integral(2.0) == pytest.approx(1.4, abs=1e-15)

    def test_ramp(self):
        s = Schedule.ramp(0.2, 0.5)
        assert s.value(2.0) == pytest.approx(1.2, abs=1e-15)
        assert s.rate(2.0) == 0.5
        assert s.integral(2.0) == pytest.approx(0.2 * 2.0 + 0.25 * 4.0, abs=1e-15)

    def test_tabulated_matches_piecewise_linear(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([0.0, 1.0, 0.5])
        s = Schedule.tabulated(times, values)
        assert s.value(0.5) == pytest.approx(0.5, abs=1e-15)
        assert s.rate(0.5) == pytest.approx(1.0, abs=1e-15)
        assert s.rate(1.5) == pytest.approx(-0.5, abs=1e-15)
        # integral of the hat profile: quadratic pieces evaluated exactly
        assert s.integral(1.0) == pytest.approx(0.5, abs=1e-15)
        assert s.integral(2.0) == pytest.approx(0.5 + 0.75, abs=1e-15)

    def test_undefined_time_rejected(self):
        s = Schedule.tabulated([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="schedule undefined"):
            s.value(2.0)


class TestHamiltonianTwoLevel:
    def test_constant_rate_zero_phase(self):
        c = UnitaryControl.constant(theta_rate=0.8, alpha=0.0)
        assert np.allclose(hamiltonian_2l(c, 0.3), -0.8 * SIGMA_X)

    def test_constant_rate_quarter_phase(self):
        c = UnitaryControl.constant(theta_rate=0.8, alpha=math.pi / 2.0)
        assert np.max(np.abs(hamiltonian_2l(c, 0.3) - (-0.8) * SIGMA_Y)) < 1e-15

    def test_phase_only_drive_at_quarter_angle(self):
        w = 0.6
        c = UnitaryControl(
            theta0=math.pi / 4.0, theta_rate=Schedule.constant(0.0), alpha=Schedule.ramp(0.4, w)
        )
        t = 1.1
        al = 0.4 + w * t
        expected = 0.5 * w * (math.sin(al) * SIGMA_X - math.cos(al) * SIGMA_Y + SIGMA_Z)
        assert np.max(np.abs(hamiltonian_2l(c, t) - expected)) < 1e-14

    @pytest.mark.parametrize(
        "control",
        [
            UnitaryControl(theta0=0.3, theta_rate=Schedule.constant(0.0), alpha=Schedule.ramp(0.2, 0.7)),
            UnitaryControl(theta0=0.1, theta_rate=Schedule.constant(0.4), alpha=Schedule.ramp(0.3, -0.5)),
            UnitaryControl.constant(theta_rate=0.5, alpha=1.2),
        ],
    )
    def test_matches_finite_difference_of_propagator(self, control):
        eps = 1e-6
        for t in (0.0, 0.4, 1.3):
            du = (closed_unitary(control, t + eps) - closed_unitary(control, t - eps)) / (2.0 * eps)
            h_fd = 1j * du @ closed_unitary(control, t).conj().T
            assert np.max(np.abs(hamiltonian_2l(control, t) - h_fd)) < 1e-9

    def test_hermitian(self):
        c = UnitaryControl(theta0=0.2, theta_rate=Schedule.constant(0.3), alpha=Schedule.ramp(0.1, 0.9))
        assert hermiticity_defect(hamiltonian_2l(c, 0.77)) < 1e-15


class TestHamiltonianStirap:
    def test_rotation_only_block_structure(self):
        c = UnitaryControl.constant(theta_rate=0.9)
        h = hamiltonian_stirap(c, 0.2)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = -0.9j
        expected[2, 0] = 0.9j
        assert np.allclose(h, expected)

    def test_hermitian_by_construction(self):
        c = UnitaryControl(theta0=0.3, theta_rate=Schedule.constant(0.4), alpha=Schedule.ramp(0.0, 0.8))
        h = hamiltonian_stirap(c, 0.6)
        assert np.array_equal(h, h.conj().T)

    def test_population_transfer_avoids_middle_level(self):
        control = UnitaryControl.constant(theta_rate=0.5)
        rho0 = from_pure([0.0, 0.0, 1.0])
        traj = propagate(Stirap(control), rho0, np.linspace(0.0, 1.0, 2001))
        middle = max(abs(s[1, 1].real) for s in traj.states)
        assert middle < 1e-10
        th = 0.5
        psi = np.array([-math.sin(th), 0.0, math.cos(th)], dtype=complex)
        assert np.max(np.abs(traj.states[-1] - from_pure(psi))) < 1e-8


class TestApplyGenerator:
    def test_dephasing_kills_nothing_diagonal(self):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.all(gen.apply(rho, 1.0) == 0.0)

    def test_dephasing_decays_coherence_at_twice_rate(self):
        # off-diagonal of L rho is -2 f rho_01, consistent with e^{-beta} decay
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        rho = from_pure([1.0 / math.sqrt(2.0)] * 2)
        out = gen.apply(rho, 0.5)
        assert out[0, 1] == pytest.approx(-2.0 * 1.0 * rho[0, 1], abs=1e-14)
        assert out[0, 0] == 0.0

    def test_dissipation_relaxes_excited_state(self):
        gen, _, _, _ = dissipation_setup(0.0, None, 1.0, 101)
        excited = np.diag([1.0, 0.0]).astype(complex)
        out = apply_generator(gen, excited, 0.0)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("theta", THETAS)
    def test_output_traceless_and_hermitian(self, theta):
        rng = np.random.default_rng(17)
        mem = MemoryFunctions(OUParams(1.0, 0.7))
        gens = [
            Dephasing(mem),
            UnitaryTwoLevel(UnitaryControl.constant(theta_rate=0.5, alpha=0.3, alpha_rate=0.2)),
            dissipation_setup(theta, 0.5, 1.0, 101)[0],
        ]
        for gen in gens:
            rho = random_density_matrix(2, rng)
            out = apply_generator(gen, rho, 0.5)
            assert abs(np.trace(out)) < 1e-10
            assert hermiticity_defect(out) < 1e-10

    def test_time_past_memory_horizon_rejected(self):
        gen, rho0, _, mem = dissipation_setup(math.pi / 5.0, 0.5, 1.0, 101)
        with pytest.raises(RiccatiBlowupError):
            apply_generator(gen, rho0, mem.horizon)

    def test_dimension_mismatch_rejected(self):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_generator(gen, np.eye(3, dtype=complex) / 3.0, 0.0)


class TestPropagate:
    def test_dephasing_conserves_populations(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(OUParams(1.0, 1.0))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 3.0, 1001))
        for state in traj.states[::100]:
            assert np.max(np.abs(np.diag(state) - np.diag(rho0))) < 1e-10

    def test_dephasing_coherence_monotone_nonincreasing(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(OUParams(1.0, 0.3))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 3.0, 1001))
        coherences = np.array([abs(s[0, 1]) for s in traj.states])
        assert np.all(np.diff(coherences) <= 1e-14)

    def test_unitary_preserves_purity(self):
        control = UnitaryControl.constant(theta_rate=0.5, alpha=0.4, alpha_rate=0.3)
        rho0 = from_pure(unitary_state(0.0, 0.4))
        traj = propagate(UnitaryTwoLevel(control), rho0, np.linspace(0.0, 2.0, 2001))
        for state in traj.states[::200]:
            assert abs(purity(state) - 1.0) < 1e-8

    def test_markov_dissipation_population_decay(self):
        gen, rho0, grid, _ = dissipation_setup(0.0, None, 2.0, 2001)
        traj = propagate(gen, rho0, grid)
        for k in (500, 1000, 2000):
            assert traj.states[k][0, 0].real == pytest.approx(math.exp(-grid[k]), abs=1e-6)

    def test_trace_and_hermiticity_preserved(self):
        gen, rho0, grid, _ = dissipation_setup(math.pi / 5.0, 0.5, 2.0, 2001)
        traj = propagate(gen, rho0, grid)
        for state in traj.states[::100]:
            assert abs(np.trace(state).real - 1.0) < 1e-9
            assert hermiticity_defect(state) < 1e-9

    def test_first_sample_is_initial_state(self):
        theta = math.pi / 8.0
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, 1.0, 101))
        assert traj.q_samples[0] == 0.0
        assert np.array_equal(traj.states[0], rho0)

    def test_grid_validation(self):
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([1.0, 0.0])
        with pytest.raises(ValueError, match="start at 0"):
            propagate(Dephasing(mem), rho0, np.linspace(0.5, 1.0, 11))
        with pytest.raises(ValueError, match="uniform"):
            propagate(Dephasing(mem), rho0, np.array([0.0, 0.1, 0.3]))

    def test_positivity_loss_aborts(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        with pytest.raises(PositivityLossError):
            propagate(SignFlippedDephasing(2, 1.0), rho0, np.linspace(0.0, 3.0, 1001))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rate", [1.0, 1000.0])
    def test_positivity_loss_names_the_first_grid_time(self, dim, rate):
        # at rate 1000 the run overflows long before its end; only the abort may come out
        rho0 = from_pure(np.ones(dim) / math.sqrt(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityLossError) as err:
                propagate(SignFlippedDephasing(dim, rate), rho0, np.linspace(0.0, 3.0, 1001))
        assert err.value.time == 0.003

    @pytest.mark.parametrize("dim", [2, 3])
    def test_states_are_one_stacked_array(self, dim):
        control = UnitaryControl.constant(theta_rate=0.5, alpha_rate=0.3)
        gen = UnitaryTwoLevel(control) if dim == 2 else Stirap(control)
        rho0 = from_pure(np.eye(dim)[-1])
        traj = propagate(gen, rho0, np.linspace(0.0, 1.0, 101))
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (101, dim, dim)
        assert traj.q_samples.shape == traj.speed_samples.shape == (101,)

    def test_locate_maps_times_to_grid_intervals(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        grid = np.linspace(0.0, 2.0, 201)
        traj = propagate(Dephasing(MemoryFunctions.markov_limit(1.0)), rho0, grid)
        assert traj.step == pytest.approx(0.01, rel=1e-12)
        k, w = traj.locate(grid[37] + 0.25 * traj.step)
        assert k == 37 and w == pytest.approx(0.25, abs=1e-9)
        assert traj.locate(2.0) == (199, pytest.approx(1.0, abs=1e-9))
        assert traj.index_of(float(grid[37])) == 37
        for bad in (-0.01, 2.01):
            with pytest.raises(ValueError, match="outside trajectory grid"):
                traj.locate(bad)
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            traj.index_of(float(grid[37]) + 0.5 * traj.step)


class TestClosedStates:
    def test_dephasing_initial_time(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(OUParams(1.0, 1.0))
        assert np.allclose(
            dephasing_closed_state(theta, 0.0, mem),
            from_pure([math.cos(theta), math.sin(theta)]),
        )

    def test_dephasing_long_time_fully_mixed_coherence(self):
        theta = math.pi / 5.0
        state = dephasing_closed_state(theta, 1e6, MemoryFunctions.markov_limit(1.0))
        assert abs(state[0, 1]) < 1e-30

    def test_dephasing_closed_matches_propagated(self):
        theta, gamma, tau = math.pi / 5.0, 1.0, 1.0
        mem = MemoryFunctions(OUParams(1.0, gamma))
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, tau, 2001))
        assert np.max(np.abs(dephasing_closed_state(theta, tau, mem) - traj.states[-1])) < 1e-7

    def test_dissipation_initial_time(self):
        theta = math.pi / 5.0
        _, rho0, _, mem = dissipation_setup(theta, 0.5, 1.0, 101)
        assert np.allclose(dissipation_closed_state(theta, 0.0, mem), rho0)

    def test_dissipation_markov_coherence(self):
        theta, tau = math.pi / 4.0, 1.3
        _, _, _, mem = dissipation_setup(theta, None, 2.0, 201)
        state = dissipation_closed_state(theta, tau, mem)
        assert state[0, 1].real == pytest.approx(0.5 * math.exp(-0.5 * tau), abs=1e-12)

    def test_dissipation_closed_matches_propagated_nonmarkov(self):
        for gamma in (0.5, 2.0):
            gen, rho0, grid, mem = dissipation_setup(math.pi / 4.0, gamma, 2.0, 2001)
            traj = propagate(gen, rho0, grid)
            assert np.max(np.abs(dissipation_closed_state(math.pi / 4.0, 2.0, mem) - traj.states[-1])) < 1e-6

    def test_closed_vs_propagated_across_ensemble(self):
        for theta in THETAS:
            rho0 = from_pure([math.cos(theta), math.sin(theta)])
            for gamma in GAMMA_RATIOS:
                mem = MemoryFunctions(OUParams(1.0, gamma))
                tau = 5.0
                traj = propagate(Dephasing(mem), rho0, np.linspace(0.0, tau, 2501))
                for frac in (0.4, 1.0):
                    t = traj.grid[int(frac * 2500)]
                    assert (
                        np.max(np.abs(dephasing_closed_state(theta, float(t), mem) - traj.state_at(float(t))))
                        < 1e-6
                    )

    def test_step_halving_fourth_order(self):
        theta, gamma = math.pi / 5.0, 0.5
        tau = 2.0
        finals = []
        for n in (1001, 2001):
            gen, rho0, grid, _ = dissipation_setup(theta, gamma, tau, n)
            finals.append(propagate(gen, rho0, grid).states[-1])
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-8


class TestGhzState:
    def test_single_qubit_reduces_to_dephasing(self):
        theta, beta = math.pi / 5.0, 0.37
        mem = MemoryFunctions.markov_limit(1.0)
        tau = beta / 2.0  # markov branch: beta = 2 * coupling * tau
        assert np.allclose(ghz_dephased_state(theta, 1, beta), dephasing_closed_state(theta, tau, mem))

    def test_off_diagonal_exponent_scales_quadratically(self):
        state = ghz_dephased_state(math.pi / 8.0, 3, 0.1)
        sc = math.sin(math.pi / 8.0) * math.cos(math.pi / 8.0)
        assert state[0, 1].real == pytest.approx(sc * math.exp(-0.9), abs=1e-15)

    def test_zero_exponent_is_pure(self):
        theta = math.pi / 5.0
        state = ghz_dephased_state(theta, 4, 0.0)
        assert np.allclose(state, from_pure([math.cos(theta), math.sin(theta)]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ghz_dephased_state(0.1, 0, 0.1)
        with pytest.raises(ValueError):
            ghz_dephased_state(0.1, 2, -0.1)
