"""Generators and propagation: Hamiltonian oracles, closed states, conservation."""

import contextlib
import dataclasses
import math
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslkit import generators
from qslkit.generators import (
    POSITIVITY_ABORT,
    POSITIVITY_SCAN_STEPS,
    Dephasing,
    Dissipation,
    PositivityLossError,
    Stirap,
    UnitaryControl,
    UnitaryTwoLevel,
    dephasing_closed_state,
    dissipation_closed_state,
    hamiltonian_2l,
    hamiltonian_stirap,
    propagate,
    propagate_many,
    unitary_state,
)
from qslkit.harness import FIG1_THETAS, ScenarioConfig, build_scenario
from qslkit.matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    from_pure,
    hermiticity_defect,
    min_eigenvalue,
    purity,
)
from qslkit.memory import MemoryFunctions, RiccatiBlowupError
from qslkit.witness import generation_speed, random_density_matrix

class SignFlippedDephasing(Dephasing):
    """Dephasing with its rate sign-flipped, in any dimension: coherences grow and positivity breaks."""

    grid_times = 0  # summed length of the time axis of the stacks the action is applied to, across instances

    def __init__(self, dim, rate):
        super().__init__(MemoryFunctions.markov_limit(rate))
        object.__setattr__(self, "dim", dim)  # the families fix dim per class; this test family takes any

    def coefficients(self, times):
        return -super().coefficients(times)

    def action(self, rho, f):
        SignFlippedDephasing.grid_times += f.size  # one rate per member and grid time
        z = np.diag([(-1.0) ** i for i in range(self.dim)]).astype(complex)
        return f * (z @ rho @ z - rho)


class CountingDephasing(SignFlippedDephasing):
    """The same generator with the rate's sign kept: positivity holds and the run goes the full length."""

    coefficients = Dephasing.coefficients


def sequential_states(gens, rho0s, grid):
    """``(B, n, d, d)`` states of the fourth-order loop, stepped one grid time after another.

    The reference the swept propagation must reproduce: each step's
    increment added to the state, then re-Hermitized, one grid time at a time.
    """
    n = len(grid)
    h = float(grid[1] - grid[0])
    times = np.empty(2 * n - 1)
    times[0::2] = grid
    times[1::2] = grid[:-1] + 0.5 * h
    table = np.stack([g.coefficients(times) for g in gens], axis=1)
    act = gens[0].action
    rho = np.stack(rho0s)
    states = [rho]
    for k in range(n - 1):
        k1 = act(rho, table[2 * k])
        c_mid = table[2 * k + 1]
        k2 = act(rho + 0.5 * h * k1, c_mid)
        k3 = act(rho + 0.5 * h * k2, c_mid)
        k4 = act(rho + h * k3, table[2 * k + 2])
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().mT)
        states.append(rho)
    return np.stack(states, axis=1)


@contextlib.contextmanager
def recorded_sweeps():
    """Yield a list that gets ``(window steps, states made final, those states)`` for each sweep of the propagation."""
    sweeps = []
    sweep = generators._sweep

    def recording(act, x, *args):
        final, total = sweep(act, x, *args)
        sweeps.append((x.shape[1] - 1, final, x[:, 1:final + 1].copy()))
        return final, total

    with mock.patch.object(generators, "_sweep", recording):
        yield sweeps


@contextlib.contextmanager
def recorded_estimates(family):
    """Yield a list that gets each block of estimates the family's ``estimate_chunk`` returns, in order."""
    blocks = []
    estimate = family.estimate_chunk

    def recording(self, *args):
        block = estimate(self, *args)
        blocks.append(block.copy())
        return block

    with mock.patch.object(family, "estimate_chunk", recording):
        yield blocks


def frontier_walk(sweeps, n):
    """The frontier the sweeps reached and the states they made final, ``(B, frontier, d, d)`` in grid order.

    Each sweep must take the next window, ``POSITIVITY_SCAN_STEPS`` steps
    or the rest of the grid, and make at least one more state final.
    """
    j = 0
    for steps, final, _ in sweeps:
        assert steps == min(POSITIVITY_SCAN_STEPS, n - 1 - j) and 1 <= final <= steps
        j += final
    return j, np.concatenate([states for *_, states in sweeps], axis=1)


def swept_dtypes(gens, rho0s, tau_max, grid_points):
    """The dtypes of the windows the propagation swept, with its trajectories."""
    with recorded_sweeps() as sweeps:
        trajectories = propagate_many(gens, rho0s, tau_max, grid_points)
    return {str(states.dtype) for *_, states in sweeps}, trajectories


GAMMA_RATIOS = (0.1, 0.5, 1.0, 2.0, 50.0)
THETAS = (math.pi / 8.0, math.pi / 5.0, math.pi / 4.0)

# horizons kept clear of the finite-time divergence of the dissipation memory
DISSIPATION_TAU = {0.1: 5.0, 0.5: 4.0, 1.0: 3.5, 2.0: 5.0, 50.0: 5.0}


def closed_unitary(control, t):
    """Propagator of the two-angle control, used as a finite-difference oracle."""
    th = control.theta(t)
    al = control.alpha(t)
    return math.cos(th) * np.eye(2, dtype=complex) + 1j * math.sin(th) * (
        math.cos(al) * SIGMA_X + math.sin(al) * SIGMA_Y
    )


def dissipation_setup(theta, gamma):
    mem = MemoryFunctions.markov_limit(1.0) if gamma is None else MemoryFunctions(1.0, gamma)
    rho0 = from_pure([math.cos(theta), math.sin(theta)])
    return Dissipation(mem), rho0, mem


class TestSchedule:
    """The two angles of :class:`UnitaryControl` are linear in time."""

    def test_constant(self):
        c = UnitaryControl(theta0=0.7, alpha0=-0.3)
        assert c == UnitaryControl(theta0=0.7, theta_rate=0.0, alpha0=-0.3, alpha_rate=0.0)
        assert c.theta(3.0) == 0.7 and c.alpha(3.0) == -0.3
        assert UnitaryControl().theta(5.0) == UnitaryControl().alpha(5.0) == 0.0

    def test_ramp(self):
        c = UnitaryControl(theta0=0.2, theta_rate=0.5, alpha0=1.0, alpha_rate=-0.25)
        assert c.theta(2.0) == pytest.approx(1.2, abs=1e-15)
        assert c.alpha(2.0) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(TypeError):
            UnitaryControl(0.2, 0.5)  # keywords only: the four numbers are easy to misorder

    @given(
        field=st.sampled_from(["theta0", "theta_rate", "alpha0", "alpha_rate"]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_finite_field_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"invalid field '{field}': must be a finite number, got {bad}$"):
            UnitaryControl(**{field: bad})


class TestHamiltonianTwoLevel:
    def test_constant_rate_zero_phase(self):
        c = UnitaryControl(theta_rate=0.8, alpha0=0.0)
        assert np.allclose(hamiltonian_2l(c, 0.3), -0.8 * SIGMA_X)

    def test_constant_rate_quarter_phase(self):
        c = UnitaryControl(theta_rate=0.8, alpha0=math.pi / 2.0)
        assert np.max(np.abs(hamiltonian_2l(c, 0.3) - (-0.8) * SIGMA_Y)) < 1e-15

    def test_phase_only_drive_at_quarter_angle(self):
        w = 0.6
        c = UnitaryControl(theta0=math.pi / 4.0, alpha0=0.4, alpha_rate=w)
        t = 1.1
        al = 0.4 + w * t
        expected = 0.5 * w * (math.sin(al) * SIGMA_X - math.cos(al) * SIGMA_Y + SIGMA_Z)
        assert np.max(np.abs(hamiltonian_2l(c, t) - expected)) < 1e-14

    @pytest.mark.parametrize(
        "control",
        [
            UnitaryControl(theta0=0.3, alpha0=0.2, alpha_rate=0.7),
            UnitaryControl(theta0=0.1, theta_rate=0.4, alpha0=0.3, alpha_rate=-0.5),
            UnitaryControl(theta_rate=0.5, alpha0=1.2),
        ],
    )
    def test_matches_finite_difference_of_propagator(self, control):
        eps = 1e-6
        for t in (0.0, 0.4, 1.3):
            du = (closed_unitary(control, t + eps) - closed_unitary(control, t - eps)) / (2.0 * eps)
            h_fd = 1j * du @ closed_unitary(control, t).conj().T
            assert np.max(np.abs(hamiltonian_2l(control, t) - h_fd)) < 1e-9

    def test_hermitian(self):
        c = UnitaryControl(theta0=0.2, theta_rate=0.3, alpha0=0.1, alpha_rate=0.9)
        assert hermiticity_defect(hamiltonian_2l(c, 0.77)) < 1e-15


def math_hamiltonian_2l(c, t):
    """The two-level Hamiltonian at one time, through ``math``."""
    th, al = c.theta(t), c.alpha(t)
    sc = math.sin(th) * math.cos(th)
    hx = -c.theta_rate * math.cos(al) + c.alpha_rate * sc * math.sin(al)
    hy = -(c.theta_rate * math.sin(al) + c.alpha_rate * sc * math.cos(al))
    hz = c.alpha_rate * math.sin(th) ** 2
    return hx * SIGMA_X + hy * SIGMA_Y + hz * SIGMA_Z


def math_hamiltonian_stirap(c, t):
    """The three-level Hamiltonian at one time, through ``math``."""
    th, thd, ald = c.theta(t), c.theta_rate, c.alpha_rate
    a01, a12 = ald * math.cos(th), ald * math.sin(th)
    return 1j * np.array([[0.0, a01, -thd], [-a01, 0.0, -a12], [thd, a12, 0.0]])


class TestHamiltonianTables:
    """A table over many times is the per-time ``math`` formula, bit for bit."""

    @pytest.mark.parametrize(
        "family,scalar", [(UnitaryTwoLevel, math_hamiltonian_2l), (Stirap, math_hamiltonian_stirap)]
    )
    def test_table_matches_math_per_time(self, family, scalar):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta0, theta_rate, alpha0, alpha_rate = (float(x) for x in rng.uniform(-4.0, 4.0, 4))
            control = UnitaryControl(theta0=theta0, theta_rate=theta_rate, alpha0=alpha0, alpha_rate=alpha_rate)
            times = np.linspace(0.0, float(rng.uniform(0.5, 8.0)), 1001)
            table = family(control).coefficients(times)
            expected = np.stack([scalar(control, float(t)) for t in times])
            assert table.dtype == expected.dtype and table.shape == expected.shape
            assert table.tobytes() == expected.tobytes()
            assert family(control).coefficients([times[7]])[0].tobytes() == expected[7].tobytes()


class TestHamiltonianStirap:
    def test_rotation_only_block_structure(self):
        c = UnitaryControl(theta_rate=0.9)
        h = hamiltonian_stirap(c, 0.2)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = -0.9j
        expected[2, 0] = 0.9j
        assert np.allclose(h, expected)

    def test_hermitian_by_construction(self):
        c = UnitaryControl(theta0=0.3, theta_rate=0.4, alpha0=0.0, alpha_rate=0.8)
        h = hamiltonian_stirap(c, 0.6)
        assert np.array_equal(h, h.conj().T)

    def test_population_transfer_avoids_middle_level(self):
        control = UnitaryControl(theta_rate=0.5)
        rho0 = from_pure([0.0, 0.0, 1.0])
        traj = propagate(Stirap(control), rho0, 1.0, 2001)
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
        gen, _, _ = dissipation_setup(0.0, None)
        excited = np.diag([1.0, 0.0]).astype(complex)
        out = gen.apply(excited, 0.0)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("theta", THETAS)
    def test_output_traceless_and_hermitian(self, theta):
        rng = np.random.default_rng(17)
        mem = MemoryFunctions(1.0, 0.7)
        gens = [
            Dephasing(mem),
            UnitaryTwoLevel(UnitaryControl(theta_rate=0.5, alpha0=0.3, alpha_rate=0.2)),
            dissipation_setup(theta, 0.5)[0],
        ]
        for gen in gens:
            rho = random_density_matrix(2, rng)
            out = gen.apply(rho, 0.5)
            assert abs(np.trace(out)) < 1e-10
            assert hermiticity_defect(out) < 1e-10

    def test_time_past_memory_horizon_rejected(self):
        gen, rho0, mem = dissipation_setup(math.pi / 5.0, 0.5)
        with pytest.raises(RiccatiBlowupError):
            gen.apply(rho0, mem.horizon)

    def test_dimension_mismatch_rejected(self):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        with pytest.raises(ValueError, match="^invalid argument 'rho': must be of the generator's dimension 2, got 3$"):
            gen.apply(np.eye(3, dtype=complex) / 3.0, 0.0)
        with pytest.raises(ValueError, match="^invalid argument 'rho': must be of the generator's dimension 3, got 2$"):
            Stirap(UnitaryControl(alpha_rate=1.0)).apply(np.eye(2, dtype=complex) / 2.0, 0.0)


UNITARY_FAMILIES = {"unitary2l": UnitaryTwoLevel, "stirap": Stirap}


def unitary_action_operands(cls, shape, rng):
    """``(rho, h)`` of one broadcast shape the propagation applies a unitary action to.

    ``h`` holds Hamiltonian tables of random controls of the family ``cls``
    and ``rho`` random density matrices, except for the scan's basis matrices.
    """
    d = cls.dim

    def tables(members, m):
        controls = [UnitaryControl(**{f: rng.uniform(-1.5, 1.5) for f in ("theta0", "theta_rate", "alpha0", "alpha_rate")})
                    for _ in range(members)]
        return np.stack([cls(c).coefficients(np.linspace(0.0, 2.0, m)) for c in controls])

    def states(*lead):
        return np.stack([random_density_matrix(d, rng) for _ in range(math.prod(lead))]).reshape(*lead, d, d)

    if shape == "scan basis":  # the transfer-matrix build of a block: each step's table entry against the d^2 basis
        return np.eye(d * d, dtype=complex).reshape(d * d, d, d), tables(3, 8)[:, :, None]
    if shape == "scan stage":  # its later fourth-order stages, on the stepped basis
        return states(3, 8, d * d), tables(3, 8)[:, :, None]
    if shape == "sweep":  # a sweep of a window: each member's states against its entries
        return states(3, 8), tables(3, 8)
    if shape == "post-pass":  # one member's speeds: its states against its grid-time table
        return states(201), tables(1, 201)[0]
    return states(), tables(1, 201)[0]  # the initial state against the table, as in lrho0_norms


class TestUnitaryAction:
    """``-i [H, rho]`` as a sum of broadcast outer products, on every shape the propagation uses."""

    SHAPES = ("scan basis", "scan stage", "sweep", "post-pass", "initial state")

    @classmethod
    def case(cls, family, shape):
        """The family's generator, the operands of the shape and the tolerance ``1e-15 max(1, |h|_max)``."""
        gen_cls = UNITARY_FAMILIES[family]
        rng = np.random.default_rng([3, list(UNITARY_FAMILIES).index(family), cls.SHAPES.index(shape)])
        rho, h = unitary_action_operands(gen_cls, shape, rng)
        return gen_cls(UnitaryControl()), rho, h, 1e-15 * max(1.0, float(np.max(np.abs(h))))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("family", UNITARY_FAMILIES)
    def test_matches_the_matrix_products(self, family, shape):
        gen, rho, h, tol = self.case(family, shape)
        out = gen.action(rho, h)
        assert out.shape == np.broadcast_shapes(rho.shape, h.shape)
        assert np.max(np.abs(out - (-1j) * (h @ rho - rho @ h))) <= tol

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("family", UNITARY_FAMILIES)
    def test_stacked_call_equals_the_single_calls(self, family, shape):
        gen, rho, h, _ = self.case(family, shape)
        out = gen.action(rho, h)
        lead = out.shape[:-2]
        rho_b, h_b = np.broadcast_to(rho, out.shape), np.broadcast_to(h, out.shape)
        single = np.stack([gen.action(rho_b[i].copy(), h_b[i].copy()) for i in np.ndindex(lead)]).reshape(out.shape)
        assert np.array_equal(out.view(np.uint64), single.view(np.uint64))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("family", UNITARY_FAMILIES)
    def test_traceless_and_hermitian(self, family, shape):
        gen, rho, h, tol = self.case(family, shape)
        out = gen.action(rho, h)
        assert np.max(np.abs(np.trace(out, axis1=-2, axis2=-1))) <= tol
        adjoint = out.conj().mT
        if shape == "scan basis":
            # the basis matrices are not Hermitian: the image of |a><b| is the adjoint of that of |b><a|
            d = gen.dim
            adjoint = adjoint[..., [(p % d) * d + p // d for p in range(d * d)], :, :]
        assert np.max(np.abs(out - adjoint)) <= tol


class TestPropagate:
    def test_dephasing_conserves_populations(self):
        # the dephasing action is exactly zero on the diagonal, so no step moves a population, bit for bit: memoryless
        # and finite memory, dephasing and ghz (the coupling times n^2), real and complex starts, batched and alone
        configs = [
            ScenarioConfig(model="dephasing", theta=math.pi / 5.0, markov=True),
            ScenarioConfig(model="dephasing", theta=0.3, gamma=0.5),
            ScenarioConfig(model="ghz", theta=math.pi / 8.0, n=3, markov=True),
            ScenarioConfig(model="ghz", theta=1.1, n=2, gamma=2.0),
        ]
        gens = [build_scenario(cfg)[0] for cfg in configs]
        for phase in (0.0, 0.7):  # a real start steps in float64, a complex one in complex128
            rho0s = [from_pure([math.cos(cfg.theta), np.exp(1j * phase) * math.sin(cfg.theta)]) for cfg in configs]
            for gen, rho0, in_batch in zip(gens, rho0s, propagate_many(gens, rho0s, 3.0, 601)):
                for traj in (in_batch, propagate(gen, rho0, 3.0, 601)):
                    populations = traj.states.diagonal(axis1=-2, axis2=-1).real
                    assert populations.tobytes() == np.tile(rho0.diagonal().real, (601, 1)).tobytes()

    def test_dephasing_coherence_monotone_nonincreasing(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(1.0, 0.3)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, 3.0, 1001)
        coherences = np.array([abs(s[0, 1]) for s in traj.states])
        assert np.all(np.diff(coherences) <= 1e-14)

    def test_unitary_preserves_purity(self):
        control = UnitaryControl(theta_rate=0.5, alpha0=0.4, alpha_rate=0.3)
        rho0 = from_pure(unitary_state(0.0, 0.4))
        traj = propagate(UnitaryTwoLevel(control), rho0, 2.0, 2001)
        for state in traj.states[::200]:
            assert abs(purity(state) - 1.0) < 1e-8

    def test_markov_dissipation_population_decay(self):
        gen, rho0, _ = dissipation_setup(0.0, None)
        traj = propagate(gen, rho0, 2.0, 2001)
        for k in (500, 1000, 2000):
            assert traj.states[k][0, 0].real == pytest.approx(math.exp(-traj.grid[k]), abs=1e-6)

    def test_trace_and_hermiticity_preserved(self):
        gen, rho0, _ = dissipation_setup(math.pi / 5.0, 0.5)
        traj = propagate(gen, rho0, 2.0, 2001)
        for state in traj.states[::100]:
            assert abs(np.trace(state).real - 1.0) < 1e-9
            assert hermiticity_defect(state) < 1e-9

    def test_first_sample_is_initial_state(self):
        theta = math.pi / 8.0
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, 1.0, 101)
        assert traj.q_samples[0] == 0.0
        assert np.array_equal(traj.states[0], rho0)

    def test_positivity_loss_aborts(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        with pytest.raises(PositivityLossError):
            propagate(SignFlippedDephasing(2, 1.0), rho0, 3.0, 1001)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rate", [1.0, 1000.0])
    def test_positivity_loss_names_the_first_grid_time(self, dim, rate):
        # at rate 1000 the run overflows long before its end; only the abort may come out
        rho0 = from_pure(np.ones(dim) / math.sqrt(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityLossError) as err:
                propagate(SignFlippedDephasing(dim, rate), rho0, 3.0, 1001)
        assert err.value.time == 0.003

    @pytest.mark.parametrize("dim", [2, 3])
    def test_states_are_one_stacked_array(self, dim):
        control = UnitaryControl(theta_rate=0.5, alpha_rate=0.3)
        gen = UnitaryTwoLevel(control) if dim == 2 else Stirap(control)
        rho0 = from_pure(np.eye(dim)[-1])
        traj = propagate(gen, rho0, 1.0, 101)
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (101, dim, dim)
        assert traj.q_samples.shape == traj.speed_samples.shape == (101,)

    def test_locate_maps_times_to_grid_intervals(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(MemoryFunctions.markov_limit(1.0)), rho0, 2.0, 201)
        assert traj.step == pytest.approx(0.01, rel=1e-12)
        k, w = traj.locate(traj.grid[37] + 0.25 * traj.step)
        assert k == 37 and w == pytest.approx(0.25, abs=1e-9)
        assert traj.locate(2.0) == (199, pytest.approx(1.0, abs=1e-9))
        for bad in (-0.01, 2.01):
            with pytest.raises(ValueError, match=rf"^invalid argument 'tau': must be on the grid \[0, 2\.0\], got {bad}$"):
                traj.locate(bad)

    def test_start_and_locate_tolerances_are_relative_to_the_span(self):
        rho0 = from_pure([math.cos(0.3), math.sin(0.3)])
        gen = Dephasing(MemoryFunctions.markov_limit(1e12))
        traj = propagate(gen, rho0, 1e-12, 11)
        with pytest.raises(ValueError, match=r"^invalid argument 'tau': must be on the grid \[0, 1e-12\], got -1e-13$"):
            traj.locate(-1e-13)
        assert traj.locate(-1e-25) == (0, 0.0)


def _positivity_error(gens, rho0s, tau_max, grid_points):
    with pytest.raises(PositivityLossError) as err:
        propagate_many(gens, rho0s, tau_max, grid_points)
    return err.value


class TestPropagateMany:
    def test_overflowing_speed_names_the_member_and_time(self):
        rho0 = from_pure([math.cos(0.3), math.sin(0.3)])
        gens = [Dissipation(MemoryFunctions.markov_limit(c)) for c in (1.0, 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is named, not warned about
            with pytest.raises(ValueError, match=r"^batch member 1: generation speed \|\|\[rho0, L rho_t\]\|\| is inf at t = 0: "):
                propagate_many(gens, [rho0, rho0], 1e-200, 101)
            assert propagate_many(gens[:1], [rho0], 1e-200, 101)[0].speed_samples.max() < 2.0

    @staticmethod
    def assert_matches_solo(gens, rho0s, tau_max, grid_points):
        batch = propagate_many(gens, rho0s, tau_max, grid_points)
        assert len(batch) == len(gens)
        for g, rho0, traj in zip(gens, rho0s, batch):
            solo = propagate(g, rho0, tau_max, grid_points)
            assert traj.generator is g
            # the stored table is the member's own grid-time rows, bit for bit
            table = g.coefficients(traj.grid)
            assert traj.coefficients.shape == table.shape and traj.coefficients.dtype == table.dtype
            assert traj.coefficients.tobytes() == table.tobytes()
            assert traj.coefficients.flags.owndata
            assert np.array_equal(traj.grid, solo.grid)
            assert np.array_equal(traj.rho0, solo.rho0)
            for name in ("states", "q_samples", "speed_samples"):
                assert np.array_equal(getattr(traj, name), getattr(solo, name)), name

    def test_dephasing_memory_ratios_and_angles(self):
        gens = [Dephasing(MemoryFunctions(1.0, g)) for g in GAMMA_RATIOS]
        gens.append(Dephasing(MemoryFunctions.markov_limit(1.0)))
        rho0s = [from_pure([math.cos(th), math.sin(th)]) for th in np.linspace(0.2, 1.3, len(gens))]
        self.assert_matches_solo(gens, rho0s, 3.0, 801)

    def test_dissipation_memory_ratios_and_angles(self):
        gens = [dissipation_setup(0.0, g)[0] for g in (0.1, 0.5, 1.0, 2.0, 50.0, None)]
        rho0s = [from_pure([math.cos(th), math.sin(th)]) for th in np.linspace(0.2, 1.3, len(gens))]
        self.assert_matches_solo(gens, rho0s, 2.0, 801)

    def test_unitary2l_controls(self):
        controls = [
            UnitaryControl(theta_rate=0.5),
            UnitaryControl(theta_rate=0.5, alpha0=1.1, alpha_rate=-0.7),
            UnitaryControl(theta0=0.3, theta_rate=0.9, alpha0=2.5, alpha_rate=0.4),
        ]
        gens = [UnitaryTwoLevel(c) for c in controls]
        rho0s = [from_pure(unitary_state(c.theta0, c.alpha(0.0))) for c in controls]
        self.assert_matches_solo(gens, rho0s, 1.0, 801)

    def test_stirap_3x3(self):
        controls = [
            UnitaryControl(theta_rate=0.5),
            UnitaryControl(theta_rate=0.7, alpha0=0.2, alpha_rate=0.8),
            UnitaryControl(theta0=0.1, theta_rate=0.4, alpha0=0.3, alpha_rate=-0.5),
        ]
        rho0s = [from_pure(v) for v in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], np.ones(3) / math.sqrt(3.0))]
        self.assert_matches_solo([Stirap(c) for c in controls], rho0s, 1.0, 801)

    def test_stirap_real_and_complex_starts(self):
        # alone, the real member steps in float64; batched with a complex member, in complex128
        gens = [Stirap(UnitaryControl(theta_rate=0.7, alpha0=0.2, alpha_rate=0.8)) for _ in range(2)]
        rho0s = [from_pure([0.6, 0.0, 0.8]), from_pure(np.array([0.6, 0.48j, -0.64]))]
        assert swept_dtypes(gens[:1], rho0s[:1], 1.0, 801)[0] == {"float64"}
        assert swept_dtypes(gens, rho0s, 1.0, 801)[0] == {"complex128"}
        self.assert_matches_solo(gens, rho0s, 1.0, 801)

    def test_mixed_family_rejected(self):
        mem = MemoryFunctions.markov_limit(1.0)
        rho0 = from_pure([1.0, 0.0])
        with pytest.raises(ValueError, match="^invalid argument 'gens': must be of one family, got Dephasing and Dissipation$"):
            propagate_many([Dephasing(mem), Dissipation(mem)], [rho0, rho0], 1.0, 11)

    def test_mixed_dimension_rejected(self):
        rho2, rho3 = from_pure([1.0, 0.0]), from_pure([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^invalid argument 'gens': must be of one dimension, got 2 and 3$"):
            propagate_many([SignFlippedDephasing(2, 1.0), SignFlippedDephasing(3, 1.0)], [rho2, rho3], 1.0, 11)
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        with pytest.raises(ValueError, match=r"^invalid argument 'rho0s\[1\]': must be 2 x 2 as the generators, got shape \(3, 3\)$"):
            propagate_many([gen, gen], [rho2, rho3], 1.0, 11)

    def test_one_state_per_generator(self):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        message = "^invalid argument 'gens': must be one per initial state, at least one, got {} for {}$"
        with pytest.raises(ValueError, match=message.format(2, 1)):
            propagate_many([gen, gen], [from_pure([1.0, 0.0])], 1.0, 11)
        with pytest.raises(ValueError, match=message.format(0, 0)):
            propagate_many([], [], 1.0, 11)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_positivity_loss_names_the_earliest_member(self, position):
        theta = math.pi / 8.0
        c, s = math.cos(theta), math.sin(theta)
        pure = from_pure([c, s])  # loses positivity on the first step
        late = np.array([[c * c, 0.5 * c * s], [0.5 * c * s, s * s]], dtype=complex)  # at t = ln 2 / 2
        frozen = np.diag([c * c, s * s]).astype(complex)  # no coherence to grow
        rho0s = [late, frozen]
        rho0s.insert(position, pure)
        gens = [SignFlippedDephasing(2, 1.0) for _ in rho0s]
        solo = _positivity_error([gens[position]], [pure], 3.0, 1001)
        err = _positivity_error(gens, rho0s, 3.0, 1001)
        assert (err.member, err.time) == (position, solo.time) == (position, 0.003)
        assert str(err) == f"batch member {position}: {solo}"
        late_solo = _positivity_error([gens[0]], [late], 3.0, 1001)
        assert late_solo.time == pytest.approx(0.5 * math.log(2.0), abs=0.003)
        assert late_solo.member == 0

    def test_positivity_tie_names_the_lowest_index(self):
        theta = math.pi / 8.0
        pure = from_pure([math.cos(theta), math.sin(theta)])
        frozen = np.diag([0.5, 0.5]).astype(complex)
        gens = [SignFlippedDephasing(2, 1.0) for _ in range(3)]
        err = _positivity_error(gens, [frozen, pure, pure], 3.0, 1001)
        assert (err.member, err.time) == (1, 0.003)

    def test_single_member_message_unchanged(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        with pytest.raises(PositivityLossError, match=r"^state positivity lost at t = 0\.003 \(min eigenvalue -"):
            propagate(SignFlippedDephasing(2, 1.0), rho0, 3.0, 1001)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_positivity_loss_stops_the_stepping(self, dim):
        # the loss shows at grid index 1; the run must stop once the first window's states are final
        rho0 = from_pure(np.ones(dim) / math.sqrt(dim))
        SignFlippedDephasing.grid_times = 0
        with recorded_sweeps() as sweeps:
            with pytest.raises(PositivityLossError) as err:
                propagate(SignFlippedDephasing(dim, 1.0), rho0, 30.0, 10001)
        assert err.value.time == 0.003
        frontier, _ = frontier_walk(sweeps, 10001)
        # positivity is checked as soon as POSITIVITY_SCAN_STEPS states are final, and no later
        assert frontier - sweeps[-1][1] < POSITIVITY_SCAN_STEPS - 1 <= frontier < 2 * POSITIVITY_SCAN_STEPS
        stopped = SignFlippedDephasing.grid_times
        SignFlippedDephasing.grid_times = 0
        propagate(CountingDephasing(dim, 1.0), rho0, 30.0, 10001)
        assert stopped < SignFlippedDephasing.grid_times // 10  # a full run applies the action far more often

    @pytest.mark.parametrize(
        "rho0,defect",
        [
            (2.0 * from_pure([math.cos(0.3), math.sin(0.3)]), r"trace defect 1\.000e\+00"),
            (np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), r"hermiticity defect 5\.000e-01"),
            (np.diag([1.5, -0.5]).astype(complex), r"min eigenvalue -5\.000e-01"),
        ],
    )
    def test_initial_state_must_be_a_density_matrix(self, rho0, defect):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        good = from_pure([1.0, 0.0])
        named = r"invalid argument 'rho0s\[1\]': not a density matrix within 1e-08 \("
        with pytest.raises(ValueError, match=named + defect):
            propagate_many([gen, gen], [good, rho0], 1.0, 11)
        with pytest.raises(ValueError, match=r"'rho0s\[0\]'.*" + defect):
            propagate(gen, rho0, 1.0, 11)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_initial_state_must_be_finite(self, dim, bad):
        gen = SignFlippedDephasing(dim, 1.0)
        rho0 = np.eye(dim, dtype=complex) / dim
        rho0[0, -1] = bad
        with pytest.raises(ValueError, match=r"^invalid argument 'rho0s\[0\]': must be finite$"):
            propagate(gen, rho0, 1.0, 11)


FAMILIES = ("dephasing", "dissipation", "unitary2l", "stirap")


@st.composite
def batches(draw):
    """A batch of one family: generators, initial states and the span and point count of a grid of up to
    ``3 * POSITIVITY_SCAN_STEPS + 1`` times, whose length is no multiple of a window.

    The grid ends by t = 3.99, clear of the horizon of the dissipation memory at ratio 0.5.
    """
    family = draw(st.sampled_from(FAMILIES))
    size = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3 * POSITIVITY_SCAN_STEPS + 1).filter(lambda n: n % POSITIVITY_SCAN_STEPS))
    tau_max = draw(st.floats(0.002, min(0.01, 3.99 / (n - 1)))) * (n - 1)
    angles = st.floats(-3.0, 3.0)
    real = family == "stirap" and draw(st.booleans())  # real stirap start states step in float64
    gens, rho0s = [], []
    for _ in range(size):
        if family in ("dephasing", "dissipation"):
            gamma = draw(st.sampled_from([0.5, 2.0, 10.0, 50.0, None]))  # None: memoryless
            mem = MemoryFunctions.markov_limit(1.0) if gamma is None else MemoryFunctions(1.0, gamma)
            gens.append(Dephasing(mem) if family == "dephasing" else Dissipation(mem))
            theta = draw(angles)
            rho0s.append(from_pure([math.cos(theta), math.sin(theta)]))
            continue
        theta0, theta_rate, alpha0, alpha_rate = (draw(angles) for _ in range(4))
        control = UnitaryControl(theta0=theta0, theta_rate=theta_rate, alpha0=alpha0, alpha_rate=alpha_rate)
        if family == "unitary2l":
            gens.append(UnitaryTwoLevel(control))
            rho0s.append(from_pure(unitary_state(control.theta0, control.alpha0)))
        else:
            v = np.array([draw(angles) + (0.0 if real else 1j * draw(angles)) for _ in range(3)])
            v = v / np.linalg.norm(v) if np.linalg.norm(v) > 1e-3 else np.array([0.0, 0.0, 1.0])
            gens.append(Stirap(control))
            rho0s.append(from_pure(v))
    return family, gens, rho0s, tau_max, n


# a batch the strategy can draw whose member 1 loses positivity at t = 3.185 (min eigenvalue -1.0045e-6, the
# grid time before -0.9991e-6): the fourth-order drift of a pure state's zero eigenvalue at fast rates and a long step
_LOST = np.array([-0.26 - 0.43j, 0.23 + 0.42j, 0.51 - 0.51j])
ABORTING_BATCH = (
    "stirap",
    [
        Stirap(UnitaryControl(theta0=0.4, theta_rate=0.5, alpha0=-1.0, alpha_rate=0.5)),
        Stirap(UnitaryControl(theta0=-2.53, theta_rate=3.0, alpha0=0.92, alpha_rate=3.0)),
    ],
    [from_pure(np.array([0.0, 0.0, 1.0])), from_pure(_LOST / np.linalg.norm(_LOST))],
    0.0098 * 329,
    330,
)

# a real start state of stirap without the alpha drive: the |1> row and column stay exactly zero, signed zeros
# that the real path must reproduce bit for bit
REAL_STIRAP_BATCH = (
    "stirap",
    [Stirap(UnitaryControl(theta0=0.3, theta_rate=1.2, alpha0=0.5, alpha_rate=0.0))],
    [from_pure(np.array([0.6, 0.0, -0.8]))],
    0.005 * 300,
    301,
)


class TestScanMatchesSequentialSteps:
    """The sweeps on the exact frontier reproduce the one-step-at-a-time loop."""

    @settings(max_examples=60, deadline=None)
    @given(batch=batches())
    @example(batch=ABORTING_BATCH)
    @example(batch=REAL_STIRAP_BATCH)
    def test_states_match_the_sequential_loop(self, batch):
        family, gens, rho0s, tau_max, n = batch
        grid = np.linspace(0.0, tau_max, n)
        expected = sequential_states(gens, rho0s, grid)
        lost = ~(min_eigenvalue(expected) >= -POSITIVITY_ABORT)
        if lost.any():  # the run stops where the loop's loss shows first: earliest grid time, then lowest member
            first = np.where(lost.any(axis=1), lost.argmax(axis=1), len(grid))
            member = int(np.argmin(first))
            with pytest.raises(PositivityLossError) as err:
                propagate_many(gens, rho0s, tau_max, n)
            assert (err.value.member, err.value.time) == (member, float(grid[first[member]]))
            return
        with recorded_sweeps() as sweeps:
            trajectories = propagate_many(gens, rho0s, tau_max, n)
        states = np.stack([traj.states for traj in trajectories])
        if family in ("dephasing", "dissipation"):
            assert np.array_equal(states.view(np.uint64), expected.view(np.uint64))
        else:
            assert np.max(np.abs(states - expected)) <= 1e-15
        # each speed sample is the single call on its own state, bit for bit
        for g, traj in zip(gens, trajectories):
            speeds = np.array([generation_speed(traj.rho0, g.apply(rho, t)) for rho, t in zip(traj.states, grid)])
            assert np.array_equal(traj.speed_samples.view(np.uint64), speeds.view(np.uint64))
        # the frontier walks the whole grid, and the states the sweeps made final are the trajectories'
        frontier, final = frontier_walk(sweeps, len(grid))
        assert frontier == len(grid) - 1
        # a real batch sweeps float64 windows: the states hold their real parts bit for bit and imaginary parts +0
        assert np.array_equal(final.astype(complex).view(np.uint64), states[:, 1:].view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(batch=batches())
    @example(batch=ABORTING_BATCH)
    def test_chunk_estimates_lie_near_the_settled_states(self, batch):
        # the sweeps absorb a wrong estimate at the cost of more sweeps; this catches it instead
        _, gens, rho0s, tau_max, n = batch
        with recorded_estimates(type(gens[0])) as blocks, recorded_sweeps() as sweeps:
            try:
                propagate_many(gens, rho0s, tau_max, n)
            except PositivityLossError:  # the states made final up to the abort are checked all the same
                pass
        frontier, final = frontier_walk(sweeps, n)
        # blocks of POSITIVITY_SCAN_STEPS steps from the start, one more each time a window reaches past them
        last_window_end = min(frontier - sweeps[-1][1] + POSITIVITY_SCAN_STEPS, n - 1)
        assert [block.shape[1] for block in blocks] == [
            min(POSITIVITY_SCAN_STEPS, n - 1 - lo) for lo in range(0, last_window_end, POSITIVITY_SCAN_STEPS)
        ]
        # every entry, the fed ground-state population of dissipation too
        assert np.max(np.abs(np.concatenate(blocks, axis=1)[:, :frontier] - final)) <= 1e-12

    def test_dim3_entrywise_family_matches_the_sequential_loop(self):
        # z rho z - rho through matrix products, in dimension 3: the entrywise estimate and its trace restore
        assert CountingDephasing.estimate_chunk is Dephasing.estimate_chunk
        gens = [CountingDephasing(3, rate) for rate in (0.5, 1.0, 4.0)]
        rho0s = [
            from_pure(np.ones(3) / math.sqrt(3.0)),
            from_pure(np.array([0.6, 0.48j, -0.64])),
            0.5 * (from_pure(np.array([0.0, 0.6, 0.8])) + np.eye(3) / 3.0),
        ]
        grid = np.linspace(0.0, 2.0, 301)
        with recorded_estimates(CountingDephasing) as blocks, recorded_sweeps() as sweeps:
            states = np.stack([traj.states for traj in propagate_many(gens, rho0s, 2.0, 301)])
        expected = sequential_states(gens, rho0s, grid)
        assert np.array_equal(states.view(np.uint64), expected.view(np.uint64))
        frontier, final = frontier_walk(sweeps, len(grid))
        assert frontier == 300 and np.array_equal(final.view(np.uint64), states[:, 1:].view(np.uint64))
        assert np.max(np.abs(np.concatenate(blocks, axis=1) - states[:, 1:])) <= 1e-12

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig(model="dephasing", gamma=0.5, grid_points=401),
            ScenarioConfig(model="dissipation", gamma=0.5, grid_points=401),
            ScenarioConfig(model="unitary2l", theta0=0.3, theta_rate=0.7, alpha0=0.4, alpha_rate=0.3, grid_points=401),
            ScenarioConfig(model="stirap", theta_rate=0.7, alpha_rate=2.0, grid_points=401),
        ],
        ids=lambda cfg: cfg.model,
    )
    def test_the_estimate_sets_only_the_sweep_count(self, config):
        # a sweep writes state j from states 0..j-1 alone, so any estimate settles to the same bits
        gen, rho0, tau_max, grid_points = build_scenario(config)
        with recorded_sweeps() as reference_sweeps:
            reference = propagate(gen, rho0, tau_max, grid_points)

        def start_state_repeated(self, rho_lo, c0, c_mid, c1, h):
            return np.repeat(rho_lo[:, None], c0.shape[1], axis=1)

        with mock.patch.object(type(gen), "estimate_chunk", start_state_repeated), recorded_sweeps() as sweeps:
            traj = propagate(gen, rho0, tau_max, grid_points)
        for name in ("states", "q_samples", "speed_samples"):
            assert np.array_equal(getattr(traj, name).view(np.uint64), getattr(reference, name).view(np.uint64))
        # both walk the whole grid; the start state, a worse estimate, only takes more sweeps
        assert frontier_walk(sweeps, grid_points)[0] == frontier_walk(reference_sweeps, grid_points)[0] == 400
        assert len(reference_sweeps) < len(sweeps)

    def test_sweep_budget_of_the_fig1_batch(self):
        # fig1's batch, three memoryless dephasing members at 2,001 points, takes 30 sweeps (84 in 64-step chunks
        # settled one by one). The cumprod estimate and the sweeps call no BLAS, so the count does not move with
        # the BLAS kernel; the bound leaves a 10% margin over the count
        scenarios = [
            build_scenario(ScenarioConfig(model="dephasing", theta=theta, markov=True, tau_max=3.0, grid_points=2001))
            for theta in FIG1_THETAS
        ]
        gens, rho0s, tau_maxes, grid_points = zip(*scenarios)
        with recorded_sweeps() as sweeps:
            propagate_many(gens, rho0s, tau_maxes[0], grid_points[0])
        assert frontier_walk(sweeps, 2001)[0] == 2000
        assert len(sweeps) <= 33

    @pytest.mark.parametrize(
        "config, budget",
        [
            pytest.param(
                ScenarioConfig(model="unitary2l", theta=0.17, theta0=0.17, theta_rate=0.97, alpha0=5.17,
                               alpha_rate=0.3, tau_max=1.57, grid_points=1376),
                22,
                id="unitary2l",
            ),
            pytest.param(
                ScenarioConfig(model="stirap", theta_rate=1.08, alpha_rate=1.77, tau_max=1.46, grid_points=1593),
                52,
                id="stirap",
            ),
        ],
    )
    def test_sweep_budget_of_a_unitary_run(self, config, budget):
        # the carried transfer-matrix estimate takes 20 (unitary2l) and 48 (stirap) sweeps, under the default, Haswell
        # and Zen BLAS kernels alike; the bound leaves a 10% margin, so a worse estimate fails here, not only in the bench
        with recorded_sweeps() as sweeps:
            propagate(*build_scenario(config))
        assert frontier_walk(sweeps, config.grid_points)[0] == config.grid_points - 1
        assert len(sweeps) <= budget

    def test_sweep_budget_of_a_coarse_memoryless_run(self):
        # ghz at n = 4 steps a coupling of 16 on the default grid: the frontier moves a few states per sweep, and
        # the run takes 312 sweeps under the default and Haswell BLAS kernels (the cumprod estimate and the sweeps
        # call no BLAS); the bound leaves a 10% margin, so this coarse case cannot get worse unnoticed
        config = ScenarioConfig(model="ghz", markov=True, n=4)
        with recorded_sweeps() as sweeps:
            propagate(*build_scenario(config))
        assert frontier_walk(sweeps, config.grid_points)[0] == config.grid_points - 1
        assert len(sweeps) <= 343


def _outcome(gens, rho0s, tau_max, grid_points):
    """The trajectories' states and samples as bytes, or the positivity abort's message, time and member."""
    try:
        trajectories = propagate_many(gens, rho0s, tau_max, grid_points)
    except PositivityLossError as err:
        return str(err), err.time, err.member
    return [(t.states.tobytes(), t.q_samples.tobytes(), t.speed_samples.tobytes()) for t in trajectories]


class TestRealStepping:
    """Real start states of a family with a real action step in float64, with the bits of complex stepping."""

    @pytest.mark.parametrize(
        "config, dtype",
        [
            (ScenarioConfig(model="dephasing", theta=-0.4, gamma=0.5), "float64"),
            (ScenarioConfig(model="dissipation", gamma=2.0), "float64"),
            (ScenarioConfig(model="stirap", theta_rate=0.7, alpha_rate=2.0), "float64"),
            (ScenarioConfig(model="ghz", markov=True, n=3), "float64"),
            (ScenarioConfig(model="unitary2l", theta0=0.3, theta_rate=0.7, alpha0=0.4, alpha_rate=0.3), "complex128"),
        ],
        ids=lambda v: getattr(v, "model", v),
    )
    def test_each_scenario_steps_in_its_dtype(self, config, dtype):
        gen, rho0, tau_max, grid_points = build_scenario(config)
        dtypes, (traj,) = swept_dtypes([gen], [rho0], tau_max, grid_points)
        assert dtypes == {dtype}
        assert traj.states.dtype == np.complex128
        table = gen.coefficients(traj.grid)
        assert traj.coefficients.dtype == table.dtype and traj.coefficients.tobytes() == table.tobytes()

    def test_a_complex_start_steps_in_complex(self):
        gen = Stirap(UnitaryControl(theta_rate=0.7, alpha_rate=2.0))
        dtypes, (traj,) = swept_dtypes([gen], [from_pure(np.array([0.6, 0.48j, -0.64]))], 1.0, 401)
        assert dtypes == {"complex128"} and traj.states.dtype == np.complex128

    def test_an_overridden_action_steps_in_complex(self):
        rho0 = from_pure([math.cos(0.3), math.sin(0.3)])
        with recorded_sweeps() as sweeps, pytest.raises(PositivityLossError) as err:
            propagate(SignFlippedDephasing(2, 1.0), rho0, 3.0, 1001)
        assert err.value.time == 0.003 and {str(states.dtype) for *_, states in sweeps} == {"complex128"}
        assert swept_dtypes([CountingDephasing(2, 1.0)], [rho0], 1.0, 401)[0] == {"complex128"}

    def test_a_new_action_or_table_withdraws_the_real_action(self):
        class Kept(Dephasing):
            pass

        class NewTable(Stirap):
            def coefficients(self, times):
                return super().coefficients(times)

        class Declared(NewTable):
            real_action = Stirap.real_action

        assert Kept.real_action is Dephasing.real_action is Dephasing.action
        assert SignFlippedDephasing.real_action is CountingDephasing.real_action is NewTable.real_action is None
        assert UnitaryTwoLevel.real_action is None
        assert Declared.real_action is Stirap.real_action

    @settings(max_examples=60, deadline=None)
    @given(batch=batches())
    @example(batch=ABORTING_BATCH)
    @example(batch=REAL_STIRAP_BATCH)
    def test_real_stepping_keeps_the_bits_of_complex_stepping(self, batch):
        _, gens, rho0s, tau_max, n = batch
        real = _outcome(gens, rho0s, tau_max, n)
        with mock.patch.object(type(gens[0]), "real_action", None):
            assert _outcome(gens, rho0s, tau_max, n) == real


class TestClosedStates:
    def test_dephasing_initial_time(self):
        theta = math.pi / 5.0
        mem = MemoryFunctions(1.0, 1.0)
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
        mem = MemoryFunctions(1.0, gamma)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        traj = propagate(Dephasing(mem), rho0, tau, 2001)
        assert np.max(np.abs(dephasing_closed_state(theta, tau, mem) - traj.states[-1])) < 1e-7

    def test_dissipation_initial_time(self):
        theta = math.pi / 5.0
        _, rho0, mem = dissipation_setup(theta, 0.5)
        assert np.allclose(dissipation_closed_state(theta, 0.0, mem), rho0)

    def test_dissipation_markov_coherence(self):
        theta, tau = math.pi / 4.0, 1.3
        _, _, mem = dissipation_setup(theta, None)
        state = dissipation_closed_state(theta, tau, mem)
        assert state[0, 1].real == pytest.approx(0.5 * math.exp(-0.5 * tau), abs=1e-12)

    def test_dissipation_closed_matches_propagated_nonmarkov(self):
        for gamma in (0.5, 2.0):
            gen, rho0, mem = dissipation_setup(math.pi / 4.0, gamma)
            traj = propagate(gen, rho0, 2.0, 2001)
            assert np.max(np.abs(dissipation_closed_state(math.pi / 4.0, 2.0, mem) - traj.states[-1])) < 1e-6

    def test_closed_vs_propagated_across_ensemble(self):
        for theta in THETAS:
            rho0 = from_pure([math.cos(theta), math.sin(theta)])
            for gamma in GAMMA_RATIOS:
                mem = MemoryFunctions(1.0, gamma)
                tau = 5.0
                traj = propagate(Dephasing(mem), rho0, tau, 2501)
                for frac in (0.4, 1.0):
                    k = int(frac * 2500)
                    assert (
                        np.max(np.abs(dephasing_closed_state(theta, float(traj.grid[k]), mem) - traj.states[k]))
                        < 1e-6
                    )

    def test_step_halving_fourth_order(self):
        theta, gamma = math.pi / 5.0, 0.5
        tau = 2.0
        finals = []
        for n in (1001, 2001):
            gen, rho0, _ = dissipation_setup(theta, gamma)
            finals.append(propagate(gen, rho0, tau, n).states[-1])
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-8


class TestGhzState:
    """The ``ghz`` model: the two branch products of an ``n``-qubit cat state under common
    dephasing, an effective qubit dephased at ``n^2`` times the single-qubit rate."""

    @staticmethod
    def trajectory(model, n=1, tau=0.2):
        cfg = ScenarioConfig(model=model, theta=math.pi / 8.0, markov=True, n=n, tau_max=tau, grid_points=501)
        return propagate(*build_scenario(cfg))

    def test_single_qubit_reduces_to_dephasing(self):
        assert np.array_equal(self.trajectory("ghz", 1).states, self.trajectory("dephasing").states)

    def test_off_diagonal_exponent_scales_quadratically(self):
        tau = 0.2
        state = self.trajectory("ghz", 3, tau).states[-1]
        sc = math.sin(math.pi / 8.0) * math.cos(math.pi / 8.0)
        # memoryless branch: beta = 2 * coupling * tau, suppressed by exp(-n^2 beta)
        assert state[0, 1].real == pytest.approx(sc * math.exp(-9.0 * 2.0 * tau), abs=1e-10)
        closed = dephasing_closed_state(math.pi / 8.0, tau, MemoryFunctions.markov_limit(9.0))
        assert np.max(np.abs(state - closed)) < 1e-10

    def test_zero_exponent_is_pure(self):
        theta = math.pi / 8.0
        traj = self.trajectory("ghz", 4)
        assert np.array_equal(traj.states[0], from_pure([math.cos(theta), math.sin(theta)]))
        assert traj.q_samples[0] == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="invalid field 'n'"):
            build_scenario(ScenarioConfig(model="ghz", markov=True, n=0))
        with pytest.raises(ValueError, match="invalid field 'gamma'"):
            build_scenario(ScenarioConfig(model="ghz", gamma=-0.1, n=2))


class TestReadOnlyTrajectory:
    def test_arrays_are_read_only_so_cached_norms_stay_valid(self):
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        traj = propagate(gen, from_pure([math.cos(0.3), math.sin(0.3)]), 1.0, 101)
        norms = traj.lrho0_norms.copy()
        for name in ("grid", "states", "rho0", "q_samples", "speed_samples", "coefficients"):
            array = getattr(traj, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.rho0 = np.eye(2) / 2.0
        assert np.array_equal(traj.lrho0_norms, norms)
        with pytest.raises(ValueError, match="read-only"):
            traj.states[50][0, 1] = 0.0  # a grid state is a read-only view

    @pytest.mark.parametrize("tau_max, grid_points", [(1.0, 101), (3.0, 2001), (0.0098 * 329, 330), (1e-12, 2)])
    def test_grid_is_the_linspace_of_its_two_numbers(self, tau_max, grid_points):
        # made once by the propagator and shared, read-only, by the members of a batch
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        batch = propagate_many([gen, gen], [from_pure([0.6, 0.8]), from_pure([0.8, 0.6])], tau_max, grid_points)
        expected = np.linspace(0.0, tau_max, grid_points)
        for traj in batch:
            assert traj.grid.dtype == expected.dtype and traj.grid.shape == expected.shape
            assert np.array_equal(traj.grid.view(np.uint64), expected.view(np.uint64))
            assert not traj.grid.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                traj.grid[1] = 7.0

    @pytest.mark.parametrize(
        "tau_max, grid_points, taken",
        [
            (5e-324, 11, False),  # the step underflows to 0: the grid would repeat 0.0 and 5e-324
            (1e-320, 2001, False),
            (sys.float_info.min / 2.0, 2, False),  # a subnormal step
            (sys.float_info.min, 2, True),  # the smallest normal step
            (2000.0 * sys.float_info.min, 2001, True),
        ],
    )
    def test_grid_step_must_be_a_normal_float(self, tau_max, grid_points, taken):
        # a subnormal step rounds grid times onto each other, and locate would divide by a zero step
        gen, rho0 = Dephasing(MemoryFunctions.markov_limit(1.0)), from_pure([0.6, 0.8])
        if not taken:
            message = (
                f"invalid arguments 'tau_max' and 'grid_points': must give a grid step >= {sys.float_info.min!r}, "
                f"got {tau_max!r} and {grid_points!r}"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                propagate(gen, rho0, tau_max, grid_points)
            return
        traj = propagate(gen, rho0, tau_max, grid_points)
        assert np.all(np.diff(traj.grid) > 0.0) and traj.step == sys.float_info.min
        assert traj.locate(tau_max) == (grid_points - 2, 1.0)


class TestConstructorsNameTheField:
    @pytest.mark.parametrize(
        "build,error,field",
        [
            (lambda: UnitaryControl(theta_rate="1"), ValueError, "invalid field 'theta_rate'"),
            (lambda: UnitaryControl(alpha0=True), ValueError, "invalid field 'alpha0'"),
            (lambda: UnitaryControl(theta0=10**400), ValueError, "invalid field 'theta0'"),
            (lambda: Dephasing("x"), ValueError, "invalid field 'memory'"),
            (lambda: Dissipation("x"), ValueError, "invalid field 'memory'"),
            (lambda: UnitaryTwoLevel(0.5), ValueError, "invalid field 'control'"),
            (lambda: Stirap(None), ValueError, "invalid field 'control'"),
            # the state dimension belongs to the family, not to an instance
            (lambda: Dephasing(MemoryFunctions.markov_limit(1.0), dim=3), TypeError, "'dim'"),
            (lambda: Dissipation(MemoryFunctions.markov_limit(1.0), dim=3), TypeError, "'dim'"),
            (lambda: UnitaryTwoLevel(UnitaryControl(), dim=3), TypeError, "'dim'"),
            (lambda: Stirap(UnitaryControl(), dim=2), TypeError, "'dim'"),
        ],
        ids=[
            "theta_rate-str", "alpha0-bool", "theta0-beyond-float", "dephasing-memory", "dissipation-memory",
            "unitary2l-control", "stirap-control", "dephasing-dim", "dissipation-dim", "unitary2l-dim", "stirap-dim",
        ],
    )
    def test_bad_field_rejected_at_construction(self, build, error, field):
        with pytest.raises(error, match=field):
            build()
