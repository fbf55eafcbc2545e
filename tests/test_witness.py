"""Quantumness witness: examples, random-ensemble properties, exact rate."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit.generators import Dephasing, dephasing_closed_state
from qslkit.matcore import from_pure
from qslkit.memory import MemoryFunctions
from qslkit.witness import (
    generation_speed,
    pure_state_quantumness,
    quantumness,
    quantumness_rate,
    random_density_matrix,
    random_pure_state,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


class TestQuantumness:
    def test_identical_states_give_zero(self):
        rho = random_density_matrix(3, np.random.default_rng(1))
        assert quantumness(rho, rho) == 0.0

    def test_commuting_diagonals_give_zero(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.2, 0.8]).astype(complex)
        assert quantumness(a, b) == 0.0

    def test_ground_vs_plus_is_maximal(self):
        # pure pair with squared overlap 1/2: witness 4c(1-c) = 1
        ground = from_pure([0.0, 1.0])
        plus = from_pure([1.0 / math.sqrt(2.0)] * 2)
        assert quantumness(ground, plus) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            quantumness(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry_mixed(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(dim, rng)
        b = random_density_matrix(dim, rng)
        q_ab = quantumness(a, b)
        assert 0.0 <= q_ab <= 1.0 + 1e-9
        assert abs(q_ab - quantumness(b, a)) < 1e-12

    @given(seed=seeds, dim=dims)
    @settings(max_examples=100, deadline=None)
    def test_pure_pair_matches_overlap_formula(self, seed, dim):
        rng = np.random.default_rng(seed)
        va = random_pure_state(dim, rng)
        vb = random_pure_state(dim, rng)
        overlap = abs(np.vdot(va, vb)) ** 2
        assert quantumness(from_pure(va), from_pure(vb)) == pytest.approx(
            pure_state_quantumness(overlap), abs=1e-10
        )

    @given(seed=seeds, dim=dims)
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_commuting_on_shared_eigenbasis(self, seed, dim):
        rng = np.random.default_rng(seed)
        w1 = np.abs(rng.standard_normal(dim)) + 0.1
        w2 = np.abs(rng.standard_normal(dim)) + 0.1
        a = np.diag(w1 / w1.sum()).astype(complex)
        b = np.diag(w2 / w2.sum()).astype(complex)
        q_ab = quantumness(a, b)
        comm = float(np.linalg.norm(a @ b - b @ a))
        assert (q_ab < 1e-12) == (comm < 1e-7)
        assert q_ab < 1e-12


class TestPureStateQuantumness:
    def test_orthogonal_states(self):
        assert pure_state_quantumness(0.0) == 0.0

    def test_maximum_at_half(self):
        assert pure_state_quantumness(0.5) == 1.0

    def test_angle_pi_over_8(self):
        # 4 cos^2(t) sin^2(t) = sin^2(2t); at t = pi/8 this is 1/2
        c = math.cos(math.pi / 8.0) ** 2
        assert pure_state_quantumness(c) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pure_state_quantumness(1.5)
        with pytest.raises(ValueError):
            pure_state_quantumness(-0.1)

    def test_array_of_overlaps(self):
        cs = np.random.default_rng(8).uniform(0.0, 1.0, 50)
        qs = pure_state_quantumness(cs)
        assert np.array_equal(qs, [4.0 * c * (1.0 - c) for c in cs.tolist()])
        cs[17] = math.nan
        with pytest.raises(ValueError, match="squared overlap must lie in \\[0, 1\\], got nan"):
            pure_state_quantumness(cs)


class TestQuantumnessRate:
    def test_zero_at_initial_time(self):
        theta = math.pi / 8.0
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        gen = Dephasing(MemoryFunctions.markov_limit(1.0))
        assert quantumness_rate(rho0, rho0, gen.apply(rho0, 0.0)) == 0.0

    def test_zero_generator_output(self):
        rho = random_density_matrix(2, np.random.default_rng(3))
        assert quantumness_rate(rho, rho, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_matches_finite_difference_on_closed_dephasing(self):
        # centered difference with step 1e-5 on the closed-form state family
        theta, t = math.pi / 8.0, 0.5
        mem = MemoryFunctions.markov_limit(1.0)
        gen = Dephasing(mem)
        rho0 = dephasing_closed_state(theta, 0.0, mem)
        delta = 1e-5
        q_plus = quantumness(rho0, dephasing_closed_state(theta, t + delta, mem))
        q_minus = quantumness(rho0, dephasing_closed_state(theta, t - delta, mem))
        fd = (q_plus - q_minus) / (2.0 * delta)
        rho_t = dephasing_closed_state(theta, t, mem)
        rate = quantumness_rate(rho0, rho_t, gen.apply(rho_t, t))
        assert rate == pytest.approx(fd, abs=1e-6)

    def test_non_traceless_input_warns(self):
        rho = random_density_matrix(2, np.random.default_rng(4))
        with pytest.warns(RuntimeWarning, match="not traceless"):
            quantumness_rate(rho, rho, np.eye(2, dtype=complex))

    @given(seed=seeds, dim=dims, n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_stack_gives_the_bits_of_per_state_calls(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        rho0 = random_density_matrix(dim, rng)
        rhots = np.array([random_density_matrix(dim, rng) for _ in range(n)])
        # traceless generator outputs: commutators with random Hamiltonians
        hs = [random_density_matrix(dim, rng) for _ in range(n)]
        lrhos = np.array([-1j * (h @ r - r @ h) for h, r in zip(hs, rhots)])
        rates = quantumness_rate(rho0, rhots, lrhos)
        assert rates.shape == (n,)
        expected = [quantumness_rate(rho0, r, lr) for r, lr in zip(rhots, lrhos)]
        assert np.array_equal(rates.view(np.uint64), np.array(expected).view(np.uint64))

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda bad: quantumness(bad, np.eye(2) / 2), "rho_a"),
            (lambda bad: quantumness(from_pure([1.0, 0.0]), np.array([np.eye(2) / 2, bad])), "rho_b"),
            (lambda bad: quantumness_rate(bad, np.eye(2) / 2, np.zeros((2, 2))), "rho0"),
            (lambda bad: quantumness_rate(np.eye(2) / 2, np.array([np.eye(2) / 2, bad]), np.zeros((2, 2, 2))), "rhot"),
            (lambda bad: quantumness_rate(np.eye(2) / 2, np.eye(2) / 2, bad), "lrho"),
        ],
        ids=["quantumness-rho_a", "quantumness-rho_b", "rate-rho0", "rate-rhot", "rate-lrho"],
    )
    def test_nan_argument_rejected_by_name(self, call, name):
        # a NaN or an infinity fails quantumness's form check, which names it; quantumness_rate checks finiteness itself
        for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 0.0]])):
            with pytest.raises(ValueError, match=f"invalid argument '{name}': must be finite$"):
                call(bad)

    def test_stack_with_one_non_traceless_member_warns(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(2, rng)
        lrhos = np.zeros((4, 2, 2), dtype=complex)
        lrhos[2] = np.eye(2)
        with pytest.warns(RuntimeWarning, match="not traceless"):
            rates = quantumness_rate(rho, np.array([rho] * 4), lrhos)
        assert rates.shape == (4,)


class TestGenerationSpeed:
    def test_commuting_generator_output(self):
        rho0 = np.diag([0.6, 0.4]).astype(complex)
        assert generation_speed(rho0, np.diag([1.0, -1.0]).astype(complex)) == 0.0

    def test_markov_dephasing_closed_form(self):
        # ||[rho0, L rho_t]|| = f |sin 4theta| e^{-beta(t)} / sqrt(2)
        theta, t = math.pi / 8.0, 0.7
        mem = MemoryFunctions.markov_limit(1.0)
        gen = Dephasing(mem)
        rho0 = from_pure([math.cos(theta), math.sin(theta)])
        rho_t = dephasing_closed_state(theta, t, mem)
        expected = (
            mem.f(t) * abs(math.sin(4.0 * theta)) * math.exp(-mem.beta(t)) / math.sqrt(2.0)
        )
        assert generation_speed(rho0, gen.apply(rho_t, t)) == pytest.approx(expected, abs=1e-12)


class TestRandomSampling:
    def test_reproducible_for_fixed_seed(self):
        a = random_density_matrix(3, np.random.default_rng(42))
        b = random_density_matrix(3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_mixed_states_are_valid(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 4):
            rho = random_density_matrix(dim, rng)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_dual_form_cross_check_never_fires_on_ensemble(self):
        rng = np.random.default_rng(11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(300):
                dim = (2, 3, 4)[i % 3]
                quantumness(random_density_matrix(dim, rng), random_density_matrix(dim, rng))


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacked_calls_equal_single_calls(self, dim):
        # stack lengths around the chunk length of propagation, and one trajectory's length
        for n in (1, 63, 64, 65, 200, 4001):
            rng = np.random.default_rng(50 + dim)
            rho0 = random_density_matrix(dim, rng)
            stack = np.array(
                [random_density_matrix(dim, rng) if k % 2 else from_pure(random_pure_state(dim, rng)) for k in range(n)]
            )
            assert np.array_equal(quantumness(rho0, stack), [quantumness(rho0, s) for s in stack])
            lrho = stack - np.eye(dim) / dim  # traceless stand-ins for L rho_t
            assert np.array_equal(generation_speed(rho0, lrho), [generation_speed(rho0, m) for m in lrho])
            # one rho0 per member (B, 1, d, d) against the members' stacks (B, n, d, d)
            rho0s = np.array([rho0, stack[0], np.eye(dim) / dim])[:, None]
            chunks = np.array([lrho, lrho[::-1], lrho])
            expected = [[generation_speed(r[0], m) for m in chunk] for r, chunk in zip(rho0s, chunks)]
            assert np.array_equal(generation_speed(rho0s, chunks), expected)

    def test_form_disagreement_in_a_stack_raises(self):
        # a non-Hermitian member breaks the identity between the two forms
        rho0 = from_pure([1.0, 0.0])
        with pytest.raises(ArithmeticError, match="witness forms disagree: commutator 2.0 vs trace"):
            quantumness(rho0, np.array([rho0, from_pure([0.6, 0.8]), np.array([[0.0, 1.0], [0.0, 0.0]])]))
