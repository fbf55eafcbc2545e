"""Matrix-algebra primitives: algebraic identities and validation checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit.matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _fixed_times,
    commutator,
    from_pure,
    hermiticity_defect,
    hs_norm,
    min_eigenvalue,
    purity,
    validate_density,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_self_commutation_vanishes(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.all(commutator(a, a) == 0)

    def test_diagonal_matrices_commute(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert np.all(commutator(a, b) == 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(SIGMA_X, np.eye(3, dtype=complex))

    @given(seed=seeds, dim=dims)
    @settings(max_examples=50, deadline=None)
    def test_norm_is_order_insensitive(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
        assert hs_norm(commutator(a, b)) == pytest.approx(hs_norm(commutator(b, a)), abs=1e-12)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=50, deadline=None)
    def test_commutator_of_hermitians_is_antihermitian(self, seed, dim):
        rng = np.random.default_rng(seed)
        c = commutator(random_hermitian(dim, rng), random_hermitian(dim, rng))
        assert np.max(np.abs(c + c.conj().T)) < 1e-12


class TestHsNorm:
    def test_sigma_z(self):
        assert hs_norm(SIGMA_Z) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_zero_matrix(self):
        assert hs_norm(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_identity_dim3(self):
        assert hs_norm(np.eye(3, dtype=complex)) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    @given(
        seed=seeds,
        dim=dims,
        re=st.floats(-5, 5, allow_nan=False),
        im=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, seed, dim, re, im):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = re + 1j * im
        assert hs_norm(c * a) == pytest.approx(abs(c) * hs_norm(a), rel=1e-12, abs=1e-12)


class TestFromPure:
    def test_ground_state_projector(self):
        # basis order {|1>, |0>}: ground state is index 1
        assert np.allclose(from_pure([0.0, 1.0]), np.diag([0.0, 1.0]))

    def test_equal_superposition(self):
        rho = from_pure([1.0 / math.sqrt(2.0)] * 2)
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))

    def test_general_angle(self):
        th = math.pi / 8.0
        rho = from_pure([math.cos(th), math.sin(th)])
        assert rho[0, 0] == pytest.approx(math.cos(th) ** 2, abs=1e-15)
        assert rho[1, 1] == pytest.approx(math.sin(th) ** 2, abs=1e-15)
        assert rho[0, 1] == pytest.approx(math.sin(th) * math.cos(th), abs=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            from_pure([1.0, 1.0])

    @given(seed=seeds, dim=dims)
    @settings(max_examples=50, deadline=None)
    def test_trace_one_and_idempotent(self, seed, dim):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho = from_pure(v)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        diag = validate_density(0.5 * np.eye(2, dtype=complex), tol=1e-10)
        assert diag.passed
        assert diag.min_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_negative_eigenvalue_fails(self):
        diag = validate_density(np.diag([1.2, -0.2]).astype(complex), tol=1e-8)
        assert not diag.passed
        assert diag.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)

    def test_plus_projector_passes(self):
        rho = from_pure([1.0 / math.sqrt(2.0)] * 2)
        assert validate_density(rho, tol=1e-10).passed

    def test_min_eigenvalue_matches_eigsolver_dim2(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = 0.5 * (m + m.conj().T)
            assert min_eigenvalue(h) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacked_calls_equal_single_calls(self, dim):
        # stack lengths around the chunk length of propagation, and one trajectory's length
        for n in (1, 63, 64, 65, 200, 4001):
            rng = np.random.default_rng(40 + dim)
            stack = np.array([random_hermitian(dim, rng) for _ in range(n)])
            other = random_hermitian(dim, rng)
            assert np.array_equal(commutator(other, stack), [commutator(other, m) for m in stack])
            assert np.array_equal(hs_norm(stack), [hs_norm(m) for m in stack])
            assert np.array_equal(min_eigenvalue(stack), [min_eigenvalue(m) for m in stack])
            # one fixed matrix per member (B, 1, d, d) against the members' stacks (B, n, d, d)
            others = np.array([other, stack[0], random_hermitian(dim, rng)])[:, None]
            stacks = np.array([stack, stack[::-1], stack])
            expected = [[commutator(o[0], m) for m in s] for o, s in zip(others, stacks)]
            assert np.array_equal(commutator(others, stacks), expected)

    def test_single_matrix_gives_a_float(self):
        assert isinstance(hs_norm(SIGMA_X), float)
        assert isinstance(min_eigenvalue(SIGMA_X), float)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 2), (4, 1, 3, 3)])
    def test_purity_rejects_a_stack_by_its_shape(self, shape):
        stack = np.broadcast_to(np.eye(shape[-1], dtype=complex) / shape[-1], shape)
        with pytest.raises(ValueError, match=r"one square matrix, got a stack of shape \(" + ", ".join(map(str, shape))):
            purity(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 2), (4, 1, 3, 3)])
    def test_validate_density_rejects_a_stack_by_its_shape(self, shape):
        stack = np.broadcast_to(np.eye(shape[-1], dtype=complex) / shape[-1], shape)
        with pytest.raises(ValueError, match=r"one square matrix, got a stack of shape \(" + ", ".join(map(str, shape))):
            validate_density(stack)

    def test_hermiticity_defect_over_a_stack(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_hermitian(2, rng) for _ in range(3)])
        assert hermiticity_defect(stack) == 0.0
        stack[1, 0, 1] += 0.25
        assert hermiticity_defect(stack) == pytest.approx(0.25, abs=1e-15)
        assert hermiticity_defect(stack[1]) == hermiticity_defect(stack)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestFixedTimes:
    """``_fixed_times(f, x)`` is ``f @ x`` per matrix, bit for bit, whichever product it takes."""

    @given(seed=seeds, dim=dims, n=st.integers(1, 80), every=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_real_fixed_factor_keeps_the_per_matrix_bits(self, seed, dim, n, every):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim)
        real_factors = (from_pure(v / np.linalg.norm(v)), rng.standard_normal((dim, dim)).astype(complex))
        x = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        x[::every] = x[::every].real  # members with a zero imaginary part
        for f in real_factors:
            assert not f.imag.any()
            assert np.array_equal(bits(_fixed_times(f, x)), bits([f @ m for m in x]))
            assert np.array_equal(bits(_fixed_times(f, x[0])), bits(f @ x[0]))

    @given(seed=seeds, dim=dims, n=st.integers(1, 80), every=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_complex_fixed_factor_stays_per_matrix(self, seed, dim, n, every):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        x[::every] = x[::every].real
        assert np.array_equal(bits(_fixed_times(f, x)), bits([f @ m for m in x]))
        # one fixed matrix per member, (B, 1, d, d), is a stack of factors: per matrix too
        fs = np.stack([f.real + 0j, f])[:, None]
        xs = np.stack([x, x[::-1]])
        assert np.array_equal(bits(_fixed_times(fs, xs)), bits([[g[0] @ m for m in y] for g, y in zip(fs, xs)]))
