"""Memory functions: the dephasing rate against kernel quadrature, the closed-form P against RK4 and exact forms."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qslkit.generators import Dissipation, propagate
from qslkit.matcore import from_pure
from qslkit.memory import (
    BLOWUP_FACTOR,
    MemoryFunctions,
    RiccatiBlowupError,
)


def riccati_rk4(grid, coupling, memory_rate):
    """Reference fourth-order fixed-step integration of ``(P, xi)`` with ``dxi/dt = P``.

    Integrates ``dP/dt = Gamma*gamma/2 - gamma*P + P^2`` from ``P(0) = 0`` in
    complex arithmetic, so the running integral carries the same order as
    ``P`` (the ``xi`` update is a Simpson-type rule over the substeps).
    """
    grid = np.asarray(grid, dtype=float)
    h = float(grid[1] - grid[0])
    drive = 0.5 * coupling * memory_rate

    def rhs(p):
        return drive - memory_rate * p + p * p

    p_samples = np.zeros(len(grid), dtype=complex)
    xi_samples = np.zeros(len(grid), dtype=complex)
    p, xi = 0j, 0j
    for k in range(len(grid) - 1):
        p2 = p + 0.5 * h * rhs(p)
        p3 = p + 0.5 * h * rhs(p2)
        p4 = p + h * rhs(p3)
        xi = xi + (h / 6.0) * (p + 2.0 * p2 + 2.0 * p3 + p4)
        p = p + (h / 6.0) * (rhs(p) + 2.0 * rhs(p2) + 2.0 * rhs(p3) + rhs(p4))
        p_samples[k + 1] = p
        xi_samples[k + 1] = xi
    return p_samples, xi_samples


def reference_grid(tau, memory_rate):
    """Grid fine enough for the RK4 reference: both rates bound the stiffness."""
    h = min(1.0 / (50.0 * memory_rate), 1.0 / 50.0, 1e-3)
    return np.linspace(0.0, tau, int(math.ceil(tau / h)) + 1)


def closed_p(mem, grid):
    return np.array([mem.p(float(t)) for t in grid])


def closed_xi(mem, grid):
    return np.array([mem.xi(float(t)) for t in grid])


def t_star(coupling, memory_rate):
    """Divergence time of the tangent branch, from its first pole."""
    om = 0.5 * math.sqrt(2.0 * coupling * memory_rate - memory_rate**2)
    return (math.pi - math.atan(2.0 * om / memory_rate)) / om


def riccati_exact(t, coupling, memory_rate):
    """Independent closed-form solution of the memory equation, all regimes."""
    disc = memory_rate * memory_rate - 2.0 * coupling * memory_rate
    if disc > 1e-12:
        d = math.sqrt(disc)
        p_minus, p_plus = (memory_rate - d) / 2.0, (memory_rate + d) / 2.0
        e = np.exp(-d * np.asarray(t))
        return p_minus * (1.0 - e) / (1.0 - (p_minus / p_plus) * e)
    if abs(disc) <= 1e-12:
        r = memory_rate / 2.0
        t = np.asarray(t)
        return r * r * t / (1.0 + r * t)
    om = math.sqrt(-disc) / 2.0
    phi0 = math.atan(-memory_rate / (2.0 * om))
    return memory_rate / 2.0 + om * np.tan(om * np.asarray(t) + phi0)


def ou_kernel(t, s, mem):
    """Reference bath correlation ``(Gamma gamma / 2) exp(-gamma |t - s|)``."""
    return 0.5 * mem.coupling * mem.memory_rate * math.exp(-mem.memory_rate * abs(t - s))


class TestGbar:
    """The dephasing rate ``f`` is twice the accumulated kernel ``int_0^t G(t, s) ds``."""

    def test_zero_at_zero(self):
        assert MemoryFunctions(1.0, 2.0).f(0.0) == 0.0

    def test_long_time_limit(self):
        assert MemoryFunctions(1.0, 1.0).f(1e6) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_against_adaptive_quadrature(self, t):
        mem = MemoryFunctions(1.3, 0.7)
        numeric, _ = quad(lambda s: ou_kernel(t, s, mem), 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert mem.f(t) == pytest.approx(2.0 * numeric, abs=1e-10)

    def test_negative_time_rejected(self):
        for mem in (MemoryFunctions(1.0, 1.0), MemoryFunctions.markov_limit(1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                mem.f(-0.1)

    def test_monotone_and_bounded(self):
        mem = MemoryFunctions(1.0, 0.5)
        vals = np.array([mem.f(t) for t in np.linspace(0.0, 20.0, 200)])
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= mem.coupling + 1e-12)


class TestBetaIntegral:
    """The dephasing exponent ``beta(tau) = 2 int_0^tau f``."""

    def test_zero_at_zero(self):
        assert MemoryFunctions(1.0, 1.0).beta(0.0) == 0.0

    def test_markov_anchor(self):
        # memoryless limit: exponent tends to 2 * coupling * tau
        val = MemoryFunctions(1.0, 1000.0).beta(1.0)
        assert val == pytest.approx(2.0, rel=2e-3)

    def test_unit_rates(self):
        assert MemoryFunctions(1.0, 1.0).beta(1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-14)

    # horizon shortened for the stiff ratio so the trapezoid's own
    # truncation (~h^2 gamma^2 / 6) stays below the agreement budget
    @pytest.mark.parametrize("gamma,tau", [(0.1, 2.5), (1.0, 2.5), (5.0, 1.5)])
    def test_against_trapezoid_of_rate(self, gamma, tau):
        mem = MemoryFunctions(1.0, gamma)
        ts = np.linspace(0.0, tau, 10_000)
        numeric = float(np.trapezoid([2.0 * mem.f(t) for t in ts], ts))
        assert mem.beta(tau) == pytest.approx(numeric, rel=1e-8)

    def test_bounded_by_markov_line(self):
        for gamma in (0.05, 0.5, 5.0, 500.0):
            mem = MemoryFunctions(1.0, gamma)
            for tau in (0.1, 1.0, 10.0):
                assert 0.0 <= mem.beta(tau) <= 2.0 * tau + 1e-12

    def test_convex_increasing(self):
        mem = MemoryFunctions(1.0, 0.7)
        vals = np.array([mem.beta(t) for t in np.linspace(0.0, 5.0, 400)])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0.0)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_negative_time_rejected(self):
        for mem in (MemoryFunctions(1.0, 1.0), MemoryFunctions.markov_limit(1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                mem.beta(-1.0)


class TestMarkovLimits:
    """The memoryless limits ``f = Gamma`` and ``P = Gamma / 2``."""

    def test_unit_coupling(self):
        mem = MemoryFunctions.markov_limit(1.0)
        assert mem.f(3.0) == 1.0 and mem.p(3.0) == 0.5

    def test_linear_in_coupling(self):
        mem = MemoryFunctions.markov_limit(2.0)
        assert mem.f(3.0) == 2.0 and mem.p(3.0) == 1.0

    def test_riccati_reaches_markov_plateau(self):
        # at memory ratio 1e3 the plateau sits within 0.1% of coupling/2
        mem = MemoryFunctions(1.0, 1000.0)
        assert mem.p(0.02) == pytest.approx(0.5, rel=1e-3)


class TestRiccati:
    """The closed-form memory function ``P`` and its running integral ``xi``."""

    def test_initial_value_zero(self):
        mem = MemoryFunctions(1.0, 2.0)
        assert mem.p(0.0) == 0.0
        assert mem.xi(0.0) == 0.0

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0, 50.0])
    def test_against_closed_form(self, gamma):
        mem = MemoryFunctions(1.0, gamma)
        grid = np.linspace(0.0, 2.0, 2001)
        assert np.max(np.abs(closed_p(mem, grid) - riccati_exact(grid, 1.0, gamma))) < 1e-12

    @pytest.mark.parametrize(
        "gamma", [0.1, 0.5, 1.0, 2.0, 2.0 * (1.0 - 1e-9), 2.0 * (1.0 + 1e-9), 2.5, 8.0, 50.0]
    )
    def test_against_rk4_reference(self, gamma):
        mem = MemoryFunctions(1.0, gamma)
        grid = reference_grid(3.0, gamma)
        p_ref, xi_ref = riccati_rk4(grid, 1.0, gamma)
        assert np.max(np.abs(closed_p(mem, grid) - p_ref.real)) < 1e-9
        assert np.max(np.abs(closed_xi(mem, grid) - xi_ref.real)) < 1e-9

    def test_markov_regime_plateau(self):
        # the plateau differs from coupling/2 by coupling/(2 gamma) + O(gamma^-2),
        # i.e. about 1% of the coupling rate at ratio 50
        mem = MemoryFunctions(1.0, 50.0)
        assert abs(mem.p(1.0) - 0.5) <= 0.01

    def test_no_overflow_at_large_memory_rate(self):
        mem = MemoryFunctions(1.0, 50.0)
        for t in (5.0, 50.0, 1e4):
            assert math.isfinite(mem.p(t)) and math.isfinite(mem.xi(t))
        assert mem.horizon == math.inf

    def test_degenerate_fixed_point(self):
        # at memory ratio exactly 2 the two roots merge at the coupling rate
        mem = MemoryFunctions(1.0, 2.0)
        disc = mem.memory_rate**2 - 2.0 * mem.coupling * mem.memory_rate
        assert disc == 0.0
        assert mem.memory_rate / 2.0 == mem.coupling
        # algebraic approach: P(t) = c^2 t / (1 + c t)
        assert mem.p(500.0) == pytest.approx(1.0, rel=2.5e-3)
        grid = np.linspace(0.0, 500.0, 25_001)
        assert np.max(np.abs(closed_p(mem, grid) - riccati_exact(grid, 1.0, 2.0))) < 1e-12

    def test_small_time_expansion(self):
        mem = MemoryFunctions(1.0, 2.0)
        t = 0.005  # t <= 0.01 / gamma
        assert mem.p(t) == pytest.approx(0.5 * 1.0 * 2.0 * t, rel=1e-2)

    def test_finite_time_divergence_detected(self):
        mem = MemoryFunctions(1.0, 0.5)
        with pytest.raises(RiccatiBlowupError) as err:
            mem.p(5.0)
        # analytic divergence time of the tangent branch
        om = math.sqrt(2.0 * 0.5 - 0.25) / 2.0
        t_div = (math.pi / 2.0 + math.atan(0.5 / (2.0 * om))) / om
        assert err.value.time == mem.horizon
        assert err.value.time == pytest.approx(t_div, abs=5e-3)

    def test_grid_must_start_at_zero(self):
        gen, rho0 = Dissipation(MemoryFunctions(1.0, 1.0)), from_pure([1.0, 0.0])
        with pytest.raises(ValueError, match="start at 0"):
            propagate(gen, rho0, np.linspace(0.5, 1.0, 101))

    def test_grid_must_be_uniform(self):
        gen, rho0 = Dissipation(MemoryFunctions(1.0, 1.0)), from_pure([1.0, 0.0])
        grid = np.concatenate([np.linspace(0.0, 0.5, 51), np.linspace(0.6, 1.0, 41)])
        with pytest.raises(ValueError, match="uniform"):
            propagate(gen, rho0, grid)

    def test_xi_matches_posthoc_trapezoid(self):
        # fine grid so the trapezoid's own truncation stays below the budget
        mem = MemoryFunctions(1.0, 1.0)
        grid = np.linspace(0.0, 2.0, 10_001)
        p = closed_p(mem, grid)
        posthoc = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1])) * (grid[1] - grid[0])])
        assert np.max(np.abs(closed_xi(mem, grid) - posthoc)) < 1e-8

    def test_xi_matches_quadrature_of_exact_solution(self):
        mem = MemoryFunctions(1.0, 8.0)
        xi_quad, _ = quad(lambda s: float(riccati_exact(s, 1.0, 8.0)), 0.0, 2.0, epsabs=1e-12)
        assert mem.xi(2.0) == pytest.approx(xi_quad, abs=1e-9)

    def test_b_monotone_and_p_in_range_for_weak_memory(self):
        for gamma in (2.0, 5.0, 50.0):
            mem = MemoryFunctions(1.0, gamma)
            grid = np.linspace(0.0, 3.0, 3001)
            p = closed_p(mem, grid)
            assert np.all(np.diff(closed_xi(mem, grid)) >= -1e-12)
            assert -1e-12 <= np.min(p)
            assert np.max(p) <= mem.coupling * (1.0 + 1e-9)

    def test_d_vanishes_for_real_kernel(self):
        # the reference keeps P and xi real in complex arithmetic, so the
        # closed form is real-valued
        p_ref, xi_ref = riccati_rk4(np.linspace(0.0, 1.0, 1001), 1.0, 4.0)
        assert np.max(np.abs(p_ref.imag)) < 1e-14
        assert np.max(np.abs(xi_ref.imag)) < 1e-14
        mem = MemoryFunctions(1.0, 4.0)
        assert isinstance(mem.p(0.5), float) and isinstance(mem.xi(0.5), float)


class TestMemoryHorizon:
    @pytest.mark.parametrize("gamma,t_div", [(1.0, 4.712), (0.5, 4.837)])
    def test_horizon_precedes_divergence(self, gamma, t_div):
        mem = MemoryFunctions(1.0, gamma)
        assert t_star(1.0, gamma) == pytest.approx(t_div, abs=5e-4)
        assert mem.horizon < t_star(1.0, gamma)
        # P is near BLOWUP_FACTOR * coupling just before the horizon
        assert mem.p(mem.horizon * (1.0 - 1e-12)) == pytest.approx(BLOWUP_FACTOR, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 1.9])
    def test_p_and_xi_rejected_at_and_past_horizon(self, gamma):
        mem = MemoryFunctions(1.0, gamma)
        for t in (mem.horizon, mem.horizon + 1e-9, 2.0 * mem.horizon):
            for read in (mem.p, mem.xi):
                with pytest.raises(RiccatiBlowupError, match=r"t\* = ") as err:
                    read(t)
                assert err.value.time == mem.horizon
        assert f"{t_star(1.0, gamma):.6g}" in str(err.value)

    @pytest.mark.parametrize("gamma", [2.0, 2.5, 50.0])
    def test_no_horizon_without_divergence(self, gamma):
        assert MemoryFunctions(1.0, gamma).horizon == math.inf
        assert MemoryFunctions.markov_limit(1.0).horizon == math.inf

    def test_negative_time_rejected(self):
        for mem in (MemoryFunctions(1.0, 0.5), MemoryFunctions.markov_limit(1.0)):
            for read in (mem.p, mem.xi):
                with pytest.raises(ValueError, match="nonnegative"):
                    read(-0.1)


class TestMarkovDissipation:
    def test_constant_half_coupling(self):
        mem = MemoryFunctions.markov_limit(2.0)
        grid = np.linspace(0.0, 1.0, 101)
        assert np.all(closed_p(mem, grid) == 1.0)
        assert np.allclose(closed_xi(mem, grid), grid)
        assert mem.markov


class TestMemoryFunctions:
    def test_infinite_memory_rate_is_the_markov_limit(self):
        mem = MemoryFunctions(1.0, math.inf)
        ref = MemoryFunctions.markov_limit(1.0)
        assert mem.markov
        for t in (0.0, 0.3, 1.0, 4.0):
            for read in ("f", "beta", "p", "xi"):
                assert getattr(mem, read)(t) == getattr(ref, read)(t)

    def test_markov_branch_constants(self):
        mem = MemoryFunctions.markov_limit(1.5)
        assert mem.f(0.0) == 1.5
        assert mem.f(3.0) == 1.5
        assert mem.beta(2.0) == pytest.approx(6.0, abs=1e-15)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MemoryFunctions(-1.0, 1.0)
        with pytest.raises(ValueError):
            MemoryFunctions(1.0, 0.0)


def per_time_f(mem, t):
    """The dephasing rate at one time, written out with ``math`` as a single read evaluates it."""
    gamma = mem.memory_rate
    return mem.coupling if math.isinf(gamma) else mem.coupling * -math.expm1(-gamma * t)


def per_time_p(mem, t):
    """The memory function ``P`` at one time, written out with ``math`` branch by branch."""
    coupling, gamma = mem.coupling, mem.memory_rate
    if math.isinf(gamma):
        return 0.5 * coupling
    drive = 0.5 * coupling * gamma
    kappa = 0.25 * gamma * (gamma - 2.0 * coupling)
    if kappa < 0.0:
        w = math.sqrt(-kappa)
        s = math.sin(w * t) / w
        return drive * s / (math.cos(w * t) + 0.5 * gamma * s)
    r = math.sqrt(kappa)
    a = drive / (0.5 * gamma + r)
    s = t if r == 0.0 else -math.expm1(-2.0 * r * t) / (2.0 * r)
    return drive * s / (1.0 + a * s)


#: One memory per branch: memoryless, hyperbolic, critical (r = 0 at gamma = 2 Gamma) and trigonometric.
BRANCHES = {
    "memoryless": MemoryFunctions.markov_limit(1.3),
    "hyperbolic": MemoryFunctions(1.0, 7.5),
    "critical": MemoryFunctions(1.0, 2.0),
    "trigonometric": MemoryFunctions(1.0, 0.6),
}


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestTables:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_tables_hold_the_bits_of_per_time_reads(self, branch):
        mem = BRANCHES[branch]
        assert branch != "critical" or mem._r == 0.0
        tau = min(4.0, 0.9 * mem.horizon)
        times = np.concatenate([np.linspace(0.0, tau, 2001), np.random.default_rng(5).uniform(0.0, tau, 2000)])
        for table, per_time in ((mem.f_table, per_time_f), (mem.p_table, per_time_p)):
            expected = [per_time(mem, t) for t in times.tolist()]
            assert np.array_equal(bits(table(times)), bits(expected))

    @given(t=st.floats(0.0, 50.0), branch=st.sampled_from(list(BRANCHES)))
    @settings(max_examples=200, deadline=None)
    def test_scalar_reads_match_the_per_time_forms(self, t, branch):
        mem = BRANCHES[branch]
        assert mem.f(t) == per_time_f(mem, t)
        if t < mem.horizon:
            assert mem.p(t) == per_time_p(mem, t)

    def test_table_reaching_horizon_raises(self):
        mem = BRANCHES["trigonometric"]
        times = np.linspace(0.0, mem.horizon, 50)
        with pytest.raises(RiccatiBlowupError) as err:
            mem.p_table(times)
        assert err.value.time == mem.horizon
        mem.p_table(times[:-1])  # below the horizon the same table reads

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_table_with_a_bad_time_raises(self, branch, bad):
        mem = BRANCHES[branch]
        times = np.linspace(0.0, 0.5, 20)
        times[11] = bad
        for table in (mem.f_table, mem.p_table):
            with pytest.raises(ValueError, match="time must be (finite|nonnegative), got"):
                table(times)

    def test_empty_table(self):
        mem = BRANCHES["hyperbolic"]
        assert mem.f_table([]).shape == (0,) and mem.p_table(np.array([])).shape == (0,)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


class TestBoundaryChecks:
    @given(bad=non_finite, branch=st.sampled_from(list(BRANCHES)), read=st.sampled_from(["f", "beta", "p", "xi"]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_time_rejected_by_name(self, bad, branch, read):
        name = "tau" if read == "beta" else "t"
        with pytest.raises(ValueError, match=f"^invalid argument '{name}': must be a finite number, got {bad}$"):
            getattr(BRANCHES[branch], read)(bad)

    @given(t=st.floats(max_value=-1e-300, allow_infinity=False), read=st.sampled_from(["f", "beta", "p", "xi"]))
    @settings(max_examples=60, deadline=None)
    def test_negative_time_rejected_by_name(self, t, read):
        with pytest.raises(ValueError, match="time must be nonnegative, got"):
            getattr(BRANCHES["hyperbolic"], read)(t)

    @given(bad=non_finite, rate=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_coupling_rejected_by_name(self, bad, rate):
        with pytest.raises(ValueError, match=f"^invalid argument 'coupling': must be a finite number, got {bad}$"):
            MemoryFunctions(bad, rate)

    @pytest.mark.parametrize("value", [True, "1", None, math.nan])
    @pytest.mark.parametrize("read", ["f", "beta", "p", "xi"])
    def test_time_that_is_not_a_number_rejected_by_name(self, read, value):
        name = "tau" if read == "beta" else "t"
        message = f"^invalid argument '{name}': must be a finite number, got {re.escape(repr(value))}$"
        for mem in (MemoryFunctions.markov_limit(1.0), BRANCHES["trigonometric"]):
            with pytest.raises(ValueError, match=message):
                getattr(mem, read)(value)

    @pytest.mark.parametrize("value", [True, "1", None, math.nan, -math.inf])
    @pytest.mark.parametrize("field", ["coupling", "memory_rate"])
    def test_rate_that_is_not_a_number_rejected_by_name(self, field, value):
        rates = {"coupling": 1.0, "memory_rate": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^invalid argument '{field}': must be a finite number, got {re.escape(repr(value))}$"):
            MemoryFunctions(**rates)

    def test_infinite_memory_rate_is_the_one_non_finite_rate_accepted(self):
        assert MemoryFunctions(1, math.inf).markov
        assert MemoryFunctions(np.float64(2.0), np.inf).f(0.5) == 2.0
        with pytest.raises(ValueError, match="^invalid argument 'coupling': must be a finite number, got inf$"):
            MemoryFunctions(math.inf, math.inf)
