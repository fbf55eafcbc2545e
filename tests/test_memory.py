"""Memory functions: kernel integrals against quadrature, the closed-form P against RK4 and exact forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qslkit.generators import Dissipation, propagate
from qslkit.matcore import from_pure
from qslkit.memory import (
    BLOWUP_FACTOR,
    MemoryFunctions,
    OUParams,
    RiccatiBlowupError,
    beta_integral,
    f_rate,
    gbar,
    markov_limits,
    ou_kernel,
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


class TestKernel:
    def test_equal_times(self):
        p = OUParams(2.0, 3.0)
        assert ou_kernel(1.5, 1.5, p) == pytest.approx(3.0, abs=1e-15)

    def test_large_separation_vanishes(self):
        p = OUParams(1.0, 1.0)
        assert abs(ou_kernel(0.0, 100.0, p)) < 1e-40

    def test_unit_rates_at_unit_separation(self):
        p = OUParams(1.0, 1.0)
        assert ou_kernel(1.0, 0.0, p) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


class TestGbar:
    def test_zero_at_zero(self):
        assert gbar(0.0, OUParams(1.0, 2.0)) == 0.0

    def test_long_time_limit(self):
        assert gbar(1e6, OUParams(1.0, 1.0)).real == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_against_adaptive_quadrature(self, t):
        p = OUParams(1.3, 0.7)
        numeric, _ = quad(lambda s: ou_kernel(t, s, p).real, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert gbar(t, p).real == pytest.approx(numeric, abs=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gbar(-0.1, OUParams(1.0, 1.0))

    def test_monotone_and_bounded(self):
        p = OUParams(1.0, 0.5)
        ts = np.linspace(0.0, 20.0, 200)
        vals = np.array([gbar(t, p).real for t in ts])
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 0.5 * p.coupling + 1e-12)


class TestBetaIntegral:
    def test_zero_at_zero(self):
        assert beta_integral(0.0, OUParams(1.0, 1.0)) == 0.0

    def test_markov_anchor(self):
        # memoryless limit: exponent tends to 2 * coupling * tau
        val = beta_integral(1.0, OUParams(1.0, 1000.0))
        assert val == pytest.approx(2.0, rel=2e-3)

    def test_unit_rates(self):
        assert beta_integral(1.0, OUParams(1.0, 1.0)) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-14
        )

    # horizon shortened for the stiff ratio so the trapezoid's own
    # truncation (~h^2 gamma^2 / 6) stays below the agreement budget
    @pytest.mark.parametrize("gamma,tau", [(0.1, 2.5), (1.0, 2.5), (5.0, 1.5)])
    def test_against_trapezoid_of_rate(self, gamma, tau):
        p = OUParams(1.0, gamma)
        ts = np.linspace(0.0, tau, 10_000)
        numeric = float(np.trapezoid([2.0 * f_rate(t, p) for t in ts], ts))
        assert beta_integral(tau, p) == pytest.approx(numeric, rel=1e-8)

    def test_bounded_by_markov_line(self):
        for gamma in (0.05, 0.5, 5.0, 500.0):
            p = OUParams(1.0, gamma)
            for tau in (0.1, 1.0, 10.0):
                assert 0.0 <= beta_integral(tau, p) <= 2.0 * tau + 1e-12

    def test_convex_increasing(self):
        p = OUParams(1.0, 0.7)
        ts = np.linspace(0.0, 5.0, 400)
        vals = np.array([beta_integral(t, p) for t in ts])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0.0)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            beta_integral(-1.0, OUParams(1.0, 1.0))


class TestMarkovLimits:
    def test_unit_coupling(self):
        lim = markov_limits(OUParams(1.0, 3.0))
        assert lim.f_inf == 1.0 and lim.p_inf == 0.5

    def test_linear_in_coupling(self):
        lim = markov_limits(OUParams(2.0, 3.0))
        assert lim.f_inf == 2.0 and lim.p_inf == 1.0

    def test_riccati_reaches_markov_plateau(self):
        # at memory ratio 1e3 the plateau sits within 0.1% of coupling/2
        mem = MemoryFunctions(OUParams(1.0, 1000.0))
        assert mem.p(0.02) == pytest.approx(0.5, rel=1e-3)


class TestRiccati:
    """The closed-form memory function ``P`` and its running integral ``xi``."""

    def test_initial_value_zero(self):
        mem = MemoryFunctions(OUParams(1.0, 2.0))
        assert mem.p(0.0) == 0.0
        assert mem.xi(0.0) == 0.0

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0, 50.0])
    def test_against_closed_form(self, gamma):
        mem = MemoryFunctions(OUParams(1.0, gamma))
        grid = np.linspace(0.0, 2.0, 2001)
        assert np.max(np.abs(closed_p(mem, grid) - riccati_exact(grid, 1.0, gamma))) < 1e-12

    @pytest.mark.parametrize(
        "gamma", [0.1, 0.5, 1.0, 2.0, 2.0 * (1.0 - 1e-9), 2.0 * (1.0 + 1e-9), 2.5, 8.0, 50.0]
    )
    def test_against_rk4_reference(self, gamma):
        mem = MemoryFunctions(OUParams(1.0, gamma))
        grid = reference_grid(3.0, gamma)
        p_ref, xi_ref = riccati_rk4(grid, 1.0, gamma)
        assert np.max(np.abs(closed_p(mem, grid) - p_ref.real)) < 1e-9
        assert np.max(np.abs(closed_xi(mem, grid) - xi_ref.real)) < 1e-9

    def test_markov_regime_plateau(self):
        # the plateau differs from coupling/2 by coupling/(2 gamma) + O(gamma^-2),
        # i.e. about 1% of the coupling rate at ratio 50
        mem = MemoryFunctions(OUParams(1.0, 50.0))
        assert abs(mem.p(1.0) - 0.5) <= 0.01

    def test_no_overflow_at_large_memory_rate(self):
        mem = MemoryFunctions(OUParams(1.0, 50.0))
        for t in (5.0, 50.0, 1e4):
            assert math.isfinite(mem.p(t)) and math.isfinite(mem.xi(t))
        assert mem.horizon == math.inf

    def test_degenerate_fixed_point(self):
        # at memory ratio exactly 2 the two roots merge at the coupling rate
        p = OUParams(1.0, 2.0)
        disc = p.memory_rate**2 - 2.0 * p.coupling * p.memory_rate
        assert disc == 0.0
        assert p.memory_rate / 2.0 == p.coupling
        mem = MemoryFunctions(p)
        # algebraic approach: P(t) = c^2 t / (1 + c t)
        assert mem.p(500.0) == pytest.approx(1.0, rel=2.5e-3)
        grid = np.linspace(0.0, 500.0, 25_001)
        assert np.max(np.abs(closed_p(mem, grid) - riccati_exact(grid, 1.0, 2.0))) < 1e-12

    def test_small_time_expansion(self):
        mem = MemoryFunctions(OUParams(1.0, 2.0))
        t = 0.005  # t <= 0.01 / gamma
        assert mem.p(t) == pytest.approx(0.5 * 1.0 * 2.0 * t, rel=1e-2)

    def test_finite_time_divergence_detected(self):
        mem = MemoryFunctions(OUParams(1.0, 0.5))
        with pytest.raises(RiccatiBlowupError) as err:
            mem.p(5.0)
        # analytic divergence time of the tangent branch
        om = math.sqrt(2.0 * 0.5 - 0.25) / 2.0
        t_div = (math.pi / 2.0 + math.atan(0.5 / (2.0 * om))) / om
        assert err.value.time == mem.horizon
        assert err.value.time == pytest.approx(t_div, abs=5e-3)

    def test_grid_must_start_at_zero(self):
        gen, rho0 = Dissipation(MemoryFunctions(OUParams(1.0, 1.0))), from_pure([1.0, 0.0])
        with pytest.raises(ValueError, match="start at 0"):
            propagate(gen, rho0, np.linspace(0.5, 1.0, 101))

    def test_grid_must_be_uniform(self):
        gen, rho0 = Dissipation(MemoryFunctions(OUParams(1.0, 1.0))), from_pure([1.0, 0.0])
        grid = np.concatenate([np.linspace(0.0, 0.5, 51), np.linspace(0.6, 1.0, 41)])
        with pytest.raises(ValueError, match="uniform"):
            propagate(gen, rho0, grid)

    def test_xi_matches_posthoc_trapezoid(self):
        # fine grid so the trapezoid's own truncation stays below the budget
        mem = MemoryFunctions(OUParams(1.0, 1.0))
        grid = np.linspace(0.0, 2.0, 10_001)
        p = closed_p(mem, grid)
        posthoc = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1])) * (grid[1] - grid[0])])
        assert np.max(np.abs(closed_xi(mem, grid) - posthoc)) < 1e-8

    def test_xi_matches_quadrature_of_exact_solution(self):
        mem = MemoryFunctions(OUParams(1.0, 8.0))
        xi_quad, _ = quad(lambda s: float(riccati_exact(s, 1.0, 8.0)), 0.0, 2.0, epsabs=1e-12)
        assert mem.xi(2.0) == pytest.approx(xi_quad, abs=1e-9)

    def test_b_monotone_and_p_in_range_for_weak_memory(self):
        for gamma in (2.0, 5.0, 50.0):
            mem = MemoryFunctions(OUParams(1.0, gamma))
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
        mem = MemoryFunctions(OUParams(1.0, 4.0))
        assert isinstance(mem.p(0.5), float) and isinstance(mem.xi(0.5), float)


class TestMemoryHorizon:
    @pytest.mark.parametrize("gamma,t_div", [(1.0, 4.712), (0.5, 4.837)])
    def test_horizon_precedes_divergence(self, gamma, t_div):
        mem = MemoryFunctions(OUParams(1.0, gamma))
        assert t_star(1.0, gamma) == pytest.approx(t_div, abs=5e-4)
        assert mem.horizon < t_star(1.0, gamma)
        # P is near BLOWUP_FACTOR * coupling just before the horizon
        assert mem.p(mem.horizon * (1.0 - 1e-12)) == pytest.approx(BLOWUP_FACTOR, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 1.9])
    def test_p_and_xi_rejected_at_and_past_horizon(self, gamma):
        mem = MemoryFunctions(OUParams(1.0, gamma))
        for t in (mem.horizon, mem.horizon + 1e-9, 2.0 * mem.horizon):
            for read in (mem.p, mem.xi):
                with pytest.raises(RiccatiBlowupError, match=r"t\* = ") as err:
                    read(t)
                assert err.value.time == mem.horizon
        assert f"{t_star(1.0, gamma):.6g}" in str(err.value)

    @pytest.mark.parametrize("gamma", [2.0, 2.5, 50.0])
    def test_no_horizon_without_divergence(self, gamma):
        assert MemoryFunctions(OUParams(1.0, gamma)).horizon == math.inf
        assert MemoryFunctions.markov_limit(1.0).horizon == math.inf

    def test_negative_time_rejected(self):
        for mem in (MemoryFunctions(OUParams(1.0, 0.5)), MemoryFunctions.markov_limit(1.0)):
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
        mem = MemoryFunctions(OUParams(1.0, math.inf))
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

    def test_finite_memory_branch_delegates(self):
        p = OUParams(1.0, 0.5)
        mem = MemoryFunctions(p)
        assert mem.f(1.0) == pytest.approx(f_rate(1.0, p), abs=1e-15)
        assert mem.beta(1.0) == pytest.approx(beta_integral(1.0, p), abs=1e-15)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            OUParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            OUParams(1.0, 0.0)
