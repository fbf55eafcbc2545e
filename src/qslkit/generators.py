"""Dynamics generators and the fixed-step trajectory propagator.

Four families of master-equation generators ``L`` with
``d rho / dt = L rho_t``:

* driven two-level unitary dynamics (two-angle control),
* three-level adiabatic-passage unitary dynamics,
* pure dephasing and energy dissipation, both with the exponential-kernel
  memory of :class:`MemoryFunctions`, read in closed form at any time.

Propagation uses classical fourth-order fixed steps on a uniform grid so
that the trajectory shares its sampling with the time averages taken by
the bounds module.  States are re-Hermitized each step.  Positivity is
checked over the whole run once the stepping is done; a loss beyond
tolerance aborts, naming the first grid time where it shows, instead of
being projected away, so genuine integrator or model errors are never
masked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .matcore import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_matrix,
    hs_norm,
    min_eigenvalue,
)
from .memory import MemoryFunctions
from .witness import generation_speed, quantumness

#: Propagation aborts once the smallest eigenvalue drops below -POSITIVITY_ABORT.
POSITIVITY_ABORT = 1e-6

#: Relative tolerance for matching query times against a uniform grid.
GRID_MATCH_TOL = 1e-9

_SIGMA_PM = SIGMA_PLUS @ SIGMA_MINUS  # |1><1| projector


class PositivityLossError(RuntimeError):
    """State positivity was lost beyond tolerance during propagation."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class Schedule:
    """Real-valued control function of time with exact constant branches.

    Supports ``value(t)``, its derivative ``rate(t)`` and the running
    integral ``integral(t) = int_0^t value(s) ds``.  Constant and linear
    branches are closed-form (no interpolation error); tabulated branches
    are piecewise linear with exact segment integrals.
    """

    def __init__(self, kind: str, **kw):
        self._kind = kind
        self._kw = kw
        if kind == "tabulated":
            times = np.asarray(kw["times"], dtype=float)
            values = np.asarray(kw["values"], dtype=float)
            if times.ndim != 1 or times.size < 2 or values.shape != times.shape:
                raise ValueError("tabulated schedule needs matching 1-d times/values")
            if np.any(np.diff(times) <= 0.0):
                raise ValueError("tabulated schedule times must be strictly increasing")
            self._times = times
            self._values = values
            # running integral of the piecewise-linear value at the nodes
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
            self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls("constant", value=float(value))

    @classmethod
    def ramp(cls, start: float, slope: float) -> "Schedule":
        """Linear-in-time value ``start + slope * t``."""
        return cls("ramp", start=float(start), slope=float(slope))

    @classmethod
    def tabulated(cls, times, values) -> "Schedule":
        return cls("tabulated", times=times, values=values)

    def _locate(self, t: float) -> int:
        times = self._times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ValueError(f"schedule undefined at t = {t}")
        idx = int(np.searchsorted(times, t, side="right") - 1)
        return min(max(idx, 0), len(times) - 2)

    def value(self, t: float) -> float:
        if self._kind == "constant":
            return self._kw["value"]
        if self._kind == "ramp":
            return self._kw["start"] + self._kw["slope"] * t
        i = self._locate(t)
        t0, t1 = self._times[i], self._times[i + 1]
        w = (t - t0) / (t1 - t0)
        return float((1.0 - w) * self._values[i] + w * self._values[i + 1])

    def rate(self, t: float) -> float:
        if self._kind == "constant":
            return 0.0
        if self._kind == "ramp":
            return self._kw["slope"]
        i = self._locate(t)
        return float(
            (self._values[i + 1] - self._values[i]) / (self._times[i + 1] - self._times[i])
        )

    def integral(self, t: float) -> float:
        if self._kind == "constant":
            return self._kw["value"] * t
        if self._kind == "ramp":
            return self._kw["start"] * t + 0.5 * self._kw["slope"] * t * t
        if not self._times[0] <= 0.0:
            raise ValueError("tabulated schedule must cover t = 0 to integrate from 0")
        i = self._locate(t)
        t0 = self._times[i]
        v0 = self._values[i]
        vt = self.value(t)
        partial = 0.5 * (v0 + vt) * (t - t0)
        zero = np.interp(0.0, self._times, self._cum)
        return float(self._cum[i] + partial - zero)

    def __repr__(self) -> str:
        return f"Schedule({self._kind}, {self._kw})"


@dataclass(frozen=True)
class UnitaryControl:
    """Two-angle control: rotation-angle rate schedule and phase schedule."""

    theta0: float
    theta_rate: Schedule
    alpha: Schedule

    @classmethod
    def constant(
        cls,
        theta_rate: float,
        alpha: float = 0.0,
        alpha_rate: float = 0.0,
        theta0: float = 0.0,
    ) -> "UnitaryControl":
        alpha_schedule = (
            Schedule.constant(alpha) if alpha_rate == 0.0 else Schedule.ramp(alpha, alpha_rate)
        )
        return cls(theta0=theta0, theta_rate=Schedule.constant(theta_rate), alpha=alpha_schedule)

    def theta(self, t: float) -> float:
        return self.theta0 + self.theta_rate.integral(t)

    def theta_dot(self, t: float) -> float:
        return self.theta_rate.value(t)

    def alpha_value(self, t: float) -> float:
        return self.alpha.value(t)

    def alpha_dot(self, t: float) -> float:
        return self.alpha.rate(t)


def unitary_state(theta: float, alpha: float) -> np.ndarray:
    """Pure state ``sin(theta)|1> - i e^{i alpha} cos(theta)|0>`` of the driven qubit."""
    return np.array([math.sin(theta), -1j * np.exp(1j * alpha) * math.cos(theta)], dtype=complex)


def hamiltonian_2l(c: UnitaryControl, t: float) -> np.ndarray:
    """Driving Hamiltonian of the two-angle qubit control at time ``t``."""
    th = c.theta(t)
    thd = c.theta_dot(t)
    al = c.alpha_value(t)
    ald = c.alpha_dot(t)
    sc = math.sin(th) * math.cos(th)
    hx = -thd * math.cos(al) + ald * sc * math.sin(al)
    hy = -(thd * math.sin(al) + ald * sc * math.cos(al))
    hz = ald * math.sin(th) ** 2
    return hx * SIGMA_X + hy * SIGMA_Y + hz * SIGMA_Z


def hamiltonian_stirap(c: UnitaryControl, t: float) -> np.ndarray:
    """Three-level adiabatic-passage Hamiltonian in the ``{|2>, |1>, |0>}`` basis."""
    thd = c.theta_dot(t)
    th = c.theta(t)
    ald = c.alpha_dot(t)
    a01 = ald * math.cos(th)
    a12 = ald * math.sin(th)
    antisym = np.array(
        [
            [0.0, a01, -thd],
            [-a01, 0.0, -a12],
            [thd, a12, 0.0],
        ],
        dtype=float,
    )
    return 1j * antisym


@dataclass(frozen=True)
class UnitaryTwoLevel:
    """Unitary qubit dynamics ``L rho = -i [H(t), rho]``."""

    control: UnitaryControl
    dim: int = 2

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        h = hamiltonian_2l(self.control, t)
        return -1j * (h @ rho - rho @ h)


@dataclass(frozen=True)
class Stirap:
    """Three-level adiabatic-passage unitary dynamics."""

    control: UnitaryControl
    dim: int = 3

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        h = hamiltonian_stirap(self.control, t)
        return -1j * (h @ rho - rho @ h)


@dataclass(frozen=True)
class Dephasing:
    """Pure dephasing ``L rho = f(t) (sigma_z rho sigma_z - rho)``."""

    memory: MemoryFunctions
    dim: int = 2

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        f = self.memory.f(t)
        return f * (SIGMA_Z @ rho @ SIGMA_Z - rho)


@dataclass(frozen=True)
class Dissipation:
    """Energy relaxation ``L rho = P(t) [sigma_- rho, sigma_+] + h.c.``."""

    memory: MemoryFunctions
    dim: int = 2

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        p = self.memory.p(t)
        return 2.0 * p * (SIGMA_MINUS @ rho @ SIGMA_PLUS) - p * (_SIGMA_PM @ rho) - p * (rho @ _SIGMA_PM)


Generator = Union[UnitaryTwoLevel, Stirap, Dephasing, Dissipation]


def apply_generator(g: Generator, rho: np.ndarray, t: float) -> np.ndarray:
    """Apply the generator to a state, validating the dimension."""
    m = as_matrix(rho)
    if m.shape[-1] != g.dim:
        raise ValueError(f"dimension mismatch: generator dim {g.dim}, state dim {m.shape[-1]}")
    return g.apply(m, t)


@dataclass
class Trajectory:
    """Propagated states on a uniform grid, with witness samples.

    ``states`` is one ``(n, d, d)`` array; ``q_samples[k]`` is the
    quantumness between the initial and the current state;
    ``speed_samples[k]`` the generation speed ``||[rho0, L rho_t]||`` at the
    grid time.
    """

    grid: np.ndarray
    states: np.ndarray
    rho0: np.ndarray
    q_samples: np.ndarray
    speed_samples: np.ndarray
    generator: Generator = field(repr=False, default=None)

    @property
    def tau_max(self) -> float:
        return float(self.grid[-1])

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def locate(self, tau: float) -> tuple[int, float]:
        """Grid interval ``k`` and fraction ``w`` with ``tau = grid[k] + w * step``."""
        grid = self.grid
        if tau < -1e-12 or tau > grid[-1] * (1.0 + 1e-12):
            raise ValueError(f"time {tau} outside trajectory grid [0, {grid[-1]}]")
        tau = min(max(tau, 0.0), float(grid[-1]))
        h = self.step
        k = min(int(tau / h), len(grid) - 2)
        return k, (tau - float(grid[k])) / h

    def index_of(self, tau: float) -> int:
        k, w = self.locate(tau)
        idx = k + 1 if w > 0.5 else k
        if abs(self.grid[idx] - tau) > GRID_MATCH_TOL * max(1.0, self.tau_max):
            raise ValueError(f"time {tau} is not on the trajectory grid")
        return idx

    def state_at(self, tau: float) -> np.ndarray:
        return self.states[self.index_of(tau)].copy()

    @functools.cached_property
    def lrho0_norms(self) -> np.ndarray:
        """``||L_t rho0||`` at every grid time, computed on first use."""
        return hs_norm(np.array([self.generator.apply(self.rho0, float(t)) for t in self.grid]))


def propagate(g: Generator, rho0: np.ndarray, grid) -> Trajectory:
    """Propagate ``rho0`` along the grid with fourth-order fixed steps.

    Each step re-Hermitizes the state and stores it with its ``L_t rho_t``.
    One pass over the stored stacks then checks positivity, raising
    :class:`PositivityLossError` at the first grid time whose smallest
    eigenvalue is below ``-POSITIVITY_ABORT`` or whose state is no longer
    finite, and takes the witness and speed samples.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must contain at least two times")
    if abs(grid[0]) > 1e-12:
        raise ValueError(f"grid must start at 0, got {grid[0]}")
    h = float(grid[1] - grid[0])
    if h <= 0.0 or not np.allclose(
        np.diff(grid), h, rtol=0.0, atol=GRID_MATCH_TOL * max(1.0, float(grid[-1]))
    ):
        raise ValueError("grid must be uniformly increasing")

    rho_init = as_matrix(rho0).copy()
    if rho_init.shape != (g.dim, g.dim):
        raise ValueError(f"dimension mismatch: generator dim {g.dim}, state shape {rho_init.shape}")

    n = len(grid)
    states = np.empty((n, g.dim, g.dim), dtype=complex)
    lrhos = np.empty_like(states)
    rho = rho_init
    # a run that loses positivity can overflow further on; the scan after the loop names where it was lost
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = float(grid[k])
            k1 = g.apply(rho, t)
            states[k] = rho
            lrhos[k] = k1
            if k == n - 1:
                break
            k2 = g.apply(rho + 0.5 * h * k1, t + 0.5 * h)
            k3 = g.apply(rho + 0.5 * h * k2, t + 0.5 * h)
            k4 = g.apply(rho + h * k3, t + h)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        finite = np.isfinite(states).all(axis=(1, 2))
        n_finite = n if finite.all() else int(np.argmin(finite))
        eig_min = min_eigenvalue(states[:n_finite])
    lost = np.flatnonzero(~(eig_min >= -POSITIVITY_ABORT))  # NaN from overflow counts as lost
    k = int(lost[0]) if lost.size else n_finite
    if k < n:
        t = float(grid[k])
        detail = f"min eigenvalue {eig_min[k]:.3e}" if k < n_finite else "state no longer finite"
        raise PositivityLossError(f"state positivity lost at t = {t:.6g} ({detail})", time=t)

    speed_samples = generation_speed(rho_init, lrhos)
    del lrhos  # freed before the witness pass allocates its own stacks
    return Trajectory(
        grid=grid,
        states=states,
        rho0=rho_init,
        q_samples=quantumness(rho_init, states),
        speed_samples=speed_samples,
        generator=g,
    )


def dephasing_closed_state(theta: float, tau: float, m: MemoryFunctions) -> np.ndarray:
    """Closed-form dephased state of ``cos(theta)|1> + sin(theta)|0>``.

    Populations are conserved; the coherence is damped by the accumulated
    exponent ``beta(tau)``.
    """
    if tau < 0.0:
        raise ValueError(f"time must be nonnegative, got {tau}")
    beta = m.beta(tau)
    s, c = math.sin(theta), math.cos(theta)
    off = s * c * math.exp(-beta)
    return np.array([[c * c, off], [off, s * s]], dtype=complex)


def dissipation_closed_state(theta: float, tau: float, m: MemoryFunctions) -> np.ndarray:
    """Closed-form dissipated state of ``cos(theta)|1> + sin(theta)|0>``.

    The excited population decays as ``exp(-2 xi)`` and the coherence as
    ``exp(-xi)``, with ``xi`` the running integral of the memory function.
    """
    xi = m.xi(tau)
    s, c = math.sin(theta), math.cos(theta)
    pop = c * c * math.exp(-2.0 * xi)
    coh = s * c * math.exp(-xi)
    return np.array([[pop, coh], [coh, 1.0 - pop]], dtype=complex)


def ghz_dephased_state(theta: float, n: int, beta: float) -> np.ndarray:
    """Effective two-dimensional state of an ``n``-qubit cat state under common dephasing.

    In the subspace spanned by the two branch products, the off-diagonal
    is suppressed by ``exp(-n^2 beta)`` while the populations stay fixed.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if beta < 0.0:
        raise ValueError(f"decay exponent must be nonnegative, got {beta}")
    s, c = math.sin(theta), math.cos(theta)
    off = s * c * math.exp(-(n * n) * beta)
    return np.array([[c * c, off], [off, s * s]], dtype=complex)
