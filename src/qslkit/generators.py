"""Dynamics generators and the fixed-step trajectory propagator.

Four families of master-equation generators ``L`` with
``d rho / dt = L rho_t``:

* driven two-level unitary dynamics (two-angle control),
* three-level adiabatic-passage unitary dynamics,
* pure dephasing and energy dissipation, both with the exponential-kernel
  memory of :class:`MemoryFunctions`, read in closed form at any time.

Each family tabulates its time dependence once per run, as a coefficient
table over the times the integrator visits (a rate, or a Hamiltonian),
and acts on a stack ``(..., d, d)`` of states with one array expression;
``apply(rho, t)`` is that action at a single time.

Propagation uses classical fourth-order fixed steps on a uniform grid so
that the trajectory shares its sampling with the time averages taken by the
bounds module.  Scenarios of one family that share a grid are stepped
together as one ``(B, d, d)`` stack; a single scenario is a batch of one.
The steps are taken ``POSITIVITY_SCAN_STEPS`` grid times at a time, with no
Python loop over single steps.  Each step of a linear generator is a linear
map on ``vec(rho)``, so a chunk's states are first estimated as a prefix
scan of those maps (Blelloch 1990; Martin & Cundy 2018); for dephasing and
dissipation, whose maps act entry by entry, the scan is one cumulative
product of scalar factors.  The unitary action is a sum of ``d`` broadcast
outer products, with no BLAS call per ``d x d`` matrix; only the scan's
products of ``d^2 x d^2`` transfer matrices keep ``@``.  Sweeps of the
chunk's increments, added up in order, then move the estimates onto the
rounding of the sequential steps, each re-Hermitized: bit for bit for
dephasing and dissipation, within 1e-15 for the unitary families.  A sweep
writes each state from the states before it alone, so the estimate sets
only the sweep count, never a bit.  Each chunk is then checked for
positivity; a loss beyond tolerance stops the run within the chunk, naming
the first grid time where it shows, instead of being projected away, so
genuine integrator or model errors are never masked.  The witness and speed
samples follow, per member.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _check_finite,
    _check_number,
    as_matrix,
    hs_norm,
    min_eigenvalue,
    validate_density,
)
from .memory import MemoryFunctions
from .witness import generation_speed, quantumness

#: Propagation aborts once the smallest eigenvalue drops below -POSITIVITY_ABORT.
POSITIVITY_ABORT = 1e-6

#: Grid times per chunk of propagation; each chunk is scanned and checked for positivity at once.
POSITIVITY_SCAN_STEPS = 64

#: Relative tolerance of the uniform-grid check: each step may differ from the first by this times the span.
GRID_MATCH_TOL = 1e-9

_DEPHASING_PATTERN = np.array([[0.0, -2.0], [-2.0, 0.0]])
_DISSIPATION_PATTERN = np.array([[-2.0, -1.0], [-1.0, 0.0]])
_DISSIPATION_FEED = np.array([[0.0, 0.0], [0.0, 2.0]])  # the decayed population feeds |0><0|


class PositivityLossError(RuntimeError):
    """State positivity was lost beyond tolerance during propagation.

    ``time`` is the first grid time where it shows and ``member`` the index
    of the batch member that lost it.
    """

    def __init__(self, message: str, time: float, member: int = 0):
        super().__init__(message)
        self.time = time
        self.member = member


@dataclass(frozen=True, kw_only=True)
class UnitaryControl:
    """Two-angle control with linear angles ``theta0 + theta_rate t`` and ``alpha0 + alpha_rate t``."""

    theta0: float = 0.0
    theta_rate: float = 0.0
    alpha0: float = 0.0
    alpha_rate: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_number(getattr(self, f.name), f.name, "field")

    def theta(self, t: float) -> float:
        return self.theta0 + self.theta_rate * t

    def alpha(self, t: float) -> float:
        return self.alpha0 + self.alpha_rate * t


def unitary_state(theta: float, alpha: float) -> np.ndarray:
    """Pure state ``sin(theta)|1> - i e^{i alpha} cos(theta)|0>`` of the driven qubit."""
    theta, alpha = _check_number(theta, "theta"), _check_number(alpha, "alpha")
    return np.array([math.sin(theta), -1j * np.exp(1j * alpha) * math.cos(theta)], dtype=complex)


def hamiltonian_2l(c: UnitaryControl, t) -> np.ndarray:
    """Driving Hamiltonian of the two-angle qubit control at time ``t``, or a stack for an array of times.

    The squared sine is taken with ``pow`` (``np.float_power``), which
    rounds unlike ``np.square`` on some arguments; the Hamiltonian keeps
    ``pow``'s rounding.
    """
    t = np.asarray(t, dtype=float)
    th = c.theta(t)
    thd = c.theta_rate
    al = c.alpha(t)
    ald = c.alpha_rate
    sc = np.sin(th) * np.cos(th)
    hx = (-thd * np.cos(al) + ald * sc * np.sin(al))[..., None, None]
    hy = (-(thd * np.sin(al) + ald * sc * np.cos(al)))[..., None, None]
    hz = (ald * np.float_power(np.sin(th), 2.0))[..., None, None]
    return hx * SIGMA_X + hy * SIGMA_Y + hz * SIGMA_Z


def hamiltonian_stirap(c: UnitaryControl, t) -> np.ndarray:
    """Three-level adiabatic-passage Hamiltonian in the ``{|2>, |1>, |0>}`` basis, or a stack for an array of times."""
    thd = c.theta_rate
    th = c.theta(np.asarray(t, dtype=float))
    ald = c.alpha_rate
    a01 = ald * np.cos(th)
    a12 = ald * np.sin(th)
    antisym = np.zeros(th.shape + (3, 3))
    antisym[..., 0, 1], antisym[..., 0, 2] = a01, -thd
    antisym[..., 1, 0], antisym[..., 1, 2] = -a01, -a12
    antisym[..., 2, 0], antisym[..., 2, 1] = thd, a12
    return 1j * antisym


class _TabulatedGenerator:
    """Protocol of the families: ``dim`` is the family's state dimension, a
    class attribute; ``coefficients(times)`` tabulates the time
    dependence, one entry per time, and ``action(rho, c)`` applies the
    generator to a state or a stack of states with the matching entries
    (broadcast against the trailing ``(d, d)`` axes).  The action depends on
    the family only, so one call steps a whole batch.  ``estimate_chunk``
    seeds a chunk's states, which sets only the sweep count of :func:`_settle`;
    by default it is the transfer-matrix scan, which any linear action takes.
    """

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        """``L_t rho`` at one time, for a state or a stack of states of the family's dimension."""
        m = as_matrix(rho)
        if m.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: generator dim {self.dim}, state dim {m.shape[-1]}")
        return self.action(m, self.coefficients([t])[0])

    def estimate_chunk(self, rho_lo: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
        """Estimates ``(B, m, d, d)`` of a chunk's states after each of its ``m`` steps."""
        return _scan(self.action, rho_lo, c0, c_mid, c1, h)


class _Entrywise(_TabulatedGenerator):
    """Families whose action scales each entry of ``rho`` by its own rate,
    except that it may feed the other diagonal entries into the last one.

    A step then multiplies each entry by a scalar factor, the step applied
    to the all-ones matrix, so a chunk's estimates are one cumulative
    product of these factors.  The last diagonal entry, the one fed, is
    restored from the trace, which a traceless action keeps.  A family of
    another form would settle to the same states, after more sweeps.
    """

    def __post_init__(self):
        if not isinstance(self.memory, MemoryFunctions):
            raise ValueError(f"invalid field 'memory': must be a MemoryFunctions, got {self.memory!r}")

    def estimate_chunk(self, rho_lo: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
        d = rho_lo.shape[-1]
        factor = 1.0 + _rk4_increment(self.action, np.ones((d, d)), c0, c_mid, c1, h)
        x = rho_lo[:, None] * np.cumprod(factor, axis=1)
        diag = x.diagonal(axis1=-2, axis2=-1)
        x[..., -1, -1] = np.trace(rho_lo, axis1=-2, axis2=-1)[:, None] - diag[..., :-1].sum(axis=-1)
        return x


class _Unitary(_TabulatedGenerator):
    def __post_init__(self):
        if not isinstance(self.control, UnitaryControl):
            raise ValueError(f"invalid field 'control': must be a UnitaryControl, got {self.control!r}")

    def action(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``-i [H, rho]`` with ``H`` the tabulated Hamiltonian, summed over ``k`` as broadcast
        outer products ``H[:, k] rho[k, :] - rho[:, k] H[k, :]``: no BLAS call per ``d x d``
        matrix, and a stacked call gives each member the bits of its single call."""
        out = h[..., :, :1] * rho[..., :1, :] - rho[..., :, :1] * h[..., :1, :]
        for k in range(1, h.shape[-1]):
            out += h[..., :, k:k + 1] * rho[..., k:k + 1, :] - rho[..., :, k:k + 1] * h[..., k:k + 1, :]
        out *= -1j
        return out


@dataclass(frozen=True)
class UnitaryTwoLevel(_Unitary):
    """Unitary qubit dynamics ``L rho = -i [H(t), rho]``."""

    control: UnitaryControl
    dim: ClassVar[int] = 2

    def coefficients(self, times) -> np.ndarray:
        return hamiltonian_2l(self.control, times)


@dataclass(frozen=True)
class Stirap(_Unitary):
    """Three-level adiabatic-passage unitary dynamics."""

    control: UnitaryControl
    dim: ClassVar[int] = 3

    def coefficients(self, times) -> np.ndarray:
        return hamiltonian_stirap(self.control, times)


@dataclass(frozen=True)
class Dephasing(_Entrywise):
    """Pure dephasing ``L rho = f(t) (sigma_z rho sigma_z - rho)``."""

    memory: MemoryFunctions
    dim: ClassVar[int] = 2

    def coefficients(self, times) -> np.ndarray:
        """Rate ``f`` per time, shaped ``(m, 1, 1)``."""
        return self.memory.f_table(times).reshape(-1, 1, 1)

    def action(self, rho: np.ndarray, f: np.ndarray) -> np.ndarray:
        # sigma_z rho sigma_z - rho is -2 rho off the diagonal and 0 on it, bit for bit
        return f * (rho * _DEPHASING_PATTERN)


@dataclass(frozen=True)
class Dissipation(_Entrywise):
    """Energy relaxation ``L rho = P(t) [sigma_- rho, sigma_+] + h.c.``."""

    memory: MemoryFunctions
    dim: ClassVar[int] = 2

    def coefficients(self, times) -> np.ndarray:
        """Memory function ``P`` per time, shaped ``(m, 1, 1)``."""
        return self.memory.p_table(times).reshape(-1, 1, 1)

    def action(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        # 2 sigma_- rho sigma_+ - Pi rho - rho Pi (Pi = |1><1|) equals
        # [[-2 rho_00, -rho_01], [-rho_10, 2 rho_00]] entry by entry, bit for bit
        return p * (rho * _DISSIPATION_PATTERN + rho[..., :1, :1] * _DISSIPATION_FEED)


Generator = Union[UnitaryTwoLevel, Stirap, Dephasing, Dissipation]


@dataclass(frozen=True)
class Trajectory:
    """Propagated states on a uniform grid, with witness samples; read-only.

    ``states`` is one ``(n, d, d)`` array; ``q_samples[k]`` is the
    quantumness between the initial and the current state;
    ``speed_samples[k]`` the generation speed ``||[rho0, L rho_t]||`` at the
    grid time.  ``coefficients`` holds the generator's table entries at the
    grid times, the ones the propagation stepped with, so nothing after it
    tabulates the generator again.  The arrays are made read-only on
    construction, so values computed from them on first use stay valid.
    """

    grid: np.ndarray
    states: np.ndarray
    rho0: np.ndarray
    q_samples: np.ndarray
    speed_samples: np.ndarray
    coefficients: np.ndarray = field(repr=False)
    generator: Generator = field(repr=False)

    def __post_init__(self):
        for a in (self.grid, self.states, self.rho0, self.q_samples, self.speed_samples, self.coefficients):
            a.flags.writeable = False

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def locate(self, tau: float) -> tuple[int, float]:
        """Grid interval ``k`` and fraction ``w`` with ``tau = grid[k] + w * step``."""
        k, w = self._locate(np.array([_check_number(tau, "tau")]))
        return int(k[0]), float(w[0])

    def _locate(self, taus: np.ndarray) -> tuple:
        """:meth:`locate` for a 1-D array of finite times: an array of intervals and one of fractions."""
        grid = self.grid
        outside = (taus < -1e-12) | (taus > grid[-1] * (1.0 + 1e-12))
        if outside.any():
            raise ValueError(f"time {taus[outside][0]} outside trajectory grid [0, {grid[-1]}]")
        taus = np.minimum(np.maximum(taus, 0.0), float(grid[-1]))
        h = self.step
        k = np.minimum((taus / h).astype(np.intp), len(grid) - 2)
        return k, (taus - grid[k]) / h

    @functools.cached_property
    def lrho0_norms(self) -> np.ndarray:
        """``||L_t rho0||`` at every grid time, computed on first use."""
        return hs_norm(self.generator.action(self.rho0, self.coefficients))


def propagate(g: Generator, rho0: np.ndarray, grid) -> Trajectory:
    """Propagate ``rho0`` along the grid: :func:`propagate_many` with one member."""
    return propagate_many([g], [rho0], grid)[0]


def _shared_grid(grid) -> np.ndarray:
    """The one uniform grid of a batch, checked: a copy, never the caller's array."""
    try:
        grid = np.array(grid, dtype=float)
    except ValueError as err:  # ragged input, such as grids of different lengths
        raise ValueError(f"grid must be one 1-D array of times: {err}") from None
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError(f"grid must be one 1-D array of at least two times, got shape {grid.shape}")
    if abs(grid[0]) > 1e-12:
        raise ValueError(f"grid must start at 0, got {grid[0]}")
    h = float(grid[1] - grid[0])
    if h <= 0.0 or not np.allclose(
        np.diff(grid), h, rtol=0.0, atol=GRID_MATCH_TOL * max(1.0, float(grid[-1]))
    ):
        raise ValueError("grid must be uniformly increasing")
    return grid


def _check_positivity(states: np.ndarray, lo: int, hi: int, grid: np.ndarray) -> None:
    """Raise :class:`PositivityLossError` if a state of ``states[:, lo:hi]`` lost positivity.

    The loss is named at its first grid time, for the member that shows it
    earliest (the lowest index on ties); a state that is no longer finite
    counts as lost.
    """
    block = states[:, lo:hi]
    finite = np.isfinite(block).all(axis=(-2, -1))
    eig = np.full(finite.shape, np.nan)
    eig[finite] = min_eigenvalue(block[finite])
    lost = ~(eig >= -POSITIVITY_ABORT)  # NaN from overflow counts as lost
    if not lost.any():
        return
    first = np.where(lost.any(axis=1), lost.argmax(axis=1), hi - lo)
    b = int(np.argmin(first))
    j = int(first[b])
    t = float(grid[lo + j])
    detail = f"min eigenvalue {eig[b, j]:.3e}" if finite[b, j] else "state no longer finite"
    member = f"batch member {b}: " if len(states) > 1 else ""
    raise PositivityLossError(f"{member}state positivity lost at t = {t:.6g} ({detail})", time=t, member=b)


def propagate_many(gens, rho0s, grid) -> list:
    """Propagate one initial state per generator along a shared grid, all in one batch.

    The generators must be of one family and dimension, and each initial
    state a density matrix (:func:`~qslkit.matcore.validate_density`).
    Each family's coefficient table is built once, at the grid times and
    the midpoints (``2n - 1`` times); the fourth-order steps are then
    taken a chunk of ``POSITIVITY_SCAN_STEPS`` grid times at a time for
    the whole ``(B, d, d)`` stack (see :func:`_step_batch`).  Each chunk's
    states are checked, and :class:`PositivityLossError` stops the run at
    the first grid time whose smallest eigenvalue is below
    ``-POSITIVITY_ABORT`` or whose state is no longer finite.  The witness
    samples and the generation speeds ``||[rho0, L_t rho_t]||`` are taken
    per member afterwards, each as one stacked pass over its states, and
    each member keeps its own copy of the table's grid-time rows.  A speed
    that is not finite, as when the rates are so large that its square
    overflows, raises ``ValueError`` naming the member and the first grid
    time.  A member's trajectory is the one it gets when propagated alone.
    """
    gens, rho0s = list(gens), list(rho0s)
    if not gens or len(gens) != len(rho0s):
        raise ValueError(f"need one initial state per generator, got {len(gens)} generators and {len(rho0s)} states")
    g0 = gens[0]
    for g in gens[1:]:
        if type(g) is not type(g0):
            raise ValueError(f"mixed generator family in one batch: {type(g0).__name__} and {type(g).__name__}")
        if g.dim != g0.dim:
            raise ValueError(f"mixed dimension in one batch: {g0.dim} and {g.dim}")
    grid = _shared_grid(grid)
    d = g0.dim
    rho_inits = [as_matrix(rho0).copy() for rho0 in rho0s]
    for b, m in enumerate(rho_inits):
        if m.shape != (d, d):
            raise ValueError(f"dimension mismatch: generator dim {d}, state shape {m.shape}")
        _check_density(m, f"rho0s[{b}]")

    states, coefficients = _step_batch(gens, rho_inits, grid)
    trajectories = []
    for b, g in enumerate(gens):
        with np.errstate(over="ignore", invalid="ignore"):  # a speed that overflows is named below
            speeds = generation_speed(rho_inits[b], g.action(states[b], coefficients[b]))
        bad = np.flatnonzero(~np.isfinite(speeds))
        if len(bad):
            member = f"batch member {b}: " if len(gens) > 1 else ""
            raise ValueError(
                f"{member}generation speed ||[rho0, L rho_t]|| is {speeds[bad[0]]} at t = {grid[bad[0]]:.6g}: "
                "the generator's rates overflow double precision"
            )
        trajectories.append(
            Trajectory(
                grid=grid,
                states=states[b],
                rho0=rho_inits[b],
                q_samples=quantumness(rho_inits[b], states[b]),
                speed_samples=speeds,
                coefficients=coefficients[b],
                generator=g,
            )
        )
    return trajectories


def _check_density(rho: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` and its failed defects unless ``rho`` is a density matrix."""
    _check_finite(**{name: rho})  # before the eigensolver, which fails on it
    diag = validate_density(rho)
    if diag.passed:
        return
    defects = [
        f"{label} {value:.3e}"
        for label, value, bad in (
            ("hermiticity defect", diag.hermiticity_defect, diag.hermiticity_defect > diag.tol),
            ("trace defect", diag.trace_defect, diag.trace_defect > diag.tol),
            ("min eigenvalue", diag.min_eigenvalue, diag.min_eigenvalue < -diag.tol),
        )
        if bad
    ]
    raise ValueError(f"invalid argument {name!r}: not a density matrix within {diag.tol:g} ({', '.join(defects)})")


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().mT)


def _rk4_increment(act, rho: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
    """The fourth-order increment ``(h/6)(k1 + 2 k2 + 2 k3 + k4)`` from ``rho``.

    ``c0``, ``c_mid`` and ``c1`` are the table entries at the start, the
    midpoint and the end of the step, broadcast against ``rho``; a stack
    of states and entries takes every step of a chunk at once.
    """
    k1 = act(rho, c0)
    k2 = act(rho + 0.5 * h * k1, c_mid)
    k3 = act(rho + 0.5 * h * k2, c_mid)
    k4 = act(rho + h * k3, c1)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _scan(act, rho_lo: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
    """Estimates ``(B, m, d, d)`` of a chunk's states after each of its ``m`` steps, re-Hermitized.

    One step of a linear generator is a linear map on ``vec(rho)``; its
    matrix is the step applied to the ``d^2`` basis matrices.  The states
    are the start state times the inclusive prefix products of these
    maps, taken by doubling (Hillis-Steele) in ``log2 m`` batched products.
    """
    b, m = c0.shape[:2]
    d = rho_lo.shape[-1]
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    # row j of transfer[:, k] is vec of basis matrix j after step k, so a row vector steps as x @ transfer
    transfer = basis + _rk4_increment(act, basis, c0[:, :, None], c_mid[:, :, None], c1[:, :, None], h)
    transfer = transfer.reshape(b, m, d * d, d * d)
    shift = 1
    while shift < m:
        transfer[:, shift:] = transfer[:, :-shift] @ transfer[:, shift:]
        shift *= 2
    return _hermitize((rho_lo.reshape(b, 1, 1, d * d) @ transfer).reshape(b, m, d, d))


def _settle(act, x: np.ndarray, c0, c_mid, c1, h: float) -> tuple:
    """Sweep a chunk's state estimates onto the rounding of the sequential steps.

    ``x`` is ``(B, m + 1, d, d)``: the chunk's start state, then the
    estimates after each step.  A sweep takes every step's increment from
    the current estimates and adds them up from the start state with
    ``np.cumsum``, which adds in order, so each entry is the rounded
    ``rho + increment`` of one sequential step, and re-Hermitizes.  Sweeps
    repeat until one changes no bit, at most ``POSITIVITY_SCAN_STEPS``
    times.  Where re-Hermitization is exact (dephasing, dissipation) a
    sweep fixes at least one more state, so the result is the sequential
    steps' bit for bit.  Returns the ``m`` states and the sweep count.
    """
    for sweeps in range(1, POSITIVITY_SCAN_STEPS + 1):
        new = np.cumsum(np.concatenate([x[:, :1], _rk4_increment(act, x[:, :-1], c0, c_mid, c1, h)], axis=1), axis=1)
        new[:, 1:] = _hermitize(new[:, 1:])
        if np.array_equal(new.view(np.uint64), x.view(np.uint64)):
            break
        x = new
    return x[:, 1:], sweeps


def _step_batch(gens: list, rho_inits: list, grid: np.ndarray) -> tuple:
    """The fourth-order steps of :func:`propagate_many`: ``(B, n, d, d)`` states and each
    member's owned copy of its grid-time table rows.

    The grid is taken in chunks of ``POSITIVITY_SCAN_STEPS`` grid times.
    A chunk estimates its states by the family's ``estimate_chunk``, sweeps
    them onto the sequential steps' rounding (:func:`_settle`) and checks
    them for positivity; its last step gives the next chunk's start state.
    Only one chunk's work arrays are alive at a time, and the midpoint rows
    are freed on return.
    """
    n = len(grid)
    d = gens[0].dim
    h = float(grid[1] - grid[0])
    times = np.empty(2 * n - 1)
    times[0::2] = grid
    times[1::2] = grid[:-1] + 0.5 * h
    table = np.stack([g.coefficients(times) for g in gens])  # (B, 2n - 1, ...)
    act, estimate = gens[0].action, gens[0].estimate_chunk
    states = np.empty((len(gens), n, d, d), dtype=complex)
    states[:, 0] = rho_inits
    # a run that loses positivity can overflow before its chunk is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, POSITIVITY_SCAN_STEPS):
            hi = min(lo + POSITIVITY_SCAN_STEPS, n)
            m = min(hi, n - 1) - lo  # steps from lo; the last one gives the next chunk's start
            if m:
                rows = table[:, 2 * lo:2 * (lo + m) + 1]
                c0, c_mid, c1 = rows[:, 0:-1:2], rows[:, 1::2], rows[:, 2::2]
                start = states[:, lo:lo + 1]
                x = np.concatenate([start, estimate(start[:, 0], c0, c_mid, c1, h)], axis=1)
                states[:, lo + 1:lo + m + 1] = _settle(act, x, c0, c_mid, c1, h)[0]
            _check_positivity(states, lo, hi, grid)
    return states, [table[b, 0::2].copy() for b in range(len(gens))]


def dephasing_closed_state(theta: float, tau: float, m: MemoryFunctions) -> np.ndarray:
    """Closed-form dephased state of ``cos(theta)|1> + sin(theta)|0>``.

    Populations are conserved; the coherence is damped by the accumulated
    exponent ``beta(tau)``.
    """
    theta = _check_number(theta, "theta")
    beta = m.beta(tau)
    s, c = math.sin(theta), math.cos(theta)
    off = s * c * math.exp(-beta)
    return np.array([[c * c, off], [off, s * s]], dtype=complex)


def dissipation_closed_state(theta: float, tau: float, m: MemoryFunctions) -> np.ndarray:
    """Closed-form dissipated state of ``cos(theta)|1> + sin(theta)|0>``.

    The excited population decays as ``exp(-2 xi)`` and the coherence as
    ``exp(-xi)``, with ``xi`` the running integral of the memory function.
    """
    theta = _check_number(theta, "theta")
    xi = m.xi(tau)
    s, c = math.sin(theta), math.cos(theta)
    pop = c * c * math.exp(-2.0 * xi)
    coh = s * c * math.exp(-xi)
    return np.array([[pop, coh], [coh, 1.0 - pop]], dtype=complex)
