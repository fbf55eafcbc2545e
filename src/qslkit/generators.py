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

Propagation uses classical fourth-order fixed steps on a uniform grid,
``np.linspace(0.0, tau_max, grid_points)`` made once per batch, so that the
trajectory shares its sampling with the time averages taken by the bounds
module.  Scenarios of one family that share a grid are stepped together as
one ``(B, d, d)`` stack; a single scenario is a batch of one.
The steps are taken on a sliding exact frontier, with no Python loop over
single steps: states up to the frontier are final, and the states past it
are estimates.  Each step of a linear generator is a linear map on
``vec(rho)``, and one rule estimates a block of ``POSITIVITY_SCAN_STEPS``
states: carry the start state through each step's map in order.  For
dephasing and dissipation, whose maps act entry by entry, that is one
cumulative product of scalar factors; for the unitary families it is a
product of ``d^2 x d^2`` transfer matrices, one after another.  The
unitary action is a sum of ``d`` broadcast outer products, with no BLAS
call per ``d x d`` matrix; only the estimate's products with the
transfer matrices keep ``@``.  A sweep takes the increments of the
``POSITIVITY_SCAN_STEPS`` steps past the frontier from the current
estimates, adds them in order onto the running sum at the frontier and
re-Hermitizes: the first state it changes is final, as is every state
before it, so the frontier moves there and the later states are the next
estimates.  The states are the sequential steps' rounding: bit for bit for
dephasing and dissipation, within 1e-15 for the unitary families.  Real
start states of a family with a real-valued stepping (its ``real_action``:
dephasing, dissipation and three-level passage) are stepped in ``float64``,
with the bits of complex stepping; the states are complex from the
post-pass on.  A
sweep writes each state from the states before it alone, so the estimate
sets only the sweep count, never a bit.  Every ``POSITIVITY_SCAN_STEPS``
newly final states are checked for positivity; a loss beyond tolerance
stops the run there, naming the first grid time where it shows, instead
of being projected away, so genuine integrator or model errors are never
masked.  The witness and speed samples follow, per member.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _check_finite,
    _check_integer,
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

#: Grid times per window of propagation: the steps a sweep takes past the exact frontier, the states
#: estimated at once, and the newly final states checked for positivity at once.
POSITIVITY_SCAN_STEPS = 256

_TRANSFER_PIECE = 64  # steps whose transfer matrices are built at once, which bounds the basis action's temporaries

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
    estimates a block of states past the frontier, which sets only the
    sweep count of :func:`_sweep`: it carries the start state through
    each step's map in order, by default as a product of transfer
    matrices, which any linear action takes.  ``real_action`` is the action
    on real states, for a family whose stepping keeps a real state real with
    the table it tabulates; real start states then step in ``float64``, and
    the estimates follow the states' dtype.  A subclass that overrides
    ``action`` or ``coefficients`` steps in complex arithmetic unless it
    declares its own ``real_action``.
    """

    real_action = None  # complex stepping only

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a new action or table voids the real action declared for the old ones, unless the class declares its own
        if "real_action" not in vars(cls) and {"action", "coefficients"} & vars(cls).keys():
            cls.real_action = None

    def _action_for(self, x: np.ndarray):
        """The action that steps states of ``x``'s dtype: ``real_action`` on a real array."""
        return self.action if np.iscomplexobj(x) else self.real_action

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        """``L_t rho`` at one time, for a state or a stack of states of the family's dimension."""
        m = as_matrix(rho)
        if m.shape[-1] != self.dim:
            raise ValueError(f"invalid argument 'rho': must be of the generator's dimension {self.dim}, got {m.shape[-1]}")
        return self.action(m, self.coefficients([t])[0])

    def estimate_chunk(self, rho_lo: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
        """Estimates ``(B, m, d, d)`` of the states after each of ``m`` steps from ``rho_lo``, re-Hermitized.

        One step of a linear generator is a linear map on ``vec(rho)``; its
        matrix is the step applied to the ``d^2`` basis matrices, built
        ``_TRANSFER_PIECE`` steps at a time.  The start state is carried
        through these maps in order.
        """
        b, m = c0.shape[:2]
        d = rho_lo.shape[-1]
        act = self._action_for(rho_lo)
        basis = np.eye(d * d, dtype=rho_lo.dtype).reshape(d * d, d, d)
        x = np.empty((b, m + 1, 1, d * d), dtype=rho_lo.dtype)
        x[:, 0, 0] = rho_lo.reshape(b, d * d)
        for lo in range(0, m, _TRANSFER_PIECE):
            hi = min(lo + _TRANSFER_PIECE, m)
            rows = (c[:, lo:hi, None] for c in (c0, c_mid, c1))
            # row j of transfer[:, k] is vec of basis matrix j after step k, so a row vector steps as x @ transfer
            transfer = (basis + _rk4_increment(act, basis, *rows, h)).reshape(b, hi - lo, d * d, d * d)
            for k in range(lo, hi):
                np.matmul(x[:, k], transfer[:, k - lo], out=x[:, k + 1])
        return _hermitize(x[:, 1:].reshape(b, m, d, d))


class _Entrywise(_TabulatedGenerator):
    """Families whose action scales each entry of ``rho`` by its own rate,
    except that it may feed the other diagonal entries into the last one.

    A step then multiplies each entry by a scalar factor, the step applied
    to the all-ones matrix, so a block's estimates are one cumulative
    product of these factors.  The last diagonal entry, the one fed, is
    restored from the trace, which a traceless action keeps.  A family of
    another form would reach the same states, after more sweeps.
    """

    def __post_init__(self):
        if not isinstance(self.memory, MemoryFunctions):
            raise ValueError(f"invalid field 'memory': must be a MemoryFunctions, got {self.memory!r}")

    def estimate_chunk(self, rho_lo: np.ndarray, c0, c_mid, c1, h: float) -> np.ndarray:
        d = rho_lo.shape[-1]
        factor = 1.0 + _rk4_increment(self._action_for(rho_lo), np.ones((d, d)), c0, c_mid, c1, h)
        x = rho_lo[:, None] * np.cumprod(factor, axis=1)
        diag = x.diagonal(axis1=-2, axis2=-1)
        x[..., -1, -1] = np.trace(rho_lo, axis1=-2, axis2=-1)[:, None] - diag[..., :-1].sum(axis=-1)
        return x


class _Unitary(_TabulatedGenerator):
    def __post_init__(self):
        if not isinstance(self.control, UnitaryControl):
            raise ValueError(f"invalid field 'control': must be a UnitaryControl, got {self.control!r}")

    def action(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``-i [H, rho]`` with ``H`` the tabulated Hamiltonian (see :func:`_commutator`)."""
        out = _commutator(h, rho)
        out *= -1j
        return out


def _commutator(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``[a, rho]`` summed over ``k`` as broadcast outer products ``a[:, k] rho[k, :] - rho[:, k] a[k, :]``:
    no BLAS call per ``d x d`` matrix, and a stacked call gives each member the bits of its single call."""
    out = a[..., :, :1] * rho[..., :1, :] - rho[..., :, :1] * a[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * rho[..., k:k + 1, :] - rho[..., :, k:k + 1] * a[..., k:k + 1, :]
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

    def real_action(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``action`` on real states: ``-i [iA, rho] = [A, rho]`` with the real ``A = h.imag``, summed in
        ``action``'s order, so the result is the real part of ``action``'s."""
        return _commutator(h.imag, rho)


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

    real_action = action  # a real rate keeps a real state real


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

    real_action = action  # a real rate keeps a real state real


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
        outside = (taus < -1e-12 * grid[-1]) | (taus > grid[-1] * (1.0 + 1e-12))
        if outside.any():
            raise ValueError(f"invalid argument 'tau': must be on the grid [0, {grid[-1]}], got {taus[outside][0]}")
        taus = np.minimum(np.maximum(taus, 0.0), float(grid[-1]))
        h = self.step
        k = np.minimum((taus / h).astype(np.intp), len(grid) - 2)
        return k, (taus - grid[k]) / h

    @functools.cached_property
    def lrho0_norms(self) -> np.ndarray:
        """``||L_t rho0||`` at every grid time, computed on first use."""
        return hs_norm(self.generator.action(self.rho0, self.coefficients))


def propagate(g: Generator, rho0: np.ndarray, tau_max: float, grid_points: int) -> Trajectory:
    """Propagate ``rho0`` up to ``tau_max``: :func:`propagate_many` with one member."""
    return propagate_many([g], [rho0], tau_max, grid_points)[0]


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


def propagate_many(gens, rho0s, tau_max: float, grid_points: int) -> list:
    """Propagate one initial state per generator up to ``tau_max``, all in one batch.

    The batch shares one uniform grid, made here from a number ``tau_max > 0``
    and an integer ``grid_points >= 2`` as ``np.linspace(0.0, tau_max,
    grid_points)``; its step must be a normal float (``>= sys.float_info.min``),
    or the grid times would round onto each other.  The generators must be of
    one family and dimension, and each initial state a density matrix
    (:func:`~qslkit.matcore.validate_density`).  Each family's coefficient
    table is built once, at the grid times and the midpoints (``2n - 1``
    times); the fourth-order steps are then taken for the whole ``(B, d, d)``
    stack by sweeps of up to ``POSITIVITY_SCAN_STEPS`` grid times (see
    :func:`_step_batch`).  The final states are checked, and
    :class:`PositivityLossError` stops the run at the first grid time whose
    smallest eigenvalue is below ``-POSITIVITY_ABORT`` or whose state is no
    longer finite.  The witness samples and the generation speeds
    ``||[rho0, L_t rho_t]||`` are taken per member afterwards, each as one
    stacked pass over its states, and each member keeps its own copy of the
    table's grid-time rows.  A speed that is not finite, as when the rates are
    so large that its square overflows, raises ``ValueError`` naming the
    member and the first grid time.  A member's trajectory is the one it gets
    when propagated alone.
    """
    gens, rho0s = list(gens), list(rho0s)
    if not gens or len(gens) != len(rho0s):
        raise ValueError(f"invalid argument 'gens': must be one per initial state, at least one, got {len(gens)} for {len(rho0s)}")
    g0 = gens[0]
    for g in gens[1:]:
        if type(g) is not type(g0):
            raise ValueError(f"invalid argument 'gens': must be of one family, got {type(g0).__name__} and {type(g).__name__}")
        if g.dim != g0.dim:
            raise ValueError(f"invalid argument 'gens': must be of one dimension, got {g0.dim} and {g.dim}")
    tau_max, grid_points = _check_number(tau_max, "tau_max", gt=0.0), _check_integer(grid_points, "grid_points", ge=2)
    grid = np.linspace(0.0, tau_max, grid_points)
    if grid[1] < sys.float_info.min:  # the step: a subnormal one rounds grid times onto each other
        must = f"must give a grid step >= {sys.float_info.min!r}"
        raise ValueError(f"invalid arguments 'tau_max' and 'grid_points': {must}, got {tau_max!r} and {grid_points!r}")
    d = g0.dim
    rho_inits = [as_matrix(rho0).copy() for rho0 in rho0s]
    for b, m in enumerate(rho_inits):
        if m.shape != (d, d):
            raise ValueError(f"invalid argument 'rho0s[{b}]': must be {d} x {d} as the generators, got shape {m.shape}")
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
    of states and entries takes every step of a window at once.
    """
    k1 = act(rho, c0)
    k2 = act(rho + 0.5 * h * k1, c_mid)
    k3 = act(rho + 0.5 * h * k2, c_mid)
    k4 = act(rho + h * k3, c1)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sweep(act, x: np.ndarray, total: np.ndarray, c0, c_mid, c1, h: float) -> tuple:
    """One sweep of a window past the exact frontier, in place.

    ``x`` is ``(B, m + 1, d, d)``: the final state at the frontier, then
    the estimates after each of the window's ``m`` steps; ``total`` is the
    running sum at the frontier, the state before its re-Hermitization.
    The sweep takes every step's increment from the current estimates,
    adds them in order onto ``total`` with ``np.cumsum``, so each entry is
    the rounded ``rho + increment`` of one sequential step, re-Hermitizes
    and writes the results over the estimates.  The first state that moved
    by a bit in any member is final, since it was taken from final states
    alone, and so is every state before it.  Returns how many of the ``m``
    states are now final (at least one; all ``m`` when none moved) and the
    running sum at the last of them.
    """
    sums = np.cumsum(np.concatenate([total[:, None], _rk4_increment(act, x[:, :-1], c0, c_mid, c1, h)], axis=1), axis=1)
    new = _hermitize(sums[:, 1:])
    moved = np.not_equal(new.view(np.uint64), x[:, 1:].view(np.uint64)).any(axis=(0, 2, 3))
    final = int(moved.argmax()) + 1 if moved.any() else len(moved)
    x[:, 1:] = new
    return final, sums[:, final].copy()


def _step_batch(gens: list, rho_inits: list, grid: np.ndarray) -> tuple:
    """The fourth-order steps of :func:`propagate_many`: ``(B, n, d, d)`` states and each
    member's owned copy of its grid-time table rows.

    States up to the frontier ``j`` are final; the states past it hold estimates.  Each
    :func:`_sweep` takes the window of the next ``POSITIVITY_SCAN_STEPS`` steps and moves the
    frontier past the states it made final.  When the window passes the estimates,
    ``estimate_chunk`` extends them by one block of that many steps: from the state there if it
    is final, or if only the first window swept it, from estimates no sweep had moved; else from
    the last estimate, since at fast rates repeated sweeps can move a state far past the frontier
    off its final bits before they settle it.  Each ``POSITIVITY_SCAN_STEPS`` newly final states,
    and the last ones, are checked for positivity.  Only one window's work arrays are alive at a
    time, and the midpoint rows are freed on return.  Real start states of a family with a ``real_action``
    step as the states' real parts, in place.
    """
    n = len(grid)
    d = gens[0].dim
    h = float(grid[1] - grid[0])
    times = np.empty(2 * n - 1)
    times[0::2] = grid
    times[1::2] = grid[:-1] + 0.5 * h
    table = np.stack([g.coefficients(times) for g in gens])  # (B, 2n - 1, ...)

    def steps(lo, hi):  # the table entries at the start, midpoint and end of the steps from lo to hi
        rows = table[:, 2 * lo:2 * hi + 1]
        return rows[:, 0:-1:2], rows[:, 1::2], rows[:, 2::2]

    g0, w = gens[0], POSITIVITY_SCAN_STEPS
    states = np.zeros((len(gens), n, d, d), dtype=complex)  # zeros: the imaginary parts a real run never writes
    states[:, 0] = rho_inits
    x = states.real if g0.real_action is not None and not states[:, 0].imag.any() else states
    act = g0._action_for(x)
    total = x[:, 0].copy()
    j = known = checked = 0  # states to j are final, estimates reach known, and states before checked passed
    # a run that loses positivity can overflow before its states are checked
    with np.errstate(over="ignore", invalid="ignore"):
        while j < n - 1:
            hi = min(j + w, n - 1)
            if known < hi:
                top = min(known + w, n - 1)
                start = x[:, known] if known <= max(j, w) else tail  # final, or the first window's end
                x[:, known + 1:top + 1] = g0.estimate_chunk(start, *steps(known, top), h)
                known, tail = top, x[:, top].copy()
            final, total = _sweep(act, x[:, j:hi + 1], total, *steps(j, hi), h)
            j += final
            if j + 1 - checked >= w or j == n - 1:
                _check_positivity(states, checked, j + 1, grid)
                checked = j + 1
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
