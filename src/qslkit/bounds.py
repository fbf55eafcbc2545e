"""Speed-limit timescales for the generation of quantumness.

The central bound reads

    tau  >=  tau_Q  =  sqrt(Q(rho0, rho_tau) / 2) / mean_t ||[rho0, L rho_t]||

with the time average taken over the whole history ``[0, tau]`` (it can
never be collapsed to the endpoint value, even for time-independent
generators).  This module evaluates the bound numerically from
trajectories, provides the closed forms available for dephasing and
unitary driving, the weaker fidelity-decay bound ``tau_B`` for
comparison, and the exact crossing times used to test tightness.

A trajectory's targets are evaluated in one pass, :func:`evaluate_crossings`:
one boolean pass over the witness samples finds every first upcrossing,
and the timescales are array expressions over the targets, with the bits
of the per-target code.  Only the refinement of a crossing inside its grid
interval and each target's prefix sum of the trapezoid terms are taken per
target.  :func:`tau_q_from_trajectory` and :func:`tau_b_fidelity` take the
same steps at any one time of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import Trajectory, UnitaryControl
from .matcore import _check_number, _product
from .memory import MemoryFunctions

#: Bisection bracket (in units of 1/coupling) for inverting the dephasing exponent, doubled until it holds the root.
BISECTION_SPAN = 1e3

#: Relative tolerance of the bisection solve.
BISECTION_RTOL = 1e-10

#: Threshold of the dimensionless sine and witness tests; rates, which carry a unit of time, are tested for exact zeros.
_ZERO = 1e-14


@dataclass(frozen=True)
class BoundReport:
    """The crossing and all timescales of one quantumness target on one trajectory.

    A timescale is ``None`` for an unreached target.  A fidelity bound is
    also ``None`` when not asked for or when its denominator vanishes, and
    ``tau_q_closed`` where no closed form was added.
    """

    q_target: float
    reached: bool
    tau_exact: Optional[float]
    tau_q_numeric: Optional[float] = None
    tau_q_closed: Optional[float] = None
    tau_b: Optional[float] = None
    tau_b_avg: Optional[float] = None

    @property
    def slack(self) -> Optional[float]:
        if self.tau_exact is None or self.tau_q_numeric is None:
            return None
        return self.tau_exact - self.tau_q_numeric


def _running_mean(traj: Trajectory, values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Trapezoidal time averages over ``[0, tau]`` of samples taken on the trajectory grid, one per time of ``taus``.

    Inside the last grid interval the samples are interpolated linearly;
    at ``tau = 0`` the average is the first sample.  ``np.trapezoid``'s
    own terms are taken once, and each time sums its own prefix of them,
    so each area has the bits of ``np.trapezoid(values[:k + 1], dx=h)``
    (a cumulative sum adds in another order).
    """
    k, w = traj._locate(taus)
    h = traj.step
    terms = h * (values[1:] + values[:-1]) / 2.0
    area = np.array([terms[:j].sum() for j in k.tolist()])
    v_tau = (1.0 - w) * values[k] + w * values[k + 1]
    area = np.where(w > 0.0, area + 0.5 * (values[k] + v_tau) * (w * h), area)
    zero = taus == 0.0
    return np.where(zero, values[0], area / np.where(zero, 1.0, taus))


def _tau_q(traj: Trajectory, taus: np.ndarray, q_values: np.ndarray) -> np.ndarray:
    """``sqrt(q / 2) / mean speed`` at each time of ``taus`` with its witness value of ``q_values``."""
    numerator = np.sqrt(np.maximum(q_values, 0.0) / 2.0)
    denominator = _running_mean(traj, traj.speed_samples, taus)
    idle = denominator == 0.0
    if np.any(idle & ~(numerator < _ZERO)):
        raise ValueError("no quantumness generation channel (zero mean speed)")
    return np.where(idle, 0.0, numerator / np.where(idle, 1.0, denominator))


def tau_q_from_trajectory(traj: Trajectory, tau: float, q_value: Optional[float] = None) -> float:
    """Numeric speed-limit time ``sqrt(Q(tau)/2) / mean speed`` at time ``tau``.

    ``tau`` may be any time inside the grid (off-grid values are
    interpolated); grid times are evaluated exactly.  When ``tau`` is a
    crossing time the caller knows ``Q(tau)`` exactly and should pass it
    as ``q_value`` to bypass the interpolation of the witness samples.
    """
    k, w = traj.locate(tau)
    if q_value is None:
        q = traj.q_samples
        q_value = (1.0 - w) * q[k] + w * q[k + 1] if w > 0.0 else q[k]
    return float(_tau_q(traj, np.array([tau], dtype=float), np.array([q_value], dtype=float))[0])


def _refine_crossing(traj: Trajectory, k: int, q_target: float) -> float:
    """Crossing time inside ``[grid[k-1], grid[k]]``, one order beyond linear.

    Fits the local quadratic in time through the bracket plus one neighbor
    and solves it for the target inside the bracket; this stays accurate
    even for the quadratic/quartic departure of the witness from zero,
    where interpolating the inverse map breaks down.  Falls back to the
    linear estimate when the refined root escapes the bracket.
    """
    grid = traj.grid
    q = traj.q_samples
    t_lo, t_hi = float(grid[k - 1]), float(grid[k])
    h = t_hi - t_lo
    linear = t_lo + h * (q_target - q[k - 1]) / (q[k] - q[k - 1])
    if k + 1 < len(q):
        ks = (k - 1, k, k + 1)
    elif k - 2 >= 0:
        ks = (k - 2, k - 1, k)
    else:
        return linear
    t0, t1, t2 = (float(grid[i]) for i in ks)
    q0, q1, q2 = (float(q[i]) for i in ks)
    # Newton divided differences: q(t) = q0 + d1 (t-t0) + d2 (t-t0)(t-t1)
    d1 = (q1 - q0) / (t1 - t0)
    d2 = ((q2 - q1) / (t2 - t1) - d1) / (t2 - t0)
    # root of a u^2 + b u + c in u = t - t0, restricted to the bracket
    a = d2
    b = d1 - d2 * (t1 - t0)
    c = q0 - q_target
    if a == 0.0:
        return linear
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return linear
    sq = math.sqrt(disc)
    u_lo, u_hi = t_lo - t0, t_hi - t0
    for u in ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)):
        if u_lo - 1e-12 <= u <= u_hi + 1e-12:
            return min(max(t0 + u, t_lo), t_hi)
    return linear


def _crossings(traj: Trajectory, q_targets) -> list:
    """``(q_target, time)`` per target, ``time`` ``None`` if unreached, from one boolean pass over the witness samples."""
    targets = np.array([_check_number(q, "q_target") for q in q_targets], dtype=float)
    if np.any(targets < 0.0):
        raise ValueError(f"quantumness target must be nonnegative, got {targets[targets < 0.0][0]}")
    q = traj.q_samples
    # grid index k >= 1 of each target's first upcrossing; a target above q[0] has q[k - 1] below it
    up = q[1:] >= targets[:, None]
    first = np.argmax(up, axis=1) + 1
    found = up[np.arange(len(targets)), first - 1]
    q0, t0 = float(q[0]), float(traj.grid[0])
    results = []
    for q_target, k, hit in zip(targets.tolist(), first.tolist(), found.tolist()):
        if q_target <= q0:
            results.append((q_target, t0))
        else:
            results.append((q_target, _refine_crossing(traj, k, q_target) if hit else None))
    return results


def _tau_b(traj: Trajectory, taus: np.ndarray) -> tuple:
    """Both fidelity bounds at each time of ``taus``: two lists, ``None`` where ``||L rho0||`` vanishes.

    The fidelities ``Tr(rho0 rho_t)`` at the bracketing grid times come
    from one stacked product of the states with ``rho0``.
    """
    k, w = traj._locate(taus)
    f = np.trace(_product(traj.rho0, traj.states[np.concatenate([k, k + 1])]), axis1=-2, axis2=-1).real
    f_k, f_k1 = f[: len(k)], f[len(k):]
    gap = np.abs(1.0 - np.where(w > 0.0, (1.0 - w) * f_k + w * f_k1, f_k))
    norms = traj.lrho0_norms
    variants = []
    for denom in (np.full(len(k), norms[0]), _running_mean(traj, norms, taus)):
        frozen = denom == 0.0
        tau_b = gap / np.where(frozen, 1.0, denom)
        variants.append([None if z else b for z, b in zip(frozen.tolist(), tau_b)])
    return tuple(variants)


def evaluate_crossings(traj: Trajectory, q_targets, fidelity: bool = False) -> list:
    """One evaluation pass over a trajectory's targets: a :class:`BoundReport` per target, in order.

    Each reached target takes ``tau_q_numeric`` (its exact value in the
    numerator) and, with ``fidelity``, both fidelity bounds: ``tau_b``
    with the initial denominator and ``tau_b_avg`` with the averaged one.
    Without ``fidelity`` neither they nor the trajectory's
    ``lrho0_norms`` are computed.  The pass leaves ``tau_q_closed`` unset.
    """
    crossings = _crossings(traj, q_targets)
    reached = [(q, t) for q, t in crossings if t is not None]
    if not reached:
        return [BoundReport(q, False, None) for q, _ in crossings]
    targets, times = np.array(reached).T
    tau_q = _tau_q(traj, times, targets)
    tau_b = _tau_b(traj, times) if fidelity else ([None] * len(reached),) * 2
    timescales = iter(zip(tau_q, *tau_b))
    reports = []
    for q, t in crossings:
        numeric, b, b_avg = (None,) * 3 if t is None else next(timescales)
        reports.append(BoundReport(q, t is not None, t, numeric, tau_b=b, tau_b_avg=b_avg))
    return reports


def quantumness_dephasing(theta: float, beta: float) -> float:
    """Closed-form dephasing witness ``(1/4) sin^2(4 theta) (1 - e^{-beta})^2``."""
    theta, beta = _check_number(theta, "theta"), _check_number(beta, "beta")
    return 0.25 * math.sin(4.0 * theta) ** 2 * (-math.expm1(-beta)) ** 2


def tau_q_dephasing(q: float, theta: float, m: MemoryFunctions) -> float:
    """Time needed to dephase to witness value ``q`` from angle ``theta``.

    Memoryless branch inverts the closed form directly; the finite-memory
    branch solves ``beta(tau) = -ln(1 - 2 sqrt(q)/|sin 4theta|)`` by
    monotone bisection.
    """
    if not _check_number(q, "q") >= 0.0:
        raise ValueError(f"invalid argument 'q': quantumness must be finite and nonnegative, got {q}")
    theta = _check_number(theta, "theta")
    s4 = abs(math.sin(4.0 * theta))
    if s4 < _ZERO:
        raise ValueError("no coherence channel (sin 4theta = 0)")
    x = 2.0 * math.sqrt(q) / s4
    if x >= 1.0:
        raise ValueError(
            f"unreachable quantumness for this initial state (2 sqrt(q)/|sin 4theta| = {x:.6g})"
        )
    beta_target = -math.log1p(-x)
    if m.markov:
        return beta_target / (2.0 * m.coupling)
    cap = float(np.finfo(float).max)
    lo, hi = 0.0, min(BISECTION_SPAN / m.coupling, cap)
    while m.beta(hi) < beta_target:  # beta >= 2 Gamma (tau - 1/gamma) grows without bound
        if hi == cap:
            raise ValueError(f"quantumness target q = {q!r} is unreachable in double precision (tau > {cap:.6g})")
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > BISECTION_RTOL * max(1.0, hi):
        mid = 0.5 * lo + 0.5 * hi  # halving is exact, so these are the bits of 0.5 * (lo + hi), without its overflow
        if m._beta(mid) < beta_target:  # inside the checked bracket
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def unitary_speed_squared(c: UnitaryControl, t):
    """Squared generation speed of the two-angle control at time ``t``, or an array for an array of times.

    Evaluated verbatim, with squares taken by ``pow`` (``np.float_power``) as
    in :func:`~qslkit.generators.hamiltonian_2l`.  The mixed rate term can
    turn negative for some controls; callers must surface that instead of
    taking absolute values (the fully numeric trajectory route is the cross-check).
    """
    times = np.asarray(t, dtype=float)
    th = c.theta(times)
    thd = c.theta_rate
    al = c.alpha(times)
    ald = c.alpha_rate
    sin_th = np.sin(th)
    sin2_th = np.float_power(sin_th, 2.0)
    inner = ald * np.float_power(np.cos(al), 2.0) * sin_th + thd * np.sin(2.0 * al)
    mixed = -2.0 * ald * sin2_th * np.sin(4.0 * th) * inner
    x = mixed + 2.0 * thd**2 * np.float_power(np.cos(2.0 * th), 2.0) + ald**2 * sin2_th
    return float(x) if times.ndim == 0 else x


def tau_q_unitary(c: UnitaryControl, tau: float) -> float:
    """Closed-route speed-limit time for the two-angle unitary control.

    Numerator ``|sin 2 theta(tau)| / sqrt(2)``; denominator the
    trapezoidal average of the closed-form speed over ``[0, tau]``.
    """
    if not _check_number(tau, "tau") > 0.0:
        raise ValueError(f"invalid argument 'tau': must be a finite positive time, got {tau}")
    s2 = math.sin(2.0 * c.theta(tau))
    if abs(s2) < _ZERO:
        raise ValueError("commuting endpoint, Q = 0 (sin 2theta(tau) = 0)")
    ts = np.linspace(0.0, tau, 10_000)
    x = unitary_speed_squared(c, ts)
    bad = np.nonzero(x < -1e-12 * max(1.0, float(np.max(np.abs(x)))))[0]
    if len(bad):
        k = int(bad[0])
        raise ValueError(
            f"negative speed argument X = {x[k]:.6g} at t = {ts[k]:.6g} "
            "(sample outside the closed form's validity; use the numeric route)"
        )
    mean_speed = float(np.trapezoid(np.sqrt(np.clip(x, 0.0, None)), ts)) / tau
    if mean_speed == 0.0:
        raise ValueError("no quantumness generation channel (zero mean speed)")
    return abs(s2) / (math.sqrt(2.0) * mean_speed)


def quantumness_dissipation(theta: float, xi: float) -> float:
    """Closed-form dissipation witness ``sin^2(2 theta) (1 - 2 e^{-2 xi} cos^2 theta + e^{-xi} cos 2theta)^2``.

    ``xi`` is the running integral of the memory function.  The witness
    vanishes identically at ``sin 2theta = 0`` and that input is rejected.
    """
    theta, xi = _check_number(theta, "theta"), _check_number(xi, "xi")
    s2 = math.sin(2.0 * theta)
    if abs(s2) < _ZERO:
        raise ValueError("quantumness identically zero (sin 2theta = 0)")
    inner = 1.0 - 2.0 * math.exp(-2.0 * xi) * math.cos(theta) ** 2 + math.exp(-xi) * math.cos(2.0 * theta)
    return s2**2 * inner**2


def speed_dissipation(theta: float, t: float, m: MemoryFunctions) -> float:
    """Closed-form generation speed of the dissipation model at time ``t``."""
    theta = _check_number(theta, "theta")
    p = m.p(t)
    xi = m.xi(t)
    s2 = math.sin(2.0 * theta)
    cos2 = math.cos(theta) ** 2
    term = p * math.exp(-xi) * math.cos(2.0 * theta) - 4.0 * p * math.exp(-2.0 * xi) * cos2
    return abs(s2 * term) / math.sqrt(2.0)


def tau_b_fidelity(traj: Trajectory, tau: float, denominator: str = "initial") -> float:
    """Fidelity-decay bound ``|1 - Tr(rho0 rho_tau)| / ||L rho0||``.

    ``denominator="initial"`` applies the generator to the initial state
    at ``t = 0`` (the literal form); ``"averaged"`` replaces it with the
    time average of ``||L_t rho0||`` over ``[0, tau]``, which stays finite
    for kernels whose rate vanishes at ``t = 0``.  Both read the norms the
    trajectory computes once, on first use.
    """
    if denominator not in ("initial", "averaged"):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    initial, averaged = _tau_b(traj, np.array([_check_number(tau, "tau")]))
    value = (initial if denominator == "initial" else averaged)[0]
    if value is None:
        raise ValueError("frozen initial state (||L rho0|| = 0)")
    return float(value)
