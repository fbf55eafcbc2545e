"""Speed-limit timescales for the generation of quantumness.

The central bound reads

    tau  >=  tau_Q  =  sqrt(Q(rho0, rho_tau) / 2) / mean_t ||[rho0, L rho_t]||

with the time average taken over the whole history ``[0, tau]`` (it can
never be collapsed to the endpoint value, even for time-independent
generators).  This module evaluates the bound numerically from
trajectories, provides the closed forms available for dephasing and
unitary driving, the weaker fidelity-decay bound ``tau_B`` for
comparison, and the exact crossing times used to test tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import Trajectory, UnitaryControl
from .matcore import hs_norm
from .memory import MemoryFunctions

#: Bisection bracket (in units of 1/coupling) for inverting the dephasing exponent.
BISECTION_SPAN = 1e3

#: Relative tolerance of the bisection solve.
BISECTION_RTOL = 1e-10

_ZERO = 1e-14


@dataclass(frozen=True)
class CrossingResult:
    """First time a trajectory reaches a quantumness target."""

    q_target: float
    reached: bool
    time: Optional[float]
    q_max: float


@dataclass(frozen=True)
class BoundReport:
    """All timescales evaluated for one quantumness target on one trajectory."""

    model: str
    params: dict
    q_target: float
    reached: bool
    tau_exact: Optional[float]
    tau_q_numeric: Optional[float]
    tau_q_closed: Optional[float]
    tau_b: Optional[float]
    tau_b_avg: Optional[float]

    @property
    def slack(self) -> Optional[float]:
        if self.tau_exact is None or self.tau_q_numeric is None:
            return None
        return self.tau_exact - self.tau_q_numeric


def _running_mean(traj: Trajectory, values: np.ndarray, tau: float) -> float:
    """Trapezoidal time average over ``[0, tau]`` of samples taken on the trajectory grid.

    Inside the last grid interval the samples are interpolated linearly;
    at ``tau = 0`` the average is the first sample.
    """
    if tau == 0.0:
        return float(values[0])
    k, w = traj.locate(tau)
    h = traj.step
    area = float(np.trapezoid(values[: k + 1], dx=h))
    if w > 0.0:
        v_tau = (1.0 - w) * values[k] + w * values[k + 1]
        area += 0.5 * (values[k] + v_tau) * (w * h)
    return area / tau


def _q_at(traj: Trajectory, tau: float) -> float:
    k, w = traj.locate(tau)
    q = traj.q_samples
    return float((1.0 - w) * q[k] + w * q[k + 1]) if w > 0.0 else float(q[k])


def tau_q_from_trajectory(traj: Trajectory, tau: float, q_value: Optional[float] = None) -> float:
    """Numeric speed-limit time ``sqrt(Q(tau)/2) / mean speed`` at time ``tau``.

    ``tau`` may be any time inside the grid (off-grid values are
    interpolated); grid times are evaluated exactly.  When ``tau`` is a
    crossing time the caller knows ``Q(tau)`` exactly and should pass it
    as ``q_value`` to bypass the interpolation of the witness samples.
    """
    q_tau = _q_at(traj, tau) if q_value is None else float(q_value)
    numerator = math.sqrt(max(q_tau, 0.0) / 2.0)
    denominator = _running_mean(traj, traj.speed_samples, tau)
    if denominator < _ZERO:
        if numerator < _ZERO:
            return 0.0
        raise ValueError("no quantumness generation channel (zero mean speed)")
    return numerator / denominator


def tau_q_at_crossing(traj: Trajectory, crossing: "CrossingResult") -> float:
    """Speed-limit time paired with a crossing: exact target in the numerator."""
    if not crossing.reached:
        raise ValueError("crossing was never reached; no time to evaluate at")
    return tau_q_from_trajectory(traj, crossing.time, q_value=crossing.q_target)


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


def first_crossing_time(traj: Trajectory, q_target: float) -> CrossingResult:
    """Earliest (interpolated) time the witness reaches ``q_target``.

    Never raises for unreachable targets; the result carries the maximum
    witness value attained instead.
    """
    if q_target < 0.0:
        raise ValueError(f"quantumness target must be nonnegative, got {q_target}")
    q = traj.q_samples
    q_max = float(np.max(q))
    if q_target <= q[0]:
        return CrossingResult(q_target, True, float(traj.grid[0]), q_max)
    idx = np.nonzero(q >= q_target)[0]
    while len(idx) and q[idx[0] - 1] > q_target:
        # guard against a nonmonotone start; keep the first true upcrossing
        idx = idx[1:]
    if len(idx) == 0:
        return CrossingResult(q_target, False, None, q_max)
    k = int(idx[0])
    return CrossingResult(q_target, True, _refine_crossing(traj, k, q_target), q_max)


def quantumness_dephasing(theta: float, beta: float) -> float:
    """Closed-form dephasing witness ``(1/4) sin^2(4 theta) (1 - e^{-beta})^2``."""
    return 0.25 * math.sin(4.0 * theta) ** 2 * (-math.expm1(-beta)) ** 2


def tau_q_dephasing(q: float, theta: float, m: MemoryFunctions) -> float:
    """Time needed to dephase to witness value ``q`` from angle ``theta``.

    Memoryless branch inverts the closed form directly; the finite-memory
    branch solves ``beta(tau) = -ln(1 - 2 sqrt(q)/|sin 4theta|)`` by
    monotone bisection.
    """
    if q < 0.0:
        raise ValueError(f"quantumness must be nonnegative, got {q}")
    s4 = abs(math.sin(4.0 * theta))
    if s4 < _ZERO:
        raise ValueError("no coherence channel (sin 4theta = 0)")
    x = 2.0 * math.sqrt(q) / s4
    if x >= 1.0:
        raise ValueError(
            f"unreachable quantumness for this initial state (2 sqrt(q)/|sin 4theta| = {x:.6g})"
        )
    beta_target = -math.log1p(-x)
    gamma_c = m.coupling
    if m.markov:
        return beta_target / (2.0 * gamma_c)
    lo, hi = 0.0, BISECTION_SPAN / gamma_c
    if m.beta(hi) < beta_target:
        raise ValueError(f"quantumness target not reachable within bracket [0, {hi}]")
    while hi - lo > BISECTION_RTOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if m.beta(mid) < beta_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unitary_speed_squared(c: UnitaryControl, t: float) -> float:
    """Squared generation speed of the two-angle control, evaluated verbatim.

    The mixed rate term can turn negative for some controls; callers must
    surface that instead of taking absolute values (the fully numeric
    trajectory route is the cross-check).
    """
    th = c.theta(t)
    thd = c.theta_dot(t)
    al = c.alpha_value(t)
    ald = c.alpha_dot(t)
    mixed = (
        -2.0
        * ald
        * math.sin(th) ** 2
        * math.sin(4.0 * th)
        * (ald * math.cos(al) ** 2 * math.sin(th) + thd * math.sin(2.0 * al))
    )
    return mixed + 2.0 * thd**2 * math.cos(2.0 * th) ** 2 + ald**2 * math.sin(th) ** 2


def tau_q_unitary(c: UnitaryControl, tau: float, samples: int = 10_000) -> float:
    """Closed-route speed-limit time for the two-angle unitary control.

    Numerator ``|sin 2 theta(tau)| / sqrt(2)``; denominator the
    trapezoidal average of the closed-form speed over ``[0, tau]``.
    """
    if tau <= 0.0:
        raise ValueError(f"final time must be positive, got {tau}")
    s2 = math.sin(2.0 * c.theta(tau))
    if abs(s2) < _ZERO:
        raise ValueError("commuting endpoint, Q = 0 (sin 2theta(tau) = 0)")
    ts = np.linspace(0.0, tau, samples)
    x = np.array([unitary_speed_squared(c, t) for t in ts])
    bad = np.nonzero(x < -1e-12 * max(1.0, float(np.max(np.abs(x)))))[0]
    if len(bad):
        k = int(bad[0])
        raise ValueError(
            f"negative speed argument X = {x[k]:.6g} at t = {ts[k]:.6g} "
            "(sample outside the closed form's validity; use the numeric route)"
        )
    mean_speed = float(np.trapezoid(np.sqrt(np.clip(x, 0.0, None)), ts)) / tau
    if mean_speed < _ZERO:
        raise ValueError("no quantumness generation channel (zero mean speed)")
    return abs(s2) / (math.sqrt(2.0) * mean_speed)


def quantumness_dissipation(theta: float, b: float, c: float) -> float:
    """Closed-form dissipation witness from the accumulated memory integrals.

    ``b`` and ``c`` are the real and imaginary parts of the running
    integral of the memory function.  The witness vanishes identically at
    ``sin 2theta = 0`` and that input is rejected.
    """
    s2 = math.sin(2.0 * theta)
    if abs(s2) < _ZERO:
        raise ValueError("quantumness identically zero (sin 2theta = 0)")
    cos2 = math.cos(theta) ** 2
    inner = 1.0 - 2.0 * math.exp(-2.0 * b) * cos2 + np.exp(-b - 1j * c) * math.cos(2.0 * theta)
    return float(
        s2**2 * abs(inner) ** 2 + s2**4 * math.sin(c) ** 2 * math.exp(-2.0 * b)
    )


def speed_dissipation(theta: float, t: float, m: MemoryFunctions) -> float:
    """Closed-form generation speed of the dissipation model at time ``t``."""
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
    k, w = traj.locate(tau)
    f_k = float(np.trace(traj.rho0 @ traj.states[k]).real)
    if w > 0.0:
        f_k1 = float(np.trace(traj.rho0 @ traj.states[k + 1]).real)
        f_tau = (1.0 - w) * f_k + w * f_k1
    else:
        f_tau = f_k
    norms = traj.lrho0_norms
    denom = float(norms[0]) if denominator == "initial" else _running_mean(traj, norms, tau)
    if denom < _ZERO:
        raise ValueError("frozen initial state (||L rho0|| = 0)")
    return abs(1.0 - f_tau) / denom


def conservative_bound_diagnostics(traj: Trajectory, tau: float) -> dict:
    """Weaker chained bounds obtained by loosening the speed denominator.

    Purely diagnostic: each replacement denominator upper-bounds the
    commutator speed, so every listed time is at most the commutator
    bound.
    """
    k, w = traj.locate(tau)
    upto = k + 2 if w > 0.0 else k + 1
    rho0 = traj.rho0
    lrhos = np.array([traj.generator.apply(rho, float(t)) for rho, t in zip(traj.states[:upto], traj.grid[:upto])])
    prod = hs_norm(lrhos @ rho0)
    plain = hs_norm(lrhos)
    numerator = math.sqrt(max(_q_at(traj, tau), 0.0) / 2.0)
    out = {"tau_q": tau_q_from_trajectory(traj, tau)}
    for name, denom in (
        ("tau_product", 2.0 * _running_mean(traj, prod, tau)),
        ("tau_norm_product", 2.0 * _running_mean(traj, plain, tau) * hs_norm(rho0)),
        ("tau_generator_norm", 2.0 * _running_mean(traj, plain, tau)),
    ):
        out[name] = numerator / denom if denom > _ZERO else math.inf
    return out


def quarter_theta_unitary_report(alpha_rate: float, tau: float, grid_points: int = 4001) -> dict:
    """Numeric evaluation of the bound for the phase-only drive at equal superposition.

    With the rotation angle pinned at ``pi/4`` the closed-form numerator
    degenerates, so the bound is computed fully numerically from a
    propagated trajectory and reported alongside the two closed-form
    candidates (``tau / |alpha|`` and ``|sin alpha| / |alpha_rate|``).
    Nothing is asserted about which candidate is correct.
    """
    from .generators import Schedule, UnitaryTwoLevel, propagate, unitary_state
    from .matcore import from_pure

    if alpha_rate == 0.0:
        raise ValueError("phase rate must be nonzero for the pinned-angle drive")
    if tau <= 0.0:
        raise ValueError(f"final time must be positive, got {tau}")
    control = UnitaryControl(
        theta0=math.pi / 4.0,
        theta_rate=Schedule.constant(0.0),
        alpha=Schedule.ramp(0.0, alpha_rate),
    )
    rho0 = from_pure(unitary_state(math.pi / 4.0, 0.0))
    grid = np.linspace(0.0, tau, grid_points)
    traj = propagate(UnitaryTwoLevel(control), rho0, grid)
    alpha_tau = alpha_rate * tau
    return {
        "tau": tau,
        "tau_q_numeric": tau_q_from_trajectory(traj, tau),
        "closed_form_tau_over_alpha": tau / abs(alpha_tau),
        "closed_form_sin_alpha_over_rate": abs(math.sin(alpha_tau)) / abs(alpha_rate),
    }

