"""Environmental memory functions for an exponential bath correlation.

The bath correlation is the Ornstein-Uhlenbeck kernel
``G(t, s) = (Gamma * gamma / 2) exp(-gamma |t - s|)``: ``Gamma`` sets the
overall system-bath coupling rate and ``gamma`` the inverse memory time
(``gamma >> Gamma`` is effectively memoryless, ``gamma << Gamma``
strongly non-Markovian).

Pure dephasing reads the rate ``f(t)``, twice the accumulated kernel
``int_0^t G(t, s) ds``, and its exponent ``beta(tau) = 2 int_0^tau f``.
Energy dissipation needs the memory function ``P(t)`` defined by

    dP/dt = Gamma*gamma/2 - gamma*P + P^2,   P(0) = 0,

together with its running integral ``xi(t)``.  Both are evaluated in
closed form at any time.  For ``gamma < 2*Gamma`` the memory function
diverges at a finite time; the time up to which it may be read is known
up front, and reads at or past it are rejected.

The reads of ``f`` and ``P`` go through tables: :meth:`MemoryFunctions.f_table`
and :meth:`MemoryFunctions.p_table` take a sequence of times, check its domain
once (every time finite, the smallest nonnegative and, for ``P``, the
largest below the horizon) and evaluate the closed form for all of them;
the scalar reads ``f(t)`` and ``p(t)`` are their one-element calls.  Every
scalar read (``beta`` and ``xi`` too) first takes its time through
:func:`~qslkit.matcore._check_number`, so a bool or a string is rejected by
name, and then checks its domain as a table does.  The transcendental
functions are taken from ``math``, one time after another, not from
numpy: on NumPy 2.4 (x86-64), ``np.expm1``, ``np.exp`` and ``np.log1p``
differ from ``math.expm1``, ``math.exp`` and ``math.log1p`` by one ulp on
1.9%, 4.6% and 6.6% of 400,000 arguments (uniform on ``[-20, 0]``,
``[-20, 0]`` and ``[0, 10]``), and the fidelity bound ``tau_B`` at small
quantumness is ill-conditioned enough to show it.  The arithmetic around
them is numpy's, which rounds each operation as Python floats do, so a
table holds the bits of the per-time expressions.
(``np.sin``/``np.cos`` matched ``math`` on every argument tried, so the
Hamiltonians of :mod:`qslkit.generators` are tabulated as arrays.)
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import _check_number

#: The memory function may be read only while ``P`` stays below this multiple of the coupling rate.
BLOWUP_FACTOR = 1e3


class RiccatiBlowupError(RuntimeError):
    """Finite-time divergence of the Riccati memory function."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class MemoryFunctions:
    """Closed-form memory functions of the exponential kernel, with a memoryless branch.

    ``coupling`` is the overall rate (Gamma) and ``memory_rate`` the inverse
    correlation time (gamma), both positive numbers under the rule of
    :func:`~qslkit.matcore._check_number`.  Dephasing reads the rate ``f``
    and its exponent ``beta``; dissipation reads ``P`` and its running
    integral ``xi``.  The one non-finite rate taken, ``memory_rate = inf``,
    marks the memoryless limit (``markov`` is then true), where the exact
    limits ``f = Gamma`` (hence ``beta = 2 Gamma tau``) and ``P = Gamma/2``
    (hence ``xi = Gamma t / 2``) are used.

    ``u = exp(-xi)`` linearizes the equation of ``P`` to
    ``u'' + gamma u' + (Gamma gamma / 2) u = 0`` with ``u(0) = 1`` and
    ``u'(0) = 0``, so ``P = -u'/u`` and ``xi = -ln u`` exactly.  With
    ``kappa = gamma^2/4 - Gamma gamma/2`` the solution is hyperbolic for
    ``kappa >= 0`` and trigonometric otherwise.  In the trigonometric case
    (``gamma < 2 Gamma``) ``u`` has a root at
    ``t* = (pi - atan(2 omega / gamma)) / omega``, ``omega = sqrt(-kappa)``,
    where ``P`` diverges.  ``horizon`` is the exact earlier time at which
    ``P`` reaches ``BLOWUP_FACTOR * Gamma`` (``inf`` when ``P`` stays
    bounded); reading ``P`` or ``xi`` at or past it raises
    :class:`RiccatiBlowupError`.
    """

    def __init__(self, coupling: float, memory_rate: float):
        if not _check_number(coupling, "coupling") > 0.0:
            raise ValueError(f"coupling rate must be positive and finite, got {coupling}")
        if memory_rate != math.inf and not _check_number(memory_rate, "memory_rate") > 0.0:
            raise ValueError(f"memory rate must be positive, got {memory_rate}")
        self.coupling = coupling
        self.memory_rate = memory_rate
        self.markov = memory_rate == math.inf
        self.horizon = math.inf
        self._t_star = math.inf
        if self.markov:
            return
        gamma = memory_rate
        self._drive = 0.5 * coupling * gamma
        kappa = 0.25 * gamma * (gamma - 2.0 * coupling)
        self._trig = kappa < 0.0
        if self._trig:
            w = math.sqrt(-kappa)
            limit = BLOWUP_FACTOR * coupling
            self._omega = w
            self._t_star = (math.pi - math.atan(2.0 * w / gamma)) / w
            # P = limit where tan(omega t) = -2 limit omega / (gamma (limit - Gamma)), before the pole
            self.horizon = (math.pi - math.atan(2.0 * limit * w / (gamma * (limit - coupling)))) / w
        else:
            # u = exp(-a t) (1 + a s(t)) with s = (1 - exp(-2 r t)) / (2 r) and
            # a = gamma/2 - r, written without the cancellation for gamma >> Gamma
            self._r = math.sqrt(kappa)
            self._a = self._drive / (0.5 * gamma + self._r)

    @classmethod
    def markov_limit(cls, coupling: float) -> "MemoryFunctions":
        return cls(coupling, math.inf)

    def f(self, t: float) -> float:
        """Coherence-decay rate ``f(t) = Gamma (1 - exp(-gamma t))``."""
        return float(self.f_table((_check_number(t, "t"),))[0])

    def f_table(self, times) -> np.ndarray:
        """:meth:`f` at each of ``times``, as a 1-D array."""
        ts = self._checked(times, math.inf)
        if self.markov:
            return np.full(ts.shape, self.coupling)
        return self.coupling * -_math(math.expm1, -self.memory_rate * ts)

    def beta(self, tau: float) -> float:
        """Coherence-decay exponent ``2 int_0^tau f = 2 Gamma [tau - (1 - exp(-gamma tau)) / gamma]``.

        Monotone nondecreasing in ``tau`` and bounded above by the
        memoryless line ``2 Gamma tau``.
        """
        tau = _check_number(tau, "tau")
        self._check_span(tau, tau, math.inf)
        return self._beta(tau)

    def _beta(self, tau: float) -> float:
        """:meth:`beta` at a time already known to be finite and nonnegative."""
        if self.markov:
            return 2.0 * self.coupling * tau
        g = self.memory_rate
        return 2.0 * self.coupling * (tau + math.expm1(-g * tau) / g)

    def _check_span(self, lo: float, hi: float, horizon: float) -> None:
        """Reject times from ``lo`` to ``hi`` unless all are finite, nonnegative and below ``horizon``."""
        for t in (lo, hi):
            if not math.isfinite(t):
                raise ValueError(f"time must be finite, got {t}")
        if lo < 0.0:
            raise ValueError(f"time must be nonnegative, got {lo}")
        if hi >= horizon:
            raise RiccatiBlowupError(
                f"memory function P reaches {BLOWUP_FACTOR:g} x coupling at t = {self.horizon:.6g} "
                f"and diverges at t* = {self._t_star:.6g} (memory_rate < 2*coupling); "
                f"it cannot be read at t = {hi:.6g}",
                time=self.horizon,
            )

    def _checked(self, times, horizon: float) -> np.ndarray:
        """``times`` as a flat float array, after one domain check for all of them (a nan makes both ends nan)."""
        ts = np.asarray(times, dtype=float).ravel()
        if ts.size:
            self._check_span(float(ts.min()), float(ts.max()), horizon)
        return ts

    def p(self, t: float) -> float:
        """Dissipation memory function ``P(t)``."""
        return float(self.p_table((_check_number(t, "t"),))[0])

    def p_table(self, times) -> np.ndarray:
        """:meth:`p` at each of ``times``, as a 1-D array."""
        ts = self._checked(times, self.horizon)
        if self.markov:
            return np.full(ts.shape, 0.5 * self.coupling)
        if self._trig:
            wt = self._omega * ts
            s = _math(math.sin, wt) / self._omega
            return self._drive * s / (_math(math.cos, wt) + 0.5 * self.memory_rate * s)
        r = self._r
        s = ts if r == 0.0 else -_math(math.expm1, -2.0 * r * ts) / (2.0 * r)
        return self._drive * s / (1.0 + self._a * s)

    def xi(self, t: float) -> float:
        """Running integral ``xi(t) = int_0^t P(s) ds`` of the memory function."""
        t = _check_number(t, "t")
        self._check_span(t, t, self.horizon)
        if self.markov:
            return 0.5 * self.coupling * t
        if self._trig:
            wt = self._omega * t
            half_gamma = 0.5 * self.memory_rate
            s = math.sin(wt) / self._omega
            return half_gamma * t - math.log1p(half_gamma * s - 2.0 * math.sin(0.5 * wt) ** 2)
        r = self._r
        s = t if r == 0.0 else -math.expm1(-2.0 * r * t) / (2.0 * r)
        return self._a * t - math.log1p(self._a * s)

    def __repr__(self) -> str:
        tag = "markov" if self.markov else f"gamma={self.memory_rate}"
        return f"MemoryFunctions(Gamma={self.coupling}, {tag})"


def _math(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` at each entry of ``x`` (numpy's twins round differently)."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)
