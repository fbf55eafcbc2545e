"""Environmental memory functions for an exponential bath correlation.

The bath correlation is the Ornstein-Uhlenbeck kernel
``G(t, s) = (Gamma * gamma / 2) exp(-gamma |t - s|)``: ``Gamma`` sets the
overall system-bath coupling rate and ``gamma`` the inverse memory time
(``gamma >> Gamma`` is effectively memoryless, ``gamma << Gamma``
strongly non-Markovian).

Pure dephasing only needs the accumulated kernel ``gbar`` and its time
integral.  Energy dissipation needs the memory function ``P(t)`` defined
by

    dP/dt = Gamma*gamma/2 - gamma*P + P^2,   P(0) = 0,

together with its running integral ``xi(t)``.  Both are evaluated in
closed form at any time.  For ``gamma < 2*Gamma`` the memory function
diverges at a finite time; the time up to which it may be read is known
up front, and reads at or past it are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The memory function may be read only while ``P`` stays below this multiple of the coupling rate.
BLOWUP_FACTOR = 1e3


class RiccatiBlowupError(RuntimeError):
    """Finite-time divergence of the Riccati memory function."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class OUParams:
    """Rates of the exponential bath kernel.

    ``coupling`` is the overall rate (Gamma), ``memory_rate`` the inverse
    correlation time (gamma).  Both must be positive; ``memory_rate`` may
    be ``inf`` as a marker for the exact memoryless limit.
    """

    coupling: float
    memory_rate: float

    def __post_init__(self):
        if not self.coupling > 0.0:
            raise ValueError(f"coupling rate must be positive, got {self.coupling}")
        if not self.memory_rate > 0.0:
            raise ValueError(f"memory rate must be positive, got {self.memory_rate}")


@dataclass(frozen=True)
class MarkovLimits:
    """Asymptotic memoryless-limit constants used by closed-form branches."""

    f_inf: float
    p_inf: float


def markov_limits(p: OUParams) -> MarkovLimits:
    """Memoryless-limit values: dephasing rate ``Gamma``, dissipation ``Gamma/2``."""
    return MarkovLimits(f_inf=p.coupling, p_inf=0.5 * p.coupling)


def ou_kernel(t: float, s: float, p: OUParams) -> complex:
    """Bath correlation ``(Gamma*gamma/2) exp(-gamma |t-s|)`` (real for this kernel)."""
    return complex(0.5 * p.coupling * p.memory_rate * math.exp(-p.memory_rate * abs(t - s)))


def gbar(t: float, p: OUParams) -> complex:
    """Accumulated kernel ``integral_0^t G(t, s) ds = (Gamma/2)(1 - exp(-gamma t))``."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return complex(0.5 * p.coupling * -math.expm1(-p.memory_rate * t))


def f_rate(t: float, p: OUParams) -> float:
    """Instantaneous dephasing rate ``gbar + gbar* = Gamma (1 - exp(-gamma t))``."""
    return 2.0 * gbar(t, p).real


def beta_integral(tau: float, p: OUParams) -> float:
    """Dephasing exponent ``2 integral_0^tau f(t) dt``.

    Closed form ``2 Gamma [tau - (1 - exp(-gamma tau)) / gamma]``; monotone
    nondecreasing in ``tau`` and bounded above by the memoryless line
    ``2 Gamma tau``.
    """
    if tau < 0.0:
        raise ValueError(f"time must be nonnegative, got {tau}")
    g = p.memory_rate
    return 2.0 * p.coupling * (tau + math.expm1(-g * tau) / g)


class MemoryFunctions:
    """Closed-form memory functions of the exponential kernel, with a memoryless branch.

    Dephasing reads the rate ``f`` and its exponent ``beta``; dissipation
    reads ``P`` and its running integral ``xi``.  With ``memory_rate = inf``
    (``markov`` is then true) the exact limits ``f = Gamma`` (hence
    ``beta = 2 Gamma tau``) and ``P = Gamma/2`` (hence ``xi = Gamma t / 2``)
    are used.

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

    def __init__(self, params: OUParams):
        self.params = params
        self.markov = math.isinf(params.memory_rate)
        self.horizon = math.inf
        self._t_star = math.inf
        if self.markov:
            return
        coupling, gamma = params.coupling, params.memory_rate
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
        return cls(OUParams(coupling=coupling, memory_rate=math.inf))

    @property
    def coupling(self) -> float:
        return self.params.coupling

    def gbar(self, t: float) -> complex:
        if self.markov:
            if t < 0.0:
                raise ValueError(f"time must be nonnegative, got {t}")
            return complex(0.5 * self.params.coupling)
        return gbar(t, self.params)

    def f(self, t: float) -> float:
        """Instantaneous coherence-decay rate at time ``t``."""
        if self.markov:
            if t < 0.0:
                raise ValueError(f"time must be nonnegative, got {t}")
            return self.params.coupling
        return f_rate(t, self.params)

    def beta(self, tau: float) -> float:
        """Accumulated coherence-decay exponent up to time ``tau``."""
        if self.markov:
            if tau < 0.0:
                raise ValueError(f"time must be nonnegative, got {tau}")
            return 2.0 * self.params.coupling * tau
        return beta_integral(tau, self.params)

    def _check_p_time(self, t: float) -> None:
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if t >= self.horizon:
            raise RiccatiBlowupError(
                f"memory function P reaches {BLOWUP_FACTOR:g} x coupling at t = {self.horizon:.6g} "
                f"and diverges at t* = {self._t_star:.6g} (memory_rate < 2*coupling); "
                f"it cannot be read at t = {t:.6g}",
                time=self.horizon,
            )

    def _s(self, t: float) -> float:
        """``exp(-r t) sinh(r t) / r`` of the hyperbolic branch (``t`` at ``r = 0``)."""
        r = self._r
        return t if r == 0.0 else -math.expm1(-2.0 * r * t) / (2.0 * r)

    def p(self, t: float) -> float:
        """Dissipation memory function ``P(t)``."""
        self._check_p_time(t)
        if self.markov:
            return 0.5 * self.params.coupling
        if self._trig:
            wt = self._omega * t
            s = math.sin(wt) / self._omega
            return self._drive * s / (math.cos(wt) + 0.5 * self.params.memory_rate * s)
        s = self._s(t)
        return self._drive * s / (1.0 + self._a * s)

    def xi(self, t: float) -> float:
        """Running integral ``xi(t) = int_0^t P(s) ds`` of the memory function."""
        self._check_p_time(t)
        if self.markov:
            return 0.5 * self.params.coupling * t
        if self._trig:
            wt = self._omega * t
            half_gamma = 0.5 * self.params.memory_rate
            s = math.sin(wt) / self._omega
            return half_gamma * t - math.log1p(half_gamma * s - 2.0 * math.sin(0.5 * wt) ** 2)
        return self._a * t - math.log1p(self._a * self._s(t))

    def __repr__(self) -> str:
        tag = "markov" if self.markov else f"gamma={self.params.memory_rate}"
        return f"MemoryFunctions(Gamma={self.params.coupling}, {tag})"
