"""Commutator-based quantumness witness and its exact rate of change.

The witness of two states is ``2 ||[rho_a, rho_b]||^2`` with the
Hilbert-Schmidt norm; it vanishes iff the states commute and is
normalized to ``[0, 1]``.  Both algebraic forms (commutator norm and the
equivalent trace polynomial) are evaluated on every call and
cross-checked, so a silent regression in either code path is caught at
the point of use.
"""

from __future__ import annotations

import warnings

import numpy as np

from .matcore import as_matrix, commutator, hs_norm

#: Allowed disagreement between the two algebraic forms of the witness.
FORM_AGREEMENT_TOL = 1e-10

#: Trace threshold above which a generator output is flagged as buggy.
TRACELESS_WARN_TOL = 1e-9


def quantumness(rho_a: np.ndarray, rho_b: np.ndarray):
    """Quantumness witness ``2 ||[rho_a, rho_b]||^2`` of two states.

    Also evaluates the equivalent trace form
    ``-4 Tr[(rho_a rho_b)^2 - rho_a^2 rho_b^2]`` and raises if the two
    disagree beyond ``FORM_AGREEMENT_TOL``.  Either argument may be a
    stack ``(..., d, d)``; the result is then an array of witnesses.
    """
    a = as_matrix(rho_a)
    b = as_matrix(rho_b)
    # np.square, not ** 2: a float's ** 2 calls pow, which can round apart from an array's x * x
    q_comm = 2.0 * np.square(hs_norm(commutator(a, b)))
    ab = a @ b
    q_trace = -4.0 * (np.trace(ab @ ab, axis1=-2, axis2=-1) - np.trace(a @ a @ b @ b, axis1=-2, axis2=-1)).real
    off = np.abs(q_comm - q_trace) > FORM_AGREEMENT_TOL * np.maximum(1.0, np.abs(q_comm))
    if np.any(off):
        k = np.flatnonzero(off)[0]
        raise ArithmeticError(
            f"witness forms disagree: commutator {float(np.ravel(q_comm)[k])!r} "
            f"vs trace {float(np.ravel(q_trace)[k])!r}"
        )
    return float(q_comm) if q_comm.ndim == 0 else q_comm


def pure_state_quantumness(overlap_sq: float) -> float:
    """Witness of two pure states with squared overlap ``c``: ``4 c (1 - c)``.

    Maximal (equal to one) at ``c = 1/2``, zero for identical or
    orthogonal states.
    """
    c = float(overlap_sq)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"squared overlap must lie in [0, 1], got {c}")
    return 4.0 * c * (1.0 - c)


def quantumness_rate(rho0: np.ndarray, rhot: np.ndarray, lrho: np.ndarray) -> float:
    """Exact time derivative of the witness along a trajectory.

    ``dQ/dt = -4 Tr([rho0, rho_t] [rho0, L rho_t])`` where ``lrho`` is the
    generator applied to the current state.  A non-traceless ``lrho``
    indicates a buggy generator and triggers a warning.
    """
    trace = complex(np.trace(np.asarray(lrho, dtype=complex)))
    if abs(trace) > TRACELESS_WARN_TOL:
        warnings.warn(
            f"generator output is not traceless (|Tr| = {abs(trace):.3e}); "
            "the quantumness rate may be meaningless",
            RuntimeWarning,
            stacklevel=2,
        )
    val = -4.0 * np.trace(commutator(rho0, rhot) @ commutator(rho0, lrho))
    return float(val.real)


def generation_speed(rho0: np.ndarray, lrho: np.ndarray):
    """Instantaneous generation speed ``||[rho0, L rho_t]||``; an array of speeds for a stack of ``L rho_t``."""
    return hs_norm(commutator(rho0, lrho))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random pure state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank mixed state ``W W^dag / Tr(W W^dag)``."""
    w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = w @ w.conj().T
    return m / np.trace(m).real
