"""Commutator-based quantumness witness and its exact rate of change.

The witness of two states is ``2 ||[rho_a, rho_b]||^2`` with the
Hilbert-Schmidt norm; it vanishes iff the states commute and is
normalized to ``[0, 1]``.  Both algebraic forms (commutator norm and the
equivalent trace polynomial) are evaluated on every call and
cross-checked, so a silent regression in either code path is caught at
the point of use.  A fixed ``rho_a`` against a stack of ``rho_b`` takes
its products as tall products (:mod:`qslkit.matcore`), with the bits of
the per-matrix ones.  The trace form is taken as two-operand
contractions (``np.einsum``): ``Tr[(rho_a rho_b)^2]`` of the shared
product, and ``Tr(rho_a^2 rho_b^2)`` as ``Tr(rho_b (rho_b rho_a^2))`` by
cyclicity, so ``rho_a^2`` is a fixed right factor; its bits feed only the
cross-check.  A non-finite argument, NaN or infinite, fails the
cross-check and is named.
"""

from __future__ import annotations

import warnings

import numpy as np

from .matcore import _check_finite, _fixed_times, _times_fixed, as_matrix, commutator, hs_norm

#: Allowed disagreement between the two algebraic forms of the witness.
FORM_AGREEMENT_TOL = 1e-10

#: Trace threshold above which a generator output is flagged as buggy.
TRACELESS_WARN_TOL = 1e-9


def quantumness(rho_a: np.ndarray, rho_b: np.ndarray):
    """Quantumness witness ``2 ||[rho_a, rho_b]||^2`` of two states.

    Also evaluates the equivalent trace form
    ``-4 Tr[(rho_a rho_b)^2 - rho_a^2 rho_b^2]`` and raises if the two
    disagree beyond ``FORM_AGREEMENT_TOL``: ``ValueError`` naming a
    non-finite argument, else ``ArithmeticError``.  Either argument may be a
    stack ``(..., d, d)``; the result is then an array of witnesses.
    """
    a = as_matrix(rho_a)
    b = as_matrix(rho_b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite argument fails the form check, named below
        ab = _fixed_times(a, b)
        # np.square, not ** 2: a float's ** 2 calls pow, which can round apart from an array's x * x
        q_comm = 2.0 * np.square(hs_norm(ab - _times_fixed(b, a)))
        a2b2 = np.einsum("...ij,...ji->...", b, _times_fixed(b, a @ a))  # Tr(a^2 b^2) by cyclicity
        q_trace = -4.0 * (np.einsum("...ij,...ji->...", ab, ab) - a2b2).real
        # written as "not within" so that a NaN fails it
        off = ~(np.abs(q_comm - q_trace) <= FORM_AGREEMENT_TOL * np.maximum(1.0, np.abs(q_comm)))
    if np.any(off):
        _check_finite(rho_a=a, rho_b=b)
        k = np.flatnonzero(off)[0]
        raise ArithmeticError(
            f"witness forms disagree: commutator {float(np.ravel(q_comm)[k])!r} "
            f"vs trace {float(np.ravel(q_trace)[k])!r}"
        )
    return float(q_comm) if q_comm.ndim == 0 else q_comm


def pure_state_quantumness(overlap_sq):
    """Witness of two pure states with squared overlap ``c``: ``4 c (1 - c)``.

    Maximal (equal to one) at ``c = 1/2``, zero for identical or
    orthogonal states.  An array of overlaps gives an array of witnesses.
    """
    c = np.asarray(overlap_sq, dtype=float)
    inside = (c >= 0.0) & (c <= 1.0)
    if not inside.all():
        raise ValueError(f"squared overlap must lie in [0, 1], got {np.extract(~inside, c)[0]}")
    q = 4.0 * c * (1.0 - c)
    return float(q) if q.ndim == 0 else q


def quantumness_rate(rho0: np.ndarray, rhot: np.ndarray, lrho: np.ndarray):
    """Exact time derivative of the witness along a trajectory.

    ``dQ/dt = -4 Tr([rho0, rho_t] [rho0, L rho_t])`` where ``lrho`` is the
    generator applied to the current state.  A stack of ``rhot`` with the
    matching stack of ``lrho`` gives an array of rates, each the bits of
    its single call.  A non-finite argument is rejected by name.  A
    non-traceless ``lrho`` (any member of a stack) indicates a buggy
    generator and triggers a warning.
    """
    lrho = np.asarray(lrho, dtype=complex)
    _check_finite(rho0=rho0, rhot=rhot, lrho=lrho)
    trace = np.abs(np.trace(lrho, axis1=-2, axis2=-1))
    if np.any(trace > TRACELESS_WARN_TOL):
        warnings.warn(
            f"generator output is not traceless (|Tr| = {np.max(trace):.3e}); "
            "the quantumness rate may be meaningless",
            RuntimeWarning,
            stacklevel=2,
        )
    val = (-4.0 * np.trace(commutator(rho0, rhot) @ commutator(rho0, lrho), axis1=-2, axis2=-1)).real
    return float(val) if val.ndim == 0 else val


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
