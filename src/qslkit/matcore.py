"""Dense complex matrix algebra for small quantum systems.

Conventions shared by the whole package:

* Two-level basis ordering is ``{|1>, |0>}``: index 0 is the excited
  state ``|1>``, index 1 the ground state ``|0>``.  A state vector
  ``(a, b)`` therefore reads ``a|1> + b|0>``.
* Three-level systems extend the same descending order ``{|2>, |1>, |0>}``.
* Operations are pure: inputs are never mutated and results are freshly
  allocated arrays.  Supported dimensions are 1..32.
* ``commutator``, ``hs_norm`` and ``min_eigenvalue`` also take stacks
  ``(..., d, d)`` and work per matrix; a stacked call gives bit for bit
  what the calls on the single matrices give.  A right factor fixed
  along a stack, one matrix against ``(..., d, d)``, is one tall BLAS
  product ``(rows, d) @ (d, d)``; that is bit for bit because the BLAS
  computes each output row the same way whatever the row count
  (verified for OpenBLAS 0.3.31 at d = 2, 3, 4).  A fixed left factor
  ``f`` with a zero imaginary part, as every projector of a real vector
  has, is the same tall product on the transposes, ``(x^T f^T)^T``: each
  complex product with ``f`` is then one rounded real product, so the
  order of the two factors moves no bit.  A complex fixed left factor
  stays per matrix: neither that tall product nor one wide product
  ``f @ [x_1 ... x_n]`` keeps its bits.  ``hermiticity_defect``
  gives the largest defect over a stack.  ``purity`` and
  ``validate_density`` take one matrix and reject a stack by its shape.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

MAX_DIM = 32

#: Norm tolerance for accepting a vector as a physical state.
STATE_NORM_TOL = 1e-12

# Pauli operators in the {|1>, |0>} basis (index 0 = excited).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_number(value, name: str, role: str = "argument") -> float:
    """``value`` as a float if it is a finite real number and not a bool, else ``ValueError`` naming it."""
    if isinstance(value, float) and math.isfinite(value):  # the common case, before the slower ABC check
        return value
    # the comparison also rejects NaN and integers beyond the float range
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
        raise ValueError(f"invalid {role} {name!r}: must be a finite number, got {value!r}")
    return float(value)


def _check_finite(**arrays) -> None:
    """Raise ``ValueError`` naming the first argument with a non-finite entry."""
    for name, m in arrays.items():
        if not np.isfinite(m).all():
            raise ValueError(f"invalid argument {name!r}: must be finite")


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix, or a stack ``(..., d, d)`` of them, validating the shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[-1] <= MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} outside supported range 1..{MAX_DIM}")
    return m


def _one_matrix(a) -> np.ndarray:
    """:func:`as_matrix` for functions that take one matrix, not a stack."""
    m = as_matrix(a)
    if m.ndim != 2:
        raise ValueError(f"expected one square matrix, got a stack of shape {m.shape}")
    return m


def _times_fixed(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``x @ f``, as one tall product where ``f`` is fixed along the stack ``x`` (see the module docstring)."""
    if f.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ f).reshape(x.shape)
    return x @ f


def _fixed_times(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``f @ x``, as one tall product where ``f`` is fixed along the stack ``x`` and real (see the module docstring)."""
    if f.ndim == 2 and not f.imag.any():
        return (x.mT.reshape(-1, x.shape[-1]) @ f.mT).reshape(x.mT.shape).mT
    return f @ x


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ``AB - BA`` of two equally sized square matrices (stacks broadcast).

    An ``a`` fixed along the stack ``b`` makes ``BA`` one tall BLAS product, and ``AB`` too where ``a`` is real.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[-1] != bm.shape[-1]:
        raise ValueError(f"dimension mismatch: {am.shape[-1]} vs {bm.shape[-1]}")
    c = _fixed_times(am, bm)
    c -= _times_fixed(bm, am)  # in place: one stack fewer alive at a time
    return c


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt norm ``sqrt(Tr(A^dag A))`` (Frobenius norm); an array of norms for a stack."""
    m = np.asarray(a, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (-1,))
    # per matrix the same two dot products as np.linalg.norm, hence the same bits
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return float(norm) if norm.ndim == 0 else norm


def from_pure(v) -> np.ndarray:
    """Rank-one projector ``|v><v|`` of a normalized state vector.

    The vector must already be normalized to within ``STATE_NORM_TOL``;
    silent renormalization would mask upstream bugs.
    """
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if not 1 <= vec.size <= MAX_DIM:
        raise ValueError(f"state dimension {vec.size} outside supported range 1..{MAX_DIM}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return np.outer(vec, vec.conj())


def purity(rho: np.ndarray) -> float:
    """``Tr(rho^2)``, equal to one exactly for pure states."""
    m = _one_matrix(rho)
    return float(np.trace(m @ m).real)


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation from ``A = A^dag`` (over all matrices of a stack)."""
    m = as_matrix(a)
    return float(np.max(np.abs(m - m.conj().mT)))


def min_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix; an array of them for a stack."""
    m = as_matrix(rho)
    herm = 0.5 * (m + m.conj().mT)
    if m.shape[-1] == 2:
        # closed form keeps the propagation post-pass off the eigensolver
        # real arithmetic: the diagonal of herm is real and herm[1, 0] = conj(herm[0, 1]) exactly
        h00, h11, h01 = herm[..., 0, 0].real, herm[..., 1, 1].real, herm[..., 0, 1]
        tr = h00 + h11
        det = h00 * h11 - (h01.real * h01.real + h01.imag * h01.imag)
        disc = np.maximum(tr * tr - 4.0 * det, 0.0)
        eig = 0.5 * (tr - np.sqrt(disc))
    else:
        eig = np.linalg.eigvalsh(herm)[..., 0]
    return float(eig) if eig.ndim == 0 else eig


@dataclass(frozen=True)
class DensityDiagnostics:
    """Validation record for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float
    passed: bool


def validate_density(rho: np.ndarray, tol: float = 1e-8) -> DensityDiagnostics:
    """Check Hermiticity, unit trace and positivity of ``rho``.

    Purely diagnostic: reports defects against ``tol``; raises only for
    input that is not one square matrix.
    """
    m = _one_matrix(rho)
    herm = hermiticity_defect(m)
    trace = abs(float(np.trace(m).real) - 1.0)
    eig_min = min_eigenvalue(m)
    passed = herm <= tol and trace <= tol and eig_min >= -tol
    return DensityDiagnostics(herm, trace, eig_min, tol, passed)
