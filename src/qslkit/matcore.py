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
  what the calls on the single matrices give.  A single matrix fixed
  along a stack is multiplied by one rule, ``_product``: tall at d <= 3,
  per matrix otherwise.  Tall is one BLAS product ``(rows, d) @ (d, d)``
  for a fixed right factor, and the same on the transposes,
  ``(x^T f^T)^T``, for a fixed left factor with a zero imaginary part
  (each complex product with it is then one rounded real product); a
  complex left factor stays per matrix.  Both keep the per-matrix bits
  where the BLAS computes each output row the same way whatever the row
  count, as OpenBLAS 0.3.31 does at d <= 3 under every kernel tried.
  ``hermiticity_defect`` gives the largest defect over a stack.
  ``purity`` and ``validate_density`` take one matrix and reject a stack
  by its shape.
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


def _invalid(role: str, name: str, kind: str, value, gt=None, ge=None, le=None) -> ValueError:
    """The one message of a rejected scalar: ``invalid <role> '<name>': must be <kind> <bounds>, got <repr>``."""
    bounds = " and".join(f" {op} {b:g}" for op, b in ((">", gt), (">=", ge), ("<=", le)) if b is not None)
    return ValueError(f"invalid {role} {name!r}: must be {kind}{bounds}, got {value!r}")


def _check_number(value, name: str, role: str = "argument", *, gt=None, ge=None, le=None) -> float:
    """``value`` as a float if it is a finite real number, not a bool, and ``> gt``, ``>= ge``, ``<= le`` if given."""
    if not (isinstance(value, float) and math.isfinite(value)):  # the common case first, before the slower ABC check
        # the comparison also rejects NaN and integers beyond the float range
        if isinstance(value, bool) or not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
            raise _invalid(role, name, "a finite number", value, gt, ge, le)
        value = float(value)
    if (gt is None or value > gt) and (ge is None or value >= ge) and (le is None or value <= le):
        return value
    raise _invalid(role, name, "a finite number", value, gt, ge, le)


def _check_integer(value, name: str, role: str = "argument", *, ge=None, le=None):
    """``value`` if it is an integer (an ``Integral``, not a bool), ``>= ge`` and ``<= le`` where given."""
    integral = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and (ge is None or value >= ge) and (le is None or value <= le):
        return value
    raise _invalid(role, name, "an integer", value, ge=ge, le=le)


def _check_bool(value, name: str, role: str = "argument") -> bool:
    """``value`` if it is a bool."""
    if isinstance(value, bool):
        return value
    raise _invalid(role, name, "a bool", value)


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, tall where a single matrix is fixed along the other's stack at d <= 3 (see the module docstring)."""
    # bits checked at d <= 3 under OpenBLAS 0.3.31's SkylakeX, Haswell, Zen, Sandybridge, Nehalem and Prescott kernels
    if a.shape[-1] <= 3:
        if b.ndim == 2 and a.ndim > 2:
            return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape)
        if a.ndim == 2 and b.ndim > 2 and not a.imag.any():
            return (b.mT.reshape(-1, b.shape[-1]) @ a.mT).reshape(b.mT.shape).mT
    return a @ b


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ``AB - BA`` of two equally sized square matrices (stacks broadcast).

    A matrix fixed along the other's stack is multiplied by the module's rule: tall at d <= 3, per matrix otherwise.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[-1] != bm.shape[-1]:
        raise ValueError(f"dimension mismatch: {am.shape[-1]} vs {bm.shape[-1]}")
    c = _product(am, bm)
    c -= _product(bm, am)  # in place: one stack fewer alive at a time
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
    input that is not one square matrix, or a ``tol`` that is not a positive number.
    """
    _check_number(tol, "tol", gt=0.0)
    m = _one_matrix(rho)
    herm = hermiticity_defect(m)
    trace = abs(float(np.trace(m).real) - 1.0)
    eig_min = min_eigenvalue(m)
    passed = herm <= tol and trace <= tol and eig_min >= -tol
    return DensityDiagnostics(herm, trace, eig_min, tol, passed)
