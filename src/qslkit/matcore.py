"""Dense complex matrix algebra for small quantum systems.

Conventions shared by the whole package:

* Two-level basis ordering is ``{|1>, |0>}``: index 0 is the excited
  state ``|1>``, index 1 the ground state ``|0>``.  A state vector
  ``(a, b)`` therefore reads ``a|1> + b|0>``.
* Three-level systems extend the same descending order ``{|2>, |1>, |0>}``.
* Operations are pure: inputs are never mutated and results are freshly
  allocated arrays.  Supported dimensions are 1..32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 32

#: Norm tolerance for accepting a vector as a physical state.
STATE_NORM_TOL = 1e-12

# Pauli and ladder operators in the {|1>, |0>} basis (index 0 = excited).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |1><0|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0><1|


def identity(dim: int) -> np.ndarray:
    """Complex identity matrix of the given dimension."""
    return np.eye(dim, dtype=complex)


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix, validating its shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(a, dtype=complex).conj().T.copy()


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ``AB - BA`` of two equally sized square matrices."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    return am @ bm - bm @ am


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm ``sqrt(Tr(A^dag A))`` (Frobenius norm)."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


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
    m = as_matrix(rho)
    return float(np.trace(m @ m).real)


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation from ``A = A^dag``."""
    m = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = as_matrix(rho)
    herm = 0.5 * (m + m.conj().T)
    if m.shape[0] == 2:
        # closed form keeps the propagation hot path off the eigensolver
        tr = herm[0, 0].real + herm[1, 1].real
        det = (herm[0, 0] * herm[1, 1] - herm[0, 1] * herm[1, 0]).real
        disc = max(tr * tr - 4.0 * det, 0.0)
        return 0.5 * (tr - np.sqrt(disc))
    return float(np.linalg.eigvalsh(herm)[0])


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

    Purely diagnostic: never raises, reports defects against ``tol``.
    """
    m = as_matrix(rho)
    herm = hermiticity_defect(m)
    trace = abs(float(np.trace(m).real) - 1.0)
    eig_min = min_eigenvalue(m)
    passed = herm <= tol and trace <= tol and eig_min >= -tol
    return DensityDiagnostics(herm, trace, eig_min, tol, passed)
