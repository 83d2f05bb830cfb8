"""Dense complex linear algebra for small matrices.

Everything in this package works on plain numpy arrays of complex128.  The
matrices of interest are tiny (system dimension N <= 8, superoperators up to
64 x 64).  Decompositions come from numpy's LAPACK bindings: Hermitian
eigenproblems from ``eigh``, singular values and null spaces from ``svd``.
The matrix exponential is an in-house [6/6] diagonal Pade approximant with
scaling and squaring.  The wrappers here add input validation and the
package's tolerance conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance (with floor 1) for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10
#: Eigenvalues above -PSD_TOL (scaled) count as nonnegative.
PSD_TOL = 1e-10
#: Relative tolerance for zero: kernel_basis drops singular values up to
#: KERNEL_TOL times the largest; the dispersion checks (is_dispersive and the
#: dispersion kernel's rank cut) use KERNEL_TOL * max(1, ||H||_F) instead.
KERNEL_TOL = 1e-9
#: Allowed deviation of a density-matrix trace from one.
TRACE_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint."""
    if m.size == 0:
        return 0.0
    return float(np.abs(m - dagger(m)).max())


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    require_square(m)
    defect = hermiticity_defect(m)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                         f"{tol:.1e} * {scale:.3e}")


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, so vec(A X B) = (B^T (x) A) vec(X)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def hermitian_eigen(a, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and unitary v whose columns
    are the matching eigenvectors, so a == v @ diag(w) @ v^dagger up to
    round-off.  The Hermitian part of the input is decomposed after the
    input passes the hermiticity check at tolerance tol.
    """
    m = as_matrix(a)
    require_hermitian(m, tol)
    return np.linalg.eigh(0.5 * (m + dagger(m)))


# [6/6] diagonal Pade coefficients for exp(x): numerator sum c_j x^j,
# denominator the same series in -x.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0,
          1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def expm(a, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(scale * a) by Pade approximation with squaring.

    The argument is halved until its 1-norm is at most 0.5, the [6/6]
    diagonal Pade approximant is evaluated there, and the result is squared
    back up.
    """
    # The entries are scanned only on an error path: the scaled 1-norm below
    # is non-finite whenever an entry is, so a valid matrix is read once.
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(scale):
        require_square(as_matrix(m))
        raise ValueError("scale must be finite")
    n = m.shape[0]
    if n == 0:
        return m.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        b = scale * m
        norm = float(np.abs(b).sum(axis=0).max())
    if not math.isfinite(norm):
        as_matrix(m)  # raises first when an entry is non-finite
        raise ValueError("matrix exponential overflowed")
    squarings = 0
    if norm > 0.5:
        # norm / 0.5 overflows past 2**1024; 1025 halvings bring any finite
        # norm below 0.5
        squarings = max(0, int(math.ceil(min(math.log2(norm / 0.5), 1025.0))))
        b = b * 0.5 ** squarings
    eye = np.eye(n, dtype=complex)
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    c = _PADE6
    even = c[0] * eye + c[2] * b2 + c[4] * b4 + c[6] * b6
    odd = b @ (c[1] * eye + c[3] * b2 + c[5] * b4)
    r = np.linalg.solve(even - odd, even + odd)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r = r @ r
    if not np.isfinite(r).all():
        raise ValueError("matrix exponential overflowed")
    return r


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def operator_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def trace_norm(a) -> float:
    """Sum of singular values of a square matrix."""
    m = as_matrix(a)
    require_square(m)
    return float(singular_values(m).sum())


def kernel_basis(m, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of m.

    The basis is the right singular vectors past the numerical rank, which
    counts singular values above tol times the largest.  A zero map returns
    a basis of the whole domain.
    """
    a = as_matrix(m)
    n = a.shape[1]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(a)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax))
    return dagger(vh[rank:])


def psd_bound(w: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """How far below zero eigenvalues w may sit and still count as nonnegative.

    The bound is tol * max(1, max |w|) taken along the last axis, so a stack
    of spectra gets one bound per matrix and a single spectrum a scalar.
    """
    return tol * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))


def is_psd(a, tol: float = PSD_TOL) -> bool:
    """Whether a Hermitian matrix is positive semidefinite within tolerance."""
    w, _ = hermitian_eigen(a)
    return bool(w.size == 0 or w[0] >= -psd_bound(w, tol))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction, from one eigendecomposition whose
    ascending eigenvalues are kept as ``spectrum``; both arrays are read-only.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        w, _ = hermitian_eigen(m)
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_TOL * max(1.0, abs(tr)):
            raise ValueError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if w[0] < -PSD_TOL:
            raise ValueError(f"density matrix is not PSD: min eigenvalue {w[0]:.3e}")
        m = m.copy()
        m.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
