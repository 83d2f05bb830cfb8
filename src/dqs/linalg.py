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


def hermitian_part(ms: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of each matrix of a stack, halved before the sum.

    Halving first keeps an entry and its mirror from overflowing together
    near the float maximum; for normal-range floats the bits are those of
    0.5 * (m + m^dagger).
    """
    return 0.5 * ms + 0.5 * ms.conj().swapaxes(-1, -2)


def _defects(ms: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation from the adjoint, per matrix of a stack."""
    return np.abs(ms - ms.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _hermitian_within(ms: np.ndarray, tol: float):
    """Per matrix of a stack: whether its defect is within tol * max(1, max |entry|).

    Returns that verdict with the defects and scales it was judged by.
    """
    defect = _defects(ms)
    scale = np.maximum(1.0, np.abs(ms).max(axis=(-2, -1), initial=0.0))
    return ~(defect > tol * scale), defect, scale


def _not_hermitian(defect: float, tol: float, scale: float) -> str:
    return f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}"


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint."""
    return float(_defects(m))


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    require_square(m)
    ok, defect, scale = _hermitian_within(m, tol)
    if not ok:
        raise ValueError(_not_hermitian(defect, tol, scale))


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm; finite entries whose squares overflow are rescaled first."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
        if norm == math.inf and np.isfinite(m).all():
            a = np.asarray(m)
            s = max(np.abs(a.real).max(), np.abs(a.imag).max())
            norm = float(s * np.linalg.norm(a / s))
    return norm


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
    return np.linalg.eigh(hermitian_part(m))


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


def _leading(ok: np.ndarray) -> int:
    """Length of the all-true prefix of a boolean vector."""
    return len(ok) if ok.all() else int(ok.argmin())


def density_spectra(ms) -> tuple[np.ndarray, str | None]:
    """Validate a stack of density matrices, shape (k, n, n), in order.

    A density matrix has finite entries, is square and Hermitian within
    HERMITICITY_TOL (relative, floor 1), has trace 1 within TRACE_TOL and
    no eigenvalue below -PSD_TOL.  Returns (w, error): w holds the ascending
    eigenvalues of the longest valid prefix of the stack, from one ``eigh``
    of its Hermitian parts, and error is None when that prefix is the whole
    stack, else why ``ms[len(w)]`` fails.
    """
    ms = np.asarray(ms, dtype=complex)
    k = _leading(np.isfinite(ms).all(axis=(1, 2)))
    if k and ms.shape[1] != ms.shape[2]:
        return np.zeros((0, 0)), f"expected a square matrix, got shape {ms.shape[1:]}"
    m = ms[:k]
    hermitian, defect, scale = _hermitian_within(m, HERMITICITY_TOL)
    tr = np.trace(m, axis1=1, axis2=2)
    drift = np.abs(tr - 1.0)
    unit = ~(drift > TRACE_TOL * np.maximum(1.0, np.abs(tr)))
    checked = _leading(hermitian & unit)
    m = m[:checked]
    w = np.linalg.eigh(hermitian_part(m))[0]
    valid = _leading(~(w[:, 0] < -PSD_TOL)) if w.shape[1] else checked
    if valid < checked:
        error = f"density matrix is not PSD: min eigenvalue {w[valid, 0]:.3e}"
    elif checked < k and not hermitian[checked]:
        error = _not_hermitian(defect[checked], HERMITICITY_TOL, scale[checked])
    elif checked < k:
        error = f"density matrix trace deviates from 1 by {drift[checked]:.3e}"
    elif k < len(ms):
        error = "matrix has non-finite entries"
    else:
        error = None
    return w[:valid], error


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction, by ``density_spectra`` on a stack of
    one; the ascending eigenvalues it computes are kept as ``spectrum``.
    Both arrays are read-only.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        w, error = density_spectra(m[None])
        if error is not None:
            raise ValueError(error)
        m = m.copy()
        w = w[0]
        m.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
