"""Dense linear algebra for small matrices.

Matrices and states are plain numpy arrays of complex128; the one real
exception is the generator in Bloch coordinates, which ``expm`` keeps in
float64.  The matrices of interest are tiny (system dimension N <= 8,
generators up to 64 x 64).  Decompositions come from numpy's LAPACK
bindings: Hermitian eigenproblems from ``eigh``, singular values and null
spaces from ``svd``.  The matrix exponential is an in-house [6/6] diagonal
Pade approximant with scaling and squaring; its one linear solve calls
LAPACK's gesv through numpy's gufunc ``_umath_linalg.solve``, the one
``np.linalg.solve`` wraps, because the wrapper's checks cost more than the
solve on these sizes and its denominator can never be singular.  The
wrappers here add input validation and the package's tolerance conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

#: The one Hermiticity rule, no caller sets another: max |m - m^dagger| <= HERMITICITY_TOL max |m|.
HERMITICITY_TOL = 1e-10
#: The one PSD rule, no caller sets another: eigenvalues w >= -PSD_TOL max |w| count as nonnegative.
PSD_TOL = 1e-10
#: Relative zero of null_spaces, stationary_states (KERNEL_TOL (||H||_F + ||a||_F)),
#: is_dispersive's default and so the dispersion kernel's rank cut.
KERNEL_TOL = 1e-9
#: Allowed deviation of a density-matrix trace from one.
TRACE_TOL = 1e-12


def as_matrix(a, dtype=complex) -> np.ndarray:
    """Coerce to a 2-d array of dtype (complex128 by default), rejecting non-finite entries."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def hermitian_part(ms: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of each matrix of a stack, halved before the sum.

    Halving first keeps an entry and its mirror from overflowing together
    near the float maximum; for normal-range floats the bits are those of
    0.5 * (m + m^dagger).
    """
    return 0.5 * ms + 0.5 * ms.conj().swapaxes(-1, -2)


_HALF_MAX = np.finfo(float).max / 2


def _half_defects(ms: np.ndarray) -> np.ndarray:
    """max |m - m^dagger| / 2 per matrix of a stack, halved before the difference.

    As in hermitian_part, halving first keeps an entry and its mirror near
    the float maximum from overflowing together.
    """
    return np.abs(0.5 * ms - 0.5 * ms.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _defects(half: np.ndarray) -> np.ndarray:
    """The defects max |m - m^dagger| from their halves; one past the float range reads as the largest float."""
    return 2.0 * np.minimum(half, _HALF_MAX)


def _not_hermitian(defect: float, scale: float) -> str:
    return (f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} * {scale:.3e}")


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint (at most the largest float)."""
    return float(_defects(_half_defects(m)))


def require_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number, NaN included (is_dispersive's)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be a positive number, got {tol!r}")


def require_hermitian(m: np.ndarray) -> None:
    """Reject m unless its defect max |m - m^dagger| is within HERMITICITY_TOL max |m|, no floor."""
    require_square(m)
    half, scale = _half_defects(m), np.abs(m).max(initial=0.0)
    if half > 0.5 * HERMITICITY_TOL * scale:
        raise ValueError(_not_hermitian(_defects(half), scale))


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm; finite entries whose squares overflow are rescaled first."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
        if norm == math.inf and np.isfinite(m).all():
            a = np.asarray(m)
            s = max(np.abs(a.real).max(), np.abs(a.imag).max())
            norm = float(s * np.linalg.norm(a / s))
    return norm


def zero_bound(m, tol: float) -> float:
    """tol ||m||_F: the most a quantity computed from m may be and still count as zero.

    This is the package's zero rule, with no absolute floor.  m is scaled
    before its norm, so the bound overflows only where tol * m does; an
    infinite tol gives NaN on m's zero entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return frobenius(tol * np.asarray(m))


def hermitian_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and unitary v whose columns
    are the matching eigenvectors, so a == v @ diag(w) @ v^dagger up to
    round-off.  The Hermitian part of the input is decomposed after the
    input passes ``require_hermitian``.
    """
    m = as_matrix(a)
    require_hermitian(m)
    return np.linalg.eigh(hermitian_part(m))


def hermitian_eigenvalues(a) -> np.ndarray:
    """The eigenvalues w of ``hermitian_eigen``, by ``eigvalsh``: no eigenvectors are formed."""
    m = as_matrix(a)
    require_hermitian(m)
    return np.linalg.eigvalsh(hermitian_part(m))


# [6/6] diagonal Pade coefficients for exp(x): numerator sum c_j x^j,
# denominator the same series in -x.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0,
          1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)
# Their sums over the powers (b^2, b^4, b^6): the even part less its constant
# c_0, and the odd part's factor after b less its constant c_1.
_PADE6_ROWS = np.array([[_PADE6[2], _PADE6[4], _PADE6[6]], [_PADE6[3], _PADE6[5], 0.0]])
#: Below this scaled 1-norm every power squared up is at most about e^700,
#: far inside the float range, so the squarings cannot overflow.
_SAFE_NORM = 700.0


def expm(a, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(scale * a) by Pade approximation with squaring.

    The argument is halved until its 1-norm is at most 0.5, the [6/6]
    diagonal Pade approximant is evaluated there, and the result is squared
    back up.  A real matrix gives a float64 result, any other a complex128
    one.  Every product is one ``np.dot`` into a buffer of this call, the
    cheapest numpy dispatch on the tiny matrices of ``evolve``, and the one
    linear solve calls the LAPACK gufunc behind ``np.linalg.solve``
    directly: its denominator is never singular, so the wrapper's checks
    could never fire.  The result is a fresh array and shares no memory with
    any other call's.
    """
    # The entries are scanned only on an error path: the scaled 1-norm below
    # is non-finite whenever an entry is, so a valid matrix is read once.
    m = np.asarray(a)
    m = m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not abs(scale) < math.inf:
        require_square(as_matrix(m))
        raise ValueError("scale must be finite")
    n = m.shape[0]
    if n == 0:
        return m.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        b = scale * m
        norm = float(np.maximum.reduce(np.add.reduce(np.abs(b), axis=0)))
    if not math.isfinite(norm):
        as_matrix(m)  # raises first when an entry is non-finite
        raise ValueError("matrix exponential overflowed")
    squarings = 0
    if norm > 0.5:
        # norm / 0.5 overflows past 2**1024; 1025 halvings bring any finite
        # norm below 0.5
        squarings = max(0, int(math.ceil(min(math.log2(norm / 0.5), 1025.0))))
        b *= 0.5 ** squarings
    # b^2, b^4, b^6, then the even part and the odd part's factor after b,
    # as rows of one flat work array; den then takes b^6's slot
    flat = np.empty((6, n * n), dtype=b.dtype)
    b2, b4, b6, even, inner, odd = flat.reshape(6, n, n)
    np.dot(b, b, out=b2)
    np.dot(b2, b2, out=b4)
    np.dot(b2, b4, out=b6)
    np.dot(_PADE6_ROWS, flat[:3], out=flat[3:5])
    np.dot(b, inner, out=odd)
    odd += _PADE6[1] * b
    den = np.subtract(even, odd, out=b6)
    flat[2, ::n + 1] += _PADE6[0]
    odd += odd
    odd += den
    # ||b||_1 <= 1/2 keeps ||den - I||_1 below 0.29 < 1, so den is
    # nonsingular and np.linalg.solve's singular-matrix handler, with the
    # errstate it sets for it, could never fire.  casting="no" rejects with
    # a TypeError the dtypes the wrapper rejects (from a longdouble scale).
    r = _umath_linalg.solve(den, odd, signature="DD->D" if b.dtype.kind == "c" else "dd->d",
                            casting="no")      # (even + odd) / (even - odd)
    if not squarings:
        return r
    spare = np.empty_like(r)           # the squarings ping-pong between r and spare
    if norm < _SAFE_NORM:
        for _ in range(squarings):
            r, spare = np.dot(r, r, out=spare), r
        return r
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r, spare = np.dot(r, r, out=spare), r
    if not np.isfinite(r).all():
        raise ValueError("matrix exponential overflowed")
    return r


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def null_spaces(m, zero: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of the numerical null spaces of m and of m^+.

    Both come from one SVD of m: the right and the left singular vectors
    past the numerical rank, which counts singular values above KERNEL_TOL
    times the largest and above zero, the round-off of the inputs m was
    computed from.  The two bases of a square m therefore have equally many
    columns.  A zero map, or one whose singular values are all at most zero,
    returns bases of the whole domain and codomain.
    As in ``expm``, a real m gives a real SVD and float64 bases.
    """
    a = np.asarray(m)
    u, s, vh = np.linalg.svd(as_matrix(a, float if a.dtype.kind in "biuf" else complex))
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > max(KERNEL_TOL * smax, zero)))
    return vh[rank:].conj().T, u[:, rank:]


def kernel_basis(m) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of m.

    The basis is that of ``null_spaces``, float64 for a real m.  A zero map
    returns a basis of the whole domain.
    """
    return null_spaces(m)[0]


def psd_bound(w: np.ndarray) -> np.ndarray:
    """How far below zero eigenvalues w may sit and still count as nonnegative.

    The bound is PSD_TOL * max |w| taken along the last axis, the zero rule of
    ``zero_bound`` with the largest eigenvalue for the size, so a stack of
    spectra gets one bound per matrix and a single spectrum a scalar.
    """
    return PSD_TOL * np.abs(w).max(axis=-1, initial=0.0)


def is_psd(a) -> bool:
    """Whether a Hermitian matrix is positive semidefinite by the rule of ``psd_bound``."""
    w = hermitian_eigenvalues(a)
    return bool(w.size == 0 or w[0] >= -psd_bound(w))


def _leading(ok: np.ndarray) -> int:
    """Length of the all-true prefix of a boolean vector."""
    return len(ok) if ok.all() else int(ok.argmin())


def density_spectra(ms) -> tuple[np.ndarray, str | None]:
    """Validate a stack of density matrices, shape (k, n, n), in order.

    A density matrix has finite entries, is square and has trace 1 within
    TRACE_TOL; the trace fixes its scale at 1, so its defect is at most
    HERMITICITY_TOL and no eigenvalue is below -PSD_TOL.  Returns (w, error):
    w holds the ascending eigenvalues of the longest valid prefix of the
    stack, from one ``eigh`` of its Hermitian parts, and error is None when
    that prefix is the whole stack, else why ``ms[len(w)]`` fails.
    """
    ms = np.asarray(ms, dtype=complex)
    k = _leading(np.isfinite(ms).all(axis=(1, 2)))
    if k and ms.shape[1] != ms.shape[2]:
        return np.zeros((0, 0)), f"expected a square matrix, got shape {ms.shape[1:]}"
    m = ms[:k]
    half = _half_defects(m)
    hermitian = ~(half > 0.5 * HERMITICITY_TOL)
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
        error = _not_hermitian(_defects(half[checked]), 1.0)
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
