"""GKS (Lindblad) generators in standard form and dissipation diagnostics.

A generator acts on density matrices as

    L(sigma) = -i [H, sigma]
               + sum_{i,j < N^2} a_ij (F_i sigma F_j^+ -
                                       (F_j^+ F_i sigma + sigma F_j^+ F_i) / 2)

where H is Hermitian, (a_ij) is the Hermitian positive-semidefinite
Kossakowski matrix, and F_1 .. F_{N^2} is a trace-orthonormal operator basis
whose last element is I/sqrt(N) and whose other elements are traceless.  The
Kossakowski entries are always coordinates with respect to that orthonormal
basis.

The central diagnostic is the dissipation operator

    D_H = sum_{i,j} a_ij (F_j^+ H F_i - (F_j^+ F_i H + H F_j^+ F_i) / 2),

the adjoint (Heisenberg-picture) dissipator applied to H: the Hermitian
observable whose expectation value in the current state gives d<H>/dt.  A
model is *dispersive* when D_H vanishes: its dissipator is active (the
dynamics is not unitary, and generally not time-reversible) yet energy is
conserved exactly.

The GKS sum is written once, as the matrix S(a) of the dissipator on
column-stacked states; the generator matrix, the dissipator's action and D_H
(as S(a)^+ vec H) come from it.  The dispersion kernel contracts H first and
gathers each coordinate direction's D_H from the terms F_j^+ H F_i.

In the Hermitian Gell-Mann basis G_1 .. G_{N^2} (G_{N^2} = I/sqrt(N)) a state
is a real vector x_j = tr(G_j rho), and the generator is the real matrix
R_ij = tr(G_i L(G_j)), the affine Bloch form of the generator.  Its last row
is zero because L preserves the trace, so exp(tR) keeps x_{N^2} = 1/sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import HERMITICITY_TOL, KERNEL_TOL, dagger, unvec, vec


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Trace-orthonormal operator basis with the scaled identity last.

    Elements need not be Hermitian; any unitary mixing of the traceless part
    of the canonical basis is accepted.
    """

    dim: int
    elements: tuple

    def __post_init__(self):
        n = self.dim
        if n < 2:
            raise ValueError("basis needs dimension >= 2")
        if len(self.elements) != n * n:
            raise ValueError(f"expected {n * n} basis elements, got {len(self.elements)}")
        mats = []
        for k, e in enumerate(self.elements):
            m = linalg.as_matrix(e)
            if m.shape != (n, n):
                raise ValueError(f"basis element {k} has shape {m.shape}, expected {(n, n)}")
            m = m.copy()
            m.flags.writeable = False
            mats.append(m)
        for k in range(n * n - 1):
            if abs(mats[k].trace()) > 1e-12:
                raise ValueError(f"basis element {k} is not traceless")
        if np.abs(mats[-1] - np.eye(n) / math.sqrt(n)).max() > 1e-12:
            raise ValueError("last basis element must be I/sqrt(N)")
        f = np.stack(mats).reshape(n * n, n * n)
        gram = f.conj() @ f.T  # gram[x, y] = tr(F_x^+ F_y)
        if np.abs(gram - np.eye(n * n)).max() > 1e-12:
            raise ValueError("basis is not orthonormal under the trace inner product")
        object.__setattr__(self, "elements", tuple(mats))

    @property
    def traceless(self) -> tuple:
        """The N^2 - 1 elements spanning the traceless subspace."""
        return self.elements[:-1]


@lru_cache(maxsize=None)
def gell_mann_basis(dim: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for the given dimension.

    Ordering: symmetric off-diagonal elements (pairs (j,k), j<k, in
    lexicographic order), then the antisymmetric off-diagonal elements in the
    same pair order, then the diagonal elements, then I/sqrt(N).  For N = 2
    this is exactly (sx, sy, sz, I) / sqrt(2).
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    elems = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = inv_sqrt2
            elems.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            elems.append(m)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        norm = 1.0 / math.sqrt(level * (level + 1))
        for i in range(level):
            m[i, i] = norm
        m[level, level] = -level * norm
        elems.append(m)
    elems.append(np.eye(dim, dtype=complex) / math.sqrt(dim))
    return OperatorBasis(dim, tuple(elems))


@dataclass(frozen=True, eq=False)
class KossakowskiMatrix:
    """Hermitian PSD coefficient matrix of a dissipator, shape (N^2-1)^2."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        k = self.dim * self.dim - 1
        m = linalg.as_matrix(self.matrix)
        if m.shape != (k, k):
            raise ValueError(f"Kossakowski matrix must be {k} x {k} for dimension "
                             f"{self.dim}, got {m.shape}")
        w, _ = linalg.hermitian_eigen(m, 1e-12)
        if w.size and w[0] < -linalg.psd_bound(w):
            raise ValueError(f"Kossakowski matrix is not PSD: min eigenvalue {w[0]:.3e}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _kossakowski_array(a, basis: OperatorBasis) -> np.ndarray:
    arr = a.matrix if isinstance(a, KossakowskiMatrix) else linalg.as_matrix(a)
    k = basis.dim * basis.dim - 1
    if arr.shape != (k, k):
        raise ValueError(f"coefficient matrix must be {k} x {k}, got {arr.shape}")
    return arr


def _dissipator_superop(a: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Matrix S(a) of sigma -> sum_ij a_ij (F_i sigma F_j^+ - {F_j^+ F_i, sigma}/2).

    S acts on column-stacked matrices and is linear in the (N^2-1)^2 matrix a.
    """
    n = basis.dim
    f = np.stack(basis.traceless)
    g = np.einsum("ij,ikm->jkm", a, f)          # G_j = sum_i a_ij F_i
    p = np.einsum("jlk,jlm->km", f.conj(), g)   # sum_ij a_ij F_j^+ F_i
    eye = np.eye(n)
    # vec(A X B) = (B^T kron A) vec(X); kron(A, B)[l n + k, q n + m] = A_lq B_km
    s = (np.einsum("jlq,jkm->lkqm", f.conj(), g)
         - 0.5 * (np.einsum("lq,km->lkqm", eye, p)
                  + np.einsum("ql,km->lkqm", p, eye)))
    return s.reshape(n * n, n * n)


def dissipator_apply(a, basis: OperatorBasis, sigma) -> np.ndarray:
    """Apply the dissipator with coefficients a to the matrix sigma."""
    arr = _kossakowski_array(a, basis)
    s = linalg.as_matrix(sigma)
    if s.shape != (basis.dim, basis.dim):
        raise ValueError(f"state has shape {s.shape}, expected square of dim {basis.dim}")
    return unvec(_dissipator_superop(arr, basis) @ vec(s), basis.dim)


@dataclass(frozen=True, eq=False)
class GKSLiouvillian:
    """A GKS generator; caches its matrix on vectorized states at build time."""

    hamiltonian: np.ndarray
    kossakowski: KossakowskiMatrix
    basis: OperatorBasis
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = linalg.as_matrix(self.hamiltonian)
        n = self.basis.dim
        if h.shape != (n, n):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match basis dimension {n}")
        linalg.require_hermitian(h, HERMITICITY_TOL)
        if self.kossakowski.dim != n:
            raise ValueError("Kossakowski dimension does not match basis dimension")
        h = h.copy()
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)

        eye = np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):
            m = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
                 + _dissipator_superop(self.kossakowski.matrix, self.basis))
        if not np.isfinite(m).all():
            raise ValueError("generator overflows")
        m.flags.writeable = False
        object.__setattr__(self, "superop", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def bloch(self) -> np.ndarray:
        """The real generator R_ij = tr(G_i L(G_j)) in the Hermitian Gell-Mann basis.

        Read-only and built on first use.  R is real in exact arithmetic:
        the imaginary round-off of the basis change is dropped, and the last
        row, tr(L(.)) / sqrt(N), is set to exactly zero.
        """
        n = self.dim
        g = np.stack(gell_mann_basis(n).elements)
        v = g.swapaxes(1, 2).reshape(n * n, n * n)  # row j is vec(G_j)
        with np.errstate(over="ignore", invalid="ignore"):
            r = (v.conj() @ self.superop @ v.T).real.copy()
        if not np.isfinite(r).all():
            raise ValueError("generator overflows")
        r[-1] = 0.0
        r.flags.writeable = False
        return r


def liouvillian_apply(liouvillian: GKSLiouvillian, sigma) -> np.ndarray:
    """L(sigma): the commutator term plus the dissipator's action through S(a)."""
    s = linalg.as_matrix(sigma)
    h = liouvillian.hamiltonian
    return (-1j * (h @ s - s @ h)
            + dissipator_apply(liouvillian.kossakowski, liouvillian.basis, s))


def dissipation_from_parts(a, basis: OperatorBasis, hamiltonian) -> np.ndarray:
    """D_H = S(a)^+ vec(H) for explicit coefficients, PSD not required.

    The adjoint identity holds for Hermitian a only; validated generators
    should go through dissipation_operator instead.
    """
    arr = _kossakowski_array(a, basis)
    linalg.require_hermitian(arr, 1e-12)
    h = linalg.as_matrix(hamiltonian)
    with np.errstate(over="ignore", invalid="ignore"):
        d = dagger(_dissipator_superop(arr, basis)) @ vec(h)
    if not np.isfinite(d).all():
        raise ValueError("dissipation operator overflows")
    return unvec(d, basis.dim)


def dissipation_operator(liouvillian: GKSLiouvillian) -> np.ndarray:
    """The Hermitian observable D_H with d<H>/dt = tr(rho D_H)."""
    return dissipation_from_parts(liouvillian.kossakowski, liouvillian.basis,
                                  liouvillian.hamiltonian)


class DispersiveVerdict(NamedTuple):
    dispersive: bool
    residual: float


def is_dispersive(liouvillian: GKSLiouvillian, tol: float = KERNEL_TOL) -> DispersiveVerdict:
    """Whether D_H vanishes, i.e. the model conserves energy exactly.

    The residual is the Frobenius norm of D_H; the verdict compares it to
    tol * max(1, ||H||_F).
    """
    residual = linalg.frobenius(dissipation_operator(liouvillian))
    return DispersiveVerdict(residual <= _zero_bound(liouvillian.hamiltonian, tol), residual)


def _zero_bound(h: np.ndarray, tol: float) -> float:
    """tol * max(1, ||H||_F): the size of D_H, or of a singular value, that counts as zero."""
    bound = tol * max(1.0, linalg.frobenius(h))
    if bound == math.inf:  # ||H||_F is past the float range, tol ||H||_F may not be
        with np.errstate(over="ignore"):
            bound = linalg.frobenius(tol * h)
    return bound


# ------------------------------------------------------------------
# Real coordinates for Hermitian matrices: diagonal entries first, then
# sqrt(2) (real, imag) of each upper-triangle entry in row-major order, so
# that the Frobenius norm of a matrix is the Euclidean norm of its coordinates.

_SQRT_HALF = math.sqrt(0.5)


def hermitian_coords(m) -> np.ndarray:
    """Coordinates of the Hermitian part of m; leading axes are batch axes."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    rows, cols = np.triu_indices(a.shape[-1], 1)
    upper = _SQRT_HALF * (a[..., rows, cols] + a[..., cols, rows].conj())
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(a.shape[:-2] + (-1,))
    return np.concatenate([np.diagonal(a, axis1=-2, axis2=-1).real, pairs], axis=-1)


def coords_to_hermitian(x, n: int) -> np.ndarray:
    """Inverse of hermitian_coords; leading axes of x are batch axes."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n * n,):
        raise ValueError(f"expected {n * n} coordinates, got shape {x.shape}")
    rows, cols = np.triu_indices(n, 1)
    upper = _SQRT_HALF * (x[..., n::2] + 1j * x[..., n + 1::2])
    a = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    a[..., range(n), range(n)] = x[..., :n]
    a[..., rows, cols] = upper
    a[..., cols, rows] = upper.conj()
    return a


class KernelSample(NamedTuple):
    coefficients: np.ndarray
    matrix: np.ndarray
    psd: bool


@dataclass(frozen=True, eq=False)
class DispersionKernel:
    """Null space of a |-> D_H(a) over Hermitian coefficient matrices.

    kernel holds Frobenius-orthonormal Hermitian matrices spanning it;
    element_psd flags each of them (and its negation) as PSD or not, and
    samples records random combinations drawn inside the kernel together
    with their PSD verdicts.  map_matrix is the real matrix of the
    constraint map, size N^2 x (N^2-1)^2, in the isometric coordinates of
    hermitian_coords on both sides, so that its singular values do not
    depend on the operator basis.
    """

    kernel: tuple
    element_psd: tuple
    negation_psd: tuple
    samples: tuple
    map_matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.kernel)


def dispersive_kossakowski_kernel(hamiltonian, basis: OperatorBasis,
                                  tol: float = KERNEL_TOL,
                                  psd_tol: float = 1e-8,
                                  samples: int = 200,
                                  seed: int = 0) -> DispersionKernel:
    """All Hermitian coefficient matrices making the given H dispersive.

    Builds the real-linear map a |-> D_H(a) over the isometric real
    coordinates of Hermitian (N^2-1) x (N^2-1) matrices, gathering D_H of
    each coordinate direction from H-contracted GKS terms, and extracts its
    null space: singular values at or below tol * max(1, ||H||_F), the bound
    is_dispersive applies to D_H, count as zero.  Valid dissipators in the
    kernel are its PSD elements; since PSD-ness is not a linear condition,
    it is reported by inspection: each kernel basis element (and its
    negation) is flagged, and `samples` random unit-norm combinations (half
    signed Gaussian, half with nonnegative coefficients) are drawn from a
    generator seeded by `seed` and flagged likewise.
    """
    h = linalg.as_matrix(hamiltonian)
    n = basis.dim
    if h.shape != (n, n):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis dimension {n}")
    linalg.require_hermitian(h, HERMITICITY_TOL)
    k = n * n - 1
    # D_H(a) = sum_ij a_ij M[i, j] with M[i, j] = F_j^+ H F_i - {F_j^+ F_i, H}/2
    f = np.stack(basis.traceless)[:, None]     # [i, 0] = F_i
    fd = f.conj().transpose(1, 0, 3, 2)        # [0, j] = F_j^+
    prods = fd @ f
    m = fd @ h @ f - 0.5 * (prods @ h + h @ prods)
    # column c is D_H of unit direction c: M_ii, or (M_rs + M_sr) and
    # i(M_rs - M_sr) over sqrt(2)
    i, j = np.triu_indices(k, 1)
    pairs = _SQRT_HALF * np.stack([m[i, j] + m[j, i], 1j * (m[i, j] - m[j, i])], axis=1)
    phi = hermitian_coords(np.concatenate([m[range(k), range(k)], pairs.reshape(-1, n, n)])).T
    # not relative to the largest singular value: for H proportional to I
    # that is itself round-off
    _, s, vt = np.linalg.svd(phi)
    rank = int(np.count_nonzero(s > _zero_bound(h, tol)))
    coords = vt[rank:]
    dim = len(coords)
    coeffs = np.random.default_rng(seed).standard_normal((max(samples, 0), dim))
    coeffs[samples // 2:] = np.abs(coeffs[samples // 2:])
    norms = np.linalg.norm(coeffs, axis=1)
    coeffs = coeffs[norms > 0] / norms[norms > 0, None]
    # the kernel elements, then the samples; -m is PSD iff m's top eigenvalue
    # is at most the bound, so one spectrum flags both signs
    mats = coords_to_hermitian(np.concatenate([coords, coeffs @ coords]), k)
    w = np.linalg.eigvalsh(mats)
    bound = linalg.psd_bound(w, psd_tol)
    psd = (w[:, 0] >= -bound).tolist()
    drawn = tuple(map(KernelSample, coeffs, mats[dim:], psd[dim:]))
    return DispersionKernel(tuple(mats[:dim]), tuple(psd[:dim]),
                            tuple((w[:dim, -1] <= bound[:dim]).tolist()), drawn, phi)


def lindblad_operators(a, basis: OperatorBasis) -> list:
    """Jump operators V_k with dissipator sum_k (V_k . V_k^+ - {V_k^+ V_k, .}/2).

    Diagonalizes the coefficient matrix, keeps the strictly positive part of
    the spectrum and absorbs each eigenvalue into the operator scale, so no
    prefactor remains in front of the sum.
    """
    arr = _kossakowski_array(a, basis)
    w, u = linalg.hermitian_eigen(arr, 1e-12)
    threshold = linalg.psd_bound(w)
    if w[0] < -threshold:
        raise ValueError(f"coefficient matrix is not PSD: min eigenvalue {w[0]:.3e}")
    f = np.stack(basis.traceless)
    ops = []
    for k in range(w.size - 1, -1, -1):
        if w[k] <= threshold:
            break
        v = math.sqrt(w[k]) * np.einsum("i,ikl->kl", u[:, k], f)
        ops.append(v)
    return ops


def qubit_liouvillian(e0: float, e1: float, lam: float, axis: int = 3) -> GKSLiouvillian:
    """Two-level model: H = diag(E1, E0) and one damping rate on a Pauli axis.

    Basis order puts the higher level first.  With axis=3 the dissipator
    commutes with H (coherences decay at rate lam, populations freeze): the
    dispersive model.  axis=1 or 2 moves the damping onto another Pauli
    direction, which trades energy with the environment.
    """
    if lam < 0:
        raise ValueError("damping rate must be nonnegative")
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    basis = gell_mann_basis(2)
    a = np.zeros((3, 3))
    a[axis - 1, axis - 1] = lam
    h = np.diag([complex(e1), complex(e0)])
    return GKSLiouvillian(h, KossakowskiMatrix(2, a), basis)
