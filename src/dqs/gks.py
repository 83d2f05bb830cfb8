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

The dissipator is written once as its matrix S(a) on column-stacked states,
which builds the real Bloch generator R below, and D_H once, in ``_h_terms``:
dissipation_from_parts sums it over G_j = sum_i a_ij F_i, and the dispersion
kernel gathers each coordinate direction's D_H from its terms M_ij.

In the Hermitian Gell-Mann basis G_1 .. G_{N^2} (G_{N^2} = I/sqrt(N)) a state
is a real vector x_j = tr(G_j rho), and the generator is the real matrix
R_ij = tr(G_i L(G_j)), the affine Bloch form of the generator.  Its last row
is zero because L preserves the trace, so exp(tR) keeps x_{N^2} = 1/sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import KERNEL_TOL


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Trace-orthonormal operator basis with the scaled identity last.

    Given any sequence of N^2 matrices, it keeps them as one read-only
    (N^2, N, N) complex array, ``elements``.  Elements need not be Hermitian;
    any unitary mixing of the traceless part of the canonical basis is accepted.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        n = self.dim
        if n < 2:
            raise ValueError("basis needs dimension >= 2")
        if len(self.elements) != n * n:
            raise ValueError(f"expected {n * n} basis elements, got {len(self.elements)}")
        f = np.empty((n * n, n, n), dtype=complex)
        for k, e in enumerate(self.elements):
            m = linalg.as_matrix(e)
            if m.shape != (n, n):
                raise ValueError(f"basis element {k} has shape {m.shape}, expected {(n, n)}")
            f[k] = m
        for k in range(n * n - 1):
            if abs(f[k].trace()) > 1e-12:
                raise ValueError(f"basis element {k} is not traceless")
        if np.abs(f[-1] - np.eye(n) / math.sqrt(n)).max() > 1e-12:
            raise ValueError("last basis element must be I/sqrt(N)")
        flat = f.reshape(n * n, n * n)
        gram = flat.conj() @ flat.T  # gram[x, y] = tr(F_x^+ F_y)
        if np.abs(gram - np.eye(n * n)).max() > 1e-12:
            raise ValueError("basis is not orthonormal under the trace inner product")
        f.flags.writeable = False
        object.__setattr__(self, "elements", f)

    @property
    def traceless(self) -> np.ndarray:
        """The N^2 - 1 elements spanning the traceless subspace, a view of ``elements``."""
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
    j, k = np.triu_indices(dim, 1)
    pairs = len(j)
    sym, anti = np.arange(pairs), np.arange(pairs, 2 * pairs)
    f = np.zeros((dim * dim, dim, dim), dtype=complex)
    f[sym, j, k] = f[sym, k, j] = inv_sqrt2
    f[anti, j, k] = -1j * inv_sqrt2
    f[anti, k, j] = 1j * inv_sqrt2
    for level in range(1, dim):
        norm = 1.0 / math.sqrt(level * (level + 1))
        m = f[2 * pairs + level - 1]
        m[range(level), range(level)] = norm
        m[level, level] = -level * norm
    f[-1] = np.eye(dim, dtype=complex) / math.sqrt(dim)
    return OperatorBasis(dim, f)


@lru_cache(maxsize=None)
def gell_mann_rows(n: int) -> np.ndarray:
    """The unitary V whose row j is vec(G_j): R = conj(V) L V^T, L = V^T R conj(V)."""
    v = gell_mann_basis(n).elements.swapaxes(1, 2).reshape(n * n, n * n)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def bloch_frame(n: int):
    """Index and coefficient tables of the coordinates ``dynamics.propagate_many`` works in.

    They are the Gell-Mann coordinates x of a Hermitian matrix with each
    off-diagonal one divided by sqrt(2), so that the pair (j < k) reads
    exactly Re and Im of the entry [k, j]; the diagonal and trace
    coordinates are x itself.  Returns the scale ratio u_i / u_j turning the
    Gell-Mann generator into the generator of these coordinates, the
    upper-triangle indices (rows, cols), and the diagonal values of the
    diagonal Gell-Mann elements and of I/sqrt(N), one row each.
    """
    rows, cols = np.triu_indices(n, 1)
    u = np.ones(n * n)
    u[:2 * len(rows)] = 1.0 / math.sqrt(2.0)
    levels = gell_mann_basis(n).elements[2 * len(rows):].real
    return u[:, None] / u[None, :], rows, cols, np.diagonal(levels, axis1=1, axis2=2)


@dataclass(frozen=True, eq=False)
class KossakowskiMatrix:
    """Hermitian PSD coefficient matrix of a dissipator, shape (N^2-1)^2.

    The ascending eigenvalues of its Hermitian part, which decide PSD at
    construction, are kept as ``spectrum``.  Both arrays are read-only.
    """

    dim: int
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.dim * self.dim - 1
        m = linalg.as_matrix(self.matrix)
        if m.shape != (k, k):
            raise ValueError(f"Kossakowski matrix must be {k} x {k} for dimension "
                             f"{self.dim}, got {m.shape}")
        w = linalg.hermitian_eigenvalues(m)
        if w.size and w[0] < -linalg.psd_bound(w):
            raise ValueError(f"Kossakowski matrix is not PSD: min eigenvalue {w[0]:.3e}")
        m = m.copy()
        m.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", w)


def _hamiltonian(hamiltonian, basis: OperatorBasis) -> np.ndarray:
    """The Hamiltonian rule: H is a finite Hermitian N x N matrix for the basis."""
    h = linalg.as_matrix(hamiltonian)
    n = basis.dim
    if h.shape != (n, n):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis dimension {n}")
    linalg.require_hermitian(h)
    return h


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
    k = n * n - 1
    f = basis.traceless
    g = np.einsum("ij,ikm->jkm", a, f)          # G_j = sum_i a_ij F_i
    p = np.einsum("jlk,jlm->km", f.conj(), g)   # sum_ij a_ij F_j^+ F_i
    eye = np.eye(n)
    # vec(A X B) = (B^T kron A) vec(X); kron(A, B)[l n + k, q n + m] = A_lq B_km.
    # The first term, sum_j conj(F_j)_lq G_j,km, is one product over j.
    s = ((f.conj().reshape(k, n * n).T @ g.reshape(k, n * n))
         .reshape(n, n, n, n).transpose(0, 2, 1, 3)
         - 0.5 * (np.einsum("lq,km->lkqm", eye, p)
                  + np.einsum("ql,km->lkqm", p, eye)))
    return s.reshape(n * n, n * n)


@dataclass(frozen=True, eq=False)
class GKSLiouvillian:
    """A GKS generator; builds its real Bloch generator R, ``bloch``, at construction.

    R is read-only.  The imaginary round-off of the basis change is dropped,
    the last row is set to exactly zero, and an overflowing R is a ValueError.
    """

    hamiltonian: np.ndarray
    kossakowski: KossakowskiMatrix
    basis: OperatorBasis
    bloch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = _hamiltonian(self.hamiltonian, self.basis)
        n = self.basis.dim
        if self.kossakowski.dim != n:
            raise ValueError("Kossakowski dimension does not match basis dimension")
        h = h.copy()
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)

        eye = np.eye(n)
        v = gell_mann_rows(n)
        with np.errstate(over="ignore", invalid="ignore"):
            m = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
                 + _dissipator_superop(self.kossakowski.matrix, self.basis))
            r = (v.conj() @ m @ v.T).real.copy()
        r[-1] = 0.0
        if not np.isfinite(r).all():
            raise ValueError("generator overflows")
        r.flags.writeable = False
        object.__setattr__(self, "bloch", r)

    @property
    def dim(self) -> int:
        return self.basis.dim


def _h_terms(h: np.ndarray, fd: np.ndarray, g: np.ndarray) -> np.ndarray:
    """F^+ H G - {F^+ G, H}/2 as F^+ [H, G]/2 + [F^+, H] G/2; leading axes broadcast.

    The commutators vanish exactly where H commutes with G and F^+, and each
    half is taken before the sum, so that terms near the float maximum do not overflow.
    """
    return 0.5 * (fd @ (h @ g - g @ h)) + 0.5 * ((fd @ h - h @ fd) @ g)


def dissipation_from_parts(a, basis: OperatorBasis, hamiltonian) -> np.ndarray:
    """D_H = sum_j (F_j^+ H G_j - {F_j^+ G_j, H}/2), G_j = sum_i a_ij F_i.

    For explicit Hermitian coefficients (PSD not required) and a valid H;
    validated generators should go through dissipation_operator instead.
    """
    arr = _kossakowski_array(a, basis)
    linalg.require_hermitian(arr)
    h = _hamiltonian(hamiltonian, basis)
    f = basis.traceless
    with np.errstate(over="ignore", invalid="ignore"):
        g = (arr.T @ f.reshape(len(f), -1)).reshape(f.shape)
        d = _h_terms(h, f.conj().swapaxes(1, 2), g).sum(axis=0)
    if not np.isfinite(d).all():
        raise ValueError("dissipation operator overflows")
    return d


def dissipation_operator(liouvillian: GKSLiouvillian) -> np.ndarray:
    """The Hermitian observable D_H with d<H>/dt = tr(rho D_H)."""
    return dissipation_from_parts(liouvillian.kossakowski, liouvillian.basis,
                                  liouvillian.hamiltonian)


class DispersiveVerdict(NamedTuple):
    dispersive: bool
    residual: float


#: D_H's round-off from c I in H is at most 1.42 eps sqrt(N) ||a||_F ||H||_F
#: (dispersive models, N = 2..8, |c| up to 1e12 ||H0||_F) and H0's from a rotated
#: c I at most 3.6 eps ||H||_F; 1024 eps clears both by over 250 times.
_ROUNDOFF = 1024 * np.finfo(float).eps


def _dissipation_zero(h: np.ndarray, tol: float, scale: float) -> tuple[float, float]:
    """(||H0||_F, scale (tol ||H0||_F + _ROUNDOFF ||H||_F)), H0 = H - tr(H)/N I.

    With scale sqrt(N), times ||a||_F, the second is the most ||D_H(a)||_F may
    be and still count as zero: tol times its largest value, by the top
    singular value sqrt(N) ||H0||_F of ``dispersive_kossakowski_kernel``'s
    map, plus the round-off of c I in H.  It is scaled before the norms, and
    tr(H)/N summed from the scaled diagonal, so it overflows only where it must.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = h - (h.diagonal().real / len(h)).sum() * np.eye(len(h))
    zero = linalg.zero_bound(h0, scale * tol) + linalg.zero_bound(h, scale * _ROUNDOFF)
    return linalg.frobenius(h0), zero


def is_dispersive(liouvillian: GKSLiouvillian, tol: float = KERNEL_TOL) -> DispersiveVerdict:
    """Whether D_H vanishes, i.e. the model conserves energy exactly.

    The residual ||D_H||_F counts as zero up to sqrt(N) ||a||_F (tol ||H0||_F +
    _ROUNDOFF ||H||_F), free of all units, the zero rule of a with that tol.
    """
    linalg.require_tolerance(tol)
    residual = linalg.frobenius(dissipation_operator(liouvillian))
    zero = _dissipation_zero(liouvillian.hamiltonian, tol, math.sqrt(liouvillian.dim))[1]
    bound = linalg.zero_bound(liouvillian.kossakowski.matrix, zero)
    # an infinite zero reads NaN on a's zero entries: every finite residual is below it
    return DispersiveVerdict(not residual > bound, residual)


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
                                  samples: int = 200,
                                  seed: int = 0) -> DispersionKernel:
    """All Hermitian coefficient matrices making the given H dispersive.

    Builds the real-linear map phi: a |-> D_H(a) over the isometric real
    coordinates of Hermitian (N^2-1) x (N^2-1) matrices, gathering D_H of
    each coordinate direction from H-contracted GKS terms, and takes its
    null space from one SVD.  phi depends on H only through
    H0 = H - tr(H)/N I: in H's eigenbasis h_1 .. h_N, for Hermitian X,

        ||phi^T coords(X)||^2 = sum_nl |X_nl|^2 [sum_m (h_m - (h_n+h_l)/2)^2 - (h_n-h_l)^2/(2N)]

    and each bracket lies between ||H0||_F^2 / 2 and N ||H0||_F^2, so phi's
    singular values lie between ||H0||_F / sqrt(2) and sqrt(N) ||H0||_F, with
    equality at N = 2.  The rank is decided once, not value by value: 0 (the
    kernel is everything) when sqrt(N) ||H0||_F is within is_dispersive's
    default bound for a unit a, so that every a passes it, and N^2 otherwise.
    An overflowing map is a ValueError.

    Valid dissipators in the kernel are its PSD elements; since PSD-ness is
    not a linear condition, it is reported by inspection: each kernel basis
    element (and its negation) is flagged, and `samples` random unit-norm
    combinations (half signed Gaussian, half with nonnegative coefficients)
    are drawn from a generator seeded by `seed` and flagged likewise.
    """
    h = _hamiltonian(hamiltonian, basis)
    n = basis.dim
    k = n * n - 1
    # D_H(a) = sum_ij a_ij M[i, j] with M[i, j] = F_j^+ H F_i - {F_j^+ F_i, H}/2
    f = basis.traceless[:, None]  # [i, 0] = F_i
    with np.errstate(over="ignore", invalid="ignore"):
        m = _h_terms(h, f.conj().transpose(1, 0, 3, 2), f)  # [0, j] = F_j^+
        # column c is D_H of unit direction c: M_ii, or (M_rs + M_sr) and
        # i(M_rs - M_sr) over sqrt(2)
        i, j = np.triu_indices(k, 1)
        pairs = np.stack([m[i, j] + m[j, i], 1j * (m[i, j] - m[j, i])], axis=1).reshape(-1, n, n)
        phi = hermitian_coords(np.concatenate([m[range(k), range(k)], _SQRT_HALF * pairs])).T
    if not np.isfinite(phi).all():
        raise ValueError("dispersion map overflows")
    h0, zero = _dissipation_zero(h, KERNEL_TOL, 1.0)
    rank = 0 if h0 <= zero else n * n
    coords = np.linalg.svd(phi)[2][rank:]
    dim = len(coords)
    coeffs = np.random.default_rng(seed).standard_normal((max(samples, 0), dim))
    coeffs[samples // 2:] = np.abs(coeffs[samples // 2:])
    norms = np.linalg.norm(coeffs, axis=1)
    coeffs = coeffs[norms > 0] / norms[norms > 0, None]
    # the kernel elements, then the samples; -m is PSD iff m's top eigenvalue
    # is at most the bound, so one spectrum flags both signs
    mats = coords_to_hermitian(np.concatenate([coords, coeffs @ coords]), k)
    w = np.linalg.eigvalsh(mats)
    bound = linalg.psd_bound(w)
    psd = (w[:, 0] >= -bound).tolist()
    drawn = tuple(map(KernelSample, coeffs, mats[dim:], psd[dim:]))
    return DispersionKernel(tuple(mats[:dim]), tuple(psd[:dim]),
                            tuple((w[:dim, -1] <= bound[:dim]).tolist()), drawn, phi)


def lindblad_operators(a, basis: OperatorBasis) -> list:
    """Jump operators V_k with dissipator sum_k (V_k . V_k^+ - {V_k^+ V_k, .}/2).

    Diagonalizes the coefficient matrix, keeps the eigenvalues above PSD_TOL
    times the largest, largest first, and absorbs each into the operator
    scale, so no prefactor remains in front of the sum.
    """
    arr = _kossakowski_array(a, basis)
    w, u = linalg.hermitian_eigen(arr)
    threshold = linalg.psd_bound(w)
    if w[0] < -threshold:
        raise ValueError(f"coefficient matrix is not PSD: min eigenvalue {w[0]:.3e}")
    keep = np.flatnonzero(w > threshold)[::-1]  # w ascends: the largest first
    return list(np.sqrt(w[keep])[:, None, None]
                * np.einsum("ik,ilm->klm", u[:, keep], basis.traceless))


def qubit_liouvillian(e0: float, e1: float, lam: float, axis: int = 3) -> GKSLiouvillian:
    """Two-level model: H = diag(E1, E0) and one damping rate on a Pauli axis.

    Basis order puts the higher level first.  With axis=3 the dissipator
    commutes with H (coherences decay at rate lam, populations freeze): the
    dispersive model.  axis=1 or 2 moves the damping onto another Pauli
    direction, which trades energy with the environment.
    """
    linalg.require_nonnegative(lam, "damping rate")
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or axis not in (1, 2, 3):
        raise ValueError(f"axis must be the integer 1, 2 or 3, got {axis!r}")
    basis = gell_mann_basis(2)
    a = np.zeros((3, 3))
    a[axis - 1, axis - 1] = lam
    h = np.diag([complex(e1), complex(e0)])
    return GKSLiouvillian(h, KossakowskiMatrix(2, a), basis)
