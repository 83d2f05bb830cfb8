"""Independent reference computations for checking dqs outputs.

Everything here uses numpy's LAPACK-backed routines only and imports nothing
from dqs, so a defect in the program cannot hide in its own oracle.  The
operator basis is rebuilt from the documented generalized Gell-Mann ordering
(symmetric pairs, antisymmetric pairs, diagonal levels, I/sqrt(N)), the
superoperator is assembled from Kronecker products of that basis, and
propagation uses an eigendecomposition of the generator instead of a Pade
approximant.
"""

from __future__ import annotations

import math

import numpy as np

# 1e-18 / (4 hbar c), hbar = 6.582119e-25 GeV s, c = 2.99792458e5 km/s.
PHASE_CONSTANT = 1e-18 / (4.0 * 6.582119e-25 * 2.99792458e5)


def gell_mann(n: int) -> np.ndarray:
    """Trace-orthonormal basis as an (n*n, n, n) stack, scaled identity last."""
    out = []
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    for j, k in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[j, k] = m[k, j] = 1.0 / math.sqrt(2.0)
        out.append(m)
    for j, k in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[j, k] = -1j / math.sqrt(2.0)
        m[k, j] = 1j / math.sqrt(2.0)
        out.append(m)
    for level in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -level
        out.append(m / math.sqrt(level * (level + 1)))
    out.append(np.eye(n, dtype=complex) / math.sqrt(n))
    return np.array(out)


def svd_nullity(a, tol: float) -> int:
    """Columns of a minus the number of singular values above tol * s_max."""
    a = np.asarray(a)
    if a.size == 0:
        return a.shape[1]
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return a.shape[1]
    return a.shape[1] - int(np.count_nonzero(s > tol * s[0]))


def superoperator(h, a) -> np.ndarray:
    """Generator matrix on column-stacked states, vec(AXB) = (B^T kron A) vec(X)."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    f = gell_mann(n)[:-1]
    eye = np.eye(n)
    p = np.einsum("ij,jlk,ilm->km", a, f.conj(), f)      # sum a_ij F_j^+ F_i
    jump = np.einsum("ij,jpq,irs->prqs", a, f.conj(), f).reshape(n * n, n * n)
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye)) + jump
            - 0.5 * (np.kron(eye, p) + np.kron(p.T, eye)))


def dissipation_residual(h, a) -> float:
    """Frobenius norm of D_H = sum a_ij (F_j^+ H F_i - {F_j^+ F_i, H} / 2)."""
    h = np.asarray(h, dtype=complex)
    f = gell_mann(h.shape[0])[:-1]
    p = np.einsum("ij,jlk,ilm->km", a, f.conj(), f)
    d = np.einsum("ij,jlk,lm,imn->kn", a, f.conj(), h, f) - 0.5 * (p @ h + h @ p)
    return float(np.linalg.norm(d))


def trajectory(h, a, rho0, times) -> np.ndarray:
    """States exp(t L) rho0 for each t, from an eig decomposition of L."""
    n = rho0.shape[0]
    w, v = np.linalg.eig(superoperator(h, a))
    coeff = np.linalg.solve(v, rho0.reshape(-1, order="F"))
    t = np.asarray(times, dtype=float)[:, None]
    vecs = (np.exp(t * w) * coeff) @ v.T
    # row j*n + i of a column-stacked vector is entry (i, j)
    return vecs.reshape(len(times), n, n).transpose(0, 2, 1)


def dephasing_qubit_trajectory(a0: float, b0: complex, delta: float, lam: float,
                               times) -> np.ndarray:
    """Closed-form dephasing qubit: populations frozen, coherence b e^-(lam+i delta)t."""
    t = np.asarray(times, dtype=float)
    z = b0 * np.exp(-(lam + 1j * delta) * t)
    out = np.empty((len(t), 2, 2), dtype=complex)
    out[:, 0, 0] = a0
    out[:, 1, 1] = 1.0 - a0
    out[:, 0, 1] = z
    out[:, 1, 0] = z.conj()
    return out


def transition_probabilities(delta: float, lam: float, theta: float, times) -> np.ndarray:
    """<x2| rho(t) |x2> for rho(0) = |x1><x1|, through the dephasing closed form."""
    c, s = math.cos(theta), math.sin(theta)
    rho = dephasing_qubit_trajectory(c * c, c * s, delta, lam, times)
    x2 = np.array([-s, c])
    return np.einsum("i,tij,j->t", x2, rho, x2).real


def entropy(rho, cutoff: float = 1e-14) -> float:
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = w[w > cutoff]
    return float(-(w * np.log(w)).sum())


def survival(x, dm2: float, theta: float, lambda_km: float) -> np.ndarray:
    """Damped two-flavor survival at L/E = x, realised as (x km, 1 GeV)."""
    x = np.asarray(x, dtype=float)
    damped = 0.5 - np.exp(-lambda_km * x) * (0.5 - np.sin(PHASE_CONSTANT * dm2 * x) ** 2)
    return 1.0 - damped * math.sin(2.0 * theta) ** 2
