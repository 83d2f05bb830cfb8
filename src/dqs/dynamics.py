"""Propagation through the quantum dynamical semigroup and its diagnostics.

One matrix is exponentiated, once per time and with no ODE stepper: the
real Bloch generator R (``GKSLiouvillian.bloch``).  States evolve in its
coordinates (``propagate_many``), where the trace coordinate is preserved
exactly and every state is rebuilt Hermitian.  A channel is returned as its
matrix on column-stacked states, V^T exp(tR) conj(V), V the unitary with
rows vec(G_j), and its Choi matrix is an index permutation of that.  The
checks probe the semigroup laws of a valid generator: trace preservation and
complete positivity along the flow (through the Choi matrix), the
composition law, recovery of the generator from short-time propagators (both
compared on R, whose Frobenius norms equal L's), and the energy-flow identity
d<H>/dt = tr(rho D_H), with d<H>/dt = h . R x exactly in the Gell-Mann
coordinates of H and rho.  Positivity of the *inverse* flow is the one
property that may legitimately fail: its failure certifies that the dynamics
is not reversible in time.  The stationary state is not searched for: it is
the spectral projection at eigenvalue 0, built from the null spaces of R and
R^T from one real SVD of R, applied to the maximally mixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import gks, linalg
from .linalg import KERNEL_TOL, DensityMatrix

#: Spectral weights at or below this are dropped from entropy sums.
ENTROPY_CUTOFF = 1e-14


def channel_matrix(liouvillian: gks.GKSLiouvillian, t: float) -> np.ndarray:
    """exp(t L) = V^T exp(t R) conj(V), any sign of t; t < 0 probes backward."""
    v = gks.gell_mann_rows(liouvillian.dim)
    return v.T @ linalg.expm(liouvillian.bloch, scale=t) @ v.conj()


def propagator(liouvillian: gks.GKSLiouvillian, t: float) -> np.ndarray:
    """The channel exp(t L), t >= 0, as its (N^2, N^2) matrix on column-stacked states."""
    linalg.require_nonnegative(t, "propagation time")
    return channel_matrix(liouvillian, t)


def _density(rho) -> DensityMatrix:
    """rho itself if already validated, else rho checked as a DensityMatrix."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def propagate_many(liouvillian: gks.GKSLiouvillian, rho, times):
    """The states exp(t L) rho for successive times t, as one (k, N, N) stack.

    Each state takes one time check and one ``expm`` of the real Bloch
    generator (``GKSLiouvillian.bloch``, in the coordinates of
    ``gks.bloch_frame``), whose product with the coordinates of rho ``np.dot``
    writes straight into the state's row.  The stack is rebuilt from those
    coordinates entry by entry, so each state's bits do not depend on how
    many others share the call: off-diagonal entries are the coordinates
    themselves, mirrored as exact conjugates, and the diagonal is rho's plus
    the change of the diagonal coordinates.  So every state is Hermitian and
    a time whose coordinates did not move (t = 0) gives rho's Hermitian part
    back bit for bit.  Returns (states, error): states for the longest prefix
    of times that propagated, and the ValueError of the time after it, or
    None.  A negative, infinite or NaN time is such a failing time.
    """
    h0 = linalg.hermitian_part(_density(rho).matrix)
    n = liouvillian.dim
    if h0.shape != (n, n):
        raise ValueError(f"state has shape {h0.shape}, expected square of dim {n}")
    ratio, rows, cols, levels = gks.bloch_frame(n)
    gen = liouvillian.bloch * ratio
    pairs = len(rows)
    p0 = h0.real.diagonal()
    y0 = np.concatenate([h0.real[cols, rows], h0.imag[cols, rows], levels @ p0])
    times = list(times)
    ys, error = np.empty((len(times), n * n)), None
    try:
        for k, t in enumerate(times):
            linalg.require_nonnegative(t, "propagation time")
            np.dot(linalg.expm(gen, scale=t), y0, out=ys[k])
    except ValueError as exc:
        ys, error = ys[:k], exc
    states = np.empty((len(ys), n, n), dtype=complex)
    re, im = ys[:, :pairs], ys[:, pairs:2 * pairs]
    states.real[:, cols, rows] = states.real[:, rows, cols] = re
    states.imag[:, cols, rows] = im
    states.imag[:, rows, cols] = 0.0 - im  # a zero stays +0, not -0
    diagonal = np.broadcast_to(p0, (len(ys), n))
    for level in range(n - 1):  # the trace coordinate does not move
        change = ys[:, 2 * pairs + level] - y0[2 * pairs + level]
        diagonal = diagonal + change[:, None] * levels[level]
    states.real[:, range(n), range(n)] = diagonal
    states.imag[:, range(n), range(n)] = 0.0
    return states, error


def propagate(liouvillian: gks.GKSLiouvillian, rho, t: float) -> DensityMatrix:
    """Evolve a state forward: rho(t) = exp(t L) rho, by ``propagate_many``."""
    states, error = propagate_many(liouvillian, rho, [t])
    if error is not None:
        raise error
    return DensityMatrix(states[0])


def semigroup_residual(liouvillian: gks.GKSLiouvillian, t1: float, t2: float) -> float:
    """|| exp((t1+t2) L) - exp(t2 L) exp(t1 L) ||_F, taken of R."""
    for t in (t1, t2):
        linalg.require_nonnegative(t, "semigroup times")
    linalg.require_nonnegative(t1 + t2, "semigroup total time")
    m = liouvillian.bloch
    whole = linalg.expm(m, scale=t1 + t2)
    stepped = linalg.expm(m, scale=t2) @ linalg.expm(m, scale=t1)
    return linalg.frobenius(whole - stepped)


def _choi_of_matrix(matrix: np.ndarray, n: int) -> np.ndarray:
    """C = sum_ij E_ij (x) channel(E_ij); PSD iff the channel is CP.

    C[(i,k),(j,l)] = channel(E_ij)[k,l] = matrix[k + l n, i + j n]: an index
    permutation of the channel's matrix on column-stacked states.
    """
    return matrix.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def _min_eigenvalue(choi: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(linalg.hermitian_part(linalg.as_matrix(choi)))[0])


@dataclass(frozen=True)
class CptpReport:
    trace_residual: float
    hermiticity_residual: float
    choi_min_eigenvalue: float


def cptp_report(prop: np.ndarray) -> CptpReport:
    """Trace preservation and complete positivity of a channel matrix from ``propagator``.

    trace_residual is max_ij |tr channel(E_ij) - delta_ij|, equivalently the
    deviation of the Choi partial trace from the identity.
    """
    m = np.asarray(prop)
    n = math.isqrt(len(m)) if m.ndim == 2 else 0
    if n == 0 or m.shape != (n * n, n * n):
        raise ValueError(f"channel matrix must have shape (N^2, N^2), got {m.shape}")
    c = _choi_of_matrix(linalg.as_matrix(m, dtype=m.dtype), n)
    tr2 = np.einsum("ikjk->ij", c.reshape(n, n, n, n))
    trace_residual = float(np.abs(tr2 - np.eye(n)).max())
    herm_residual = linalg.hermiticity_defect(c)
    return CptpReport(trace_residual, herm_residual, _min_eigenvalue(c))


def generator_recovery_residual(liouvillian: gks.GKSLiouvillian, eps: float) -> float:
    """|| (exp(eps L) - I)/eps - L ||_F, taken of R; decays linearly in eps."""
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    m = liouvillian.bloch
    return linalg.frobenius((linalg.expm(m, scale=eps) - np.eye(len(m))) / eps - m)


@dataclass(frozen=True, eq=False)
class StationaryFamily:
    """Null space of the generator and the stationary state P0(I/N).

    kernel holds a trace-orthonormal basis of Hermitian matrices sum_j y_j G_j
    for the null space of R; density_matrices holds the one state P0(I/N),
    the time average of exp(t L)(I/N) as t grows.
    """

    kernel: tuple
    density_matrices: tuple


def stationary_states(liouvillian: gks.GKSLiouvillian) -> StationaryFamily:
    """Stationary subspace of the flow and the stationary state reached from I/N.

    With K a basis of the kernel of R and W one of the kernel of R^T, both
    from one real SVD of R so that W^T K is square, P0 = K (W^T K)^-1 W^T is
    the spectral projection at eigenvalue 0; for a bounded semigroup 0 is
    semisimple, so P0 is the Cesaro limit of exp(t R), a CPTP map (Spohn,
    Lett. Math. Phys. 2, 1977).  The one density matrix returned is P0(I/N),
    whose one nonzero coordinate is 1/sqrt(N), on G_{N^2}.  Singular values
    up to KERNEL_TOL (||H||_F + ||a||_F), the scale of R's round-off, are zero.
    """
    n = liouvillian.dim
    zero = (linalg.zero_bound(liouvillian.hamiltonian, KERNEL_TOL)
            + linalg.zero_bound(liouvillian.kossakowski.matrix, KERNEL_TOL))
    null, left = linalg.null_spaces(liouvillian.bloch, zero)
    # R's last row is zero, so e_last is an exact left null vector, but W holds
    # it only to about eps ||R|| / gap (Wedin): the trace coordinate is set to
    # its exact 1/sqrt(N) by scaling, which P0 leaves alone in exact arithmetic
    y = null @ np.linalg.solve(left.T @ null, left[-1])
    y /= math.sqrt(n) * y[-1]
    # sum_j y_j G_j is V^T y read column-stacked, for each column y of K and for P0(I/N)
    mats = (np.vstack([null.T, y]) @ gks.gell_mann_rows(n)).reshape(-1, n, n).swapaxes(1, 2)
    return StationaryFamily(tuple(mats[:-1]), (DensityMatrix(mats[-1]),))


def spectrum_entropy(spectrum) -> float:
    """-sum p ln p over the eigenvalues p of a state, dropping those at or below ENTROPY_CUTOFF."""
    total = 0.0
    for p in spectrum:
        if p > ENTROPY_CUTOFF:
            total -= p * math.log(p)
    return total


def von_neumann_entropy(rho) -> float:
    """-sum p ln p over the spectrum, dropping weights at or below ENTROPY_CUTOFF."""
    return spectrum_entropy(_density(rho).spectrum)


def energy_flow_residual(liouvillian: gks.GKSLiouvillian, rho) -> float:
    """Gap between the exact energy flow d<H>/dt = h . R x and tr(rho D_H).

    h and x are the Gell-Mann coordinates tr(G_j H) and tr(G_j rho).  R comes
    from the dissipator matrix S(a) and D_H from ``gks._h_terms``.
    """
    m = _density(rho).matrix
    # row j of V is vec(G_j), so V ravel(M) is sum_ab G_j[b, a] M[a, b] = tr(G_j M)
    v = gks.gell_mann_rows(liouvillian.dim)
    h = (v @ liouvillian.hamiltonian.ravel()).real
    x = (v @ m.ravel()).real
    flow = h @ (liouvillian.bloch @ x)
    exact = np.trace(m @ gks.dissipation_operator(liouvillian)).real
    return abs(flow - exact)


class TimeReversalWitness(NamedTuple):
    t: float
    choi_min_eigenvalue: float


def time_reversal_witness(liouvillian: gks.GKSLiouvillian,
                          t_grid) -> Optional[TimeReversalWitness]:
    """Search for a time where the inverse flow stops being positive.

    For each t in the grid the Choi matrix of exp(-t L) is examined; a
    minimum eigenvalue below -1e-9 certifies that exp(t L) has no completely
    positive inverse, hence the dynamics is not reversible.  Returns the
    worst violation, or None if every probe stays positive.  This is a
    sufficient certificate only: a reversible-looking grid proves nothing
    beyond the points probed.
    """
    n = liouvillian.dim
    worst: Optional[TimeReversalWitness] = None
    for t in t_grid:
        t = float(t)
        linalg.require_nonnegative(t, "probe times")
        low = _min_eigenvalue(_choi_of_matrix(channel_matrix(liouvillian, -t), n))
        if low < -1e-9 and (worst is None or low < worst.choi_min_eigenvalue):
            worst = TimeReversalWitness(t, low)
    return worst
