"""Propagation through the quantum dynamical semigroup and its diagnostics.

States evolve by exact exponentiation of the generator, one matrix
exponential per time and no ODE stepper: in real Bloch coordinates
(``propagate_many``), where the trace coordinate is preserved exactly and
every state is rebuilt Hermitian.  Channels, the Choi matrix and the
semigroup checks use the complex generator matrix on column-stacked states
instead.  The checks collected here
probe the semigroup laws that a valid generator must satisfy: trace
preservation and complete positivity along the flow (through the Choi
matrix), the semigroup composition law, recovery of the generator from
short-time propagators, a resolvent-based growth-bound inequality, and the
energy-flow identity d<H>/dt = tr(rho D_H).  Positivity of the *inverse*
flow is the one property that may legitimately fail: its failure certifies
that the dynamics is not reversible in time.  The stationary state is not
searched for: it is the spectral projection at eigenvalue 0 (the ergodic
projection, built from the null spaces of the generator and its adjoint)
applied to the maximally mixed state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import gks, linalg
from .linalg import KERNEL_TOL, DensityMatrix, unvec, vec

#: Spectral weights at or below this are dropped from entropy sums.
ENTROPY_CUTOFF = 1e-14


@dataclass(frozen=True, eq=False)
class Propagator:
    """The channel exp(t L) as a matrix on column-stacked states, t >= 0."""

    dim: int
    t: float
    matrix: np.ndarray


def channel_matrix(liouvillian: gks.GKSLiouvillian, t: float) -> np.ndarray:
    """exp(t L) without the nonnegativity restriction; t < 0 probes backward."""
    return linalg.expm(liouvillian.superop, scale=t)


def propagator(liouvillian: gks.GKSLiouvillian, t: float) -> Propagator:
    if not (t >= 0.0):
        raise ValueError(f"propagation time must be nonnegative, got {t!r}")
    return Propagator(liouvillian.dim, float(t), channel_matrix(liouvillian, t))


def _density(rho) -> DensityMatrix:
    """rho itself if already validated, else rho checked as a DensityMatrix."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


@functools.lru_cache(maxsize=None)
def _bloch_frame(n: int):
    """Index and coefficient tables of the coordinates propagate_many works in.

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
    levels = np.stack(gks.gell_mann_basis(n).elements[2 * len(rows):]).real
    return u[:, None] / u[None, :], rows, cols, np.diagonal(levels, axis1=1, axis2=2)


def propagate_many(liouvillian: gks.GKSLiouvillian, rho, times):
    """The states exp(t L) rho for successive times t, as one (k, N, N) stack.

    Each state takes one ``expm`` of the real Bloch generator
    (``GKSLiouvillian.bloch``, in the coordinates of ``_bloch_frame``) times
    the coordinates of rho.  The stack is rebuilt from those coordinates
    entry by entry, so each state's bits do not depend on how many others
    share the call: off-diagonal entries are the coordinates themselves,
    mirrored as exact conjugates, and the diagonal is rho's plus the change
    of the diagonal coordinates.  So every state is Hermitian and a time
    whose coordinates did not move (t = 0) gives rho's Hermitian part back
    bit for bit.  Returns (states, error): states for the longest prefix of
    times that propagated, and the ValueError of the time after it, or None.
    A negative or NaN time is such a failing time.
    """
    h0 = linalg.hermitian_part(_density(rho).matrix)
    n = liouvillian.dim
    if h0.shape != (n, n):
        raise ValueError(f"state has shape {h0.shape}, expected square of dim {n}")
    ratio, rows, cols, levels = _bloch_frame(n)
    gen = liouvillian.bloch * ratio
    pairs = len(rows)
    p0 = h0.real.diagonal()
    y0 = np.concatenate([h0.real[cols, rows], h0.imag[cols, rows], levels @ p0])
    times = list(times)
    ys, error = np.empty((len(times), n * n)), None
    for k, t in enumerate(times):
        try:
            if not (t >= 0.0):
                raise ValueError(f"propagation time must be nonnegative, got {t!r}")
            ys[k] = linalg.expm(gen, scale=t) @ y0
        except ValueError as exc:
            ys, error = ys[:k], exc
            break
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
    """|| exp((t1+t2) L) - exp(t2 L) exp(t1 L) ||_F."""
    if t1 < 0 or t2 < 0:
        raise ValueError("semigroup times must be nonnegative")
    m = liouvillian.superop
    whole = linalg.expm(m, scale=t1 + t2)
    stepped = linalg.expm(m, scale=t2) @ linalg.expm(m, scale=t1)
    return linalg.frobenius(whole - stepped)


def _choi_of_matrix(matrix: np.ndarray, n: int) -> np.ndarray:
    # C[(i,k),(j,l)] = channel(E_ij)[k,l] = matrix[k + l n, i + j n]: an index
    # permutation of the column-stacked superoperator.
    return matrix.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def _min_eigenvalue(choi: np.ndarray) -> float:
    w, _ = linalg.hermitian_eigen(choi, tol=1.0)
    return float(w[0])


def choi_matrix(prop: Propagator) -> np.ndarray:
    """C = sum_ij E_ij (x) channel(E_ij); PSD iff the channel is CP."""
    return _choi_of_matrix(prop.matrix, prop.dim)


@dataclass(frozen=True)
class CptpReport:
    trace_residual: float
    hermiticity_residual: float
    choi_min_eigenvalue: float


def cptp_report(prop: Propagator) -> CptpReport:
    """Trace preservation and complete positivity of a propagator.

    trace_residual is max_ij |tr channel(E_ij) - delta_ij|, equivalently the
    deviation of the Choi partial trace from the identity.
    """
    n = prop.dim
    c = choi_matrix(prop)
    tr2 = np.einsum("ikjk->ij", c.reshape(n, n, n, n))
    trace_residual = float(np.abs(tr2 - np.eye(n)).max())
    herm_residual = linalg.hermiticity_defect(c)
    return CptpReport(trace_residual, herm_residual, _min_eigenvalue(c))


def generator_recovery_residual(liouvillian: gks.GKSLiouvillian, eps: float) -> float:
    """|| (exp(eps L) - I)/eps - L ||_F; decays linearly in eps."""
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    m = liouvillian.superop
    eye = np.eye(m.shape[0], dtype=complex)
    return linalg.frobenius((linalg.expm(m, scale=eps) - eye) / eps - m)


def hille_yosida_probe(liouvillian: gks.GKSLiouvillian, growth_bound: float,
                       bound_constant: float, zeta_grid, max_power: int = 4) -> float:
    """Largest value of ||(zeta I - L)^-m|| (zeta - gamma)^m / C over the probe set.

    Values at or below 1 are consistent with the semigroup bound
    ||exp(t L)|| <= C exp(gamma t); the norm is the matrix 2-norm on
    column-stacked states.  Grid points must exceed the growth bound and stay
    clear of the spectrum of L.
    """
    if bound_constant <= 0:
        raise ValueError("bound constant must be positive")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    m = liouvillian.superop
    eye = np.eye(m.shape[0], dtype=complex)
    worst = 0.0
    for zeta in zeta_grid:
        zeta = float(zeta)
        if zeta <= growth_bound:
            raise ValueError(f"probe point {zeta} does not exceed the growth bound "
                             f"{growth_bound}")
        shifted = zeta * eye - m
        smallest = float(linalg.singular_values(shifted)[-1])
        if smallest <= 1e-8:
            raise ValueError(f"probe point {zeta} is within 1e-8 of the spectrum")
        resolvent = np.linalg.solve(shifted, eye)
        power = eye
        for k in range(1, max_power + 1):
            power = power @ resolvent
            value = linalg.operator_norm(power) * (zeta - growth_bound) ** k / bound_constant
            worst = max(worst, value)
    return worst


@dataclass(frozen=True, eq=False)
class StationaryFamily:
    """Null space of the generator and the stationary state P0(I/N).

    kernel holds an orthonormal basis of the null space of the generator
    matrix, each element unvec'd to a matrix; density_matrices holds the one
    state P0(I/N), the time average of exp(t L)(I/N) as t grows.
    """

    kernel: tuple
    density_matrices: tuple


def stationary_states(liouvillian: gks.GKSLiouvillian,
                      tol: float = KERNEL_TOL) -> StationaryFamily:
    """Stationary subspace of the flow and the stationary state reached from I/N.

    The kernel of the generator matrix L is returned as matrices.  With V a
    basis of the kernel of L and W one of the kernel of L^+, P0 = V (W^+ V)^-1
    W^+ is the spectral projection at eigenvalue 0; for a bounded semigroup 0
    is semisimple, so P0 is the Cesaro limit of exp(t L), a CPTP map (Spohn,
    Lett. Math. Phys. 2, 1977).  The one density matrix returned is P0(I/N).
    """
    n = liouvillian.dim
    m = liouvillian.superop
    null = linalg.kernel_basis(m, tol)
    co = linalg.dagger(linalg.kernel_basis(linalg.dagger(m), tol))  # W^+
    rho = unvec(null @ np.linalg.solve(co @ null, co @ vec(np.eye(n) / n)), n)
    mats = null.T.reshape(-1, n, n).swapaxes(1, 2)  # unvec of each column
    return StationaryFamily(tuple(mats), (DensityMatrix(rho),))


def spectrum_entropy(spectrum, cutoff: float = ENTROPY_CUTOFF) -> float:
    """-sum p ln p over the eigenvalues p of a state, dropping those at or below cutoff."""
    total = 0.0
    for p in spectrum:
        if p > cutoff:
            total -= p * math.log(p)
    return total


def von_neumann_entropy(rho, cutoff: float = ENTROPY_CUTOFF) -> float:
    """-sum p ln p over the spectrum, dropping weights at or below cutoff."""
    return spectrum_entropy(_density(rho).spectrum, cutoff)


def energy_flow_residual(liouvillian: gks.GKSLiouvillian, rho,
                         dt: Optional[float] = None) -> float:
    """Gap between the finite-difference d<H>/dt and tr(rho D_H).

    The derivative is a central difference of tr(H rho(t)) at t = 0; the
    default step is 1e-3 scaled down for stiff generators.
    """
    m = _density(rho).matrix
    if dt is None:
        norm = linalg.frobenius(liouvillian.superop)
        dt = 1e-3 * min(1.0, 1.0 / norm) if norm > 0 else 1e-3
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    h = liouvillian.hamiltonian
    forward = unvec(channel_matrix(liouvillian, dt) @ vec(m), liouvillian.dim)
    backward = unvec(channel_matrix(liouvillian, -dt) @ vec(m), liouvillian.dim)
    fd = (np.trace(h @ forward) - np.trace(h @ backward)).real / (2.0 * dt)
    exact = np.trace(m @ gks.dissipation_operator(liouvillian)).real
    return abs(fd - exact)


class TimeReversalWitness(NamedTuple):
    t: float
    choi_min_eigenvalue: float


def time_reversal_witness(liouvillian: gks.GKSLiouvillian, t_grid,
                          tol: float = 1e-9) -> Optional[TimeReversalWitness]:
    """Search for a time where the inverse flow stops being positive.

    For each t in the grid the Choi matrix of exp(-t L) is examined; a
    minimum eigenvalue below -tol certifies that exp(t L) has no completely
    positive inverse, hence the dynamics is not reversible.  Returns the
    worst violation, or None if every probe stays positive.  This is a
    sufficient certificate only: a reversible-looking grid proves nothing
    beyond the points probed.
    """
    n = liouvillian.dim
    worst: Optional[TimeReversalWitness] = None
    for t in t_grid:
        t = float(t)
        if t < 0:
            raise ValueError("probe times must be nonnegative")
        low = _min_eigenvalue(_choi_of_matrix(channel_matrix(liouvillian, -t), n))
        if low < -tol and (worst is None or low < worst.choi_min_eigenvalue):
            worst = TimeReversalWitness(t, low)
    return worst
