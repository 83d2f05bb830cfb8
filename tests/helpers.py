"""Shared random-instance builders for the test suite.

All generators take an explicit numpy Generator so every test controls its
own seed.  Instances are scaled modestly (Hamiltonian Frobenius norm and
Kossakowski trace around one half) so finite-difference checks stay within
their stated tolerances.
"""

import numpy as np


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n, scale=1.0):
    x = random_complex(rng, (n, n))
    h = 0.5 * (x + x.conj().T)
    norm = np.linalg.norm(h)
    if norm > 0:
        h *= scale / norm
    return h


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, n, trace=1.0):
    x = random_complex(rng, (n, n))
    p = x.conj().T @ x
    return p * (trace / p.trace().real)


def random_density(rng, n):
    from dqs.linalg import DensityMatrix
    return DensityMatrix(random_psd(rng, n, trace=1.0))


def random_liouvillian(rng, n, h_scale=0.5, a_scale=0.5):
    """A generic valid GKS generator; generically not dispersive."""
    from dqs import gks
    h = random_hermitian(rng, n, scale=h_scale)
    a = random_psd(rng, n * n - 1, trace=a_scale)
    basis = gks.gell_mann_basis(n)
    return gks.GKSLiouvillian(h, gks.KossakowskiMatrix(n, a), basis)


# Textbook GKS double sums written term by term, as a reference that shares no
# code with the library's vectorised dissipator.

def reference_dissipator(a, basis, sigma):
    """sum_ij a_ij (F_i sigma F_j^+ - (F_j^+ F_i sigma + sigma F_j^+ F_i) / 2)."""
    f = basis.traceless
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(len(f)):
        for j in range(len(f)):
            fj_dag = f[j].conj().T
            out += a[i, j] * (f[i] @ sigma @ fj_dag
                              - 0.5 * (fj_dag @ f[i] @ sigma + sigma @ fj_dag @ f[i]))
    return out


def reference_dissipation_operator(a, basis, h):
    """D_H = sum_ij a_ij (F_j^+ H F_i - (F_j^+ F_i H + H F_j^+ F_i) / 2)."""
    f = basis.traceless
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(len(f)):
        for j in range(len(f)):
            fj_dag = f[j].conj().T
            out += a[i, j] * (fj_dag @ h @ f[i]
                              - 0.5 * (fj_dag @ f[i] @ h + h @ fj_dag @ f[i]))
    return out


def reference_superop(h, a, basis):
    """Generator matrix on column-stacked states, one unit matrix per column."""
    n = basis.dim
    cols = []
    for q in range(n):
        for p in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[p, q] = 1.0
            out = -1j * (h @ e - e @ h) + reference_dissipator(a, basis, e)
            cols.append(out.reshape(-1, order="F"))
    return np.array(cols).T


def reference_grid(x, p, w, merged, values, free, grid_points):
    """The brute-force coarse grid of ``neutrino.fit_parameters``.

    Every outer combination of the free parameters, in lexicographic order,
    is evaluated on the full grid of the last free one.  Returns the best
    grid point as a parameter dict and its SSE.
    """
    import itertools
    import math

    from dqs.neutrino import PARAMETER_NAMES, _model

    values = dict(values)
    grids = {name: np.linspace(*merged[name], grid_points) for name in free}
    inner = free[-1]
    outer = free[:-1]
    best_sse = math.inf
    for combo in itertools.product(*(grids[n] for n in outer)):
        trial = dict(values)
        trial.update(zip(outer, combo))
        args = {n: trial.get(n) for n in PARAMETER_NAMES}
        args[inner] = grids[inner][:, None]
        # overflowing phases and weights give NaN or inf rows; their numpy
        # warnings come from this reference, not from the fit under test
        with np.errstate(over="ignore", invalid="ignore"):
            pred = _model(x, args["dm2"], args["theta"], args["lambda_km"])
            r = pred - p
            sse_vec = (w * r * r).sum(axis=1)
        k = int(np.argmin(sse_vec))
        if sse_vec[k] < best_sse:
            best_sse = float(sse_vec[k])
            values = dict(trial)
            values[inner] = float(grids[inner][k])
    return values, best_sse


def reference_stationary_states(liouvillian, tol, samples, seed):
    """``dynamics.stationary_states``'s candidates drawn and summed one at a time.

    Returns the matrices that pass the density-matrix checks, in draw order.
    """
    from dqs import linalg

    n = liouvillian.dim
    null = linalg.kernel_basis(liouvillian.superop, tol)
    parts = []
    for k in range(null.shape[1]):
        m = null[:, k].reshape((n, n), order="F")
        parts.append(0.5 * (m + m.conj().T))
        parts.append((m - m.conj().T) / 2j)
    parts = [h for h in parts if np.linalg.norm(h) > 1e-12]
    found = []
    if parts and samples > 0:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            coeffs = rng.standard_normal(len(parts))
            cand = sum(c * h for c, h in zip(coeffs, parts))
            tr = cand.trace().real
            if abs(tr) < 1e-8:
                continue
            try:
                found.append(linalg.DensityMatrix(cand / tr).matrix)
            except ValueError:
                continue
    return found


def reference_evolve(liouvillian, rho, times):
    """``dqs evolve``'s output built one row at a time, as (exit code, stdout, stderr).

    Each row takes its own ``dynamics.propagate`` (one expm and one
    DensityMatrix), its own ``von_neumann_entropy`` and one ``cli._fmt`` per
    cell; a failing row ends the output with the CLI's error line.
    """
    from dqs import cli, dynamics

    n = liouvillian.dim
    h = liouvillian.hamiltonian
    header = ["t"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    header += ["trace_re", "entropy", "energy"]
    lines = [",".join(header)]
    for t in times:
        try:
            rho_t = dynamics.propagate(liouvillian, rho, t)
        except ValueError as exc:
            error = f"error: propagation to t={cli._fmt(t)} failed: {exc}\n"
            return 2, "\n".join(lines) + "\n", error
        out = rho_t.matrix
        cells = [cli._fmt(t)]
        for i in range(n):
            for j in range(n):
                cells += [cli._fmt(out[i, j].real), cli._fmt(out[i, j].imag)]
        cells.append(cli._fmt(np.trace(out).real))
        cells.append(cli._fmt(dynamics.von_neumann_entropy(rho_t)))
        cells.append(cli._fmt(np.trace(out @ h).real))
        lines.append(",".join(cells))
    return 0, "\n".join(lines) + "\n", ""
