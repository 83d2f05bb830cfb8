"""Shared random-instance builders for the test suite.

All generators take an explicit numpy Generator so every test controls its
own seed.  Instances are scaled modestly (Hamiltonian Frobenius norm and
Kossakowski trace around one half) so finite-difference checks stay within
their stated tolerances.
"""

import os
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**overrides):
    """os.environ for a child interpreter that imports dqs from this checkout.

    Warnings are errors in the child too, as they are in the test session.
    """
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONWARNINGS": "error", **overrides}


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


def energy_balanced_model(rng, n, scale, turn=None):
    """(H, a) of a dispersive generator whose jumps do not commute with H.

    In H's eigenbasis, with levels h = scale sort(N(0, 1)^n), each of n jumps
    takes an interior level l to one level lo below it and one level hi
    above it: V = c_lo |lo><l| + c_hi |hi><l| with
    |c_lo|^2 (h_l - h_lo) = |c_hi|^2 (h_hi - h_l), so that the energy one
    branch takes the other gives back and D_H = 0.  The model is turned by
    U, the Q of a complex Gaussian, and then by the unitary ``turn`` if one
    is given; a = C C^+ with C_ik = tr(F_i^+ U V_k U^+) in the Gell-Mann
    basis.  Needs n >= 3.
    """
    from dqs import gks

    h = np.sort(rng.standard_normal(n)) * scale
    u = np.linalg.qr(random_complex(rng, (n, n)))[0]
    if turn is not None:
        u = turn @ u
    jumps = np.zeros((n, n, n))
    for v in jumps:
        level = rng.integers(1, n - 1)
        lo, hi = rng.integers(0, level), rng.integers(level + 1, n)
        v[hi, level] = rng.uniform(0.3, 1.0)
        v[lo, level] = v[hi, level] * np.sqrt((h[hi] - h[level]) / (h[level] - h[lo]))
    f = np.stack(gks.gell_mann_basis(n).traceless)
    c = np.einsum("iab,kab->ik", f.conj(), u @ jumps @ u.conj().T)
    return u @ np.diag(h) @ u.conj().T, c @ c.conj().T


def vec(m):
    """Column-stacking vectorization, so vec(A X B) = (B^T (x) A) vec(X)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, n):
    """Inverse of vec for an n x n matrix."""
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def superop_of(liou):
    """The generator matrix on column-stacked states, V^T R conj(V), from liou.bloch."""
    from dqs import gks
    v = gks.gell_mann_rows(liou.dim)
    return v.T @ liou.bloch @ v.conj()


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


# The Gell-Mann basis and the jump operators built one matrix at a time, as
# bit-for-bit references for the array forms in ``gks``.

def reference_gell_mann_elements(dim):
    """The generalized Gell-Mann matrices in ``gks.gell_mann_basis``'s order, one by one."""
    import math
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
    return tuple(elems)


def reference_lindblad_operators(a, basis):
    """sqrt(w_k) sum_i u_ik F_i for each eigenvalue w_k of a above the PSD bound, largest first."""
    import math
    from dqs import linalg
    w, u = linalg.hermitian_eigen(a)
    threshold = linalg.psd_bound(w)
    f = np.stack(basis.traceless)
    ops = []
    for k in range(w.size - 1, -1, -1):
        if w[k] <= threshold:
            break
        ops.append(math.sqrt(w[k]) * np.einsum("i,ikl->kl", u[:, k], f))
    return ops


# The two-level formula P = [1/2 - exp(-lam t)(1/2 - sin^2(Delta t/2))] sin^2(2 theta)
# written out three times, in the evaluation orders ``qubit`` and ``neutrino``
# once used, as references that share no code with the library.

def reference_transition(delta, lam, theta, t):
    """The dephasing qubit's transition probability at one time, by ``math``."""
    import math

    phase = 0.5 * delta * t
    damping = math.exp(-lam * t)
    return (0.5 - damping * (0.5 - math.sin(phase) ** 2)) * math.sin(2.0 * theta) ** 2


def reference_survival(dm2, theta, lambda_km, baseline_km, energy_gev):
    """Two-flavor survival at one (L, E), by ``math``, with the phase C dm2 L / E."""
    import math

    from dqs.neutrino import PHASE_CONSTANT

    phase = PHASE_CONSTANT * dm2 * baseline_km / energy_gev
    damped = 0.5 - math.exp(-lambda_km * baseline_km) * (0.5 - math.sin(phase) ** 2)
    return 1.0 - damped * math.sin(2.0 * theta) ** 2


def reference_survival_rows(x, dm2, theta, lambda_km):
    """Two-flavor survival on an L/E array at E = 1 GeV, by numpy; the
    parameters broadcast against x, so that a column of levels gives a row each."""
    from dqs.neutrino import PHASE_CONSTANT

    damped = 0.5 - np.exp(-lambda_km * x) * (0.5 - np.sin(PHASE_CONSTANT * dm2 * x) ** 2)
    return 1.0 - damped * np.sin(2.0 * theta) ** 2


def reference_grid(x, p, w, merged, values, free, grid_points):
    """The brute-force coarse grid of ``neutrino.fit_parameters``.

    Every outer combination of the free parameters, in lexicographic order,
    is evaluated on the full grid of the last free one.  Returns the best
    grid point as a parameter dict and its SSE.
    """
    import itertools
    import math

    from dqs.neutrino import PARAMETER_NAMES

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
            pred = reference_survival_rows(x, args["dm2"], args["theta"], args["lambda_km"])
            r = pred - p
            sse_vec = (w * r * r).sum(axis=1)
        k = int(np.argmin(sse_vec))
        if sse_vec[k] < best_sse:
            best_sse = float(sse_vec[k])
            values = dict(trial)
            values[inner] = float(grids[inner][k])
    return values, best_sse


def reference_grid_table(x, dm2_levels, lambda_levels):
    """The coarse grid's rows of ``neutrino.fit_parameters``, node by node.

    S = 1/2 - sin^2(PHASE_CONSTANT dm2 x), one row per dm2 level, and
    E = exp(-lambda_km x), one row per lambda_km level: one sine or
    exponential per node, the table that ``neutrino._grid_rows`` builds by
    recurrence.
    """
    from dqs.neutrino import PHASE_CONSTANT

    # an overflowing phase gives a NaN row, as it does in the fit
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0.5 - np.sin(PHASE_CONSTANT * dm2_levels[:, None] * x) ** 2
        e = np.exp(-lambda_levels[:, None] * x)
    return s, e


def reference_golden_min(f, lo, hi, tol):
    """Golden-section slice minimiser, ``reference_coordinate_polish``'s default.

    Each evaluation shrinks the bracket by 1/phi until it is no wider than
    ``tol``; the better of the two inner points is returned with f's tuple
    there, whose first item is the value minimised.
    """
    import math

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b), f(0.5 * (a + b))
    c = b - invphi * h
    d = a + invphi * h
    fc = f(c)
    fd = f(d)
    while h > tol:
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            h = b - a
            c = b - invphi * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    return (c, fc) if fc[0] <= fd[0] else (d, fd)


def reference_coordinate_polish(spectrum, bounds, start, grid_points=41, max_cycles=60,
                                minimiser=reference_golden_min):
    """The coordinate-wise polish of dm2 and lambda_km on a ``Spectrum``, as a reference.

    ``bounds`` holds all three parameters' (lo, hi), a pinned one as (v, v);
    ``start`` is the grid node (an ``OscillationParams``; its theta is not
    read).  Theta is profiled as ``neutrino.fit_parameters`` profiles it.
    Each cycle minimises the SSE along dm2 and then along lambda_km, those
    of them that are not pinned, with ``minimiser`` over a bracket of one
    grid spacing either side.  A slice minimum that lowers the SSE is taken;
    one that lies farther away but does not lower it halves that bracket.
    The polish stops once every slice minimum lies within 1e-6 of its bound
    width of the current value, or after ``max_cycles`` cycles.  Returns a
    ``FitResult`` whose grid point is ``start`` with the theta and SSE
    solved there.
    """
    import math

    from dqs import neutrino

    x, p, w = spectrum.l_over_e, spectrum.p, spectrum.weight
    theta_lo, theta_hi = bounds["theta"]
    ends = (math.sin(2.0 * theta_lo) ** 2, math.sin(2.0 * theta_hi) ** 2)
    t_lo = min(ends)
    t_hi = 1.0 if theta_lo <= math.pi / 4.0 <= theta_hi else max(ends)
    q = 1.0 - p
    ws = w / w.max()

    def profile(at):
        with np.errstate(over="ignore", invalid="ignore"):
            d = neutrino._damped(x, at["dm2"], at["lambda_km"])[0]
            if theta_lo == theta_hi:
                theta = theta_lo
            else:
                b = np.dot(ws * d, d)
                t = t_lo if b == 0.0 else min(max(np.dot(ws * q, d) / b, t_lo), t_hi)
                theta = neutrino._theta_for(t, theta_lo, theta_hi)
            r = 1.0 - d * np.sin(2.0 * theta) ** 2 - p
            return float(np.dot(w * r, r)), theta

    free = [n for n in ("dm2", "lambda_km") if bounds[n][0] < bounds[n][1]]
    values = {"dm2": start.dm2, "lambda_km": start.lambda_km}
    cur_sse, values["theta"] = profile(values)
    grid_params, grid_sse = neutrino.OscillationParams(**values), cur_sse
    width = {n: bounds[n][1] - bounds[n][0] for n in free}
    spacing = {n: width[n] / (grid_points - 1) for n in free}
    converged, cycles = False, 0
    while cycles < max_cycles:
        cycles += 1
        settled = True
        for name in free:
            lo = max(bounds[name][0], values[name] - spacing[name])
            hi = min(bounds[name][1], values[name] + spacing[name])
            candidate, (candidate_sse, candidate_theta) = minimiser(
                lambda v: profile({**values, name: v}), lo, hi, 1e-10 * width[name])
            move = abs(candidate - values[name])
            if candidate_sse < cur_sse:
                values[name], values["theta"], cur_sse = candidate, candidate_theta, candidate_sse
            elif move >= 1e-6 * width[name]:
                spacing[name] *= 0.5
            if move >= 1e-6 * width[name]:
                settled = False
        if settled:
            converged = True
            break
    return neutrino.FitResult(params=neutrino.OscillationParams(**values), sse=cur_sse,
                              converged=converged, cycles=cycles,
                              grid_params=grid_params, grid_sse=grid_sse)


def reference_lm_min(f, start, at_start, lo, hi, tol, max_iterations):
    """``neutrino._lm_min`` in the numpy form it once had, as a reference.

    The same box-projected Levenberg-Marquardt iteration on ndarrays: f
    returns (value, g, m, rss, ...) with g and m as arrays, and beta, lo,
    hi and ``tol`` are arrays of two.  Its products of two go through
    numpy's ``@``, so they may round differently from the library's
    float arithmetic in the last bit.
    """
    from dqs.neutrino import _MU_MIN

    beta, best = start, at_start
    mu, grow, kappa = 1e-3, 2.0, 1.0
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        value, g, m, rss = best[:4]
        scale = np.sqrt(np.diag(m))
        free = ((lo < hi) & (scale > 0.0) & np.isfinite(scale)
                & ~(((beta <= lo) & (g > 0.0)) | ((beta >= hi) & (g < 0.0))))
        # in units of the columns of J, J^T J has unit diagonal and the
        # off-diagonal c; a fixed coordinate has c = 0 and no gradient
        s = np.where(free, scale, 1.0)
        gs = np.where(free, g / s, 0.0)
        c = m[0, 1] / (s[0] * s[1]) if free.all() else 0.0

        def solve(k):
            """[[k, c], [c, k]]^-1 gs."""
            return np.array([k * gs[0] - c * gs[1], k * gs[1] - c * gs[0]]) / (k * k - c * c)

        if gs @ solve(1.0 + _MU_MIN) <= 1e-13 * rss:
            return beta, best, iterations, True
        step = solve(1.0 + mu) / kappa
        trial = np.clip(beta - step / s, lo, hi)
        if (np.abs(trial - beta) <= tol).all():
            return beta, best, iterations, True
        out = f(trial)
        if out[3] < rss and out[0] <= value:
            # the model promises 2 step.gs - kappa step^T C step, C being the
            # scaled J^T J, which (C + mu) kappa step = gs turns into this sum
            drop, promised = rss - out[3], step @ gs + kappa * mu * (step @ step)
            rho = drop / promised if drop < promised else 1.0
            h = trial - beta
            met, modelled = h @ (out[1] - g), h @ m @ h
            one_axis = np.count_nonzero(h) == 1
            kappa = (max(met, 0.1 * modelled) / modelled
                     if one_axis and 0.0 < modelled and met < modelled else 1.0)
            beta, best = trial, out
            mu, grow = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), _MU_MIN), 2.0
        else:
            mu, grow = mu * grow, grow * 2.0
    return beta, best, iterations, False


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


def reference_expm(a, scale=1.0):
    """``linalg.expm`` as it was before its products went through ``np.dot``.

    The same [6/6] Pade approximant with scaling and squaring, checks and
    messages, written with ``np.matmul`` and ``@`` into fresh arrays and with
    the numerator formed as den + (odd + odd): the library's result must
    match it bit for bit, dtype included.
    """
    import math

    from dqs.linalg import _PADE6, _PADE6_ROWS, _SAFE_NORM, as_matrix, require_square

    m = np.asarray(a)
    m = m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)
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
        as_matrix(m)
        raise ValueError("matrix exponential overflowed")
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(min(math.log2(norm / 0.5), 1025.0))))
        b *= 0.5 ** squarings
    powers = np.empty((3, n, n), dtype=b.dtype)
    b2 = np.matmul(b, b, out=powers[0])
    b4 = np.matmul(b2, b2, out=powers[1])
    np.matmul(b2, b4, out=powers[2])
    even, inner = (_PADE6_ROWS @ powers.reshape(3, -1)).reshape(2, n, n)
    odd = b @ inner + _PADE6[1] * b
    den = even - odd
    den.reshape(-1)[::n + 1] += _PADE6[0]
    r = np.linalg.solve(den, den + (odd + odd))
    if norm < _SAFE_NORM:
        for _ in range(squarings):
            r = r @ r
        return r
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r = r @ r
    if not np.isfinite(r).all():
        raise ValueError("matrix exponential overflowed")
    return r
