"""Seeded inputs, tasks and oracle checks for the three benchmark workloads.

A task is one user-level query.  ``run`` performs it through the public API
(``dqs.cli.main`` or a library function) and returns its raw output;
``check`` compares that output with the independent oracle and returns an
error message, or None when the output is right.  The runner times ``run``
only, so the checks cost nothing in the reported figures.

Inputs come from ``numpy.random.default_rng(seed)`` alone and are written to
a scratch directory by this file's own writers, so the program receives only
files and arrays.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

import oracle

Check = Callable[[Any], Optional[str]]


@dataclass
class Task:
    kind: str
    dim: int
    run: Callable[[], Any]
    check: Check
    rows: int = 0           # trajectory rows the task prints (evolve only)


# ------------------------------------------------------------------ generators

def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitize(m):
    return 0.5 * (m + m.conj().T)


def random_psd(rng, n, trace):
    x = random_complex(rng, (n, n))
    p = x @ x.conj().T
    return hermitize(p * (trace / p.trace().real))


def random_density(rng, n):
    rho = random_psd(rng, n, 1.0)
    return rho / rho.trace().real


def rotated_hamiltonian(rng, n, scale=1.0):
    """H = U diag(e) U^dagger with random levels and a random unitary U."""
    u = random_unitary(rng, n)
    e = rng.uniform(-scale, scale, n)
    return hermitize((u * e) @ u.conj().T), u


def generic_model(rng, n):
    """Random rotated H and a random full-rank Kossakowski matrix."""
    h, _ = rotated_hamiltonian(rng, n)
    return h, random_psd(rng, n * n - 1, rng.uniform(0.3, 0.8))


def dispersive_model(rng, n, h=None, u=None):
    """Dephasing in the eigenbasis of a rotated H, so D_H = 0 exactly.

    Jump operators V_k = U diag(d_k) U^dagger with traceless real d_k
    commute with H; their Kossakowski matrix is C C^dagger with
    C_ik = tr(F_i^dagger V_k).
    """
    if h is None:
        h, u = rotated_hamiltonian(rng, n)
    f = oracle.gell_mann(n)[:-1]
    cols = []
    for _ in range(n - 1):
        d = rng.standard_normal(n)
        d = rng.uniform(0.3, 0.8) * (d - d.mean()) / np.linalg.norm(d - d.mean())
        v = (u * d) @ u.conj().T
        cols.append(np.einsum("ilk,lk->i", f.conj(), v))
    c = np.array(cols).T
    return h, hermitize(c @ c.conj().T)


def pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def write_model(path, h, a):
    doc = {"dimension": h.shape[0], "basis": "gell-mann",
           "hamiltonian": pairs(h), "kossakowski": pairs(a)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_state(path, rho):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pairs(rho), fh)


def write_spectrum(path, x, p, w=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("L_over_E_km_per_GeV,P_survival" + (",weight" if w is not None else "") + "\n")
        for k in range(len(x)):
            row = [repr(float(x[k])), repr(float(p[k]))]
            if w is not None:
                row.append(repr(float(w[k])))
            fh.write(",".join(row) + "\n")


def read_model(path):
    """H and the Kossakowski matrix of a model file, read without dqs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    h, a = (np.array(doc[key]) for key in ("hamiltonian", "kossakowski"))
    return h[..., 0] + 1j * h[..., 1], a[..., 0] + 1j * a[..., 1]


# ------------------------------------------------------------------ CLI calls

class CliOutput(NamedTuple):
    code: int
    stdout: str
    stderr: str


def cli_task(cli, kind, dim, argv, check, rows=0):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())
    return Task(kind, dim, run, check, rows)


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def parse_keys(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def exit_ok(result):
    code, _, err = result
    return None if code == 0 else f"exit {code}: {err.strip()[:200]}"


# ------------------------------------------------------------------ trajectory

def check_evolve(times, states, h, dispersive, tol):
    n = h.shape[0]

    def check(result):
        bad = exit_ok(result)
        if bad:
            return bad
        header, rows = parse_csv(result.stdout)
        if len(header) != 2 * n * n + 4 or rows.shape != (len(times), len(header)):
            return f"table shape {rows.shape}, header {len(header)}"
        if np.abs(rows[:, 0] - times).max() > 1e-12 * max(1.0, times[-1]):
            return "time column differs from the requested grid"
        rho = (rows[:, 1:1 + 2 * n * n:2] + 1j * rows[:, 2:2 + 2 * n * n:2]).reshape(-1, n, n)
        if np.abs(rows[:, -3] - 1.0).max() > 1e-12:
            return f"trace deviates from 1 by {np.abs(rows[:, -3] - 1.0).max():.3e}"
        err = np.abs(rho - states).max()
        if err > tol:
            return f"state differs from the oracle by {err:.3e}"
        ent = np.array([oracle.entropy(s) for s in states])
        if np.abs(rows[:, -2] - ent).max() > 1e-8:
            return f"entropy differs from the oracle by {np.abs(rows[:, -2] - ent).max():.3e}"
        energy = np.einsum("tij,ji->t", states, h).real
        if np.abs(rows[:, -1] - energy).max() > 1e-8:
            return "energy column differs from the oracle"
        if dispersive and np.abs(rows[:, -1] - rows[0, -1]).max() > 1e-9 * max(1.0, abs(rows[0, -1])):
            return "energy drifts on a dispersive model"
        return None
    return check


def check_probabilities(delta, lam, theta, times):
    expect = oracle.transition_probabilities(delta, lam, theta, times)

    def check(result):
        bad = exit_ok(result)
        if bad:
            return bad
        _, rows = parse_csv(result.stdout)
        if rows.shape != (len(times), 3):
            return f"table shape {rows.shape}"
        if np.abs(rows[:, 1] - expect).max() > 1e-12:
            return f"P_transition differs from the oracle by {np.abs(rows[:, 1] - expect).max():.3e}"
        if np.abs(rows[:, 1] + rows[:, 2] - 1.0).max() > 1e-15:
            return "probabilities do not sum to 1"
        return None
    return check


def grid(t_max, steps):
    return np.array([k * t_max / steps for k in range(steps + 1)])


# (model, steps, t-max span, copies) per pass.  Task costs span three orders
# of magnitude (probabilities ~4 ms, 200-step qubit ~0.08 s, 200-step N=3
# ~0.3 s, N=4 and 2000-step runs ~1 s), so the copies put the median inside
# the 45 qubit tasks and the 90th percentile inside the 13 N=3 tasks, at
# least five tasks away from either end of the group.
TRAJECTORY_MIX = (
    ("probabilities", 500, "short", 20), ("probabilities", 500, "long", 20),
    ("dispersive_qubit", 200, "short", 12), ("dispersive_qubit", 200, "long", 11),
    ("damped_x", 200, "short", 11), ("damped_x", 200, "long", 11),
    ("n3_generic", 200, "short", 4), ("n3_generic", 200, "long", 3),
    ("n3_dispersive", 200, "short", 3), ("n3_dispersive", 200, "long", 3),
    ("n4_generic", 200, "long", 1), ("dispersive_qubit", 2000, "long", 1),
)
# short runs need few expm squarings, long ones several
T_MAX = {"short": (0.2, 1.0), "long": (10.0, 40.0)}


def trajectory_tasks(cli, rng, workdir, models_dir) -> List[Task]:
    models = {}
    qubit_path = os.path.join(models_dir, "dispersive_qubit.model")
    models["dispersive_qubit"] = (qubit_path, *read_model(qubit_path), True)
    damped_path = os.path.join(models_dir, "damped_x.model")
    models["damped_x"] = (damped_path, *read_model(damped_path), False)
    for name, n, make, disp in (("n3_generic", 3, generic_model, False),
                                ("n3_dispersive", 3, dispersive_model, True),
                                ("n4_generic", 4, generic_model, False)):
        h, a = make(rng, n)
        path = os.path.join(workdir, f"{name}.model")
        write_model(path, h, a)
        models[name] = (path, h, a, disp)

    tasks = []
    for name, steps, span, copies in TRAJECTORY_MIX:
        for _ in range(copies):
            t_max = rng.uniform(*T_MAX[span])
            times = grid(t_max, steps)
            argv_t = ["--t-max", repr(t_max), "--steps", str(steps)]
            if name == "probabilities":
                delta, lam = rng.uniform(1.0, 8.0), rng.uniform(0.0, 1.0)
                theta = rng.uniform(0.0, math.pi / 2.0)
                argv = ["probabilities", "--delta", repr(delta), "--lam", repr(lam),
                        "--theta", repr(theta)] + argv_t
                tasks.append(cli_task(cli, "probabilities", 2, argv,
                                      check_probabilities(delta, lam, theta, times)))
                continue
            path, h, a, disp = models[name]
            n = h.shape[0]
            if n == 2:
                pop = rng.uniform(0.05, 0.95)
                coh = math.sqrt(pop * (1 - pop)) * rng.uniform(0.0, 0.99) * complex(
                    np.exp(2j * math.pi * rng.uniform()))
                rho0 = np.array([[pop, coh], [coh.conjugate(), 1 - pop]])
                state_args = ["--state", f"{pop!r},{coh.real!r}{coh.imag:+.17g}j"]
            else:
                rho0 = random_density(rng, n)
                state_path = os.path.join(workdir, f"state{len(tasks)}.json")
                write_state(state_path, rho0)
                state_args = ["--state-file", state_path]
            if name == "dispersive_qubit":
                # H = diag(2.5, -2.5), pure dephasing at rate a_33
                delta, lam = (h[0, 0] - h[1, 1]).real, a[2, 2].real
                states = oracle.dephasing_qubit_trajectory(pop, coh, delta, lam, times)
                tol = 1e-10
            else:
                states = oracle.trajectory(h, a, rho0, times)
                tol = 1e-8
            tasks.append(cli_task(cli, f"evolve.{name}.{span}.{steps}", n,
                                  ["evolve", path] + state_args + argv_t,
                                  check_evolve(times, states, h, disp, tol),
                                  rows=len(times)))
    return [tasks[k] for k in rng.permutation(len(tasks))]


# ------------------------------------------------------------------ certify

CERTIFY_DIMS = (2, 3, 4, 6, 8)
KERNEL_DIMS = (2, 3)
CERTIFY_MODELS_PER_DIM = (2, 2)      # generic, planted dispersive
WITNESS_GRID = (0.5, 2.0)
TOL = 1e-9                           # the library's default kernel tolerance


def certify_tasks(dqs, rng) -> List[Task]:
    gks, dynamics = dqs.gks, dqs.dynamics
    specs = []
    for n in CERTIFY_DIMS:
        specs += [(n, False)] * CERTIFY_MODELS_PER_DIM[0]
        specs += [(n, True)] * CERTIFY_MODELS_PER_DIM[1]
    order = rng.permutation(len(specs))
    specs = [specs[k] for k in order]
    # the fixed case: diag(2.5, -2.5) rotated, whose kernel has dimension 5
    u = random_unitary(rng, 2)
    h_fixed = hermitize((u * np.array([2.5, -2.5])) @ u.conj().T)
    models = [dispersive_model(rng, 2, h_fixed, u) + (True, 5)]
    for n, disp in specs:
        models.append((dispersive_model if disp else generic_model)(rng, n) + (disp, None))

    tasks = []
    for h, a, disp, fixed_kernel in models:
        n = h.shape[0]
        model: Dict[str, Any] = {}
        t_cptp = float(rng.uniform(0.1, 5.0))
        probe = random_density(rng, n)
        tasks += [
            Task("build", n, _build(gks, model, h, a), _check_verdict(h, a, disp)),
            Task("cptp", n, lambda m=model, t=t_cptp: dynamics.cptp_report(
                dynamics.propagator(m["liou"], t)), _check_cptp),
            Task("stationary", n, lambda m=model: dynamics.stationary_states(m["liou"]),
                 _check_stationary(h, a)),
            Task("witness", n, lambda m=model: dynamics.time_reversal_witness(
                m["liou"], WITNESS_GRID), _check_witness),
            Task("lindblad", n, lambda m=model: gks.lindblad_operators(
                m["liou"].kossakowski, m["liou"].basis), _check_lindblad(h, a, probe)),
        ]
        if n in KERNEL_DIMS:
            tasks.append(Task("kernel", n, lambda hh=h, b=n: gks.dispersive_kossakowski_kernel(
                hh, gks.gell_mann_basis(b)), _check_kernel(fixed_kernel)))
    return tasks


def _build(gks, model, h, a):
    def run():
        n = h.shape[0]
        liou = gks.GKSLiouvillian(h, gks.KossakowskiMatrix(n, a), gks.gell_mann_basis(n))
        model["liou"] = liou
        return gks.is_dispersive(liou)
    return run


def _check_verdict(h, a, planted):
    residual = oracle.dissipation_residual(h, a)
    truth = residual <= TOL * max(1.0, np.linalg.norm(h))

    def check(verdict):
        if truth != planted:
            return f"generator is broken: planted {planted}, oracle residual {residual:.3e}"
        if bool(verdict.dispersive) != planted:
            return f"verdict {verdict.dispersive}, planted {planted}"
        return None
    return check


def _check_cptp(report):
    if report.trace_residual > 1e-10:
        return f"trace residual {report.trace_residual:.3e}"
    if report.choi_min_eigenvalue < -1e-9:
        return f"Choi min eigenvalue {report.choi_min_eigenvalue:.3e}"
    return None


def _check_stationary(h, a):
    nullity = oracle.svd_nullity(oracle.superoperator(h, a), TOL)

    def check(family):
        dim = len(family.kernel)
        if dim < 1 or dim != nullity:
            return f"stationary kernel dimension {dim}, SVD nullity {nullity}"
        return None
    return check


def _check_witness(witness):
    return "no witness for a nonzero dissipator" if witness is None else None


def _check_lindblad(h, a, rho):
    n = h.shape[0]
    want = (oracle.superoperator(h, a) @ rho.reshape(-1, order="F")).reshape(n, n, order="F")
    want += 1j * (h @ rho - rho @ h)

    def check(ops):
        got = np.zeros_like(rho)
        for v in ops:
            vv = v.conj().T @ v
            got += v @ rho @ v.conj().T - 0.5 * (vv @ rho + rho @ vv)
        err = np.abs(got - want).max()
        return None if err <= 1e-9 else f"jump operators miss the dissipator by {err:.3e}"
    return check


def _check_kernel(fixed):
    def check(kernel):
        nullity = oracle.svd_nullity(kernel.map_matrix, TOL)
        if kernel.dimension != nullity:
            return f"kernel dimension {kernel.dimension}, SVD nullity {nullity}"
        if fixed is not None and nullity != fixed:
            return f"map_matrix nullity {nullity}, expected {fixed}"
        return None
    return check


# ------------------------------------------------------------------ nu-fit

# (points, fit, noisy, copies) per pass; fit is "free" (three parameters),
# "fix" (--fix lambda_km=0) or "octant" (three parameters, theta <= pi/4).
# The median falls inside the 2000-point fixed-lambda group and the 90th
# percentile inside the 200-point three-parameter group.  A three-parameter
# fit of 2000 points (~2 s) is left out: one task that long is a fifth of
# the pass, and its host-speed noise dominated the spread of tasks_per_ref.
NUFIT_MIX = (
    (50, "fix", False, 10), (50, "fix", True, 10),
    (200, "fix", False, 10), (200, "fix", True, 10),
    (2000, "fix", False, 10), (2000, "fix", True, 10),
    (50, "octant", False, 8), (50, "free", True, 8),
    (200, "octant", False, 12), (200, "free", True, 12),
)
LAMBDA_WIDTH = 1e-3


def nufit_tasks(cli, rng, workdir) -> List[Task]:
    tasks = []
    for points, fit, noisy, copies in NUFIT_MIX:
        for _ in range(copies):
            dm2 = rng.uniform(6e-5, 9e-5)
            theta = math.atan(math.sqrt(rng.uniform(0.3, 0.5)))
            lam = 0.0 if fit == "fix" else rng.uniform(0.0, 8e-5)
            x = np.linspace(0.0, 3.6e4, points)
            p = oracle.survival(x, dm2, theta, lam)
            w = None
            if noisy:
                sigma = rng.uniform(0.01, 0.03, points)
                p = np.clip(p + sigma * rng.standard_normal(points), 0.0, 1.0)
                w = 1.0 / sigma ** 2
            path = os.path.join(workdir, f"spectrum{len(tasks)}.csv")
            write_spectrum(path, x, p, w)
            argv = ["nu-fit", path]
            if fit == "fix":
                argv += ["--fix", "lambda_km=0"]
            if fit != "free":
                argv += ["--bounds", f"theta=0:{math.pi / 4.0!r}"]
            truth = None if noisy else (dm2, theta, lam)
            tasks.append(cli_task(cli, f"nu-fit.{fit}.{points}", 2, argv,
                                  _check_fit(x, p, w, truth, fit == "fix")))
    return [tasks[k] for k in rng.permutation(len(tasks))]


def _check_fit(x, p, w, truth, lambda_fixed):
    weights = np.ones_like(x) if w is None else w

    def check(result):
        bad = exit_ok(result)
        if bad:
            return bad
        keys = parse_keys(result.stdout)
        if keys.get("converged") != "true" or int(keys["points"]) != len(x):
            return f"converged={keys.get('converged')} points={keys.get('points')}"
        dm2, theta, lam = (float(keys[k]) for k in ("dm2", "theta", "lambda_km"))
        sse, grid_sse = float(keys["sse"]), float(keys["grid_sse"])
        if sse > grid_sse:
            return f"polish made the fit worse: {sse!r} > {grid_sse!r}"
        r = oracle.survival(x, dm2, theta, lam) - p
        want = float(np.dot(weights * r, r))
        if abs(want - sse) > 1e-9 * want + 1e-12 * weights.sum():
            return f"reported sse {sse!r}, oracle {want!r}"
        if lambda_fixed and lam != 0.0:
            return "fixed lambda_km moved"
        if truth is not None:
            dm2_0, theta_0, lam_0 = truth
            theta = min(theta, math.pi / 2.0 - theta)
            if (abs(dm2 - dm2_0) > 1e-3 * dm2_0 or abs(theta - theta_0) > 1e-3 * theta_0
                    or abs(lam - lam_0) > 0.01 * LAMBDA_WIDTH):
                return f"planted {truth} not recovered: {(dm2, theta, lam)}"
        return None
    return check
