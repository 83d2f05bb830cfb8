"""End-to-end checks of the package's headline claims.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
its own runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dqs import cli, dynamics, gks, neutrino, qubit
from dqs.linalg import DensityMatrix
from dqs.qubit import DispersiveQubitParams, QubitBloch

from helpers import random_density, random_liouvillian


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS "
          f"[{time.perf_counter() - start:.2f}s < {budget_s}s]")


def test_criterion_1_dispersiveness():
    rng = np.random.default_rng(101)
    with criterion(1, "dephasing qubit is dispersive, damped variants are not", 1.0):
        for _ in range(20):
            lam = rng.uniform(0.05, 2.0)
            e0 = rng.normal()
            e1 = e0 + rng.uniform(0.1, 5.0)
            verdict = gks.is_dispersive(gks.qubit_liouvillian(e0, e1, lam))
            assert verdict.dispersive
            assert verdict.residual <= 1e-12
        for _ in range(20):
            lam = rng.uniform(0.1, 2.0)
            delta = rng.uniform(0.1, 5.0)
            liou = gks.qubit_liouvillian(-0.5 * delta, 0.5 * delta, lam, axis=1)
            verdict = gks.is_dispersive(liou)
            assert not verdict.dispersive
            assert verdict.residual > 1e-3
            assert verdict.residual == pytest.approx(lam * delta / math.sqrt(2.0),
                                                     rel=1e-10)


def test_criterion_2_energy_flow_identity():
    rng = np.random.default_rng(102)
    with criterion(2, "energy flow h . R x matches tr(rho D_H)", 10.0):
        for k in range(20):
            n = 2 + k % 2
            liou = random_liouvillian(rng, n)
            for _ in range(10):
                rho = random_density(rng, n)
                assert dynamics.energy_flow_residual(liou, rho) <= 1e-12


def test_criterion_3_closed_form_oracle():
    rng = np.random.default_rng(103)
    with criterion(3, "numeric propagation matches the dephasing solution", 5.0):
        for _ in range(100):
            a = rng.uniform(0.0, 1.0)
            r = math.sqrt(a * (1.0 - a)) * rng.uniform(0.0, 1.0)
            b = r * np.exp(2j * np.pi * rng.uniform())
            lam = rng.uniform(0.0, 2.0)
            delta = rng.uniform(0.0, 10.0) or 1e-6
            t = rng.uniform(0.0, 10.0)
            params = DispersiveQubitParams(-0.5 * delta, 0.5 * delta, lam)
            liou = gks.qubit_liouvillian(params.e0, params.e1, lam)
            expected = qubit.evolve_closed_form(params, QubitBloch(a, b), t)
            state = DensityMatrix(np.array([[a, b], [np.conj(b), 1.0 - a]]))
            got = dynamics.propagate(liou, state, t)
            assert np.abs(got.matrix - expected.matrix).max() <= 1e-10


def test_criterion_4_cptp_suite():
    rng = np.random.default_rng(104)
    with criterion(4, "flows are CPTP semigroups recovering their generator", 30.0):
        for k in range(50):
            n = 2 + k % 2
            liou = random_liouvillian(rng, n)
            for t in (0.1, 1.0, 10.0):
                report = dynamics.cptp_report(dynamics.propagator(liou, t))
                assert report.trace_residual <= 1e-10
                assert report.choi_min_eigenvalue >= -1e-9
            t1, t2 = rng.uniform(0.0, 2.0, size=2)
            assert dynamics.semigroup_residual(liou, float(t1), float(t2)) <= 1e-9
            r1 = dynamics.generator_recovery_residual(liou, 1e-3)
            r2 = dynamics.generator_recovery_residual(liou, 5e-4)
            assert 0.4 <= r2 / r1 <= 0.6


def test_criterion_5_time_reversal_witness():
    with criterion(5, "dephasing flow has no CP inverse, unitary flow does", 1.0):
        damped = gks.qubit_liouvillian(-2.5, 2.5, 1.0)
        witness = dynamics.time_reversal_witness(damped, [1.0])
        assert witness is not None
        assert witness.choi_min_eigenvalue < -1e-3
        unitary = gks.qubit_liouvillian(-2.5, 2.5, 0.0)
        grid = np.linspace(0.0, 10.0, 101)
        assert dynamics.time_reversal_witness(unitary, grid) is None


def test_criterion_6_entropy_growth():
    with criterion(6, "dephasing entropy is monotone and saturates at log 2", 1.0):
        lam = 1.0
        liou = gks.qubit_liouvillian(-2.5, 2.5, lam)
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        values = [dynamics.von_neumann_entropy(dynamics.propagate(liou, rho, t))
                  for t in np.linspace(0.0, 10.0, 100)]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
        late = dynamics.von_neumann_entropy(dynamics.propagate(liou, rho, 50.0 / lam))
        assert abs(late - math.log(2.0)) <= 1e-6


def test_criterion_7_kossakowski_uniqueness():
    with criterion(7, "PSD kernel directions are exactly the dephasing ray", 5.0):
        basis = gks.gell_mann_basis(2)
        h = np.diag([2.5, -2.5]).astype(complex)
        kernel = gks.dispersive_kossakowski_kernel(h, basis, samples=1000, seed=7)
        ray = np.zeros((3, 3), dtype=complex)
        ray[2, 2] = 1.0
        members = []
        for m, plus, minus in zip(kernel.kernel, kernel.element_psd,
                                  kernel.negation_psd):
            if plus:
                members.append(m)
            if minus:
                members.append(-m)
        for sample in kernel.samples:
            if sample.psd:
                members.append(sample.matrix)
        assert members, "the dephasing ray itself must be flagged PSD"
        for m in members:
            tr = np.trace(m).real
            assert tr > 0.0
            assert np.abs(m / tr - ray).max() <= 1e-7


def test_criterion_8_probability_figures(capsys):
    with criterion(8, "probability curves oscillate and equilibrate as published", 1.0):
        code = cli.main(["probabilities", "--delta", "5", "--lam", "0",
                         "--theta", str(math.pi / 8),
                         "--t-max", str(2 * math.pi), "--steps", "500"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        trans = [float(r[1]) for r in rows]
        assert min(trans) >= -1e-15 and min(trans) <= 1e-12
        assert max(trans) <= 0.5 + 1e-15 and max(trans) >= 0.5 - 1e-12
        # the grid step is 2 pi / 500, so one period 2 pi / 5 is 100 rows
        for k in range(len(trans) - 100):
            assert trans[k] == pytest.approx(trans[k + 100], abs=1e-9)

        code = cli.main(["probabilities", "--delta", "5", "--lam", "1",
                         "--theta", str(math.pi / 8),
                         "--t-max", "24", "--steps", "600"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for r in rows:
            if float(r[0]) >= 20.0:
                assert float(r[1]) == pytest.approx(0.25, abs=1e-6)
                assert float(r[2]) == pytest.approx(0.75, abs=1e-6)


def test_criterion_9_neutrino_consistency_and_fits():
    with criterion(9, "undamped spectra match the textbook formula, fits recover "
                      "planted parameters", 60.0):
        theta = math.atan(math.sqrt(0.40))
        sin2 = math.sin(2.0 * theta) ** 2
        undamped = neutrino.OscillationParams(7.9e-5, theta, 0.0)
        # sin^2 is phase-sensitive: the usual 6-digit 1.26693 would drift by
        # ~1e-6 across this grid, so rebuild the constant from hbar and c
        k_ref = 1e-18 / (4.0 * 6.582119e-25 * 2.99792458e5)
        assert round(k_ref, 5) == 1.26693
        grid = np.linspace(0.0, 3.6e4, 101)
        for x in grid:
            reference = 1.0 - sin2 * math.sin(k_ref * 7.9e-5 * x) ** 2
            assert neutrino.survival_at_l_over_e(undamped, float(x)) == pytest.approx(
                reference, abs=1e-9)

        first_octant = {"theta": (0.0, math.pi / 4.0)}
        for lam_true in (0.0, 5e-5):
            truth = neutrino.OscillationParams(7.9e-5, theta, lam_true)
            xs = np.linspace(0.0, 3.6e4, 50)
            data = neutrino.Spectrum(xs, neutrino.survival_at_l_over_e(truth, xs),
                                     np.ones(xs.size))
            fit = neutrino.fit_parameters(data, bounds=first_octant)
            assert fit.converged
            width = neutrino.DEFAULT_BOUNDS["lambda_km"][1]
            assert abs(fit.params.lambda_km - lam_true) <= 0.01 * width
            assert abs(fit.params.dm2 - truth.dm2) <= 1e-3 * truth.dm2
            assert abs(fit.params.theta - truth.theta) <= 1e-3 * truth.theta
