"""Checks of the benchmark's own machinery: oracle, checks and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (puts src/ on the path through load_dqs)
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

dqs = run.load_dqs()


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    return run.build_tasks(dqs, "trajectory", 5, str(tmp_path_factory.mktemp("traj")))


def cheapest(tasks, prefix):
    return min((t for t in tasks if t.kind.startswith(prefix)), key=lambda t: t.rows)


def test_closed_form_and_eig_oracles_agree():
    times = np.linspace(0.0, 3.0, 7)
    h = np.diag([2.0, -1.0]).astype(complex)
    a = np.zeros((3, 3))
    a[2, 2] = 0.7
    b = 0.2 + 0.1j
    rho0 = np.array([[0.6, b], [np.conj(b), 0.4]])
    eig = oracle.trajectory(h, a, rho0, times)
    closed = oracle.dephasing_qubit_trajectory(0.6, b, 3.0, 0.7, times)
    assert np.abs(eig - closed).max() < 1e-13


def test_planted_dispersive_models_have_zero_dissipation():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        h, a = workloads.dispersive_model(rng, n)
        assert oracle.dissipation_residual(h, a) < 1e-12
        assert np.abs(h - np.diag(np.diag(h))).max() > 1e-3      # not diagonal
        h, a = workloads.generic_model(rng, n)
        assert oracle.dissipation_residual(h, a) > 1e-3


@pytest.mark.parametrize("prefix", ["evolve.dispersive_qubit", "evolve.n3_generic",
                                    "probabilities"])
def test_planted_wrong_trajectory_output_counts_as_failed(trajectory, prefix):
    task = cheapest(trajectory, prefix)
    out = task.run()
    assert task.check(out) is None
    lines = out.stdout.splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[5] = ",".join(cells)
    wrong = out._replace(stdout="\n".join(lines) + "\n")
    assert task.check(wrong) is not None
    outcome = run.Pass([dataclasses.replace(task, run=lambda: wrong)])
    assert len(outcome.errors) == 1


def test_planted_wrong_fit_and_crash_count_as_failed(tmp_path):
    tasks = run.build_tasks(dqs, "nu-fit", 5, str(tmp_path))
    task = min(tasks, key=lambda t: int(t.kind.rsplit(".", 1)[1]))
    out = task.run()
    assert task.check(out) is None
    sse = float(workloads.parse_keys(out.stdout)["sse"])
    shifted = "".join(f"sse={sse * 1.01 + 1e-6!r}\n" if line.startswith("sse=") else line
                      for line in out.stdout.splitlines(keepends=True))
    assert task.check(out._replace(stdout=shifted)) is not None
    assert task.check(out._replace(code=3)) is not None

    def crash():
        raise RuntimeError("boom")
    assert len(run.Pass([dataclasses.replace(task, run=crash)]).errors) == 1


def test_kernel_check_uses_svd_nullity():
    class Fake:
        def __init__(self, dimension, map_matrix):
            self.dimension, self.map_matrix = dimension, map_matrix
    m = np.diag([1.0, 1.0, 0.0, 0.0])
    assert workloads._check_kernel(None)(Fake(2, m)) is None
    assert workloads._check_kernel(None)(Fake(1, m)) is not None
    assert workloads._check_kernel(5)(Fake(2, m)) is not None


def test_tracer_counts_calls_and_restores_bindings(trajectory):
    original_expm = dqs.linalg.expm
    cls = dqs.linalg.DensityMatrix
    tasks = [cheapest(trajectory, "evolve.dispersive_qubit"), cheapest(trajectory, "probabilities")]
    counts = []
    for _ in range(2):
        recorder = tracer.Recorder()
        uninstall = recorder.install(dqs)
        try:
            assert dqs.linalg.expm is not original_expm
            assert dqs.expm is dqs.linalg.expm                    # package re-export
            assert dqs.dynamics.DensityMatrix is cls              # class left in place
            errors = []
            for k, task in enumerate(tasks):
                recorder.task = k
                errors.append(run.run_task(task)[1])
        finally:
            uninstall()
        assert errors == [None, None]
        summary = recorder.summary([t.dim for t in tasks])
        counts.append({k: v["calls"] for k, v in summary.items()})
        assert summary["linalg.expm"]["calls"] == tasks[0].rows
        assert summary["cli.main"]["calls"] == 2
        main = summary["cli.main"]
        assert 0.0 < main["self_ms"] <= main["total_ms"]
    assert counts[0] == counts[1]
    assert dqs.linalg.expm is original_expm and dqs.expm is original_expm
    assert "__post_init__" in vars(cls) and cls.__post_init__.__name__ == "__post_init__"
    assert not hasattr(cls.__post_init__, "__wrapped__")


def test_phase_constant_matches_hbar_c():
    assert math.isclose(oracle.PHASE_CONSTANT, 1.26693, rel_tol=1e-5)
