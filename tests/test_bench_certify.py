"""The benchmark's ``certify`` workload, run through the library untraced and traced.

``certify`` reads ``cptp_report(propagator(...))``, the stationary states,
the time-reversal witness and the dispersion kernel, and its tracer
observers read fields of their results, so a change to any of these shows
here as a failed task.  The bench is loaded the way
``scripts/stdout_digest.py`` loads it: ``bench/run.py`` imported as a
module, with ``dqs`` from this checkout's ``src/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """(run, tracer, dqs, tasks): one seed-0 pass of certify, built once and run by each test."""
    sys.path.insert(0, str(BENCH))
    run = importlib.import_module("run")
    dqs = run.load_dqs()
    tasks = run.build_tasks(dqs, "certify", 0, str(tmp_path_factory.mktemp("certify")))
    return run, importlib.import_module("tracer"), dqs, tasks


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_certify_pass_fails_no_task(bench, traced):
    run, tracer, dqs, tasks = bench
    uninstall = tracer.Recorder().install(dqs) if traced else None
    try:
        errors = [error for _, error, _ in map(run.run_task, tasks) if error]
    finally:
        if uninstall is not None:
            uninstall()
    assert tasks and errors == []
