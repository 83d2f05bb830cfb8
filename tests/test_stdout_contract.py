"""Pins of the stdout contract: what the CLI prints, byte for byte.

The seed-0 ``trajectory`` and ``nu-fit`` passes of the benchmark are hashed
with ``scripts/stdout_digest.digest``, the function the script prints, and
``dqs check`` on the two bundled models is compared whole.  The bench is
loaded the way ``tests/test_bench_certify.py`` loads it.

A change that alters stdout on purpose edits the pinned value here, in the
same change that declares it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dqs import cli
from dqs.models import bundled

ROOT = Path(__file__).resolve().parents[1]

SEED_0_DIGESTS = {
    "trajectory": "7a5c4efcf897d52e4edd8bb95b2d179a6a7ded6a33b8c3d18faf538210c5a16c",
    "nu-fit": "7fc042f57447aa50c21fdddfbefbdf4d2b770576221bead92dc302803f81e323",
}

CHECK_HEAD = ("dimension=2\nbasis=gell-mann\nhamiltonian_hermiticity_defect=0\n"
              "hamiltonian_trace_re=0\nkossakowski_hermiticity_defect=0\n"
              "kossakowski_min_eigenvalue=0\nvalid=true\n")
CHECK_OUTPUTS = {
    "dispersive_qubit.model": (0, CHECK_HEAD + "dissipation_residual=0\n"
                                  "tolerance=1.0000000000000001e-09\ndispersive=true\n"),
    "damped_x.model": (1, CHECK_HEAD + "dissipation_residual=3.5355339059327373\n"
                          "tolerance=1.0000000000000001e-09\ndispersive=false\n"),
}

MOVED = ("stdout changed. If this change means to alter what the CLI prints, "
         "declare it and edit the pinned value in the same change. A new host, "
         "numpy or LAPACK can also move the last bits and with them the digest: "
         "compare against the parent commit on the same host before editing.")


@pytest.fixture(scope="module")
def bench():
    """(run, dqs, digest): the bench's run module, dqs from src/, and the digest function."""
    sys.path.insert(0, str(ROOT / "bench"))
    run = importlib.import_module("run")
    spec = importlib.util.spec_from_file_location("stdout_digest",
                                                  ROOT / "scripts" / "stdout_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return run, run.load_dqs(), script.digest


@pytest.mark.parametrize("workload", sorted(SEED_0_DIGESTS))
def test_seed_0_workload_digest_is_pinned(bench, workload):
    run, dqs, digest = bench
    count, failures, hexdigest = digest(run, dqs, workload, [0])
    assert (count, failures) == (100, [])
    assert hexdigest == SEED_0_DIGESTS[workload], f"{workload}: {MOVED}"


@pytest.mark.parametrize("model", sorted(CHECK_OUTPUTS))
def test_check_stdout_of_bundled_model_is_pinned(capsys, model):
    code = cli.main(["check", str(bundled(model))])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (*CHECK_OUTPUTS[model], ""), MOVED
