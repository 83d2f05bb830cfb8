"""Pins of the stdout contract: what the CLI prints, byte for byte.

The seed-0 ``trajectory`` and ``nu-fit`` passes of the benchmark are hashed
with ``scripts/stdout_digest.digest``, the function the script prints.
``dqs check`` and ``dqs lindblad`` on the two bundled models, ``dqs basis``
at dimension 2, ``dqs nu`` in both modes and a six-row ``dqs probabilities``
grid are compared whole, and
``dqs basis`` at dimensions 3 and 5 by the SHA-256 of what it prints.  The
bench is loaded the way ``tests/test_bench_certify.py`` loads it.

A change that alters stdout on purpose edits the pinned value here, in the
same change that declares it.
"""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dqs import cli
from dqs.models import bundled

ROOT = Path(__file__).resolve().parents[1]

SEED_0_DIGESTS = {
    "trajectory": "207b034da72540aa7c235bd2a0e32fe5133d967b10462a45c7e511f40869e09f",
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

SQRT_HALF = "0.70710678118654746"
LINDBLAD_OUTPUTS = {
    "dispersive_qubit.model": (f"1,1,1,{SQRT_HALF},0\n1,1,2,0,0\n1,2,1,0,0\n"
                               f"1,2,2,-{SQRT_HALF},0\n"),
    "damped_x.model": f"1,1,1,0,0\n1,1,2,{SQRT_HALF},0\n1,2,1,{SQRT_HALF},0\n1,2,2,0,0\n",
}

BASIS_2 = ("element,row,col,re,im\n"
           f"1,1,1,0,0\n1,1,2,{SQRT_HALF},0\n1,2,1,{SQRT_HALF},0\n1,2,2,0,0\n"
           f"2,1,1,0,0\n2,1,2,0,-{SQRT_HALF}\n2,2,1,0,{SQRT_HALF}\n2,2,2,0,0\n"
           f"3,1,1,{SQRT_HALF},0\n3,1,2,0,0\n3,2,1,0,0\n3,2,2,-{SQRT_HALF},0\n"
           f"4,1,1,{SQRT_HALF},0\n4,1,2,0,0\n4,2,1,0,0\n4,2,2,{SQRT_HALF},0\n")
BASIS_SHA256 = {
    3: "e048390d6c541bde75a80951a547aa62fc4720c73d6f04aed79c7b4e053bde1d",
    5: "a20f17219dcea8a967ec5bbd96eaa627bb9f1a4924f3aa754038619b99225923",
}

NU_OUTPUTS = {
    "sweep": (["--dm2", "2.5e-3", "--theta", "0.6", "--lambda-km", "1e-3",
               "--loe-range", "0:1000:6"],
              "L_over_E_km_per_GeV,P_survival,P_transition\n"
              "0,1,0\n"
              "200,0.67205459462409323,0.32794540537590677\n"
              "400,0.32663054712166018,0.67336945287833982\n"
              "600,0.37722077281805788,0.62277922718194212\n"
              "800,0.63355177189363554,0.36644822810636446\n"
              "1000,0.72522775225523206,0.27477224774476794\n"),
    "single-point": (["--dm2", "7.5e-5", "--tan2theta", "0.4", "--lambda-km", "2e-4",
                      "--L", "180", "--E", "0.004"],
                     "L_km,E_GeV,P_survival,P_transition\n"
                     "180,0.0040000000000000001,0.33884712675195383,0.66115287324804617\n"),
}

PROBABILITIES = (["--delta", "5", "--lam", "0.5", "--theta", "0.4",
                  "--t-max", "2", "--steps", "5"],
                 "t,P_transition,P_surviving\n"
                 "0,0,1\n"
                 "0.40000000000000002,0.34496509225919542,0.65503490774080464\n"
                 "0.80000000000000004,0.37003593183720468,0.62996406816279538\n"
                 "1.2,0.12171503285070352,0.87828496714929649\n"
                 "1.6000000000000001,0.2741214725053438,0.7258785274946562\n"
                 "2,0.33672247832263186,0.66327752167736809\n")

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


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == "", MOVED
    return code, captured.out


@pytest.mark.parametrize("model", sorted(LINDBLAD_OUTPUTS))
def test_lindblad_stdout_of_bundled_model_is_pinned(capsys, model):
    expected = "operator,row,col,re,im\n" + LINDBLAD_OUTPUTS[model]
    assert run_cli(capsys, "lindblad", str(bundled(model))) == (0, expected), MOVED


def test_basis_stdout_at_dimension_2_is_pinned(capsys):
    assert run_cli(capsys, "basis", "--dimension", "2") == (0, BASIS_2), MOVED


@pytest.mark.parametrize("dimension", sorted(BASIS_SHA256))
def test_basis_stdout_digest_is_pinned(capsys, dimension):
    code, out = run_cli(capsys, "basis", "--dimension", str(dimension))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_SHA256[dimension], MOVED


def test_probabilities_stdout_is_pinned(capsys):
    argv, expected = PROBABILITIES
    assert run_cli(capsys, "probabilities", *argv) == (0, expected), MOVED


@pytest.mark.parametrize("mode", sorted(NU_OUTPUTS))
def test_nu_stdout_is_pinned(capsys, mode):
    argv, expected = NU_OUTPUTS[mode]
    assert run_cli(capsys, "nu", *argv) == (0, expected), MOVED
