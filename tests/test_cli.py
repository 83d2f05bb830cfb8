import codecs
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqs import cli, gks, linalg, neutrino, qubit
from dqs.models import bundled

from helpers import (random_hermitian, random_psd, reference_evolve, reference_survival,
                     src_env, superop_of)

DISPERSIVE = str(bundled("dispersive_qubit.model"))
DAMPED_X = str(bundled("damped_x.model"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------------ check

def test_check_dispersive_model(capsys):
    code, out, _ = run_cli(capsys, "check", DISPERSIVE)
    assert code == 0
    kv = parse_kv(out)
    assert kv["valid"] == "true"
    assert kv["dispersive"] == "true"
    assert float(kv["dissipation_residual"]) <= 1e-12
    assert float(kv["kossakowski_min_eigenvalue"]) == 0.0


def test_check_non_dispersive_model(capsys):
    code, out, _ = run_cli(capsys, "check", DAMPED_X)
    assert code == 1
    kv = parse_kv(out)
    assert kv["valid"] == "true"
    assert kv["dispersive"] == "false"
    # lam = 1, delta = 5: |D_H| = lam*delta/sqrt(2)
    assert float(kv["dissipation_residual"]) == pytest.approx(5.0 / math.sqrt(2.0),
                                                              rel=1e-12)


@pytest.mark.parametrize("splitting, rate", [(2e-6, 1e-6), (3.75e-11, 1e-12)],
                         ids=["c=1e-6", "neutrino-scale"])
def test_check_small_energy_exchanging_qubit_is_not_dispersive(capsys, tmp_path, splitting, rate):
    # damping on sigma_x exchanges energy at every scale: |D_H| = rate splitting / sqrt(2).
    # The second model is the solar neutrino's, in eV: dm2 / 2E at 7.5e-5 eV^2, 1 MeV
    a = np.zeros((3, 3))
    a[0, 0] = rate
    path = tmp_path / "small.model"
    cli.save_model(path, 2, np.diag([0.5 * splitting, -0.5 * splitting]), a)
    code, out, err = run_cli(capsys, "check", str(path))
    kv = parse_kv(out)
    assert (code, kv["valid"], kv["dispersive"], err) == (1, "true", "false", "")
    assert float(kv["dissipation_residual"]) == pytest.approx(rate * splitting / math.sqrt(2.0),
                                                              rel=1e-12)


def test_check_reports_residuals_for_invalid_model(capsys, tmp_path):
    a = np.zeros((3, 3), dtype=complex)
    a[2, 2] = -1.0  # not PSD
    path = tmp_path / "bad.model"
    cli.save_model(path, 2, np.diag([1.0, -1.0]), a)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    kv = parse_kv(out)
    assert kv["valid"] == "false"
    assert float(kv["kossakowski_min_eigenvalue"]) == -1.0
    assert "error" in kv


@pytest.mark.parametrize("valid", [True, False])
def test_check_decomposes_a_valid_kossakowski_matrix_once(capsys, monkeypatch, rng, tmp_path,
                                                          valid):
    # the printed minimum eigenvalue is that of a's Hermitian part: on the
    # valid path it is the spectrum KossakowskiMatrix decided PSD with, and
    # only an invalid a is decomposed a second time for the printout
    a = random_psd(rng, 8)
    a[1, 2] += 1e-13
    if not valid:
        a[0, 0] -= 2.0 * np.linalg.eigvalsh(a)[-1]
    path = tmp_path / "model.model"
    cli.save_model(path, 3, random_hermitian(rng, 3), a)
    a = cli.load_model(path).kossakowski
    decomposed, eigvalsh = [], np.linalg.eigvalsh

    def counting(m):
        decomposed.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    code, out, _ = run_cli(capsys, "check", str(path))
    kv = parse_kv(out)
    assert (code == 2, kv["valid"]) == (not valid, "true" if valid else "false")
    assert decomposed == [(8, 8)] * (1 if valid else 2)
    w = eigvalsh(linalg.hermitian_part(a))
    assert kv["kossakowski_min_eigenvalue"] == cli._fmt(w[0])


@pytest.mark.parametrize("diagonal, skew_h", [(0.0, 0.0), (1.0, 1.0)],
                         ids=["a-not-hermitian", "h-not-hermitian"])
def test_check_halves_an_invalid_models_kossakowski_matrix_once(capsys, tmp_path, diagonal,
                                                               skew_h):
    # a[1, 2] and a[2, 1] of 2 and 4 units of the smallest subnormal average
    # to 3 units, whose half rounds: halving a second time would print -4 units
    unit = 5e-324
    a = np.zeros((3, 3))
    a[0, 0], a[1, 2], a[2, 1] = diagonal, 2 * unit, 4 * unit
    h = np.array([[1.0, skew_h], [0.0, -1.0]])
    path = tmp_path / "subnormal.model"
    cli.save_model(path, 2, h, a)
    code, out, _ = run_cli(capsys, "check", str(path))
    kv = parse_kv(out)
    assert (code, kv["valid"]) == (2, "false")
    assert kv["kossakowski_min_eigenvalue"] == cli._fmt(-3 * unit)


@pytest.mark.parametrize("axis, code, residual", [(0, 1, 2e200 / math.sqrt(2.0)), (2, 0, 0.0)])
def test_check_hamiltonian_whose_norm_overflows(capsys, tmp_path, axis, code, residual):
    # ||H||_F overflows although every entry is finite; an infinite residual
    # and bound would make damping along x pass as dispersive (inf <= inf)
    a = np.zeros((3, 3))
    a[axis, axis] = 1.0
    path = tmp_path / "huge.model"
    cli.save_model(path, 2, np.diag([1e200, -1e200]), a)
    got, out, err = run_cli(capsys, "check", str(path))
    kv = parse_kv(out)
    assert (got, kv["dispersive"], err) == (code, "true" if code == 0 else "false", "")
    assert float(kv["dissipation_residual"]) == pytest.approx(residual, rel=1e-12)


def test_check_hermiticity_defect_past_the_float_range(tmp_path):
    # H - H^dagger has the entry 3e308: the defect reads as the largest float,
    # with no overflow warning (an error in the child) on the way
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    path = tmp_path / "skew.model"
    cli.save_model(path, 2, np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]), a)
    proc = subprocess.run([sys.executable, "-m", "dqs", "check", str(path)],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    kv = parse_kv(proc.stdout)
    assert (proc.returncode, kv["valid"], proc.stderr) == (2, "false", "")
    assert math.isfinite(float(kv["hamiltonian_hermiticity_defect"]))
    assert kv["error"].startswith("matrix is not Hermitian")


def test_check_hamiltonian_trace_past_the_float_range(tmp_path):
    # tr(H) = 3e308 reads as inf, with no overflow warning (an error in the
    # child) on the way
    a = np.zeros((3, 3))
    a[2, 2] = 1.0
    path = tmp_path / "wide.model"
    cli.save_model(path, 2, np.diag([1.5e308, 1.5e308]), a)
    proc = subprocess.run([sys.executable, "-m", "dqs", "check", str(path)],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    kv = parse_kv(proc.stdout)
    assert (proc.returncode, kv["hamiltonian_trace_re"], kv["dispersive"], proc.stderr) == (
        0, "inf", "true", "")


def test_kossakowski_entry_near_the_float_maximum(capsys, tmp_path):
    # an entry and its mirror must not overflow while the Hermitian part is
    # formed; D_H is linear in a, so a_33 = 1e308 gets the verdict of a_33 = 1
    a = np.zeros((3, 3))
    a[2, 2] = 1e308
    path = tmp_path / "huge.model"
    cli.save_model(path, 2, np.diag([2.5, -2.5]), a)
    code, out, err = run_cli(capsys, "check", str(path))
    ref_code, ref_out, _ = run_cli(capsys, "check", DISPERSIVE)
    kv = parse_kv(out)
    assert kv["kossakowski_min_eigenvalue"] == "0"
    assert (code, kv["dispersive"], err) == (ref_code, parse_kv(ref_out)["dispersive"], "")

    code, out, err = run_cli(capsys, "lindblad", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()[1:]
    assert len(lines) == 4 and {line.split(",")[0] for line in lines} == {"1"}
    got = np.zeros((2, 2), dtype=complex)
    for line in lines:
        _, i, j, re, im = line.split(",")
        got[int(i) - 1, int(j) - 1] = float(re) + 1j * float(im)
    assert np.isfinite(got).all()
    f3 = math.sqrt(1e308) * gks.gell_mann_basis(2).traceless[2]
    assert min(np.abs(got - s * f3).max() for s in (1, -1)) <= 1e-15 * math.sqrt(1e308)


def test_check_judges_a_hermitian_defect_in_h_and_in_a_alike(capsys, tmp_path):
    # one relative defect of 1e-11, once in H and once in a: the one
    # Hermiticity rule (1e-10 max |m|) gives both files the same verdict
    h, a = np.diag([2.5, -2.5]).astype(complex), np.diag([0.0, 0.0, 1.0])
    skew = np.zeros((3, 3))
    skew[0, 1] = 1e-11
    verdicts = []
    for name, hh, aa in (("h", h + 2.5 * skew[:2, :2], a), ("a", h, a + skew)):
        path = tmp_path / f"{name}.model"
        cli.save_model(path, 2, hh, aa)
        code, out, err = run_cli(capsys, "check", str(path))
        verdicts.append((code, parse_kv(out)["valid"], err))
    assert verdicts == [(0, "true", "")] * 2
    assert len(gks.lindblad_operators(a + skew, gks.gell_mann_basis(2))) == 1


@pytest.mark.parametrize("h, axis, rate, tail, err", [
    # the generator's entries overflow: the model is invalid
    (np.diag([1.7e308, -1.7e308]), 2, 1e308, "valid=false\nerror=generator overflows\n", ""),
    # L is finite, but its real Bloch form R overflows: the model is invalid
    (np.full((3, 3), 1e308), 0, 1.0, "valid=false\nerror=generator overflows\n", ""),
    # the generator is valid, but D_H overflows
    (np.diag([2.5, -2.5]), 0, 1e308, "valid=true\n", "error: dissipation operator overflows\n"),
], ids=["generator", "bloch-generator", "dissipation-operator"])
def test_check_model_too_large_to_compute_with(capsys, tmp_path, h, axis, rate, tail, err):
    n = h.shape[0]
    a = np.zeros((n * n - 1, n * n - 1))
    a[axis, axis] = rate
    path = tmp_path / "huge.model"
    cli.save_model(path, n, h, a)
    code, out, got_err = run_cli(capsys, "check", str(path))
    assert (code, out.endswith(tail), got_err) == (2, True, err)


def test_generator_that_overflows_is_one_error(capsys, tmp_path):
    # the second model's L is finite, but its real Bloch form R overflows
    for h, axis in ((np.diag([1.7e308, -1.7e308]), 2), (np.full((3, 3), 1e308), 0)):
        n = h.shape[0]
        a = np.zeros((n * n - 1, n * n - 1))
        a[axis, axis] = 1.0
        path = tmp_path / "huge.model"
        cli.save_model(path, n, h, a)
        for argv in (["lindblad"], ["evolve", "--state", "0.5,0.1"]):
            code, out, err = run_cli(capsys, *argv, str(path))
            assert (code, out, err) == (2, "", "error: generator overflows\n"), (n, argv)


def test_check_rejects_truncated_file(capsys, tmp_path):
    path = tmp_path / "broken.model"
    path.write_text(Path(DISPERSIVE).read_text()[:100])
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "JSON" in err


def test_non_utf8_model_or_state_file_is_an_error(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    for argv in (["check", str(bad)], ["lindblad", str(bad)],
                 ["evolve", DISPERSIVE, "--state-file", str(bad)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {bad}: not valid JSON ('utf-8' codec can't decode")


def test_check_rejects_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.model"))
    assert code == 2
    assert "cannot read" in err


def test_check_rejects_wrong_shapes(capsys, tmp_path):
    path = tmp_path / "short.model"
    path.write_text(json.dumps({
        "dimension": 2,
        "basis": "gell-mann",
        "hamiltonian": [[[1.0, 0.0]]],
        "kossakowski": [[[0.0, 0.0]] * 3] * 3,
    }))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "hamiltonian" in err


@pytest.mark.parametrize("key", ["hamiltonian", "kossakowski"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_check_rejects_non_finite_entries(capsys, tmp_path, key, value):
    with open(DISPERSIVE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key][0][0][0] = value              # json writes NaN / Infinity
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_dqs_tol_environment_override(capsys, monkeypatch):
    # DQS_TOL is not read: setting it overrides nothing
    monkeypatch.delenv("DQS_TOL", raising=False)
    unset = run_cli(capsys, "check", DAMPED_X)
    assert unset[0] == 1 and unset[2] == ""
    for value in ("10", "pretty small"):
        monkeypatch.setenv("DQS_TOL", value)
        assert run_cli(capsys, "check", DAMPED_X) == unset, value


def test_explicit_tol_beats_environment(capsys, monkeypatch):
    # --tol alone sets the tolerance, whatever DQS_TOL holds
    for value in ("1e-300", "pretty small"):
        monkeypatch.setenv("DQS_TOL", value)
        code, out, err = run_cli(capsys, "check", DAMPED_X, "--tol", "10")
        assert (code, err) == (0, ""), value
        assert parse_kv(out)["dispersive"] == "true"
    monkeypatch.setenv("DQS_TOL", "10")
    assert run_cli(capsys, "check", DAMPED_X, "--tol", "1e-9")[0] == 1


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_check_rejects_a_bad_tolerance(capsys, tol):
    code, out, err = run_cli(capsys, "check", DAMPED_X, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be a positive number, got {float(tol)!r}\n"


# ------------------------------------------------------------------ evolve

def test_evolve_dispersive_trajectory(capsys):
    code, out, _ = run_cli(capsys, "evolve", DISPERSIVE,
                           "--state", "0.5,0.5", "--t-max", "6", "--steps", "60")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "t"
    assert header[-3:] == ["trace_re", "entropy", "energy"]
    assert len(rows) == 61
    i_entropy = header.index("entropy")
    i_energy = header.index("energy")
    i_pop = header.index("rho_1_1_re")
    entropies = [r[i_entropy] for r in rows]
    assert all(b - a >= -1e-12 for a, b in zip(entropies, entropies[1:]))
    assert all(abs(r[i_energy] - rows[0][i_energy]) <= 1e-12 for r in rows)
    assert all(abs(r[i_pop] - 0.5) <= 1e-12 for r in rows)


def test_evolve_unitary_keeps_entropy(capsys, tmp_path):
    path = tmp_path / "unitary.model"
    cli.save_model(path, 2, np.diag([2.5, -2.5]), np.zeros((3, 3)))
    code, out, _ = run_cli(capsys, "evolve", str(path),
                           "--state", "0.5,0.5", "--t-max", "4", "--steps", "16")
    assert code == 0
    header, rows = parse_csv(out)
    i_entropy = header.index("entropy")
    assert max(abs(r[i_entropy]) for r in rows) <= 1e-10


def test_evolve_zero_horizon_gives_single_row(capsys):
    code, out, _ = run_cli(capsys, "evolve", DISPERSIVE,
                           "--state", "0.5,0.5", "--t-max", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == 0.0


def test_evolve_state_file(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[[0.25, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.75, 0.0]]]))
    code, out, _ = run_cli(capsys, "evolve", DISPERSIVE,
                           "--state-file", str(state), "--t-max", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][1] == 0.25


def test_evolve_rejects_bad_states(capsys):
    for state in ("0.9,0.9", "garbage", "0.5"):
        code, _, err = run_cli(capsys, "evolve", DISPERSIVE, "--state", state)
        assert code == 2
        assert err


def test_evolve_inline_state_needs_qubit(capsys, tmp_path):
    path = tmp_path / "three.model"
    cli.save_model(path, 3, np.diag([1.0, 0.0, -1.0]), np.zeros((8, 8)))
    code, _, err = run_cli(capsys, "evolve", str(path), "--state", "0.5,0.5")
    assert code == 2
    assert "dimension-2" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_max", ["nan", "inf", "1e308"])
def test_evolve_rejects_unpropagatable_horizons(capsys, t_max):
    for model in (DISPERSIVE, DAMPED_X):
        for steps in ("1", "200"):
            code, _, err = run_cli(capsys, "evolve", model, "--state", "0.7,0.2+0.3j",
                                   "--t-max", t_max, "--steps", steps)
            assert code == 2
            assert err.startswith("error:")


@pytest.mark.filterwarnings("error")
def test_evolve_horizon_past_half_the_float_range(capsys):
    # a scaled norm between 2**1023 and the largest float needs 1025 halvings;
    # 2.0 ** 1025 itself overflows
    code, out, _ = run_cli(capsys, "evolve", DISPERSIVE, "--state", "0.7,0.2+0.3j",
                           "--t-max", "1e307", "--steps", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][1] == pytest.approx(0.7, abs=1e-12)
    assert rows[-1][3:7] == [0.0, 0.0, 0.0, 0.0]
    # damped_x is unital and relaxes to I/2; in Bloch coordinates the trace
    # coordinate is exact, so 1025 squarings no longer overflow
    code, out, err = run_cli(capsys, "evolve", DAMPED_X, "--state", "0.7,0.2+0.3j",
                             "--t-max", "1e307", "--steps", "1")
    assert (code, err) == (0, "")
    assert_rows_are_maximally_mixed(parse_csv(out)[1][-1:])


@pytest.mark.filterwarnings("error")
def test_evolve_time_grid_near_the_float_maximum(capsys):
    # k * t_max overflows for k >= 18 here, although every grid time is finite
    argv = ["evolve", DISPERSIVE, "--state", "0.7,0.2+0.3j", "--t-max", "1e307"]
    code, out, _ = run_cli(capsys, *argv, "--steps", "200")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 201
    code, single, _ = run_cli(capsys, *argv, "--steps", "1")
    assert code == 0
    assert rows[-1] == single.splitlines()[-1]


def test_evolve_decomposes_each_state_once(capsys, monkeypatch):
    # each output row is validated once and decomposed once, inside one
    # stacked check and one stacked eigh per chunk; the entropy column reuses
    # that spectrum
    counts = {"eigh_calls": 0, "eigh_matrices": 0, "validated": 0}
    eigh, density_spectra = np.linalg.eigh, linalg.density_spectra

    def counting_eigh(a, *args, **kwargs):
        counts["eigh_calls"] += 1
        counts["eigh_matrices"] += math.prod(np.shape(a)[:-2])
        return eigh(a, *args, **kwargs)

    def counting_spectra(ms):
        counts["validated"] += len(ms)
        return density_spectra(ms)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(linalg, "density_spectra", counting_spectra)
    seen = []
    for steps in ("10", "20"):
        counts.update(eigh_calls=0, eigh_matrices=0, validated=0)
        code, _, _ = run_cli(capsys, "evolve", DAMPED_X, "--state", "0.7,0.2+0.3j",
                             "--steps", steps)
        assert code == 0
        seen.append(dict(counts))
    assert seen[1]["eigh_matrices"] - seen[0]["eigh_matrices"] == 10
    assert seen[1]["validated"] - seen[0]["validated"] == 10
    assert seen[1]["eigh_calls"] == seen[0]["eigh_calls"]


@pytest.fixture(scope="module")
def generic_models(tmp_path_factory):
    """Seeded generic N=3 and N=4 models, each with a state file."""
    rng = np.random.default_rng(8)
    root = tmp_path_factory.mktemp("generic")
    out = {}
    for n in (3, 4):
        model, state = root / f"n{n}.model", root / f"n{n}.json"
        cli.save_model(model, n, random_hermitian(rng, n, scale=0.5),
                       random_psd(rng, n * n - 1, trace=0.5))
        state.write_text(json.dumps(cli.matrix_to_pairs(random_psd(rng, n))))
        out[f"n{n}"] = (str(model), "--state-file", str(state))
    return out


def assert_evolve_matches_reference(capsys, model, state_args, t_max, steps):
    liou = cli.build_liouvillian(cli.load_model(model))
    if state_args[0] == "--state":
        matrix = cli._parse_inline_state(state_args[1])
    else:
        matrix = cli.pairs_to_matrix(json.loads(Path(state_args[1]).read_text()),
                                     liou.dim, liou.dim, "state")
    expected = reference_evolve(liou, linalg.DensityMatrix(matrix),
                                cli._time_grid(float(t_max), int(steps)))
    got = run_cli(capsys, "evolve", model, *state_args, "--t-max", t_max, "--steps", steps)
    assert got == expected
    return got


CHUNK = cli.EVOLVE_CHUNK


@pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 600])
@pytest.mark.parametrize("name", ["dispersive_qubit", "damped_x", "n3", "n4"])
def test_evolve_chunks_match_row_by_row_reference(capsys, generic_models, name, steps):
    if name in generic_models:
        model, *state_args = generic_models[name]
    else:
        model, state_args = str(bundled(f"{name}.model")), ["--state", "0.7,0.2+0.3j"]
    code, out, _ = assert_evolve_matches_reference(capsys, model, state_args, "10",
                                                   str(steps))
    assert code == 0 and len(out.splitlines()) == steps + 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, t_max, steps, failing", [
    ("damped_x", "1e4", "200", False),          # long horizons keep the trace at 1
    ("damped_x", "850", "600", False),          # past the first chunk
    ("damped_x", "850", "1000", False),
    ("dispersive_qubit", "1e307", "200", False),  # k * t_max overflows, the grid does not
    ("damped_x", "1e307", "200", False),        # 1025 squarings of a decaying map
    ("damped_x", "1e308", "2000", True),        # expm overflows in the third chunk
])
def test_evolve_chunks_match_reference_on_hard_grids(capsys, name, t_max, steps, failing):
    code, out, err = assert_evolve_matches_reference(
        capsys, str(bundled(f"{name}.model")), ["--state", "0.7,0.2+0.3j"], t_max, steps)
    assert (code, bool(err)) == ((2, True) if failing else (0, False))


def assert_rows_are_maximally_mixed(rows):
    # rho_11, rho_12, rho_21, rho_22 (re, im) of I/2
    assert np.abs(np.array(rows)[:, 1:9] - [0.5, 0, 0, 0, 0, 0, 0.5, 0]).max() <= 1e-12


def test_evolve_long_horizon_does_not_traceback(capsys):
    # damped_x is unital, so every trajectory ends in I/2; the trace stays at
    # 1 to round-off however long the horizon
    for t_max, steps in (("1e4", "200"), ("850", "1000")):
        code, out, err = run_cli(capsys, "evolve", DAMPED_X, "--state", "0.7,0.2+0.3j",
                                 "--t-max", t_max, "--steps", steps)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        traces = np.array(rows)[:, header.index("trace_re")]
        assert np.abs(traces - 1.0).max() <= 1e-12
        assert_rows_are_maximally_mixed(rows[-1:])


# ------------------------------------------------------------------ probabilities

def test_probabilities_rows_complement(capsys):
    code, out, _ = run_cli(capsys, "probabilities", "--delta", "5", "--lam", "1",
                           "--t-max", "2", "--steps", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P_transition", "P_surviving"]
    assert rows[0][1:] == [0.0, 1.0]
    for r in rows:
        assert r[1] + r[2] == pytest.approx(1.0, abs=1e-15)
        assert -1e-15 <= r[1] <= 1.0


def test_probabilities_undamped_period(capsys):
    # delta = 5: the transition curve repeats with period 2 pi / 5
    code, out, _ = run_cli(capsys, "probabilities", "--delta", "5", "--lam", "0",
                           "--theta", str(math.pi / 8),
                           "--t-max", str(2 * math.pi), "--steps", "500")
    assert code == 0
    _, rows = parse_csv(out)
    values = [r[1] for r in rows]
    period = 100  # 2 pi / 5 in units of the step 2 pi / 500
    for k in range(len(values) - period):
        assert values[k] == pytest.approx(values[k + period], abs=1e-12)


def test_probabilities_rejects_bad_angle(capsys):
    # the angle is checked before the header is printed
    for theta in ("3.0", "2", "nan", "-0.1"):
        code, out, err = run_cli(capsys, "probabilities", "--theta", theta)
        assert (code, out) == (2, "")
        assert err == "error: mixing angle must lie in [0, pi/2]\n"


@pytest.mark.parametrize("delta, shown", [("-1", "-1.0"), ("0", "0.0"), ("nan", "nan")])
def test_probabilities_rejects_a_splitting_that_is_not_positive_by_its_flag(capsys, delta,
                                                                            shown):
    # the flag is named, not the levels e0 = -delta/2 and e1 = delta/2 it makes
    code, out, err = run_cli(capsys, "probabilities", "--delta", delta)
    assert (code, out) == (2, "")
    assert err == f"error: --delta must be finite and positive, got {shown}\n"


@pytest.mark.parametrize("argv", [
    ("--t-max", "1e308", "--steps", "3"),
    ("--delta", "1e308", "--t-max", "10", "--steps", "2"),
])
def test_probabilities_overflowing_phase_is_one_error(capsys, argv):
    # the phase grows with t, so it is checked at --t-max before the header
    code, out, err = run_cli(capsys, "probabilities", *argv)
    assert (code, out, err) == (2, "", "error: oscillation phase overflows\n")


def test_probabilities_grid_near_the_float_maximum_stays_finite(capsys):
    # k * t_max / steps would overflow to inf before the division
    code, out, err = run_cli(capsys, "probabilities", "--delta", "1e-10",
                             "--t-max", "1e308", "--steps", "4")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    times = [row[0] for row in rows]
    assert len(times) == 5 and times[-1] == 1e308
    assert all(math.isfinite(t) for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("delta, lam, theta, t_max, steps", [
    ("5", "0", "0.39269908169872414", "20", "500"), ("5", "1", "0.4", "2", "700"),
    ("0.01", "0.3", "1.2", "1000", "300"), ("1000", "0.001", "0", "50", "257"),
    ("7", "0.5", "1.5707963267948966", "10000", "1000"),
])
def test_probabilities_rows_are_the_library_values(capsys, delta, lam, theta, t_max, steps):
    # each chunk is one array evaluation, yet every row is the scalar value at
    # its t bit for bit
    code, out, err = run_cli(capsys, "probabilities", "--delta", delta, "--lam", lam,
                             "--theta", theta, "--t-max", t_max, "--steps", steps)
    assert (code, err) == (0, "")
    rows = np.array(parse_csv(out)[1])
    times, values = rows[:, 0], rows[:, 1]
    params = qubit.DispersiveQubitParams(-0.5 * float(delta), 0.5 * float(delta), float(lam))
    assert len(times) == int(steps) + 1
    assert values.tolist() == [qubit.transition_probability(params, float(theta), t)
                               for t in times.tolist()]
    assert values.tolist() == qubit.transition_probability(params, float(theta), times).tolist()
    assert (rows[:, 2] == 1.0 - values).all()


# ------------------------------------------------------------------ nu

@pytest.mark.parametrize("dm2, theta, lambda_km, loe_range", [
    ("7.9e-5", "0.55", "5e-5", "0:36000:201"), ("2.5e-3", "0.6", "1e-3", "0:1000:201"),
    ("1e-4", "0.3", "0", "10:20000:201"), ("2e-4", "1.3", "2e-4", "0:5e4:201"),
])
def test_nu_single_point_at_one_gev_prints_the_sweep_row(capsys, dm2, theta, lambda_km,
                                                         loe_range):
    # one formula: `nu --L x --E 1` prints the sweep's row at x, bit for bit,
    # and the sweep stays within an eps of the math formula
    common = ("nu", "--dm2", dm2, "--theta", theta, "--lambda-km", lambda_km)
    code, out, err = run_cli(capsys, *common, "--loe-range", loe_range)
    assert (code, err) == (0, "")
    lines = out.splitlines()[1:]
    for line in lines:
        x = line.split(",")[0]
        code, single, err = run_cli(capsys, *common, "--L", x, "--E", "1")
        assert (code, err) == (0, "")
        assert single.splitlines()[1] == f"{x},1,{line.split(',', 1)[1]}"
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    reference = [reference_survival(float(dm2), float(theta), float(lambda_km), x, 1.0)
                 for x in rows[:, 0].tolist()]
    assert np.abs(rows[:, 1] - reference).max() <= np.finfo(float).eps


def test_nu_sweep_matches_formula(capsys):
    code, out, _ = run_cli(capsys, "nu", "--dm2", "7.9e-5", "--tan2theta", "0.40",
                           "--loe-range", "0:32000:33")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["L_over_E_km_per_GeV", "P_survival", "P_transition"]
    assert len(rows) == 33
    sin2 = 4 * 0.40 / 1.40 ** 2
    for x, p_s, p_t in rows:
        expected = 1.0 - sin2 * math.sin(neutrino.PHASE_CONSTANT * 7.9e-5 * x) ** 2
        assert p_s == pytest.approx(expected, abs=1e-9)
        assert p_s + p_t == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("lo, hi, points", [
    (0.0, 36000.0, 201), (1.5, 2.5, 7), (3.0, 3.0, 1), (3.0, 3.0, 4), (0.0, 0.0, 1),
    (0.0, 5e-324, 4), (0.0, 1e-323, 7), (1e-300, 1e300, 11), (7.0, 7.000000000000001, 5),
])
def test_nu_sweep_streams_the_linspace_values(lo, hi, points):
    # the streamed L/E grid is np.linspace(lo, hi, points) value for value,
    # the zero-step (subnormal) branch and the exact last point included
    assert list(cli._linspace(lo, hi, points)) == np.linspace(lo, hi, points).tolist()


def test_nu_single_point(capsys):
    code, out, _ = run_cli(capsys, "nu", "--dm2", "7.9e-5", "--theta", "0.6",
                           "--lambda-km", "5e-5", "--L", "180", "--E", "0.004")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["L_km", "E_GeV", "P_survival", "P_transition"]
    params = neutrino.OscillationParams(7.9e-5, 0.6, 5e-5)
    assert rows[0][2] == pytest.approx(
        neutrino.survival_probability(params, 180.0, 0.004), abs=1e-15)


def test_nu_argument_validation(capsys):
    cases = [
        ("nu", "--dm2", "7.9e-5"),                                # no angle
        ("nu", "--dm2", "7.9e-5", "--theta", "0.5",
         "--tan2theta", "0.4", "--L", "1", "--E", "1"),           # both angles
        ("nu", "--dm2", "7.9e-5", "--theta", "0.5"),              # no mode
        ("nu", "--dm2", "7.9e-5", "--theta", "0.5", "--L", "1"),  # missing E
        ("nu", "--dm2", "7.9e-5", "--theta", "0.5",
         "--loe-range", "10:1:5"),                                # reversed
        ("nu", "--dm2", "-1e-5", "--theta", "0.5", "--L", "1", "--E", "1"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("--dm2", "1e300", "--loe-range", "0:1e10:3"),          # phase overflows
    ("--dm2", "1.7e308", "--loe-range", "0:0:1"),           # C * dm2 overflows
    ("--dm2", "7.9e-5", "--loe-range", "0:inf:3"),
    ("--dm2", "7.9e-5", "--loe-range", "inf:inf:1"),
    ("--dm2", "1e-3", "--L", "inf", "--E", "1"),
    ("--dm2", "1e-3", "--L", "nan", "--E", "1"),
    ("--dm2", "1e-3", "--L", "1", "--E", "inf"),
    ("--dm2", "1e300", "--L", "1e10", "--E", "1"),
], ids=lambda argv: " ".join(argv))
def test_nu_rejects_overflowing_phases(capsys, argv):
    code, out, err = run_cli(capsys, "nu", "--theta", "0.5", *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "nan" not in out


@pytest.mark.filterwarnings("error")
def test_nu_overflowing_damping_is_full_damping(capsys):
    code, out, _ = run_cli(capsys, "nu", "--dm2", "1e-300", "--theta", "0.5",
                           "--lambda-km", "1e300", "--loe-range", "0:1e300:3")
    assert code == 0
    _, rows = parse_csv(out)
    incoherent = 1.0 - 0.5 * math.sin(1.0) ** 2
    assert [row[1] for row in rows[1:]] == pytest.approx([incoherent] * 2, abs=1e-15)


# ------------------------------------------------------------------ nu-fit

def write_spectrum(path, params, n=60, x_max=3.6e4):
    xs = np.linspace(0.0, x_max, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("L_over_E_km_per_GeV,P_survival\n")
        for x in xs:
            p = neutrino.survival_at_l_over_e(params, float(x))
            fh.write(f"{x:.17g},{p:.17g}\n")


def test_nu_fit_recovers_truth(capsys, tmp_path):
    truth = neutrino.OscillationParams(7.9e-5, math.atan(math.sqrt(0.40)), 0.0)
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, truth)
    code, out, _ = run_cli(capsys, "nu-fit", str(data),
                           "--bounds", f"theta=0:{math.pi / 4}",
                           "--grid-points", "21")
    assert code == 0
    kv = parse_kv(out)
    assert kv["converged"] == "true"
    assert float(kv["dm2"]) == pytest.approx(truth.dm2, rel=1e-3)
    assert float(kv["tan2theta"]) == pytest.approx(0.40, rel=1e-3)
    assert float(kv["lambda_km"]) <= 1e-6
    assert int(kv["cycles"]) >= 1
    assert float(kv["grid_sse"]) >= float(kv["sse"])


def test_nu_sweep_fits_back_to_the_planted_parameters(capsys, tmp_path):
    # the spectrum `nu` prints, cut to its first two columns, is a nu-fit input
    code, out, _ = run_cli(capsys, "nu", "--dm2", "7.9e-5", "--tan2theta", "0.4",
                           "--lambda-km", "5e-5", "--loe-range", "0:36000:50")
    assert code == 0
    data = tmp_path / "spectrum.csv"
    data.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                            for line in out.splitlines()))
    code, out, _ = run_cli(capsys, "nu-fit", str(data), "--bounds", f"theta=0:{math.pi / 4}")
    assert code == 0
    kv = parse_kv(out)
    assert kv["converged"] == "true" and kv["points"] == "50"
    planted = {"dm2": 7.9e-5, "theta": math.atan(math.sqrt(0.4)), "lambda_km": 5e-5}
    for name, value in planted.items():
        assert float(kv[name]) == pytest.approx(value, rel=1e-5), name


def test_nu_fit_respects_fix(capsys, tmp_path):
    truth = neutrino.OscillationParams(7.9e-5, 0.55, 0.0)
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, truth, n=40)
    code, out, _ = run_cli(capsys, "nu-fit", str(data),
                           "--fix", "theta=0.55", "--fix", "lambda_km=0",
                           "--grid-points", "21")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["theta"]) == 0.55
    assert float(kv["lambda_km"]) == 0.0
    assert float(kv["dm2"]) == pytest.approx(truth.dm2, rel=1e-3)
    # outside the default dm2 bounds, which do not limit a fixed value
    code, out, err = run_cli(capsys, "nu-fit", str(data), "--fix", "dm2=3e-4",
                             "--fix", "lambda_km=0")
    assert (code, err) == (0, "")
    assert float(parse_kv(out)["dm2"]) == 3e-4


def test_nu_fit_accepts_a_byte_order_mark(capsys, tmp_path):
    plain = tmp_path / "plain.csv"
    write_spectrum(plain, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=40)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    read = [neutrino.read_spectrum_csv(path) for path in (marked, plain)]
    for column in ("l_over_e", "p", "weight"):
        assert np.array_equal(*(getattr(spectrum, column) for spectrum in read))
    code, out, err = run_cli(capsys, "nu-fit", str(marked), "--fix", "lambda_km=0")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "nu-fit", str(plain), "--fix", "lambda_km=0")[1]


def test_nu_fit_header_only_is_an_error(capsys, tmp_path):
    data = tmp_path / "empty.csv"
    # a header alone, and a header among comments and blank lines
    for text in ("L_over_E_km_per_GeV,P_survival\n",
                 "# a spectrum\nL_over_E_km_per_GeV,P_survival,weight\n# no points yet\n\n"):
        data.write_text(text)
        code, out, err = run_cli(capsys, "nu-fit", str(data))
        assert (code, out) == (2, "")
        assert "no spectrum points to fit" in err


def test_nu_fit_without_header_names_the_file_once(capsys, tmp_path):
    data = tmp_path / "blank.csv"
    data.write_text("# only a comment\n")
    code, out, err = run_cli(capsys, "nu-fit", str(data))
    assert (code, out) == (2, "")
    assert err == f"error: {data}: no header line found\n"


def test_nu_fit_zero_weights_is_an_error(capsys, tmp_path):
    data = tmp_path / "unweighted.csv"
    data.write_text("L_over_E_km_per_GeV,P_survival,weight\n"
                    "100,0.9,0\n200,0.7,0\n300,0.8,0\n")
    code, out, err = run_cli(capsys, "nu-fit", str(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero total weight" in err


def test_nu_fit_without_a_finite_grid_point_is_an_error(capsys, tmp_path):
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=10)
    code, out, err = run_cli(capsys, "nu-fit", str(data),
                             "--bounds", "dm2=1.7e308:1.7e308")
    assert code == 2
    assert out == ""
    assert err == "error: no grid point has a finite SSE\n"


@pytest.mark.filterwarnings("error")
def test_nu_fit_overflowing_dm2_bound_warns_nothing(capsys, tmp_path):
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=10)
    code, out, err = run_cli(capsys, "nu-fit", str(data),
                             "--bounds", "dm2=1e-5:1.7e308")
    assert code == 0
    assert err == ""
    assert parse_kv(out)["converged"] == "true"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bound", ["lambda_km=0:1e308", "dm2=1e-5:1.7e308"])
def test_nu_fit_bounds_at_the_edge_of_the_float_range(capsys, tmp_path, bound):
    # both parameters free: the polish's step tolerance and jtj_cond scale
    # with the bound widths, which must give neither NaN steps nor a NaN
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 3e-5), n=40)
    code, out, err = run_cli(capsys, "nu-fit", str(data), "--bounds", bound)
    assert (code, err) == (0, "")
    kv = parse_kv(out)
    assert kv["converged"] == "true"
    assert "jtj" not in out
    fit = neutrino.fit_parameters(neutrino.read_spectrum_csv(data),
                                  bounds=cli._parse_named("--bounds", [bound], pair=True))
    assert fit.jtj_cond is not None and not math.isnan(fit.jtj_cond)


def test_nu_fit_flags_cycle_limit(capsys, tmp_path):
    truth = neutrino.OscillationParams(7.9e-5, 0.55, 3e-5)
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, truth, n=40)
    code, out, _ = run_cli(capsys, "nu-fit", str(data),
                           "--grid-points", "5", "--max-cycles", "1")
    assert code == 3
    assert parse_kv(out)["converged"] == "false"


def test_nu_fit_rejects_bad_flags(capsys, tmp_path):
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=10)
    for extra, message in (
            (["--bounds", "theta=oops:1"],
             "--bounds 'theta=oops:1': could not convert string to float: 'oops'"),
            (["--bounds", "theta"], "--bounds wants name=lo:hi, got 'theta'"),
            (["--fix", "mass=1"], "unknown parameter 'mass'"),
            (["--fix", "theta"], "--fix wants name=value, got 'theta'"),
            (["--fix", "theta=oops"],
             "--fix 'theta=oops': could not convert string to float: 'oops'"),
            (["--fix", "theta=0.5", "--bounds", "theta=0:0.3", "--fix", "lambda_km=0"],
             "fixed theta=0.5 lies outside its bounds [0.0, 0.3]")):
        code, out, err = run_cli(capsys, "nu-fit", str(data), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n"), extra


@pytest.mark.parametrize("flag, first, again", [
    ("--fix", "theta=0.5", "theta=0.6"),
    ("--bounds", "theta=0:0.5", "theta=0:0.7"),
])
def test_nu_fit_rejects_a_repeated_name(capsys, tmp_path, flag, first, again):
    # a repeat is not an override: the user asked two questions of one name
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=10)
    code, out, err = run_cli(capsys, "nu-fit", str(data), flag, first, flag, again,
                             "--fix", "lambda_km=0")
    assert (code, out, err) == (2, "", f"error: {flag} names theta twice\n")


# ------------------------------------------------------------------ invalid input

@pytest.mark.parametrize("edit, message", [
    (lambda doc: [], "{path}: model file must hold a JSON object"),
    (lambda doc: {k: v for k, v in doc.items() if k != "kossakowski"},
     "{path}: missing key 'kossakowski'"),
    (lambda doc: {**doc, "basis": "pauli"}, "unsupported basis 'pauli'"),
    (lambda doc: {**doc, "dimension": 1}, "dimension must be an integer >= 2, got 1"),
    (lambda doc: {**doc, "hamiltonian": "abc"}, "hamiltonian: expected nested [re, im] pairs"),
], ids=["list", "no-kossakowski", "pauli", "dimension-1", "hamiltonian-string"])
def test_malformed_model_file_is_one_error(capsys, tmp_path, edit, message):
    with open(DISPERSIVE, encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(edit(doc)))
    assert run_cli(capsys, "check", str(path)) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv, message", [
    (["evolve", DISPERSIVE, "--state", "0.5,abc"], "--state: complex() arg is a malformed string"),
    (["evolve", DISPERSIVE, "--state", "0.5,0.5", "--steps", "0"],
     "--steps must be at least 1, got 0"),
    (["evolve", DISPERSIVE, "--state", "0.5,0.5", "--state-file", "{tmp}/state.json"],
     "give either --state or --state-file, not both"),
    (["evolve", DISPERSIVE], "an initial state is required: --state or --state-file"),
    (["nu", "--dm2", "7.9e-5", "--tan2theta", "-1", "--L", "1", "--E", "1"],
     "--tan2theta must be nonnegative, got -1.0"),
    (["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--loe-range", "1:2"],
     "--loe-range wants lo:hi:points, got '1:2'"),
    (["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--loe-range", "a:2:3"],
     "--loe-range: could not convert string to float: 'a'"),
    (["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--loe-range", "0:1:1"],
     "--loe-range needs at least 2 points for lo < hi"),
    (["nu-fit", "{tmp}/absent.csv"],
     "cannot read spectrum: [Errno 2] No such file or directory: '{tmp}/absent.csv'"),
    (["basis", "--dimension", "1"], "--dimension must be at least 2, got 1"),
], ids=["inline-state", "steps-0", "both-states", "no-state", "tan2theta", "loe-two-fields",
        "loe-not-a-number", "loe-one-point", "nu-fit-unreadable", "basis-dimension-1"])
def test_bad_argument_is_one_error(capsys, tmp_path, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("value", ["-1e-9", "-inf"])
@pytest.mark.parametrize("argv", [
    ["check", DAMPED_X, "--tol"],
    ["nu", "--theta", "0.5", "--L", "1", "--E", "1", "--dm2"],
    ["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--L", "1", "--E", "1", "--lambda-km"],
    ["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--E", "1", "--L"],
    ["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--L", "1", "--E"],
    ["evolve", DISPERSIVE, "--state", "0.5,0.5", "--t-max"],
    ["probabilities", "--delta"],
    ["probabilities", "--lam"],
    ["probabilities", "--t-max"],
    ["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--loe-range"],
    ["evolve", DISPERSIVE, "--state"],
], ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_negative_value_reads_alike_in_either_spelling(capsys, argv, value):
    # argparse's own negative-number pattern knows no exponent and no inf:
    # "--tol -1e-9" used to be a usage error where "--tol=-1e-9" is a range error
    spaced = run_cli(capsys, *argv, value)
    joined = run_cli(capsys, *argv[:-1], f"{argv[-1]}={value}")
    assert spaced == joined
    assert (spaced[0], spaced[1]) == (2, "")
    assert spaced[2].startswith("error: ") and spaced[2].count("\n") == 1


# ------------------------------------------------------------------ basis, lindblad

def test_basis_dump(capsys):
    code, out, _ = run_cli(capsys, "basis", "--dimension", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "element,row,col,re,im"
    assert len(lines) == 1 + 4 * 4
    # first element is the symmetric pair matrix, sigma_x / sqrt(2)
    assert lines[2] == f"1,1,2,{1 / math.sqrt(2):.17g},0"


def test_lindblad_dump_matches_operators(capsys):
    code, out, _ = run_cli(capsys, "lindblad", DISPERSIVE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "operator,row,col,re,im"
    assert len(lines) == 1 + 4
    liou = cli.build_liouvillian(cli.load_model(DISPERSIVE))
    (op,) = gks.lindblad_operators(liou.kossakowski, liou.basis)
    got = np.zeros((2, 2), dtype=complex)
    for line in lines[1:]:
        k, i, j, re, im = line.split(",")
        got[int(i) - 1, int(j) - 1] = float(re) + 1j * float(im)
    assert np.abs(got - op).max() == 0.0


# ------------------------------------------------------------------ round trip, determinism

def test_model_save_load_round_trip(tmp_path, rng):
    n = 3
    h = np.diag([1.0, 0.5, -1.5]).astype(complex)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = m @ m.conj().T
    path = tmp_path / "round.model"
    cli.save_model(path, n, h, a)
    model = cli.load_model(path)
    assert model.dimension == n
    assert np.abs(model.hamiltonian - h).max() == 0.0
    assert np.abs(model.kossakowski - a).max() == 0.0
    liou = cli.build_liouvillian(model)
    direct = gks.GKSLiouvillian(h, gks.KossakowskiMatrix(n, a),
                                gks.gell_mann_basis(n))
    assert np.abs(superop_of(liou) - superop_of(direct)).max() <= 1e-14


def test_parser_is_reused_without_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(8.1e-5, 0.55, 2e-5), n=40)
    assert cli.main(["nu-fit", str(data), "--fix", "lambda_km=0"]) == 0
    capsys.readouterr()
    code = cli.main(["nu-fit", str(data), "--grid-points", "9"])
    second = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "dqs", "nu-fit", str(data),
                            "--grid-points", "9"], capture_output=True, text=True,
                           env=src_env())
    assert (code, second) == (fresh.returncode, fresh.stdout)
    assert parse_kv(second)["lambda_km"] != "0"


def test_console_script_output_is_reproducible():
    argv = [sys.executable, "-m", "dqs", "evolve", DISPERSIVE,
            "--state", "0.5,0.3+0.2j", "--t-max", "3", "--steps", "30"]
    first = subprocess.run(argv, capture_output=True, check=True, env=src_env())
    second = subprocess.run(argv, capture_output=True, check=True, env=src_env())
    assert first.stdout == second.stdout
    assert first.stdout.decode("utf-8").endswith("\n")
    assert b"\r" not in first.stdout


def test_console_script_exit_codes():
    ok = subprocess.run([sys.executable, "-m", "dqs", "check", DISPERSIVE],
                        capture_output=True, env=src_env())
    assert ok.returncode == 0
    bad = subprocess.run([sys.executable, "-m", "dqs", "check", "/no/such/file"],
                         capture_output=True, env=src_env())
    assert bad.returncode == 2


def test_early_pipe_close_is_quiet():
    # something like `dqs probabilities | head` must not spray a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "dqs", "probabilities", "--t-max", "100",
         "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    header = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert header.startswith(b"t,")
    assert proc.returncode == 141
    assert err == b""


def memory_limited():
    """Popen keywords for a child with 1 GiB of address space and one BLAS thread."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = src_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return dict(env=env, preexec_fn=limit_memory)


@pytest.mark.parametrize("command", [
    ["probabilities", "--steps", str(10 ** 12)],
    ["evolve", DISPERSIVE, "--state", "0.7,0.2+0.3j", "--steps", str(10 ** 12)],
    ["nu", "--dm2", "7.9e-5", "--theta", "0.5", "--loe-range", f"0:36000:{10 ** 12}"],
])
def test_huge_time_grid_streams_rows(command):
    # the rows of a 10^12-point grid must start before any grid is built:
    # under a 1 GiB address-space limit the child prints until the pipe closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "dqs", *command],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **memory_limited())
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert lines[0].startswith(b"L_over_E_km_per_GeV," if command[0] == "nu" else b"t,")
    assert lines[1].startswith(b"0,") and lines[2].endswith(b"\n")
    assert proc.returncode == 141, err
    assert err == b""


def test_nu_fit_grid_too_large_to_allocate_is_one_error(tmp_path):
    # only in a child under the 1 GiB limit: a host that overcommits memory
    # could grant the 10^12-point grid to this process
    data = tmp_path / "spectrum.csv"
    write_spectrum(data, neutrino.OscillationParams(7.9e-5, 0.55, 0.0), n=10)
    proc = subprocess.run(
        [sys.executable, "-m", "dqs", "nu-fit", str(data), "--grid-points", str(10 ** 12)],
        capture_output=True, timeout=60, **memory_limited())
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
