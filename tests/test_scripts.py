"""The example scripts the README documents run and produce what they claim."""

import math
import subprocess
import sys
from pathlib import Path

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=src_env(), capture_output=True, text=True, timeout=120)


def test_probability_curves_writes_both_curves(tmp_path):
    proc = run_script("probability_curves.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("undamped", "damped"):
        lines = (tmp_path / "curves" / f"probabilities_{name}.csv").read_text().splitlines()
        assert lines[0] == "t,P_transition,P_surviving"
        assert len(lines) == 1002
    assert proc.stdout.count("probabilities_") == 2


def test_nu_fit_demo_recovers_the_planted_parameters(tmp_path):
    proc = run_script("nu_fit_demo.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 52
    assert "converged=True" in proc.stdout
    rows = {}
    for line in proc.stdout.splitlines():
        words = line.replace(":", "").split()
        if len(words) == 5 and words[1] == "planted" and words[3] == "recovered":
            rows[words[0]] = (float(words[2]), float(words[4]))
    assert set(rows) == {"dm2", "theta", "lambda_km", "tan2theta"}
    for planted, recovered in rows.values():
        assert math.isclose(recovered, planted, rel_tol=1e-5)
