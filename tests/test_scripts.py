"""The benchmark helper scripts in ``scripts/`` run and report what the README says."""

import json
import re
import subprocess
import sys
from pathlib import Path

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd, *args, **env):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=src_env(**env), capture_output=True, text=True, timeout=120)


def test_readme_documents_exactly_the_scripts():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^\* `scripts/([\w.]+\.py)", section, re.MULTILINE))
    assert named == {path.name for path in (ROOT / "scripts").glob("*.py")}


STUB_RUN = """import json, os, sys
with open(os.path.join(os.path.dirname(os.getcwd()), "order.log"), "a") as fh:
    fh.write(os.path.basename(os.getcwd()) + " " + " ".join(sys.argv[1:]) + "\\n")
print("env line")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "tasks_per_ref": {"value": %r, "unit": "1/ref"},
    "peak_rss_mb": {"value": %r, "unit": "MB"}}}))
"""


def stub_checkout(root, name, tasks_per_ref, rss):
    (root / name / "bench").mkdir(parents=True)
    (root / name / "bench" / "run.py").write_text(STUB_RUN % (tasks_per_ref, rss))
    spec = {"end_to_end": [
        {"name": "tasks_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}],
        "per_layer": []}
    (root / name / "BENCHMARK.json").write_text(json.dumps(spec))
    return str(root / name)


def test_bench_pairs_alternates_and_applies_the_gain_rule(tmp_path):
    parent = stub_checkout(tmp_path, "parent", 0.26, 45.0)
    change = stub_checkout(tmp_path, "change", 0.33, 48.0)
    proc = run_script("bench_pairs.py", tmp_path, parent, change, "--workload", "trajectory",
                      "--pairs", "4", "--seed", "1", "--seconds", "2.5")
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in order] == ["parent", "change", "change", "parent"] * 2
    assert all(line.split()[1:] == ["--workload", "trajectory", "--seed", "1", "--trace", "0",
                                    "--seconds", "2.5"]
               for line in order)
    table = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert table["tasks_per_ref"] == {"parent": [0.26] * 3, "change": [0.33] * 3,
                                      "wins": 4, "verdict": "gain"}
    # 48 MB against 45 MB is past the 5 % bound
    assert table["peak_rss_mb"]["wins"] == 0 and table["peak_rss_mb"]["verdict"] == "worse"
    assert table["failed"]["verdict"] == "ok"
    rows = {line.split()[0]: line.split()[-3:] for line in proc.stdout.splitlines()[1:-1]}
    assert rows["tasks_per_ref"] == ["wins", "4/4", "gain"]


def test_bench_pairs_reports_a_failed_run(tmp_path):
    parent = stub_checkout(tmp_path, "parent", 0.26, 45.0)
    (tmp_path / "broken" / "bench").mkdir(parents=True)
    (tmp_path / "broken" / "bench" / "run.py").write_text("raise SystemExit(3)\n")
    proc = run_script("bench_pairs.py", tmp_path, parent, str(tmp_path / "broken"),
                      "--workload", "trajectory", "--pairs", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "exit 3" in proc.stderr


def test_bench_pairs_compiles_each_source_tree_first(tmp_path):
    # a checkout that never ran has no bytecode; without it every launch of
    # the setup_s probe would compile dqs anew
    parent = stub_checkout(tmp_path, "parent", 0.26, 45.0)
    change = stub_checkout(tmp_path, "change", 0.26, 45.0)
    (tmp_path / "change" / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "change" / "src" / "pkg" / "__init__.py").write_text("VALUE = 1\n")
    proc = run_script("bench_pairs.py", tmp_path, parent, change, "--workload", "trajectory",
                      "--pairs", "1", PYTHONDONTWRITEBYTECODE="1")
    assert proc.returncode == 0, proc.stderr
    assert list((tmp_path / "change" / "src" / "pkg" / "__pycache__").glob("__init__.*.pyc"))


def test_bench_pairs_reports_a_failed_compile(tmp_path):
    parent = stub_checkout(tmp_path, "parent", 0.26, 45.0)
    change = stub_checkout(tmp_path, "change", 0.26, 45.0)
    (tmp_path / "change" / "src").mkdir()
    (tmp_path / "change" / "src" / "broken.py").write_text("def (:\n")
    proc = run_script("bench_pairs.py", tmp_path, parent, change, "--workload", "trajectory",
                      "--pairs", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "compileall" in proc.stderr
    assert not (tmp_path / "order.log").exists()


def test_stdout_digest_is_reproducible(tmp_path):
    runs = [run_script("stdout_digest.py", tmp_path, str(ROOT), "--workload", "nu-fit",
                       "--seeds", "0") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    keys = dict(line.split("=", 1) for line in runs[0].stdout.splitlines())
    assert list(keys) == ["tasks", "failed", "sha256"]
    assert int(keys["tasks"]) > 0 and keys["failed"] == "0"
    assert len(bytes.fromhex(keys["sha256"])) == 32
    assert runs[1].stdout == runs[0].stdout
    assert not list(tmp_path.iterdir())


def test_stdout_digest_reports_a_checkout_without_a_bench(tmp_path):
    proc = run_script("stdout_digest.py", tmp_path, str(tmp_path), "--workload", "nu-fit")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: no bench/run.py in {tmp_path}\n"
