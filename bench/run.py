#!/usr/bin/env python3
"""dqs benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

One process is one closed-loop client that runs the workload's tasks back to
back through ``dqs.cli.main(argv)`` (stdout captured) or the public library
API, with BLAS pinned to one thread.  Each output is checked against
``oracle.py`` outside the timed region.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a traced pass (see README.md).  The program is imported from ``src/``
of the checkout this file sits in.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")      # scratch inputs and span files
WORKLOADS = ("trajectory", "certify", "nu-fit")
MIN_PASSES = 3
SETUP_LAUNCHES_PER_PASS = 2
REF_WINDOW = 2
IMPORT_PROBE = "import dqs, dqs.cli"

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_dqs():
    sys.path.insert(0, SRC)
    try:
        dqs = importlib.import_module("dqs")
        importlib.import_module("dqs.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import dqs from {SRC}: {exc}") from None
    if not os.path.abspath(dqs.__file__).startswith(SRC + os.sep):
        raise BenchError(f"dqs resolved to {dqs.__file__}, not to {SRC}")
    return dqs


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup_launches(count):
    """Wall times of fresh interpreters importing dqs and dqs.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def build_tasks(dqs, name, seed, workdir):
    rng = np.random.default_rng(seed)
    if name == "trajectory":
        models_dir = os.path.dirname(importlib.import_module("dqs.models").__file__)
        return workloads.trajectory_tasks(dqs.cli, rng, workdir, models_dir)
    if name == "certify":
        return workloads.certify_tasks(dqs, rng)
    return workloads.nufit_tasks(dqs.cli, rng, workdir)


def run_task(task):
    """Run one task; returns (seconds, error message or None, stdout bytes)."""
    start = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # a crash is a failed task, not a failed benchmark
        elapsed, out, error = time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - start
        try:
            error = task.check(out)
        except Exception as exc:  # malformed output fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
    nbytes = len(out.stdout.encode()) if isinstance(out, workloads.CliOutput) else 0
    return elapsed, error and f"{task.kind} N={task.dim}: {error}", nbytes


def reference_kernel():
    """Fixed work that uses no dqs code, shaped like the workloads' own.

    Plane rotations on a small complex array (the Jacobi loops), transcendental
    functions over a 2000-point grid (the spectrum model) and %.17g formatting
    (the CLI tables).  Timed next to a task, it measures how fast the host
    was at that moment, independently of the program under test.
    """
    a = (np.arange(16, dtype=float).reshape(4, 4) + 1j * np.eye(4)) / 16.0
    for _ in range(30):
        for p in range(3):
            for q in range(p + 1, 4):
                c, s = math.cos(abs(a[p, q])), math.sin(abs(a[p, q]))
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
        a = a @ a.conj().T
        a /= np.linalg.norm(a)
    x = np.linspace(0.0, 3.6e4, 2000)
    total = 0.0
    for k in range(1, 16):
        total += float(np.dot(np.exp(-1e-5 * x), np.sin(1e-4 * k * x) ** 2))
    return len(",".join(f"{v:.17g}" for v in x[:900] * total))


class Pass:
    """Task times and failures of one run through the task list.

    A reference_kernel sample is timed before each task, so the samples
    interleave with the work they calibrate.
    """

    def __init__(self, tasks):
        self.times, self.errors, self.references = [], [], []
        for task in tasks:
            start = time.perf_counter()
            reference_kernel()
            self.references.append(time.perf_counter() - start)
            elapsed, error, _ = run_task(task)
            self.times.append(elapsed)
            if error is not None:
                self.errors.append(error)


def warm_up(tasks):
    """Run the first task of each kind once, untimed, so lazy set-up is done."""
    seen = set()
    for task in tasks:
        kind = tuple(task.kind.split(".")[:2])
        if kind not in seen:
            seen.add(kind)
            run_task(task)


def end_to_end(tasks, seconds):
    """Whole passes until `seconds` of task time and MIN_PASSES are done.

    Raw figures take each task's fastest repeat.  On a shared host the speed
    can swing by up to 2x within seconds and drift over minutes, so the
    ``_rel`` figures first divide each repeat by the fastest of the
    reference_kernel samples taken around it (REF_WINDOW on either side),
    then take each task's fastest quotient.  Set-up launches are spread
    between the passes.
    """
    setup_launches(1)           # the first launch compiles the bytecode
    passes, launches = [], []
    while len(passes) < MIN_PASSES or sum(sum(p.times) for p in passes) < seconds:
        passes.append(Pass(tasks))
        launches += setup_launches(SETUP_LAUNCHES_PER_PASS)
    refs = [r for p in passes for r in p.references]        # in time order
    n = len(tasks)
    best, best_rel = [], []
    for i in range(n):
        times = [p.times[i] for p in passes]
        local = [min(refs[max(0, k * n + i - REF_WINDOW):k * n + i + REF_WINDOW + 1])
                 for k in range(len(passes))]
        best.append(min(times))
        best_rel.append(min(t / r for t, r in zip(times, local)))
    errors = [e for p in passes for e in p.errors]
    attempted = n * len(passes)
    deciles = statistics.quantiles(best, n=10)
    deciles_rel = statistics.quantiles(best_rel, n=10)
    metrics = {
        "tasks_per_s": (n / sum(best), "1/s"),
        "task_p50_ms": (1e3 * deciles[4], "ms"),
        "task_p90_ms": (1e3 * deciles[8], "ms"),
        "failed_frac": (len(errors) / attempted, "ratio"),
        "setup_s": (statistics.median(launches), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_ms": (1e3 * statistics.median(refs), "ms"),
        "tasks_per_ref": (n / sum(best_rel), "1/ref"),
        "task_p50_rel": (deciles_rel[4], "ref"),
        "task_p90_rel": (deciles_rel[8], "ref"),
    }
    return metrics, attempted, errors, {"passes": len(passes), "launches": len(launches)}


P50_BY_DIM = ("gks.GKSLiouvillian", "dynamics.cptp_report", "dynamics.stationary_states",
              "dynamics.time_reversal_witness", "gks.dispersive_kossakowski_kernel")


def per_layer(dqs, name, tasks, seed):
    """Each task once untraced and once traced, back to back.

    Pairing the two runs of a task puts host-speed drift on both alike, so
    their difference is the tracing overhead rather than the drift.
    """
    recorder = tracer.Recorder()
    plain_s = traced_s = 0.0
    stdout_bytes, errors = 0, []
    for k, task in enumerate(tasks):
        elapsed, plain_error, _ = run_task(task)
        plain_s += elapsed
        recorder.task = k
        uninstall = recorder.install(dqs)
        try:
            elapsed, error, nbytes = run_task(task)
        finally:
            uninstall()
        traced_s += elapsed
        stdout_bytes += nbytes
        errors += [e for e in (plain_error, error) if e is not None]
    recorder.save(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz"))

    wall_ms = 1e3 * traced_s
    summary = recorder.summary([t.dim for t in tasks])
    metrics = {}
    for fn, rec in summary.items():
        metrics[f"{fn}.calls"] = (rec["calls"], "count")
        metrics[f"{fn}.self_ms"] = (rec["self_ms"], "ms")
        metrics[f"{fn}.self_pct"] = (100.0 * rec["self_ms"] / wall_ms, "%")
    if name == "certify":
        for fn in P50_BY_DIM:
            for dim, values in sorted(summary[fn]["by_dim"].items()):
                metrics[f"{fn}.N{dim}.p50_ms"] = (statistics.median(values), "ms")
    c = recorder.counters
    fits = summary["neutrino.fit_parameters"]["calls"]
    ratios = {
        "dynamics.stationary_states.accept_frac": (c["stationary.kept"], c["stationary.drawn"]),
        "gks.dispersive_kossakowski_kernel.psd_frac": (c["kernel.psd"], c["kernel.samples"]),
        "neutrino.fit_parameters.converged_frac": (c["fit.converged"], fits),
    }
    for key, (num, den) in ratios.items():
        if den:
            metrics[key] = (num / den, "ratio")
    metrics["neutrino.fit_parameters.cycles"] = (int(c["fit.cycles"]), "count")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    metrics["trace.overhead_ms"] = (wall_ms - 1e3 * plain_s, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    extra = {"rows": sum(t.rows for t in tasks), "spans": len(recorder.spans)}
    return metrics, 2 * len(tasks), errors, extra


def declared_metrics(name, trace):
    """Metric names BENCHMARK.json declares for this workload, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return None
    if name not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, seed, seconds, trace):
    dqs = load_dqs()
    print("env " + json.dumps(environment(seed)), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        tasks = build_tasks(dqs, name, seed, workdir)
        warm_up(tasks)
        if trace:
            metrics, attempted, errors, extra = per_layer(dqs, name, tasks, seed)
        else:
            metrics, attempted, errors, extra = end_to_end(tasks, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: {len(tasks)} tasks per pass, {attempted} attempted, "
          f"{len(errors)} failed, " + ", ".join(f"{k}={v}" for k, v in extra.items()))
    for error in sorted(set(errors))[:20]:
        print(f"  FAILED {error}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{name} {key} {value!r} {unit}")
    wanted = declared_metrics(name, trace) or sorted(metrics)
    missing = [k for k in wanted if k not in metrics]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result), flush=True)


SUMMARY_NAMES = ("tasks_per_s", "task_p50_ms", "task_p90_ms", "failed_frac", "setup_s",
                 "peak_rss_mb", "tasks_per_ref", "task_p50_rel", "task_p90_rel")


def run_all(seed, seconds):
    """Every workload in its own process, untraced then traced, then a summary."""
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                raise BenchError(f"{name} --trace {trace} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()}")
            for line in proc.stdout.splitlines():
                fields = line.split()
                if len(fields) == 4 and fields[0] == name and fields[1] in SUMMARY_NAMES:
                    table[name, fields[1]] = f"{float(fields[2]):.6g} {fields[3]}"
    print(f"\nsummary, seed {seed}")
    print(f"{'metric':<16}" + "".join(f"{name:>18}" for name in WORKLOADS))
    for metric in SUMMARY_NAMES:
        print(f"{metric:<16}" + "".join(f"{table.get((name, metric), '-'):>18}"
                                        for name in WORKLOADS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="least task time an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            run_all(args.seed, args.seconds)
        else:
            run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
