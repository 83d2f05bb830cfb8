#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload trajectory --pairs 10

Before the first pair, each checkout's ``src/`` (when it has one) is
compiled with ``python -m compileall -q``, so that a fresh copy and one that
has run before import alike and their ``setup_s`` compare.  Each pair runs
``bench/run.py --workload W --seed S --trace 0``, plus ``--seconds`` when
given, once in each checkout (the parent first in even pairs, the change
first in odd ones) and reads the final JSON line of each run.  For every
metric it prints both sides' median and quartiles, the pairs the change wins
(ties count for neither side) and a verdict:

* ``gain``: the change wins at least nine tenths of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse``: an end-to-end metric whose change median is worse than the
  parent's by more than its ``BENCHMARK.json`` bound (a fraction of the
  parent median);
* ``unresolved``: the parent's own interquartile range is wider than that
  bound, and not every change run beats every parent run;
* ``ok`` otherwise, and ``-`` for a metric with no declared direction.

Directions and bounds come from CHANGE_DIR/BENCHMARK.json.  The last stdout
line is the same table as one JSON object.  Exit code 0, or 2 when a
compile or a run fails or a run prints no JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


class RunError(Exception):
    """A compile or a benchmark run failed, or a run printed no result."""


def compile_sources(checkout):
    """Write the bytecode of checkout/src, if there is one."""
    src = os.path.join(checkout, "src")
    if not os.path.isdir(src):
        return
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{src}: compileall exit {proc.returncode}: "
                       f"{(proc.stdout + proc.stderr).strip()[-300:]}")


def run_once(checkout, args):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        argv += ["--seconds", repr(args.seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        result = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise RunError(f"{checkout}: no result ({exc}): {proc.stderr.strip()[-300:]}") from None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def declared(checkout):
    """{metric: (better, bound or None)} from a checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["per_layer"]}
    out.update((m["name"], (m["better"], m["bound"])) for m in spec["end_to_end"])
    out["failed"] = ("lower", 0.0)
    return out


def compare(parent, change, better, bound):
    """Quartiles of both sides, the change's wins and the verdict for one metric."""
    p, c = quartiles(parent), quartiles(change)
    row = {"parent": p, "change": c, "wins": None, "verdict": "-"}
    if better is None:
        return row
    sign = 1.0 if better == "higher" else -1.0
    row["wins"] = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    spread = p[2] - p[0]
    gain = sign * (c[1] - p[1])
    if row["wins"] >= 0.9 * len(parent) and gain > spread:
        row["verdict"] = "gain"
    elif bound is not None and -gain > bound * abs(p[1]):
        row["verdict"] = "worse"
    elif (bound is not None and spread > bound * abs(p[1])
          and not all(sign * (b - a) > 0 for a in parent for b in change)):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "ok"
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="task seconds per run (default: bench/run.py's own)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {"parent": [], "change": []}
    try:
        for side in runs:
            compile_sources(getattr(args, side))
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), args))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = declared(args.change)
    table = {}
    for name in sorted(set(runs["parent"][0]) & set(runs["change"][0])):
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        table[name] = compare(parent, change, *spec.get(name, (None, None)))

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; "
          "median [q1, q3] of the parent, then of the change")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        wins = "-" if row["wins"] is None else f"{row['wins']}/{args.pairs}"
        print(f"{name:40s} {p[1]:12.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
              f"{c[1]:12.6g} [{c[0]:.6g}, {c[2]:.6g}]  wins {wins:>6s}  {row['verdict']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
