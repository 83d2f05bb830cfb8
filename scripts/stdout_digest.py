#!/usr/bin/env python3
"""Digest what one checkout prints on every task of a benchmark workload.

    python3 scripts/stdout_digest.py CHECKOUT --workload nu-fit --seeds 0 1 2

The tasks of one pass of the ``trajectory`` or ``nu-fit`` workload are built
at each seed by CHECKOUT's own ``bench/run.py`` and ``bench/workloads.py``,
with ``dqs`` imported from CHECKOUT/src, and each is run once.  Three lines
are printed: the task count, the number of tasks the bench's oracle fails,
and one sha256 over every task's exit code, stdout and stderr, in task order.
Two checkouts that print the same digest gave byte-identical output on
every task.  The scratch directory the inputs are written to is replaced by
a fixed name before hashing, so that an error naming a file digests alike.

Failed tasks are listed on stderr.  Exit code 0, 1 when a task fails its
check, 2 when the checkout's benchmark cannot be loaded.
"""

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile

WORKLOADS = ("trajectory", "nu-fit")


class CheckoutError(Exception):
    """The checkout has no benchmark, or its dqs cannot be imported."""


def load_bench(checkout):
    """CHECKOUT's bench/run.py as a module, with dqs imported from CHECKOUT/src."""
    bench = os.path.join(os.path.abspath(checkout), "bench")
    if not os.path.isfile(os.path.join(bench, "run.py")):
        raise CheckoutError(f"no bench/run.py in {checkout}")
    # run.py pins BLAS to one thread when imported, before numpy loads
    sys.path.insert(0, bench)
    try:
        run = importlib.import_module("run")
    except ImportError as exc:
        raise CheckoutError(f"cannot import {bench}/run.py: {exc}") from None
    try:
        return run, run.load_dqs()
    except run.BenchError as exc:
        raise CheckoutError(str(exc)) from None


def digest(run, dqs, workload, seeds):
    """(tasks, failure messages, sha256 hex) over one pass at each seed."""
    sha = hashlib.sha256()
    count, failures = 0, []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for task in run.build_tasks(dqs, workload, seed, workdir):
                try:
                    out = task.run()
                    error = task.check(out)
                except Exception as exc:  # a crash is a failed task
                    out, error = None, f"{type(exc).__name__}: {exc}"
                record = [None, "", ""] if out is None else [out.code, out.stdout, out.stderr]
                sha.update(json.dumps(record).replace(workdir, "WORKDIR").encode())
                count += 1
                if error:
                    failures.append(f"seed {seed} {task.kind}: {error}")
    return count, failures, sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository checkout to run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    try:
        run, dqs = load_bench(args.checkout)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    count, failures, hexdigest = digest(run, dqs, args.workload, args.seeds)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"tasks={count}")
    print(f"failed={len(failures)}")
    print(f"sha256={hexdigest}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
