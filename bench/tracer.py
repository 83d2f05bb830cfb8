"""In-memory span recorder that wraps dqs's public functions from outside.

``install`` replaces every binding of each traced function (its module
attribute, the ``dqs`` package re-export, and any ``from .x import f`` copy
in another dqs module's globals) with a wrapper that records a span.  The
dataclasses ``DensityMatrix``, ``GKSLiouvillian`` and ``KossakowskiMatrix``
are traced through their ``__post_init__``; the class objects stay in place,
because ``dynamics`` relies on ``isinstance`` checks against them.

A span is (name, parent span, task, start, end).  Spans stay in memory
until ``summary`` reduces them; a span's self time is its duration minus the
durations of its direct children, which nest without overlap in this
single-threaded run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

TRACED_FUNCTIONS = {
    "linalg": ("hermitian_eigen", "expm", "kernel_basis", "singular_values", "is_psd"),
    "gks": ("is_dispersive", "dissipation_from_parts", "dispersive_kossakowski_kernel",
            "lindblad_operators"),
    "dynamics": ("propagate", "propagator", "cptp_report", "stationary_states",
                 "time_reversal_witness", "von_neumann_entropy"),
    "neutrino": ("read_spectrum_csv", "fit_parameters"),
    "qubit": ("transition_probability",),
    "cli": ("main", "load_model", "build_liouvillian"),
}
TRACED_CLASSES = {
    "linalg": ("DensityMatrix",),
    "gks": ("GKSLiouvillian", "KossakowskiMatrix"),
}
ALL_NAMES = tuple(f"{m}.{f}" for spec in (TRACED_CLASSES, TRACED_FUNCTIONS)
                  for m, fs in spec.items() for f in fs)


def _observe_stationary(counters, result, args, kwargs):
    if result.kernel:
        counters["stationary.drawn"] += kwargs.get("samples", 64)
        counters["stationary.kept"] += len(result.density_matrices)


def _observe_kernel(counters, result, args, kwargs):
    counters["kernel.samples"] += len(result.samples)
    counters["kernel.psd"] += sum(s.psd for s in result.samples)


def _observe_fit(counters, result, args, kwargs):
    counters["fit.cycles"] += result.cycles
    counters["fit.converged"] += bool(result.converged)


OBSERVERS = {
    "dynamics.stationary_states": _observe_stationary,
    "gks.dispersive_kossakowski_kernel": _observe_kernel,
    "neutrino.fit_parameters": _observe_fit,
}


class Recorder:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.task = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, self.task, start, end)
            if observe is not None:
                observe(self.counters, result, args, kwargs)
            return result
        return traced

    def install(self, dqs) -> Callable[[], None]:
        """Patch every binding of the traced names; returns the undo function."""
        modules = [m for k, m in sys.modules.items() if k == "dqs" or k.startswith("dqs.")]
        undo = []
        for mod_name, names in TRACED_FUNCTIONS.items():
            mod = getattr(dqs, mod_name)
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))
        for mod_name, names in TRACED_CLASSES.items():
            for cls_name in names:
                cls = getattr(getattr(dqs, mod_name), cls_name)
                original = cls.__post_init__
                cls.__post_init__ = self.wrap(f"{mod_name}.{cls_name}", original)
                undo.append((cls, "__post_init__", original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    def summary(self, task_dims: List[int]) -> Dict[str, dict]:
        """Per name: calls, total and self milliseconds, and durations by task dimension."""
        child = [0.0] * len(self.spans)
        for name, parent, task, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "by_dim": defaultdict(list)}
               for n in ALL_NAMES}
        for idx, (name, parent, task, start, end) in enumerate(self.spans):
            rec = out[name]
            dur = end - start
            rec["calls"] += 1
            rec["total_ms"] += 1e3 * dur
            rec["self_ms"] += 1e3 * (dur - child[idx])
            if task >= 0:
                rec["by_dim"][task_dims[task]].append(1e3 * dur)
        return out

    def save(self, path: str) -> None:
        """Write the raw spans as arrays: names, parent, task, start, end."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        arr = np.array([(index[s[0]], s[1], s[2]) for s in self.spans], dtype=np.int64)
        times = np.array([(s[3], s[4]) for s in self.spans], dtype=float)
        np.savez_compressed(path, names=np.array(names), name=arr[:, 0], parent=arr[:, 1],
                            task=arr[:, 2], start=times[:, 0], end=times[:, 1])
