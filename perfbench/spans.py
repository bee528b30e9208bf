"""Outside-in tracing of zdmtd: spans around the public functions of each
module and kernel counts from numpy.linalg, installed without editing the
package.

The package imports functions by name (``from .mdp import best_response``),
so a wrapper has to replace the name in every zdmtd module that holds the
original function object, not only in the defining module.  Spans are kept
in memory as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

import numpy as np

# span name -> (defining module, function name)
SPANS = {
    "cli.main": ("zdmtd.cli", "main"),
    "cli.solve_game": ("zdmtd.cli", "solve_game"),
    "programs.solve_ideal": ("zdmtd.programs", "solve_ideal"),
    "programs.solve_optimal": ("zdmtd.programs", "solve_optimal"),
    "programs.realize_params": ("zdmtd.programs", "realize_params"),
    "zd.construct_strategy": ("zdmtd.zd", "construct_strategy"),
    "zd.defining_residual": ("zdmtd.zd", "defining_residual"),
    "lp.solve_lp": ("zdmtd.lp", "solve_lp"),
    "markov.zd_residual": ("zdmtd.markov", "zd_residual"),
    "markov.stationary": ("zdmtd.markov", "stationary"),
    "mdp.best_response": ("zdmtd.mdp", "best_response"),
    "mdp.defender_utility_under_br": ("zdmtd.mdp", "defender_utility_under_br"),
    "sse.oneshot_sse": ("zdmtd.sse", "oneshot_sse"),
    "sse.search_sse": ("zdmtd.sse", "search_sse"),
    "sim.simulate": ("zdmtd.sim", "simulate"),
}

_FIELD_UNITS = (("calls", "count/op"), ("self_s", "s/op"), ("linalg_solves", "count/op"),
                ("linalg_gflop", "GFLOP/op"), ("linalg_svds", "count/op"))

# Ratios and counts read from return values: span -> (metric, value of one call).
_RETURNED = {
    "lp.solve_lp": ("lp.feasible", lambda out: out.status != "infeasible"),
    "programs.solve_ideal": ("programs.ideal_found", lambda out: out.found),
    "programs.realize_params": ("programs.realize_ok", lambda out: out is not None),
    "markov.stationary": ("markov.stationary.direct", lambda out: out.method == "direct"),
    "sse.search_sse": ("sse.search_sse.evals", lambda out: out.iterations),
    "sim.simulate": ("sim.simulate.steps", lambda out: out.steps),
}

# (name, unit) of every per-layer metric in report order.  Span figures and
# counts are means per operation of the traced phase, so runs that complete
# different numbers of operations compare directly.
LAYER_METRICS = [(f"{span}.{field}", unit) for span in SPANS for field, unit in _FIELD_UNITS] + [
    ("lp.feasible_frac", "frac"),
    ("programs.ideal_found_frac", "frac"),
    ("programs.realize_ok_frac", "frac"),
    ("markov.stationary.direct_frac", "frac"),
    ("sse.search_sse.evals", "count/op"),
    ("sim.simulate.steps", "count/op"),
    ("trace.overhead_frac", "frac"),
]


class Tracer:
    """Installs its wrappers on construction; ``uninstall`` restores every
    binding it replaced."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.kernels = {}    # span name -> [solves, gflop, svds]
        self.returned = {}   # return-value metric -> summed value
        self.bindings = {}   # span name -> modules whose binding was replaced
        self._local = threading.local()
        self._undo = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zdmtd" or name.startswith("zdmtd.")]
        for span, (modname, attr) in SPANS.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(span, original)
            holders = [m for m in modules if getattr(m, attr, None) is original]
            for m in holders:
                self._undo.append((m, attr, original))
                setattr(m, attr, wrapper)
            self.bindings[span] = [m.__name__ for m in holders]
        for attr, count in (("solve", _count_solve), ("svd", _count_svd)):
            original = getattr(np.linalg, attr)
            self._undo.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap_kernel(original, count))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def _stack(self):
        """Open spans of the calling thread as (index, name), innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span, fn):
        returned = _RETURNED.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, span))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (span, start, end, parent)
            if returned is not None:
                key, value = returned
                self.returned[key] = self.returned.get(key, 0) + value(out)
            return out

        return wrapper

    def _wrap_kernel(self, fn, count):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            stack = self._stack()
            owner = stack[-1][1] if stack else "(outside)"
            count(self.kernels.setdefault(owner, [0, 0.0, 0]), np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapper

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics of everything traced so far, per operation."""
        calls = dict.fromkeys(SPANS, 0)
        self_s = dict.fromkeys(SPANS, 0.0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for span in SPANS:
            solves, gflop, svds = self.kernels.get(span, (0, 0.0, 0))
            for (field, _), value in zip(_FIELD_UNITS, (calls[span], self_s[span], solves, gflop, svds)):
                out[f"{span}.{field}"] = value / ops
        for key, span in (("lp.feasible", "lp.solve_lp"),
                          ("programs.ideal_found", "programs.solve_ideal"),
                          ("programs.realize_ok", "programs.realize_params"),
                          ("markov.stationary.direct", "markov.stationary")):
            out[f"{key}_frac"] = self.returned.get(key, 0) / calls[span] if calls[span] else 0.0
        for key in ("sse.search_sse.evals", "sim.simulate.steps"):
            out[key] = self.returned.get(key, 0) / ops
        return out

    def dump(self, path: str) -> None:
        """Write the spans, kernel counts and bindings as one JSON document;
        span times are seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans],
            "kernels": {k: {"linalg_solves": v[0], "linalg_gflop": v[1], "linalg_svds": v[2]}
                        for k, v in self.kernels.items()},
            "bindings": self.bindings,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _systems(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _count_solve(acc, shape):
    """Charge one batched solve: every system in the batch, and 2n^3/3
    computed (not measured) floating-point operations per system."""
    systems = _systems(shape)
    acc[0] += systems
    acc[1] += systems * (2.0 * shape[-1] ** 3 / 3.0) / 1e9


def _count_svd(acc, shape):
    acc[2] += _systems(shape)
