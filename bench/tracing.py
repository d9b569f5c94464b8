"""Outside-in tracing of gpkrige from the benchmark's own code.

:class:`Tracer` wraps every public module-level function of every
``gpkrige`` submodule (plus the few private helpers named in
``SPANNED_PRIVATE``) in a span, and installs the wrapper at *every* binding
site: ``kriging``, ``gpr``, ``simulate`` and ``cli`` import ``solve_spd``,
``cross_cov``, ``basis_matrix`` and friends by name, so patching only the
defining module would miss most calls.  Per-element functions
(``COUNTED``) get a call counter instead of a span, because they run ~1e5
times per job.

Spans are kept in memory as ``[group, start, end, parent, info]`` and
aggregated when the run ends.  A span's self time is its duration minus the
durations of its child spans (one thread, so children never overlap).
The group of a span is ``<module>.<part>`` from ``GROUPS``, or
``<module>.self`` for every other function of that module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

GROUPS = {
    "basis_matrix": "kernels.basis",
    "basis_at": "kernels.basis",
    "build_gram": "kernels.gram",
    "kernel_matrix": "kernels.gram",
    "cross_cov": "kernels.gram",
    "empirical_semivariogram": "kernels.variogram",
    "spd_factor": "linalg.factor",
    "solve_spd": "linalg.solve",
    "solve_saddle": "linalg.saddle",
    "_solve_saddle_factored": "linalg.saddle",
    "_factor_constraint_gram": "linalg.saddle",
    "block_inverse": "linalg.saddle",
    "sample_field": "simulate.sample",
    "read_point_table": "cli.read",
    "_load_json": "cli.read",
}
SPANNED_PRIVATE = {"_solve_saddle_factored", "_factor_constraint_gram", "_load_json"}
COUNTED = {"eval_mean": "kernels.mean.calls"}

# Factorizations of order <= SMALL_ORDER are p x p constraint or prior Grams;
# every workload's data sets are larger.
SMALL_ORDER = 16


def _gpkrige_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gpkrige" or name.startswith("gpkrige."))]


def _targets_of(params):
    """How many target points a kriging-layer call predicts, from its signature."""
    if "xstar" in params:
        return lambda args, kwargs, out: 1
    if "xs" in params:
        return lambda args, kwargs, out: len(out) if isinstance(out, list) else 0
    return lambda args, kwargs, out: 0


def _info_fn(group, fn):
    """Work done by one call, counted from argument and result shapes."""
    if group in ("kernels.gram", "kernels.basis"):
        return lambda args, kwargs, out: int(np.size(out))
    if group == "kernels.variogram":
        def pairs(args, kwargs, out):
            n = len(args[0]) if args else len(kwargs["x"])
            return n * (n - 1) // 2
        return pairs
    if group == "linalg.factor":
        return lambda args, kwargs, out: (int(out.chol.shape[0]), out.jitter_used > 0.0)
    if group == "linalg.solve":
        return lambda args, kwargs, out: (out.shape[0], 1 if out.ndim == 1 else out.shape[1])
    if group == "simulate.sample":
        return lambda args, kwargs, out: len(out)
    if group.startswith("kriging."):
        return _targets_of(inspect.signature(fn).parameters)
    if group.startswith("gpr."):
        return lambda args, kwargs, out: int(getattr(getattr(out, "covariance", None),
                                                     "nbytes", 0))
    return None


class Tracer:
    """Spans and counters around gpkrige's functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _span(self, group, fn):
        info = _info_fn(group, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = _gpkrige_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in SPANNED_PRIVATE:
                    continue
                if name in COUNTED:
                    wrappers[obj] = self._counter(COUNTED[name], obj)
                else:
                    wrappers[obj] = self._span(GROUPS.get(name, f"{layer}.self"), obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def summary(self):
        """Per-group totals and the kriging layer's inclusive time and targets.

        Returns ``(groups, (kriging_s, kriging_targets), root_s)``: per group
        its self time, outermost calls and their counted work; then the
        inclusive time and target count of outermost kriging-layer spans;
        then the total duration of root spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        groups = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": []})
        kriging_s, kriging_targets, root_s = 0.0, 0, 0.0
        for i, (group, start, end, parent, info) in enumerate(spans):
            g = groups[group]
            g["self_s"] += (end - start) - child_time[i]
            parent_group = spans[parent][0] if parent >= 0 else ""
            if parent_group != group:
                g["calls"] += 1
                if info is not None:
                    g["work"].append(info)
            if group.startswith("kriging.") and not parent_group.startswith("kriging."):
                kriging_s += end - start
                kriging_targets += info or 0
            if parent < 0:
                root_s += end - start
        return dict(groups), (kriging_s, kriging_targets), root_s
