"""Per-layer tracing of starflow, installed from outside the package.

A layer is a package module.  ``Tracer.install`` replaces every public
function of a layer module with a wrapper that records a span (name, layer,
start, end, parent index) in memory.  Functions reach other modules through
``from .x import y``, which binds the name in the importing namespace, so the
wrapper is rebound in every ``starflow`` module and inside module-level dicts
such as ``cli.SUBCOMMANDS``.  Functions and methods that run once per lattice
step get a call counter instead of a span, because a span there would cost
more than the call it measures.  ``graph`` has no spans for that reason; its
time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = {
    "starflow.walk": "walk",
    "starflow.cv": "cv",
    "starflow.chain": "chain",
    "starflow.flows": "flows",
    "starflow.limit": "limit",
    "starflow.beta": "beta",
    "starflow.stats": "stats",
    "starflow.cli": "cli",
    "starflow.config": "cli",
}

# (module, qualified name) -> counter; these are counted, never spanned
COUNTED = {
    ("starflow.walk", "WalkWindow.value"): "walk.value_calls",
    ("starflow.flows", "psi_one_step"): "flows.compose_steps",
    ("starflow.flows", "kernel_one_step"): "flows.compose_steps",
    ("starflow.graph", "DiscreteMeasure.__init__"): "graph.measures_built",
}

# per-layer metrics that sum the self time of named spans
SELF_TIME_GROUPS = {
    "chain.batch_s": ("chain.simulate_chain_batch",),
    "chain.flip_s": ("chain.flip_excursions", "chain.flip_bound_deviation"),
    "walk.excursions_s": ("walk.excursions",),
    "flows.closed_form_s": ("flows.psi_closed_form", "flows.kernel_closed_form"),
    "flows.oracle_s": ("flows.psi_compose", "flows.kernel_compose",
                       "flows.kernel_is_conditional_law"),
    "beta.closed_form_s": ("beta.beta_two_diracs", "beta.beta_two_spreads",
                           "beta.beta_dirac_vs_spread"),
    "beta.oracle_s": ("beta.beta_vertex_oracle", "beta.beta_grid_oracle"),
}

# per-layer metrics that count calls of named spans
CALL_GROUPS = {
    "flows.closed_form_calls": ("flows.psi_closed_form", "flows.kernel_closed_form"),
    "beta.dirac_vs_spread_calls": ("beta.beta_dirac_vs_spread",),
    "beta.lp_calls": ("beta.beta_distance",),
    "beta.vertex_calls": ("beta.beta_vertex_oracle",),
}

SELF_TIME_LAYERS = ("walk", "cv", "chain", "flows", "limit", "beta", "stats", "cli")
FLIP_CASES = ("i", "ii1", "ii2", "iii")


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _count_cv_bytes(counts, args, result):
    out = result if isinstance(result, tuple) else (result,)
    counts["cv.bytes_computed"] += _array_bytes(args) + _array_bytes(out)


def _count_excursions(counts, args, result):
    counts["walk.excursions_found"] += len(result)


def _count_flip_blocks(counts, args, result):
    for case in result.block_cases:
        counts[f"chain.flip_blocks_{case}"] += 1


def _count_time_points(counts, args, result):
    counts["limit.time_points"] += len(result)


# span name -> hook(counts, args, result) run after the call returns
RESULT_HOOKS = {
    "walk.excursions": _count_excursions,
    "chain.flip_excursions": _count_flip_blocks,
    "limit.grid_and_midpoints": _count_time_points,
}

COUNTERS = ("cv.bytes_computed", "walk.excursions_found", "walk.value_calls",
            "flows.compose_steps", "limit.time_points", "graph.measures_built",
            *(f"chain.flip_blocks_{case}" for case in FLIP_CASES))


class Tracer:
    """Spans and counters for one traced workload run."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._undo: list = []

    def _span_wrapper(self, fn, name, layer, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
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
                spans[idx] = (name, layer, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever it is bound."""
        replacements = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not name.startswith("_") and (modname, name) not in COUNTED):
                    span = f"{modname.split('.')[-1]}.{name}"
                    hook = RESULT_HOOKS.get(span)
                    if hook is None and layer == "cv":
                        hook = _count_cv_bytes
                    replacements[id(obj)] = (obj, self._span_wrapper(obj, span, layer, hook))
        for (modname, qualname), counter in COUNTED.items():
            module = sys.modules[modname]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: patch the class once
                owner = getattr(module, owner_name)
                self._set(owner, attr, self._count_wrapper(vars(owner)[attr], counter))
            else:
                obj = getattr(module, attr)
                replacements[id(obj)] = (obj, self._count_wrapper(obj, counter))
        for modname, module in list(sys.modules.items()):
            if modname != "starflow" and not modname.startswith("starflow."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._set(module, name, replacements[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements and replacements[id(value)][0] is value:
                            self._set(obj, key, replacements[id(value)][1])

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def layer_metrics(self) -> dict:
        """Every per-layer metric of this run, from the spans and counters."""
        selfs = self_times(self.spans)
        by_layer = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, layer, *_), own in zip(self.spans, selfs):
            by_layer[layer] += own
            by_name[name] = by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        metrics = {f"{layer}.self_s": value for layer, value in by_layer.items()}
        for metric, names in SELF_TIME_GROUPS.items():
            metrics[metric] = sum(by_name.get(n, 0.0) for n in names)
        for metric, names in CALL_GROUPS.items():
            metrics[metric] = sum(calls.get(n, 0) for n in names)
        metrics.update(self.counts)
        return metrics

    def traced_seconds(self) -> float:
        """Total time inside starflow calls: the sum of root span durations."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children (children of one single-threaded caller never overlap)."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]
