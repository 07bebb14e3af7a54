"""Per-layer tracing of pullpush from outside, for the benchmark's traced run.

Each traced function is replaced by a wrapper at every name where callers
look it up: the module that defines it and every pullpush module that
imported it by name (``metrics.erlang_b``, ``sample_poisson_array`` inside
``simulate``, ...). Modules are resolved through ``sys.modules``, because
the package re-binds ``pullpush.simulate`` to the function of that name.

Spans (function, start, end, parent span) are kept in flat in-memory
arrays and written out by :meth:`Tracer.dump` at the end of the run.
Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

# Functions that get a span, as "<module>.<function>".
SPANNED = (
    "cli.main",
    "optimize.optimal_q",
    "optimize.design_guidelines",
    "optimize.crossover_push_rate",
    "metrics.evaluate_metrics",
    "core.erlang_b",
    "core.sample_poisson_array",
    "simulate.slot_successes",
    "simulate._simulate_one",
    "simulate.simulate",
    "simulate.validate_grid",
)
# Functions that are only counted.
COUNTED = ("frame.split_for_q",)
# Closed forms: a call to one of these through optimize's namespace counts
# toward optimize.closed_form_evals.
CLOSED_FORMS = frozenset({
    "evaluate_metrics", "query_success_prob", "push_success_prob",
    "mean_served_queries", "push_throughput",
})

NO_PARENT = -1


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span and counter store; :meth:`install` wires it into pullpush."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPANNED)
        self.span_name = array("h")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [NO_PARENT]
        self.counts: dict[str, float] = {}

    # ------------------------------------------------------------ recording

    def _add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _spanned(self, fn, name: str, on_call=None):
        name_id = self.names.index(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def _counted(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _on_erlang_b(self, args, kwargs) -> None:
        self._add("core.erlang_b.recursion_steps", int(_arg(args, kwargs, 0, "servers")))

    def _on_poisson(self, args, kwargs) -> None:
        mean, size = float(_arg(args, kwargs, 0, "mean")), int(_arg(args, kwargs, 1, "size"))
        self._add("core.sample_poisson_array.variates", size)
        if mean > 0.0 and size > 0:  # the sampler's documented budget
            self._add("core.sample_poisson_array.uniforms", max(1, math.ceil(mean / 10.0)) * size)

    def _on_slots(self, args, kwargs) -> None:
        packets = int(np.sum(_arg(args, kwargs, 0, "packet_counts")))
        self._add("simulate.slot_successes.packets", packets)

    def _measure_peak(self, fn):
        """Record the largest tracemalloc peak of any one call of ``fn``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "simulate.slot_successes.temp_bytes"
                self.counts[key] = max(self.counts.get(key, 0), peak)

        return wrapper

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Wrap every traced function at each of its lookup sites."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pullpush" or name.startswith("pullpush.")}
        hooks = {
            "core.erlang_b": self._on_erlang_b,
            "core.sample_poisson_array": self._on_poisson,
            "simulate.slot_successes": self._on_slots,
        }
        for qualified in SPANNED + COUNTED:
            home, func = qualified.split(".")
            original = getattr(modules[f"pullpush.{home}"], func)
            if qualified in SPANNED:
                wrapped = self._spanned(original, qualified, hooks.get(qualified))
                if qualified == "simulate.slot_successes":
                    wrapped = self._measure_peak(wrapped)
            else:
                wrapped = self._counted(original, lambda a, k, key=f"{qualified}.calls": self._add(key))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        optimize = modules["pullpush.optimize"]

        def count(args, kwargs):
            self._add("optimize.closed_form_evals")

        for attr in CLOSED_FORMS:
            setattr(optimize, attr, self._counted(getattr(optimize, attr), count))

    # ------------------------------------------------------------ reporting

    def _spans(self):
        """Copies of the span arrays (a view would pin the arrays' size)."""
        return (np.array(self.span_name, dtype=np.intp), np.array(self.span_parent, dtype=np.intp),
                np.array(self.span_start, dtype=np.float64), np.array(self.span_end, dtype=np.float64))

    def metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per spanned function, plus the counters.

        A span's self time is its duration minus that of its child spans.
        """
        name, parent, start, end = self._spans()
        duration = end - start
        has_parent = parent != NO_PARENT
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=duration - child, minlength=k)
        out: dict[str, float] = {}
        for name_id, fn in enumerate(self.names):
            out[f"{fn}.calls"] = int(calls[name_id])
            out[f"{fn}.busy_s"] = float(busy[name_id])
            out[f"{fn}.self_s"] = float(own[name_id])
        for key in ("core.erlang_b.recursion_steps", "core.sample_poisson_array.variates",
                    "core.sample_poisson_array.uniforms", "simulate.slot_successes.packets",
                    "simulate.slot_successes.temp_bytes", "optimize.closed_form_evals",
                    *(f"{fn}.calls" for fn in COUNTED)):
            out[key] = self.counts.get(key, 0)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans to ``path`` as numpy .npz arrays: ``name`` (an index
        into ``names``), ``parent`` (a span index, -1 for none), ``start_s``
        and ``end_s`` (``time.perf_counter`` seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=np.asarray(self.span_name), parent=np.asarray(self.span_parent),
                 start_s=np.asarray(self.span_start), end_s=np.asarray(self.span_end),
                 names=np.array(self.names))
