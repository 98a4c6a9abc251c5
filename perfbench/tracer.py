"""Span tracer for the smcycle layers, applied from outside the package.

Each traced function is replaced by a wrapper in every ``smcycle`` module
namespace that binds it: ``from .snd import jain_round`` gives ``metric`` a
binding of its own, and a wrapper installed only in ``snd`` would miss the
calls made through it.  Leaving the ``with`` block puts every original
binding back.

A span is ``(name, start_ns, end_ns, parent, solve)``: ``parent`` is the
index of the enclosing span (-1 for a solve's root span) and ``solve`` the
id shared by every span of one solve.  Spans stay in memory until the
caller writes them out.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, function) pairs; the layer name drops the module's leading "_"
TARGETS = (
    ("_simplex", "solve_min_lp"),
    ("snd", "solve_cut_lp"),
    ("snd", "jain_round"),
    ("snd", "prune_bridges"),
    ("metric", "min_t_join"),
    ("metric", "double_and_shortcut"),
    ("matching", "min_weight_perfect_matching"),
    ("matching", "min_cost_bipartite_perfect_matching"),
    ("matching", "max_cardinality_matching"),
    ("matching", "minimal_edge_cover"),
    ("twofactor", "min_weight_2factor"),
    ("twofactor", "min_weight_triangle_free_2factor"),
    ("twofactor", "min_weight_directed_2factor"),
    ("onetwo", "special_2factor"),
    ("onetwo", "maximum_b_matching"),
    ("onetwo", "build_D_and_Dprime"),
    ("onetwo", "join_component_cycles"),
    ("onetwo", "join_disrespecting_cycles"),
    ("asymmetric", "representatives"),
    ("asymmetric", "directed_shortcut"),
    ("core", "parse_instance"),
    ("core", "validate_instance"),
    ("core", "validate_solution"),
    ("oracle", "brute_force_smc"),
)

ROOT = "solve"


def layer_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _triples(args, kwargs):
    n = _arg(args, kwargs, 0, "n")
    return n * (n - 1) * (n - 2)


# (layer, metric, size read from the call's arguments); each metric is the
# mean over the layer's calls
PROBES = (
    ("simplex.solve_min_lp", "simplex.solve_min_lp.rows_mean",
     lambda a, kw: len(_arg(a, kw, 1, "rows"))),
    ("simplex.solve_min_lp", "simplex.solve_min_lp.cols_mean",
     lambda a, kw: len(_arg(a, kw, 0, "c"))),
    ("snd.solve_cut_lp", "snd.cut_pool_size",
     lambda a, kw: len(_arg(a, kw, 3, "cut_pool") or ())),
    ("metric.min_t_join", "metric.odd_vertices",
     lambda a, kw: len(_arg(a, kw, 2, "targets"))),
    ("matching.min_weight_perfect_matching",
     "matching.min_weight_perfect_matching.edges_mean",
     lambda a, kw: len(_arg(a, kw, 0, "edges"))),
    ("core.validate_instance", "core.validate_instance.triples", _triples),
)


def smcycle_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "smcycle" or name.startswith("smcycle."))]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.probe_sums: dict[str, int] = defaultdict(int)
        self.probe_calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._solve = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = smcycle_modules()
        for module, function in TARGETS:
            original = getattr(sys.modules[f"smcycle.{module}"], function)
            wrapper = self._wrap(layer_name(module, function), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        probes = [(key, size) for layer, key, size in PROBES if layer == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._solve)
            for key, size in probes:
                self.probe_sums[key] += size(args, kwargs)
                self.probe_calls[key] += 1
            return result

        return wrapper

    # -- solves -----------------------------------------------------------

    @contextmanager
    def solve(self, solve_id: int):
        """Root span of one solve; every span opened inside shares its id."""
        self._solve = solve_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, solve_id)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time (ns)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, _solve = span
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _parent, _solve) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[idx]
        return out

    def probe_means(self) -> dict[str, float]:
        """Mean size per probe over its layer's calls (0 without calls)."""
        return {key: (self.probe_sums[key] / self.probe_calls[key]
                      if self.probe_calls[key] else 0)
                for _layer, key, _size in PROBES}

    def write_spans(self, path) -> None:
        """One JSON array per line: solve, name, start, end (ns), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(json.dumps([solve, name, start, end, parent]) + "\n")

