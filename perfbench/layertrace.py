"""Spans around the public functions of each graphcert module.

The tracer replaces each target function, under every name any graphcert
module binds it to (modules import by name, so ``graphcert.cli.build_queen``
and ``graphcert.chess.build_queen`` are two bindings of one function), with a
wrapper that records a span: name, start, end, parent span and operation id.
Spans stay in memory until the run ends. Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct child
spans. ``cli.main`` is the root of every operation, so the self times of the
spans of one operation add up to that operation's traced time; its own self
time is argument parsing, JSON output and every untraced function.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

# module -> traced public functions; the layers of the per-layer metrics
LAYERS = {
    "cli": ("main",),
    "chess": ("build_queen", "bishop_edge_pairs"),
    "bishop_rook": ("bishop_path_decomposition", "canonical_bishop_coloring",
                    "ladder_coloring", "rook_class1_coloring"),
    "multicycle": ("derive", "chromatic_index"),
    "queen": ("classify_and_color",),
    "kempe": ("find_class1", "eliminate_color"),
    "core": ("vizing_delta_plus_one", "verify_edge_coloring", "verify_hamiltonian_cycle",
             "verify_hamiltonian_path", "verify_clique_cover"),
    "keller": ("build", "class1_coloring", "verify_cover_by_rule", "double_clique_cover"),
    "io": ("write_dimacs", "write_coloring", "write_sequence", "write_vertex_sets",
           "read_dimacs", "read_coloring", "read_sequence", "read_vertex_sets"),
    "mycielski": ("ham_path_mu_odd_cycle",),
}

# every value multicycle.chromatic_index reports in ChiResult.method; any other
# value is counted as "other"
CHI_METHODS = ("multipath", "regular", "greedy", "kernel-residual", "recombination",
               "arc", "oracle", "bracket", "other")

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _file_bytes(path_or_file) -> int:
    if isinstance(path_or_file, (str, os.PathLike)):
        return os.path.getsize(path_or_file)
    return 0


def _count_extras(name: str, args: tuple, result, counts: Counter) -> None:
    """Exact counters read from a traced call's arguments and result."""
    if name.startswith("io."):
        counts[f"{name}.bytes"] += _file_bytes(args[1] if name.startswith("io.write")
                                               else args[0])
    elif name == "core.verify_edge_coloring":
        counts[f"{name}.edges"] += args[0].edge_count
    elif name == "multicycle.chromatic_index":
        method = result.method if result.method in CHI_METHODS else "other"
        counts[f"{name}.method.{method}"] += 1
    elif name == "kempe.find_class1":
        counts[f"{name}.restarts"] += result.restarts_used
        counts[f"{name}.budget_exhausted"] += result.reason == "budget"
    elif name == "kempe.eliminate_color":
        counts[f"{name}.successes"] += result is not None


class Tracer:
    """Records spans around the functions named in ``LAYERS`` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _count_extras(name, args, result, counts)
            return result

        return traced

    def install(self) -> None:
        """Rebind every graphcert name of every traced function to its wrapper."""
        wrappers = {}
        for mod, fns in LAYERS.items():
            module = sys.modules[f"graphcert.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "graphcert" and not modname.startswith("graphcert."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_time_gap(self) -> float:
        """Largest gap, over operations, between the traced time of the root
        span and the sum of the operation's self times per layer; infinite if
        a span lies outside its parent's interval or operation."""
        self_s: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        root = {}
        for name, start, end, parent, op in self.spans:
            self_s[op][name] += end - start
            if parent < 0:
                root[op] = end - start
                continue
            p_name, p_start, p_end, _, p_op = self.spans[parent]
            if p_op != op or start < p_start or end > p_end:
                return math.inf
            self_s[op][p_name] -= end - start
        return max((abs(root.get(op, math.inf) - sum(layers.values()))
                    for op, layers in self_s.items()), default=0.0)

    def layer_metrics(self) -> tuple[dict[str, int], dict[str, float]]:
        """Exact counts and self seconds per traced function, zero when unused."""
        calls = Counter({name: 0 for name in TRACED})
        self_s = {name: 0.0 for name in TRACED}
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        counts = {f"{name}.calls": calls[name] for name in TRACED}
        for name in LAYERS["io"]:
            counts[f"io.{name}.bytes"] = self.counts[f"io.{name}.bytes"]
        counts["core.verify_edge_coloring.edges"] = self.counts["core.verify_edge_coloring.edges"]
        for method in CHI_METHODS:
            key = f"multicycle.chromatic_index.method.{method}"
            counts[key] = self.counts[key]
        for key in ("kempe.find_class1.restarts", "kempe.find_class1.budget_exhausted"):
            counts[key] = self.counts[key]
        eliminations = calls["kempe.eliminate_color"]
        counts["kempe.eliminate_color.success_ratio"] = (
            self.counts["kempe.eliminate_color.successes"] / eliminations if eliminations else 0.0)
        return counts, {f"{name}.self_s": v for name, v in self_s.items()}
