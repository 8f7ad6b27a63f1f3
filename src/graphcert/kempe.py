"""Kempe-chain local search for class-1 edge colorings.

The search starts from a Delta+1 coloring, repeatedly picks the rarest color
and tries to eliminate it: each of its edges is either recolored directly
with a color missing at both endpoints, or freed up by switching a two-color
chain chosen by score. Deterministic for a fixed (graph, budget, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (CertificateError, EdgeColoring, Graph, is_overfull, lowest_bit, max_degree,
                   verify_edge_coloring, vizing_delta_plus_one)


class BudgetExhaustedError(RuntimeError):
    """The search ran out of switches or restarts without a certificate."""


@dataclass(frozen=True)
class SearchBudget:
    max_switches: int
    max_restarts: int
    seed: int

    def __post_init__(self) -> None:
        if self.max_switches < 1 or self.max_restarts < 1:
            raise ValueError("budget limits must be positive")

    @staticmethod
    def default(seed: int = 0) -> "SearchBudget":
        return SearchBudget(max_switches=3000, max_restarts=20, seed=seed)


@dataclass(frozen=True)
class SearchOutcome:
    coloring: EdgeColoring | None
    reason: str  # "ok" | "overfull" | "budget"
    restarts_used: int


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Work:
    """Mutable coloring state kept incremental under recolor and swap.

    Besides edge -> color and per-vertex color -> neighbor, it keeps each
    color's edge set and a per-vertex bitmask of the colors present there
    (bit c for color c), so the rarest class and the missing colors cost no
    scan over the graph.
    """

    def __init__(self, g: Graph, coloring: EdgeColoring):
        self.declared = coloring.declared_color_count
        self.full = (1 << (self.declared + 1)) - 2  # bits 1..declared
        self.colors: dict[tuple[int, int], int] = dict(coloring.assignment)
        self.at: list[dict[int, int]] = [dict() for _ in range(g.vertex_count)]
        self.present = [0] * g.vertex_count
        self.by_color: list[set[tuple[int, int]]] = [set() for _ in range(self.declared + 1)]
        for e, c in self.colors.items():
            u, v = e
            self.at[u][c] = v
            self.at[v][c] = u
            self.present[u] |= 1 << c
            self.present[v] |= 1 << c
            self.by_color[c].add(e)

    def missing(self, v: int) -> int:
        """Bitmask of the declared colors absent at v."""
        return self.full & ~self.present[v]

    def missing_after_swap(self, v: int, ends: tuple[int, int] | None, a: int, b: int) -> int:
        """missing(v) once the (a,b)-chain with these path ends is swapped.

        Every inner chain vertex keeps one a-edge and one b-edge, so only a
        path end trades a for b or b for a; a closed cycle (ends None)
        changes no vertex.
        """
        present = self.present[v]
        if ends is not None and v in ends:
            present ^= (1 << a) | (1 << b)
        return self.full & ~present

    def recolor(self, e: tuple[int, int], c: int) -> None:
        u, v = e
        old = self.colors[e]
        del self.at[u][old]
        del self.at[v][old]
        flip = (1 << old) | (1 << c)
        self.present[u] ^= flip
        self.present[v] ^= flip
        self.by_color[old].remove(e)
        self.by_color[c].add(e)
        self.colors[e] = c
        self.at[u][c] = v
        self.at[v][c] = u

    def chain_edges(self, start: int, a: int, b: int
                    ) -> tuple[set[tuple[int, int]], tuple[int, int] | None]:
        """Maximal (a,b)-alternating component through start: a path or a cycle.

        Returns its edge set and the two end vertices of a path, or None for
        a closed cycle (and for an empty chain).
        """
        at = self.at
        seen: set[tuple[int, int]] = set()
        cur, col = start, a
        while col in at[cur]:
            nxt = at[cur][col]
            e = (cur, nxt) if cur < nxt else (nxt, cur)
            if e in seen:
                break
            seen.add(e)
            cur, col = nxt, (b if col == a else a)
            if cur == start:
                return seen, None
        first_end = cur
        cur, col = start, b
        while col in at[cur]:
            nxt = at[cur][col]
            e = (cur, nxt) if cur < nxt else (nxt, cur)
            if e in seen:
                break
            seen.add(e)
            cur, col = nxt, (a if col == b else b)
        return seen, ((first_end, cur) if seen else None)

    def swap(self, chain: Iterable[tuple[int, int]], a: int, b: int) -> None:
        # Two passes: transient duplicates would corrupt the at-maps otherwise.
        # Each vertex's mask flips once per chain edge at it, so inner vertices
        # (one a-edge, one b-edge) end unchanged and path ends trade a for b.
        flip = (1 << a) | (1 << b)
        for e in chain:
            u, v = e
            old = self.colors[e]
            del self.at[u][old]
            del self.at[v][old]
            self.present[u] ^= flip
            self.present[v] ^= flip
            self.by_color[old].remove(e)
        for e in chain:
            u, v = e
            new = b if self.colors[e] == a else a
            self.colors[e] = new
            self.at[u][new] = v
            self.at[v][new] = u
            self.by_color[new].add(e)

    def snapshot(self) -> EdgeColoring:
        return EdgeColoring(dict(self.colors), self.declared)


def kempe_switch(coloring: EdgeColoring, g: Graph, start: int, a: int, b: int) -> EdgeColoring:
    """Swap colors a and b along the maximal (a,b)-component through start."""
    if a == b:
        raise ValueError("need two distinct colors")
    work = _Work(g, coloring)
    chain, _ = work.chain_edges(start, a, b)
    work.swap(chain, a, b)
    result = work.snapshot()
    report = verify_edge_coloring(g, result)
    if not report.ok:
        raise CertificateError(f"switch broke properness: {report.detail}")
    return result


def eliminate_color(g: Graph, coloring: EdgeColoring, target: int,
                    budget: SearchBudget) -> EdgeColoring | None:
    """Drive the target color's usage to zero within the switch budget.

    Each round recolors every target edge that has a color missing at both
    ends (the lowest such color). When no edge can be recolored, it picks a
    random target edge (u, v), scores candidate Kempe chains anchored at u
    or v, and switches the best one.

    A chain is scored without changing the state:

    - Endpoint rule. Swapping an (a,b)-chain changes the colors present only
      at the two ends of a path, where a and b trade places; a closed cycle
      changes none. (u, v) keeps the target color exactly when it is not on
      the chain. So whether the switch frees a color for (u, v) follows from
      the color masks of u and v.
    - Shared-chain rule. (u, v) has the target color, so the candidates
      (u, target, c) and (v, target, c) lie on one component. It is walked
      once per round and scored for both anchors.
    """
    report = verify_edge_coloring(g, coloring)
    if not report.ok:
        raise ValueError(f"input coloring is not proper/total: {report.detail}")
    work = _Work(g, coloring)
    rng = random.Random(budget.seed)
    not_target = ~(1 << target)
    switches = 0
    while True:
        targets = sorted(work.by_color[target])
        if not targets:
            return work.snapshot().normalized()
        progress = False
        for e in targets:
            u, v = e
            common = work.missing(u) & work.missing(v) & not_target
            if common:
                work.recolor(e, lowest_bit(common))
                progress = True
        if progress:
            continue
        if switches >= budget.max_switches:
            return None
        e_uv = targets[rng.randrange(len(targets))]
        u, v = e_uv
        # Candidate switches anchored at u or v: target-colored chains can move
        # or shrink the target class; missing-pair chains can open a direct
        # recoloring of (u,v).
        candidates: set[tuple[int, int, int]] = set()
        for w, other in ((u, v), (v, u)):
            for c in range(1, work.declared + 1):
                if c != target:
                    candidates.add((w, target, c))
            for acol in _bits(work.missing(w) & not_target):
                for bcol in _bits(work.missing(other) & not_target & ~(1 << acol)):
                    candidates.add((other, acol, bcol))
        # Scores of the target chains, by their second color (shared-chain rule).
        target_scores: dict[int, tuple[int, set[tuple[int, int]]]] = {}
        best: tuple[tuple[int, float], set[tuple[int, int]], int, int] | None = None
        for anchor, acol, bcol in sorted(candidates):
            if acol == target and bcol in target_scores:
                score, chain = target_scores[bcol]
            else:
                chain, ends = work.chain_edges(anchor, acol, bcol)
                if not chain:
                    continue
                drop = 0
                if target in (acol, bcol):
                    drop = 2 * len(chain & work.by_color[target]) - len(chain)
                freed = (work.missing_after_swap(u, ends, acol, bcol)
                         & work.missing_after_swap(v, ends, acol, bcol) & not_target)
                if freed and e_uv not in chain:
                    drop += 1
                score = drop * 1000 - len(chain)
                if acol == target:
                    target_scores[bcol] = (score, chain)
            key = (score, rng.random())
            if best is None or key > best[0]:
                best = (key, chain, acol, bcol)
        if best is None:
            return None
        _, chain, acol, bcol = best
        work.swap(chain, acol, bcol)
        switches += 1


def find_class1(g: Graph, budget: SearchBudget,
                warm_start: EdgeColoring | None = None) -> SearchOutcome:
    """Search for a Delta-color certificate; None with a reason otherwise."""
    if g.edge_count == 0:
        return SearchOutcome(EdgeColoring({}, 0), "ok", 0)
    if is_overfull(g):
        return SearchOutcome(None, "overfull", 0)
    delta = max_degree(g)
    if warm_start is not None and not verify_edge_coloring(g, warm_start).ok:
        raise ValueError("warm start is not a proper total coloring")
    for r in range(budget.max_restarts):
        sub_seed = budget.seed * 1_000_003 + r
        if r == 0 and warm_start is not None:
            current = warm_start
        else:
            order = sorted(g.edges)
            random.Random(sub_seed).shuffle(order)
            current = vizing_delta_plus_one(g, order)
        while len(current.colors_used) > delta:
            counts = current.color_counts()
            target = min(counts, key=lambda c: (counts[c], c))
            sub_budget = SearchBudget(budget.max_switches, budget.max_restarts, sub_seed)
            nxt = eliminate_color(g, current, target, sub_budget)
            if nxt is None:
                break
            current = nxt
        if len(current.colors_used) <= delta:
            final = current.normalized()
            report = verify_edge_coloring(g, final)
            if not report.ok:
                raise CertificateError(f"search result is not proper: {report.detail}")
            return SearchOutcome(final, "ok", r + 1)
    return SearchOutcome(None, "budget", budget.max_restarts)


@dataclass(frozen=True)
class CriticalityReport:
    critical: bool
    failures: tuple[tuple[int, int], ...]   # search gave up: inconclusive
    disproved: tuple[tuple[int, int], ...]  # removal stays overfull: conclusive


def edge_critical_check(g: Graph, budget: SearchBudget) -> CriticalityReport:
    """Does every single-edge removal drop the chromatic index below Delta+1?

    Edges whose removal lowers Delta are certified by the Delta+1 bound and
    skipped. Overfull removals are conclusive counterexamples; budget
    exhaustion is recorded separately as inconclusive.
    """
    delta = max_degree(g)
    failures: list[tuple[int, int]] = []
    disproved: list[tuple[int, int]] = []
    for e in sorted(g.edges):
        sub = g.without_edge(*e)
        if max_degree(sub) < delta:
            continue
        outcome = find_class1(sub, budget)
        if outcome.coloring is None:
            (disproved if outcome.reason == "overfull" else failures).append(e)
    return CriticalityReport(critical=not failures and not disproved,
                             failures=tuple(failures), disproved=tuple(disproved))
