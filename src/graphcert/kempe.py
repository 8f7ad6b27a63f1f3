"""Kempe-chain local search for class-1 edge colorings.

The search starts from a Delta+1 coloring, repeatedly picks the rarest color
and tries to eliminate it: each of its edges is either recolored directly
with a color missing at both endpoints, or freed up by switching a two-color
chain chosen by score. Deterministic for a fixed (graph, budget, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .core import (CertificateError, ColorState, EdgeColoring, Graph, is_overfull, lowest_bit,
                   max_degree, verify_edge_coloring, vizing_delta_plus_one)


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


def _missing_after_swap(state: ColorState, full: int, v: int,
                        ends: tuple[int, int] | None, a: int, b: int) -> int:
    """Bitmask of the colours in full absent at v once the (a,b)-chain with
    these path ends (None for a cycle) is swapped.

    Every inner chain vertex keeps one a-edge and one b-edge, so only a
    path end trades a for b or b for a; a closed cycle changes no vertex.
    """
    present = state.present[v]
    if ends is not None and v in ends:
        present ^= (1 << a) | (1 << b)
    return full & ~present


def kempe_switch(coloring: EdgeColoring, g: Graph, start: int, a: int, b: int) -> EdgeColoring:
    """Swap colors a and b along the maximal (a,b)-component through start."""
    if a == b:
        raise ValueError("need two distinct colors")
    state = ColorState.of(g.vertex_count, coloring)
    chain, _ = state.chain_edges(start, a, b)
    state.swap(chain, a, b)
    result = state.snapshot(coloring.assignment, coloring.declared_color_count)
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

    A chain is scored without changing the state, and without collecting
    its edges: a counting walk gives its length, its number of target edges
    t and its ends, and the edge set is built only for the winning chain.

    - Counting rule. Every candidate is either (w, target, c) anchored at u
      or v, or a pair of two non-target colours. The first kind runs
      through w's target edge, (u, v); the second cannot contain it. So
      (u, v) is on the chain exactly when target is one of its two colours,
      and then the target class changes by drop = 2·t − length.
    - Endpoint rule. Swapping an (a,b)-chain changes the colors present only
      at the two ends of a path, where a and b trade places; a closed cycle
      changes none. A chain off (u, v) leaves it the target colour, so
      whether the switch frees a color for (u, v) follows from the color
      masks of u and v.
    - Shared-chain rule. (u, v) has the target color, so the candidates
      (u, target, c) and (v, target, c) lie on one component. It is walked
      once per round and scored for both anchors.
    """
    report = verify_edge_coloring(g, coloring)
    if not report.ok:
        raise ValueError(f"input coloring is not proper/total: {report.detail}")
    declared = coloring.declared_color_count
    state = ColorState.of(g.vertex_count, coloring)
    present, target_class = state.present, state.by_color[target]
    full = (1 << (declared + 1)) - 2  # bits 1..declared
    rng = random.Random(budget.seed)
    not_target = full & ~(1 << target)
    switches = 0
    while True:
        targets = sorted(target_class)
        if not targets:
            return state.snapshot(coloring.assignment, declared).normalized()
        progress = False
        for e in targets:
            u, v = e
            common = not_target & ~(present[u] | present[v])
            if common:
                state.recolor(e, lowest_bit(common))
                progress = True
        if progress:
            continue
        if switches >= budget.max_switches:
            return None
        u, v = targets[rng.randrange(len(targets))]
        # Candidate switches anchored at u or v: target-colored chains can move
        # or shrink the target class; missing-pair chains can open a direct
        # recoloring of (u,v).
        candidates: set[tuple[int, int, int]] = set()
        for w, other in ((u, v), (v, u)):
            for c in range(1, declared + 1):
                if c != target:
                    candidates.add((w, target, c))
            for acol in _bits(not_target & ~present[w]):
                for bcol in _bits(not_target & ~present[other] & ~(1 << acol)):
                    candidates.add((other, acol, bcol))
        # Scores of the target chains, by their second color (shared-chain rule).
        target_scores: dict[int, int] = {}
        best: tuple[tuple[int, float], int, int, int] | None = None
        for anchor, acol, bcol in sorted(candidates):
            if acol == target and bcol in target_scores:
                score = target_scores[bcol]
            else:
                length, t, ends = state.chain_counts(anchor, acol, bcol)
                if not length:
                    continue
                if acol == target:  # counting rule: (u, v) is on the chain
                    score = target_scores[bcol] = (2 * t - length) * 1000 - length
                else:  # endpoint rule
                    freed = (_missing_after_swap(state, not_target, u, ends, acol, bcol)
                             & _missing_after_swap(state, not_target, v, ends, acol, bcol))
                    score = (1000 if freed else 0) - length
            key = (score, rng.random())
            if best is None or key > best[0]:
                best = (key, anchor, acol, bcol)
        if best is None:
            return None
        _, anchor, acol, bcol = best
        chain, _ = state.chain_edges(anchor, acol, bcol)
        state.swap(chain, acol, bcol)
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
