"""Kempe-chain local search for class-1 edge colorings.

The search starts from a Delta+1 coloring, repeatedly picks the rarest color
and tries to eliminate it: each of its edges is either recolored directly
with a color missing at both endpoints, or freed up by switching a two-color
chain chosen by score. Deterministic for a fixed (graph, budget, seed).

Each restart works on one ColorState, which holds the colouring as at and
present only: Vizing fills it, every elimination edits it in place, and the
certificate is read out of it once, in the rows of g.pairs with its colours
relabelled 1..k. A switch walks its chain into steps (_component) and
inverts them; a recolouring names the target colour it replaces. The class
sizes behind the choice of target and the non-empty classes are read from
the state when needed, and an elimination keeps its own set of target edges.

Scoring is most of the work. Most target chains are (u, v) and a c-edge or
two whose far ends miss the target, scored in closed form; the rest, and
every pair chain, are counted by one inline walk. Only the winning move is
built as a triple and walked into steps.

Colours are never relabelled between the Vizing start and the read-out.
Relabelling keeps their relative order, so the lowest-colour and sorted-move choices, and with them every
switch and random draw, are those of a search that relabelled them after
each elimination. Each elimination therefore runs over the palette such a
search would see: at the start of a restart all the declared colours,
unused ones included, and after that exactly the colours whose classes are
non-empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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


def _component(state: ColorState, start: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """The steps of the maximal (a,b)-component through start, end to end.

    A cycle is the walk that leaves start on a and closes there. A path is
    that walk reversed, joined to the walk that leaves start on b, so it
    runs from the end reached by leaving start on a to the other, and
    ColorState.invert flips the masks of exactly those two ends.
    """
    out = state.walk(start, a, b)
    if out and out[-1][1] == start:
        return out
    return [(y, x, c) for x, y, c in reversed(out)] + state.walk(start, b, a)


def _recolor_free(state: ColorState, edges: list[tuple[int, int]], target: int,
                  not_target: int, target_class: set[tuple[int, int]]) -> None:
    """Give each of these target edges the lowest colour of not_target free at
    both its ends, where there is one, and drop it from target_class."""
    present = state.present
    for e in edges:
        u, v = e
        common = not_target & ~(present[u] | present[v])
        if common:
            state.recolor(u, v, target, lowest_bit(common))
            target_class.discard(e)


def _touched_targets(state: ColorState, steps: list[tuple[int, int, int]],
                     a: int, b: int, target: int) -> list[tuple[int, int]]:
    """The target edges that may have a free common colour once the (a,b)-chain
    of these steps, each with its colour before the switch, was swapped.

    Only the ends of a path change their masks. When target is a or b, a
    target edge at a path end lies on the chain, so the candidates are the
    chain edges that now have the target colour; otherwise the chain has no
    target edge and they are the target edges at the two ends.
    """
    if target == a or target == b:
        return [(x, y) if x < y else (y, x) for x, y, col in steps if col != target]
    touched: list[tuple[int, int]] = []
    if steps and steps[0][0] != steps[-1][1]:  # a path, not a cycle
        at = state.at
        for x in (steps[0][0], steps[-1][1]):
            y = at[x][target]
            if y is not None:
                e = (x, y) if x < y else (y, x)
                if e not in touched:  # both ends of one target edge
                    touched.append(e)
    return touched


def _scored_moves(state: ColorState, u: int, v: int, target: int, not_target: int,
                  others: list[int]) -> tuple[list[int], list[int]]:
    """The candidate switches for the target edge (u, v), u < v, with their scores.

    A move (anchor, a, b) swaps the (a,b)-chain through anchor, and is listed
    as the int (anchor·k + a)·k + b, k = state.colors + 1 (see _move). The
    moves are anchored at u or v and listed in sorted order, (anchor, a, b)
    ascending; an empty chain is left out. The target moves (w, target, c)
    run through (u, v) and can move or shrink the target class; a pair move
    (x, a, b), with a missing at the other end of (u, v) and b missing at x,
    can open a direct recoloring of (u, v). Each kind is listed once per
    anchor, so no move repeats and the order needs no sort. A pair chain is
    a path from x, which misses b, so one walk from x counts it and finds
    its other end.
    """
    at, present = state.at, state.present
    at_u, at_v = at[u], at[v]
    k = state.colors + 1
    target_scores = []
    for c in others:  # shared-chain rule: one count per c serves both anchors
        x, y = at_u[c], at_v[c]
        if (x is None or at[x][target] is None) and (y is None or at[y][target] is None):
            length = 1 + (x is not None) + (y is not None)
            t = 1
        else:  # walk from u across (u, v) and, unless that closes a cycle, from u on c
            length = t = 0
            for cur, col, other in ((u, target, c), (u, c, target)):
                while (nxt := at[cur][col]) is not None:
                    length += 1
                    t += col == target
                    if nxt == u:
                        break
                    cur, col, other = nxt, other, col
                if nxt == u:
                    break
        target_scores.append((2 * t - length) * 1000 - length)  # counting rule
    moves: list[int] = []
    scores: list[int] = []
    for x, y in ((u, v), (v, u)):
        # the target moves sit between the pair moves with a below and above target
        for a in _bits((not_target & ~present[y]) | (1 << target)):
            if a == target:
                moves.extend(map(((x * k + target) * k).__add__, others))
                scores.extend(target_scores)
                continue
            for b in _bits(not_target & ~present[x] & ~(1 << a)):
                length, cur, col, other = 0, x, a, b
                while (nxt := at[cur][col]) is not None:
                    length += 1
                    cur, col, other = nxt, other, col
                if length:  # endpoint rule: x and cur trade a for b
                    flip = (1 << a) | (1 << b)
                    freed = not_target & ~(present[x] ^ flip) & ~(
                        present[y] ^ flip if cur == y else present[y])
                    moves.append((x * k + a) * k + b)
                    scores.append((1000 if freed else 0) - length)
    return moves, scores


def _move(code: int, k: int) -> tuple[int, int, int]:
    """The move (anchor, a, b) that _scored_moves lists as (anchor·k + a)·k + b."""
    anchor, ab = divmod(code, k * k)
    return (anchor, *divmod(ab, k))


def eliminate_color(state: ColorState, palette: int, target: int,
                    budget: SearchBudget) -> ColorState | None:
    """Drive the target color's usage to zero within the switch budget.

    Edits state in place and returns it once the target class is empty, or
    returns None when the switch budget runs out first (or no switch
    applies), leaving state proper with the target class not yet empty.
    state must hold a proper total coloring, as Vizing and every
    elimination leave it; it is not checked here. palette is the
    bitmask of the colours the search may use, target among them; no edge
    is given a colour outside it.

    Each round recolors every target edge that has a color missing at both
    ends (the lowest such color). When no edge can be recolored, it picks a
    random target edge (u, v), scores candidate Kempe chains anchored at u
    or v, and switches the best one.

    - Rescan rule. Every vertex has at most one target edge, and recoloring
      an edge changes the masks of its two ends only, so recoloring one
      target edge never changes whether another has a free common color.
      The whole target class is read from the state once, at the start,
      into a set that each recolouring and each switch then updates. After
      a switch only the edges it touched are rechecked (see
      _touched_targets): the chain edges that now have the target color and
      the target edges at the chain's two path ends. Every other target
      edge keeps both masks, and had no free common color before the switch.

    A chain is scored without changing the state, and without collecting
    its edges: its length, its number of target edges t and its ends are
    counted, and the steps are walked only for the winning chain.

    - Counting rule. Every candidate is either (w, target, c) anchored at u
      or v, or a pair of two non-target colours. The first kind runs
      through w's target edge, (u, v); the second cannot contain it. So
      (u, v) is on the chain exactly when target is one of its two colours,
      and then the target class changes by drop = 2·t − length. Where
      neither c-neighbour of (u, v) has a target edge, the chain is (u, v)
      and the c-edges at its ends: length 1 plus the c-edges present, and
      t = 1, with no walk.
    - Endpoint rule. Swapping an (a,b)-chain changes the colors present only
      at the two ends of a path, where a and b trade places; a closed cycle
      changes none. A chain off (u, v) leaves it the target colour, so
      whether the switch frees a color for (u, v) follows from the color
      masks of u and v.
    - Shared-chain rule. (u, v) has the target color, so the candidates
      (u, target, c) and (v, target, c) lie on one component. It is
      counted once per round and scored for both anchors.
    - Draw rule. Scoring draws no random numbers. So every candidate of a
      round is scored first (see _scored_moves), then each non-empty one
      draws once, in sorted candidate order. The highest draw among the top
      scores wins, and the earliest candidate on a tie.
    """
    target_class = set(state.class_edges(target))
    rng = random.Random(budget.seed)
    draw = rng.random
    not_target = palette & ~(1 << target)
    others = list(_bits(not_target))
    switches = 0
    recheck = list(target_class)
    while True:
        _recolor_free(state, recheck, target, not_target, target_class)
        if not target_class:
            return state
        if switches >= budget.max_switches:
            return None
        targets = sorted(target_class)
        u, v = targets[rng.randrange(len(targets))]
        moves, scores = _scored_moves(state, u, v, target, not_target, others)
        if not scores:
            return None
        top, best = max(scores), -1.0
        for i, score in enumerate(scores):  # draw rule
            d = draw()
            if score == top and d > best:
                best, win = d, i
        anchor, acol, bcol = _move(moves[win], state.colors + 1)
        steps = _component(state, anchor, acol, bcol)
        state.invert(steps, acol, bcol)
        recheck = _touched_targets(state, steps, acol, bcol, target)
        if target == acol or target == bcol:
            # the chain's target edges took the other colour, and its other edges the target
            target_class.symmetric_difference_update(
                (x, y) if x < y else (y, x) for x, y, _ in steps)
        switches += 1


def find_class1(g: Graph, budget: SearchBudget,
                warm_start: EdgeColoring | None = None) -> SearchOutcome:
    """Search for a Delta-color certificate; None with a reason otherwise.

    Each restart runs on one ColorState, with the palettes the module
    docstring gives: a Vizing start from a shuffled edge order or, on the
    first restart, the warm start loaded once. While more than Delta
    classes are non-empty it eliminates the smallest, the lowest colour on
    a tie.

    A warm start comes from outside the search (a file, for the CLI), so it is
    verified first, and one that fails raises CertificateError: a
    precondition of the search. The result is not: the caller verifies it
    once.
    """
    if g.edge_count == 0:
        return SearchOutcome(EdgeColoring.from_arrays([], [], 0), "ok", 0)
    if is_overfull(g):
        return SearchOutcome(None, "overfull", 0)
    delta = max_degree(g)
    if warm_start is not None:
        report = verify_edge_coloring(g, warm_start)
        if not report.ok:
            raise CertificateError(f"warm start is not a proper total coloring: "
                                   f"{'; '.join(report.detail)}")
    edges = list(zip(*g.pairs.T.tolist()))  # the sorted edges
    for r in range(budget.max_restarts):
        sub_seed = budget.seed * 1_000_003 + r
        if r == 0 and warm_start is not None:
            state = ColorState.of(g.vertex_count, warm_start)
        else:
            order = edges.copy()
            random.Random(sub_seed).shuffle(order)
            state = vizing_delta_plus_one(g, order)
        sub_budget = SearchBudget(budget.max_switches, budget.max_restarts, sub_seed)
        palette = (1 << (state.colors + 1)) - 2  # the declared colours 1..state.colors
        used = state.used()
        while used.bit_count() > delta:
            # the smallest class is the colour missing at the most vertices,
            # counted in one pass over present; the lowest colour on a tie
            missing = [0] * (state.colors + 1)
            for p in state.present:
                for c in _bits(used & ~p):
                    missing[c] += 1
            target = max(_bits(used), key=missing.__getitem__)
            if eliminate_color(state, palette, target, sub_budget) is None:
                break
            palette = used = state.used()
        else:
            return SearchOutcome(state.coloring(g.pairs), "ok", r + 1)
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
    exhaustion is recorded separately as inconclusive. Every colouring the
    search finds is verified before it counts, and a failure raises
    CertificateError.
    """
    delta = max_degree(g)
    failures: list[tuple[int, int]] = []
    disproved: list[tuple[int, int]] = []
    for i, e in enumerate(zip(*g.pairs.T.tolist())):
        sub = Graph.from_array(g.vertex_count, np.delete(g.pairs, i, 0))
        if max_degree(sub) < delta:
            continue
        outcome = find_class1(sub, budget)
        if outcome.coloring is None:
            (disproved if outcome.reason == "overfull" else failures).append(e)
            continue
        report = verify_edge_coloring(sub, outcome.coloring)
        if not report.ok:
            raise CertificateError(f"coloring without edge {e} is not proper: {report.detail}")
    return CriticalityReport(critical=not failures and not disproved,
                             failures=tuple(failures), disproved=tuple(disproved))
