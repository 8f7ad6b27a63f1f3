"""Hill-climbing search for class-1 edge colorings.

The search starts from a Delta+1 coloring and drops its smallest colour
class until Delta classes are left. Each drop is the hill-climb of Dinitz
and Stinson ("A hill-climbing algorithm for the construction of
one-factorizations and Room squares", 1987): the class is uncoloured, and
each step colours one uncoloured edge (u, v) with a colour c missing at u,
uncolouring v's c-edge when v has one. The number of uncoloured edges never
rises, and it falls whenever v misses c too. Deterministic for a fixed
(graph, budget, seed).

Each restart works on one ColorState: Vizing fills it, every elimination
edits it in place, and the certificate is read out of it once, in the rows
of g.pairs with its colours relabelled 1..k. Colours are never relabelled
before that read-out. Relabelling keeps their relative order, and a walk
draws colours by their rank among those missing at u, so every draw is the
one a search that relabelled after each elimination would make. Each
elimination therefore runs over the palette such a search would see: at the
start of a restart all the declared colours, unused ones included, and
after that exactly the colours whose classes are non-empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (CertificateError, ColorState, EdgeColoring, Graph, is_overfull,
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
        # at seeds 0-4 no gap board with m <= 5 took more than 140,000 switches
        # (Q(5,69)); a start that stalls is cut here and the next one begins
        return SearchBudget(max_switches=200_000, max_restarts=20, seed=seed)


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


def eliminate_color(state: ColorState, palette: int, target: int,
                    budget: SearchBudget) -> ColorState | None:
    """Empty the target class by the hill-climb, within budget.max_switches.

    Edits state in place and returns it once every edge of the target class
    has a colour of palette other than target. state must hold a proper
    total colouring, as Vizing and every elimination leave it; it is not
    checked here. palette is the bitmask of the colours the search may use,
    target among them.

    The target class is uncoloured into the list U, in sorted order. Each
    step draws an edge of U, orients it (u, v) at random and draws a colour
    c of palette, bar target, missing at u. If v misses c too, (u, v) takes
    c and leaves U (the last edge of U takes its slot). Otherwise v's c-edge
    (v, w) is uncoloured and takes (u, v)'s slot in U, and (u, v) takes c:
    one switch. Returns None, leaving state proper but partial, once the
    switches reach budget.max_switches or when u misses no colour, which
    happens only when palette holds at most Delta colours.
    """
    at, present = state.at, state.present
    bit = 1 << target
    free = palette & ~bit
    uncoloured = state.class_edges(target)
    for u, v in uncoloured:
        at[u][target] = at[v][target] = None
        present[u] ^= bit
        present[v] ^= bit
    rng = random.Random(budget.seed)
    switches = 0
    while uncoloured:
        if switches >= budget.max_switches:
            return None
        i = rng.randrange(len(uncoloured))
        u, v = uncoloured[i]
        if rng.getrandbits(1):
            u, v = v, u
        missing = list(_bits(free & ~present[u]))
        if not missing:
            return None
        c = missing[rng.randrange(len(missing))]
        w = at[v][c]
        if w is None:
            uncoloured[i] = uncoloured[-1]
            uncoloured.pop()
            present[v] |= 1 << c
        else:
            at[w][c] = None
            present[w] ^= 1 << c
            uncoloured[i] = (v, w)
            switches += 1
        at[u][c] = v
        at[v][c] = u
        present[u] |= 1 << c
    return state


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
