"""Queen graph edge colorings.

Four constructions cover the classification: a disjoint-color union of the
bishop and rook colorings when a dimension is even; the square-odd recoloring
that frees one color by rerouting the unique rarest bishop edge through the
rook's missing colors; the ladder-and-multicycle pipeline for odd boards whose
derived multicycle is colorable inside the rook's high colors; and the
Delta+1 union for overfull boards. A hill-climbing search (`kempe`) covers
the remaining gap heuristically.

Each construction joins the int32 edge and color arrays of its bishop and
rook colorings into one `EdgeColoring` in edge order (`_union`), with no
int64 copy of either; the few edges it recolors are found in the joined
edge list by binary search. The ladder prescription is passed
to `ladder_coloring` as a map from vertex ids to the color each must miss.
No construction verifies its own coloring: the command line verifies each
one, and the overfullness behind a class-2 claim, on the board it builds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bishop_rook import (canonical_bishop_coloring, ladder_coloring, rarest_bishop_color,
                          rook_class1_coloring)
from .chess import _check_board, build_queen, overfull_threshold, queen_delta
from .core import EdgeColoring, Graph
from .multicycle import chromatic_index, derive


class MethodInapplicableError(ValueError):
    """The ladder-and-multicycle pipeline cannot color this board."""


@dataclass(frozen=True)
class QueenColoringCertificate:
    m: int
    n: int
    coloring: EdgeColoring
    claimed_class: int
    construction: str

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "n": self.n, "class": self.claimed_class,
                           "construction": self.construction,
                           "colors": self.coloring.declared_color_count})


def _union(m: int, n: int, parts: list[EdgeColoring], declared: int,
           recolor: Sequence[tuple[tuple[int, int], int]] = ()) -> EdgeColoring:
    """The edge-disjoint colorings parts of Q_{m,n} as one coloring in edge
    order, with each (edge, color) of recolor giving that edge a new color.

    The parts' int32 ends and colours are joined as they are, and put in
    edge order by one argsort of one int64 key per edge, u·mn + v, in which
    each recolored edge is found by a binary search. An edge that no part
    colors recolors the row where it would sort instead, clamped to the last
    row, and the caller's verifier judges the result."""
    ends = np.concatenate([p.ends for p in parts])
    codes = np.multiply(ends[:, 0], m * n, dtype=np.int64)
    codes += ends[:, 1]
    order = np.argsort(codes)
    edges = np.array([e for e, _ in recolor], np.int64).reshape(-1, 2)
    keys = edges.min(axis=1) * (m * n) + edges.max(axis=1)
    rows = np.minimum(np.searchsorted(codes, keys, sorter=order), len(codes) - 1)
    del codes
    ends = ends[order]
    colors = np.concatenate([p.colors for p in parts])[order]
    colors[rows] = [c for _, c in recolor]
    return EdgeColoring.from_arrays(ends, colors, declared)


def class1_even(m: int, n: int) -> QueenColoringCertificate:
    """Bishop colors 1..Delta_B, rook colors on top; Delta(Q) colors total."""
    _check_board(m, n)
    if m % 2 == 1 and n % 2 == 1:
        raise ValueError("one dimension must be even")
    bishop = canonical_bishop_coloring(m, n)
    rook = rook_class1_coloring(m, n).shifted(bishop.declared_color_count)
    coloring = _union(m, n, [bishop, rook], queen_delta(m, n))
    return QueenColoringCertificate(m, n, coloring, 1, "EvenUnion")


def class1_square_odd(n: int) -> QueenColoringCertificate:
    """Color Q_{n,n} (n odd) with Delta = 4n-4 colors.

    The rarest bishop color, the last one, 2n-2, appears on a single edge;
    the ladder rook coloring is arranged so its top color is missing at both
    endpoints of that edge, which then takes the top color. With the rarest
    color retired, the rook colors are shifted onto 2n-2..4n-4.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("odd n >= 3 required")
    bishop = canonical_bishop_coloring(n, n)
    edge = tuple(bishop.ends[np.argmax(bishop.colors == rarest_bishop_color(n))].tolist())
    top = 2 * n - 1  # before the shift; lands on 4n-4
    rook = ladder_coloring(n, n, dict.fromkeys(edge, top)).shifted(2 * n - 3)
    coloring = _union(n, n, [bishop, rook], 4 * n - 4, recolor=[(edge, top + 2 * n - 3)])
    return QueenColoringCertificate(n, n, coloring, 1, "SquareOdd")


def class1_ladder_multicycle(m: int, n: int) -> QueenColoringCertificate:
    """Color Q_{m,n} (m, n odd) with Delta = 3m+n-4 colors.

    The rarest bishop color's edges project to the derived multicycle; a
    coloring of it with at most n-1 colors dictates, per endpoint, which high
    rook color must be missing there. The ladder coloring realizes those
    requirements, and each projected edge is recolored with its endpoints'
    common missing color.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("odd m and n required")
    if m < 3:
        raise ValueError("m >= 3 required: smaller boards have no bishop edges to reroute")
    _check_board(m, n)
    dm = derive(m, n)
    result = chromatic_index(dm.multicycle)
    if result.value > n - 1:
        raise MethodInapplicableError(
            f"derived multicycle needs {result.value} colors, only {n - 1} available")
    xi = result.coloring
    recolor = {edge: m + xi.slots[p][idx]
               for p, edges in enumerate(dm.slot_edges) for idx, edge in enumerate(edges)}
    rook = ladder_coloring(m, n, {v: high for edge, high in recolor.items() for v in edge})
    bishop = canonical_bishop_coloring(m, n).shifted(m + n - 1)
    coloring = _union(m, n, [rook, bishop], 3 * m + n - 4, recolor=list(recolor.items()))
    return QueenColoringCertificate(m, n, coloring, 1, "LadderMulticycle")


def class2_overfull_coloring(m: int, n: int) -> QueenColoringCertificate:
    """Delta+1 coloring of an overfull odd board: bishop plus ladder rook."""
    _check_board(m, n)
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("odd m and n required")
    if n < overfull_threshold(m):
        raise ValueError(f"Q_{{{m},{n}}} is not overfull; needs n >= {overfull_threshold(m)}")
    bishop = canonical_bishop_coloring(m, n)
    rook = ladder_coloring(m, n).shifted(bishop.declared_color_count)
    coloring = _union(m, n, [bishop, rook], queen_delta(m, n) + 1)
    return QueenColoringCertificate(m, n, coloring, 2, "OverfullDeltaPlusOne")


def classify_and_color(m: int, n: int, budget=None, *,
                       graph: Graph | None = None) -> QueenColoringCertificate:
    """Dispatch to the applicable construction; Kempe search covers the gap.

    The search runs with budget, SearchBudget.default() when none is given,
    on graph, the caller's build_queen(m, n) when it holds one to verify the
    result on, and otherwise on a board it builds.
    """
    _check_board(m, n)
    if m == 1 and n == 1:
        return QueenColoringCertificate(1, 1, EdgeColoring.from_arrays([], [], 0), 1, "EvenUnion")
    if m % 2 == 0 or n % 2 == 0:
        return class1_even(m, n)
    if m == n:
        return class1_square_odd(n)
    if n >= overfull_threshold(m):
        return class2_overfull_coloring(m, n)
    try:
        return class1_ladder_multicycle(m, n)
    except MethodInapplicableError:
        pass
    from .kempe import BudgetExhaustedError, SearchBudget, find_class1

    budget = budget if budget is not None else SearchBudget.default()
    outcome = find_class1(graph if graph is not None else build_queen(m, n), budget)
    if outcome.coloring is None:
        raise BudgetExhaustedError(
            f"no construction applies to Q_{{{m},{n}}} and the search gave up: {outcome.reason}")
    return QueenColoringCertificate(m, n, outcome.coloring, 1, "KempeSearch")
