"""Queen graph edge colorings.

Four constructions cover the classification: a disjoint-color union of the
bishop and rook colorings when a dimension is even; the square-odd recoloring
that frees one color by rerouting the unique rarest bishop edge through the
rook's missing colors; the ladder-and-multicycle pipeline for odd boards whose
derived multicycle is colorable inside the rook's high colors; and the
Delta+1 union for overfull boards. A hill-climbing search (`kempe`) covers
the remaining gap heuristically.

Each construction colors the rows of the board it is given, `g.pairs`, with
no second edge list: each row takes its color from its geometry, and the
few edges it recolors are found with `g.edge_index` (`_board_coloring`).
No construction verifies its own coloring: the command line verifies each
one, and the overfullness behind a class-2 claim, on the board it builds
and hands to the construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bishop_rook import _board_colors, _ladder_tables, _rook_class1_tables, rarest_color_edges
from .chess import _check_board, bishop_delta, build_queen, overfull_threshold, queen_delta
from .core import CertificateError, EdgeColoring, Graph
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


def _board_coloring(g: Graph | None, m: int, n: int, rook: tuple[np.ndarray, np.ndarray],
                    rook_offset: int, bishop_offset: int, declared: int,
                    recolor: Sequence[tuple[tuple[int, int], int]] = ()) -> EdgeColoring:
    """The coloring of the rows of g.pairs, g the board Q_{m,n} (built here
    when None), in which each row takes its colour from its geometry
    (`bishop_rook._board_colors`) and then each (edge, color) of recolor
    gives that edge a new colour; an edge not on the board raises
    CertificateError. The colouring's ends are g.pairs itself."""
    g = g if g is not None else build_queen(m, n)
    colors = _board_colors(g.pairs, m, n, rook, rook_offset, bishop_offset)
    if recolor:
        edges = np.array([e for e, _ in recolor], np.int64).reshape(-1, 2)
        at = g.edge_index(edges[:, 0], edges[:, 1])
        if (at < 0).any():
            raise CertificateError(f"rerouted edge {tuple(edges[np.argmax(at < 0)].tolist())} "
                                   f"is not on Q_{m},{n}")
        colors[at] = [c for _, c in recolor]
    return EdgeColoring._of_rows(g.pairs, colors, declared)


def class1_even(m: int, n: int, *, graph: Graph | None = None) -> QueenColoringCertificate:
    """Bishop colors 1..Delta_B, rook colors on top; Delta(Q) colors total."""
    _check_board(m, n)
    if m % 2 == 1 and n % 2 == 1:
        raise ValueError("one dimension must be even")
    coloring = _board_coloring(graph, m, n, _rook_class1_tables(m, n), bishop_delta(m, n), 0,
                               queen_delta(m, n))
    return QueenColoringCertificate(m, n, coloring, 1, "EvenUnion")


def class1_square_odd(n: int, *, graph: Graph | None = None) -> QueenColoringCertificate:
    """Color Q_{n,n} (n odd) with Delta = 4n-4 colors.

    The rarest bishop color, the last one, 2n-2, appears on a single edge;
    the ladder rook coloring is arranged so its top color is missing at both
    endpoints of that edge, which then takes the top color. With the rarest
    color retired, the rook colors are shifted onto 2n-2..4n-4.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("odd n >= 3 required")
    edge = rarest_color_edges(n, n)[0]
    top = 2 * n - 1  # before the shift; lands on 4n-4
    rook = _ladder_tables(n, n, dict.fromkeys(edge, top))
    coloring = _board_coloring(graph, n, n, rook, 2 * n - 3, 0, 4 * n - 4,
                               recolor=[(edge, top + 2 * n - 3)])
    return QueenColoringCertificate(n, n, coloring, 1, "SquareOdd")


def class1_ladder_multicycle(m: int, n: int, *,
                             graph: Graph | None = None) -> QueenColoringCertificate:
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
    rook = _ladder_tables(m, n, {v: high for edge, high in recolor.items() for v in edge})
    coloring = _board_coloring(graph, m, n, rook, 0, m + n - 1, 3 * m + n - 4,
                               recolor=list(recolor.items()))
    return QueenColoringCertificate(m, n, coloring, 1, "LadderMulticycle")


def class2_overfull_coloring(m: int, n: int, *,
                             graph: Graph | None = None) -> QueenColoringCertificate:
    """Delta+1 coloring of an overfull odd board: bishop plus ladder rook."""
    _check_board(m, n)
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("odd m and n required")
    if n < overfull_threshold(m):
        raise ValueError(f"Q_{{{m},{n}}} is not overfull; needs n >= {overfull_threshold(m)}")
    coloring = _board_coloring(graph, m, n, _ladder_tables(m, n), bishop_delta(m, n), 0,
                               queen_delta(m, n) + 1)
    return QueenColoringCertificate(m, n, coloring, 2, "OverfullDeltaPlusOne")


def classify_and_color(m: int, n: int, budget=None, *,
                       graph: Graph | None = None) -> QueenColoringCertificate:
    """Dispatch to the applicable construction; Kempe search covers the gap.

    Each construction colours graph, and the search runs on it with budget
    (SearchBudget.default() when none is given): the caller's
    build_queen(m, n) when it holds one to verify the result on, or else a
    board built here.
    """
    _check_board(m, n)
    if m == 1 and n == 1:
        return QueenColoringCertificate(1, 1, EdgeColoring.from_arrays([], [], 0), 1, "EvenUnion")
    if m % 2 == 0 or n % 2 == 0:
        return class1_even(m, n, graph=graph)
    if m == n:
        return class1_square_odd(n, graph=graph)
    if n >= overfull_threshold(m):
        return class2_overfull_coloring(m, n, graph=graph)
    try:
        return class1_ladder_multicycle(m, n, graph=graph)
    except MethodInapplicableError:
        pass
    from .kempe import BudgetExhaustedError, SearchBudget, find_class1

    budget = budget if budget is not None else SearchBudget.default()
    outcome = find_class1(graph if graph is not None else build_queen(m, n), budget)
    if outcome.coloring is None:
        raise BudgetExhaustedError(
            f"no construction applies to Q_{{{m},{n}}} and the search gave up: {outcome.reason}")
    return QueenColoringCertificate(m, n, outcome.coloring, 1, "KempeSearch")
