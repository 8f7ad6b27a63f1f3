"""Rook, bishop and queen graphs on an m x n board, with closed-form counts.

Boards have m rows and n columns with m <= n. A square is addressed by
(col, row), both 1-based; col runs 1..n and row runs 1..m. Vertex ids are
row-major: id = (row-1)*n + (col-1), so the 1-based file id is (row-1)*n + col.
The lower-left square (1,1) is white, and a square is white iff col+row is
even. Rook, bishop and queen generators share this numbering, so the queen
edge set is exactly the union of the rook and bishop edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Graph


@dataclass(frozen=True)
class BoardCoord:
    """A board square; col 1..n, row 1..m."""

    col: int
    row: int

    @property
    def white(self) -> bool:
        return (self.col + self.row) % 2 == 0


def coord_to_id(c: BoardCoord, n: int) -> int:
    return (c.row - 1) * n + (c.col - 1)


def id_to_coord(v: int, n: int) -> BoardCoord:
    return BoardCoord(col=v % n + 1, row=v // n + 1)


def _check_board(m: int, n: int) -> None:
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m} n={n}")


def _labels(m: int, n: int) -> dict[int, str]:
    return {v: f"c{v % n + 1}r{v // n + 1}" for v in range(m * n)}


def build_rook(m: int, n: int) -> Graph:
    """Rook graph: same row or same column."""
    _check_board(m, n)
    edges = []
    for row in range(m):
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                edges.append((row * n + c1, row * n + c2))
    for col in range(n):
        for r1 in range(m):
            for r2 in range(r1 + 1, m):
                edges.append((r1 * n + col, r2 * n + col))
    return Graph.from_edges(m * n, edges, _labels(m, n))


class SquareColor(Enum):
    ALL = "all"
    WHITE = "white"
    BLACK = "black"


def bishop_edge_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """All bishop edges as vertex-id pairs (u, v), u the lower-column endpoint.

    An edge of column distance L is v = u + L(n+1) on a positive slope
    (up-right) and v = u - L(n-1) on a negative slope (down-right), so
    v > u exactly when the slope is positive. Edges come row by row, then
    column by column, then by increasing L, the positive slope before the
    negative one.
    """
    _check_board(m, n)
    out = []
    for row in range(m):
        for col in range(n):
            u = row * n + col
            for length in range(1, min(m, n - col)):
                if length < m - row:
                    out.append((u, u + length * (n + 1)))
                if length <= row:
                    out.append((u, u - length * (n - 1)))
    return out


def build_bishop(m: int, n: int, color_filter: SquareColor = SquareColor.ALL) -> Graph:
    """Bishop graph: same diagonal. A color filter keeps only edges between
    squares of that color; the vertex set (and numbering) is unchanged."""
    _check_board(m, n)
    pairs = bishop_edge_pairs(m, n)
    if color_filter is not SquareColor.ALL:
        # both ends of a bishop edge share a square colour; white iff col+row is even
        white = color_filter is SquareColor.WHITE
        pairs = [(u, v) for u, v in pairs if ((u % n + u // n) % 2 == 0) == white]
    return Graph.from_edges(m * n, pairs, _labels(m, n))


def build_queen(m: int, n: int) -> Graph:
    """Queen graph: union of rook and bishop edges on the same vertices."""
    rook = build_rook(m, n)
    bishop = build_bishop(m, n)
    return Graph(m * n, rook.edges | bishop.edges, _labels(m, n))


def queen_delta(m: int, n: int) -> int:
    """Maximum queen degree: 3m+n-5 when m=n is even, else 3m+n-4."""
    _check_board(m, n)
    if m == n and n % 2 == 0:
        return 3 * m + n - 5
    return 3 * m + n - 4


def queen_edge_count(m: int, n: int) -> int:
    _check_board(m, n)
    num = m * (2 - 2 * m * m - 12 * n + 9 * m * n + 3 * n * n)
    assert num % 6 == 0
    return num // 6


def rook_delta(m: int, n: int) -> int:
    _check_board(m, n)
    return m + n - 2


def bishop_delta(m: int, n: int) -> int:
    _check_board(m, n)
    if m == n and n % 2 == 0:
        return 2 * m - 3
    return 2 * m - 2


def overfull_threshold(m: int) -> int:
    """Least n (for odd m <= n, both odd) at which Q_{m,n} is overfull."""
    num = 2 * m ** 3 - 11 * m + 18
    assert num % 3 == 0
    return num // 3


class QueenClass(Enum):
    CLASS1_PROVED = "class1-proved"
    CLASS1_CONJECTURED = "class1-conjectured"
    CLASS2_OVERFULL = "class2-overfull"


@dataclass(frozen=True)
class QueenClassPrediction:
    m: int
    n: int
    status: QueenClass
    reason: str


def classify_queen_prediction(m: int, n: int) -> QueenClassPrediction:
    """Predicted chromatic-index class of Q_{m,n}, with the rule that fired.

    Class 2 is predicted exactly for the overfull range (both odd and
    n >= (2m^3-11m+18)/3); the gap between the proved class-1 range and the
    overfull threshold is reported as conjectured class 1.
    """
    _check_board(m, n)
    if m % 2 == 0 or n % 2 == 0:
        return QueenClassPrediction(m, n, QueenClass.CLASS1_PROVED, "even-dimension-union")
    if n >= overfull_threshold(m):
        return QueenClassPrediction(m, n, QueenClass.CLASS2_OVERFULL, "overfull")
    if m == n:
        return QueenClassPrediction(m, n, QueenClass.CLASS1_PROVED, "square-odd")
    if 2 * n <= m * m - 3 * m + 2:
        return QueenClassPrediction(m, n, QueenClass.CLASS1_PROVED, "ladder-multicycle")
    return QueenClassPrediction(m, n, QueenClass.CLASS1_CONJECTURED, "gap")
