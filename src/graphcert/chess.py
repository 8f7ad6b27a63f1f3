"""Rook, bishop and queen graphs on an m x n board, with closed-form counts.

Boards have m rows and n columns with m <= n. A square is addressed by
(col, row), both 1-based; col runs 1..n and row runs 1..m. Vertex ids are
row-major: id = (row-1)*n + (col-1), so the 1-based file id is (row-1)*n + col.
The lower-left square (1,1) is white, and a square is white iff col+row is
even. Rook, bishop and queen generators share this numbering, so the queen
edge set is exactly the union of the rook and bishop edge sets.

The generators build (E, 2) int32 id arrays and hand them to
`Graph.from_array`: the rook and queen edges ascending, which the graph keeps
without a sort or a copy (`_lines_graph`), and the bishop edges, u the
lower-column end, row by row of the board from one table of the lengths and
slopes that fit each column. No Python loop runs per edge, and no id array
is widened to int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Graph


def _check_board(m: int, n: int) -> None:
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m} n={n}")


def _pairs32(k: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(k, 1)` as int32 arrays: the pairs (x, y), x < y, of 0..k-1."""
    x, y = np.triu_indices(k, 1)
    return x.astype(np.int32), y.astype(np.int32)


def _lines_graph(m: int, n: int, sides: tuple[int, ...]) -> Graph:
    """The graph joining each square (r, c) to the rest of its row and, in
    each later row r + d, to the squares c + s·d on the board, s in sides.
    These higher neighbours ascend in the row-major order of the first
    n - 1 + len(sides)·(m - 1 - r) columns of one table of column shifts,
    so each board row r writes its edges in order into one int32 array."""
    d = np.repeat(np.arange(1, m, dtype=np.int32), len(sides))
    side = np.tile(np.array(sides, np.int32), m - 1) * d
    shift = np.concatenate((np.arange(1, n, dtype=np.int32), side))  # column of v - column of u
    step = np.concatenate((shift[:n - 1], d * n + side))  # v - u
    col = np.arange(n, dtype=np.int32)[:, None]
    fits = (0 <= col + shift) & (col + shift < n)
    width = n - 1 + len(sides) * (m - 1 - np.arange(m))
    first = np.concatenate(([0], fits.sum(axis=0).cumsum()))  # edges in the first k columns
    pairs = np.empty((first[width].sum(), 2), np.int32)
    at = 0
    for row in range(m):
        cut = fits[:, :width[row]]
        u = np.broadcast_to(row * n + col, cut.shape)[cut]
        pairs[at:at + len(u), 0] = u
        pairs[at:at + len(u), 1] = u + np.broadcast_to(step[:width[row]], cut.shape)[cut]
        at += len(u)
    pairs.setflags(write=False)  # handed over, so the graph keeps it without a copy
    return Graph.from_array(m * n, pairs)


def build_rook(m: int, n: int) -> Graph:
    """Rook graph: same row or same column."""
    _check_board(m, n)
    return _lines_graph(m, n, (0,))


class SquareColor(Enum):
    ALL = "all"
    WHITE = "white"
    BLACK = "black"


def bishop_edge_pairs(m: int, n: int) -> np.ndarray:
    """All bishop edges as an (E, 2) int32 array of vertex ids (u, v), u the
    lower-column endpoint.

    An edge of column distance L is v = u + L(n+1) on a positive slope
    (up-right) and v = u - L(n-1) on a negative one (down-right), so v > u
    exactly when the slope is positive. Edges come row by row, then column by
    column, then by increasing L, the positive slope before the negative one.
    That is the row-major order of one (n, 2(m-1)) table per board row, whose
    column k is the length and slope k: an entry is an edge when its length
    fits both the column and, on that slope, the row.
    """
    _check_board(m, n)
    length = np.repeat(np.arange(1, m, dtype=np.int32), 2)
    up = np.arange(length.size) % 2 == 0
    step = np.where(up, length * (n + 1), -length * (n - 1))
    col = np.arange(n, dtype=np.int32)[:, None]
    in_columns = col + length < n
    pairs = []
    for row in range(m):
        fits = in_columns & np.where(up, length < m - row, length <= row)
        u = np.broadcast_to(row * n + col, fits.shape)[fits]
        pairs.append(np.column_stack((u, u + np.broadcast_to(step, fits.shape)[fits])))
    return np.concatenate(pairs)


def build_bishop(m: int, n: int, color_filter: SquareColor = SquareColor.ALL) -> Graph:
    """Bishop graph: same diagonal. A color filter keeps only edges between
    squares of that color; the vertex set (and numbering) is unchanged."""
    _check_board(m, n)
    pairs = bishop_edge_pairs(m, n)
    if color_filter is not SquareColor.ALL:
        # both ends of a bishop edge share a square colour; white iff col+row is even
        u = pairs[:, 0]
        pairs = pairs[((u % n + u // n) % 2 == 0) == (color_filter is SquareColor.WHITE)]
    pairs.sort(axis=1)
    return Graph.from_array(m * n, pairs)


def build_queen(m: int, n: int) -> Graph:
    """Queen graph: union of rook and bishop edges on the same vertices."""
    _check_board(m, n)
    return _lines_graph(m, n, (-1, 0, 1))


def queen_delta(m: int, n: int) -> int:
    """Maximum queen degree: 3m+n-5 when m=n is even, else 3m+n-4."""
    _check_board(m, n)
    if m == n and n % 2 == 0:
        return 3 * m + n - 5
    return 3 * m + n - 4


def queen_edge_count(m: int, n: int) -> int:
    """The edge count of Q_{m,n}; 6 divides the numerator for every m and n."""
    _check_board(m, n)
    return m * (2 - 2 * m * m - 12 * n + 9 * m * n + 3 * n * n) // 6


def rook_delta(m: int, n: int) -> int:
    _check_board(m, n)
    return m + n - 2


def bishop_delta(m: int, n: int) -> int:
    _check_board(m, n)
    if m == n and n % 2 == 0:
        return 2 * m - 3
    return 2 * m - 2


def overfull_threshold(m: int) -> int:
    """Least n (for odd m <= n, both odd) at which Q_{m,n} is overfull; 3
    divides the numerator for every m."""
    return (2 * m ** 3 - 11 * m + 18) // 3


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
