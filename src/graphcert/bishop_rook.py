"""Constructive optimal colorings for bishops and rooks.

The bishop coloring decomposes the edge set into groups of disjoint paths and
2-colors each path; the rook colorings assemble complete-graph colorings per
row and column with controlled missing colors. The class-2 "ladder" rook
coloring additionally realizes an arbitrary prescription of which high color
is missing at every vertex outside the leftmost column, given as a map from
vertex ids to colors; that freedom is what the queen constructions consume.

Every coloring here is computed on int32 index arrays, and its ends and
colors are int32. The complete-graph and rook colors are closed forms in the
vertex indices, kept as tables; a bishop color is one in the edge's ends:
its group in its length and slope, and its rank along its path, whose parity
picks one of the group's two colors, with no walk of the paths. Each
coloring is returned through `EdgeColoring._of_rows`, without a repeat
check: its edges are a board's rows, which hold each edge once. The queen
constructions color the queen board's rows with the same forms
(`_board_colors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chess import _check_board, _pairs32, bishop_delta, bishop_edge_pairs, build_rook
from .core import CertificateError, EdgeColoring


# --- complete graphs ----------------------------------------------------------

def _inv2(n: int) -> int:
    """The inverse of 2 modulo an odd n. An even n is refused: a precondition,
    not a check of any result."""
    if n % 2 == 0:
        raise CertificateError(f"2 has no inverse modulo the even {n}")
    return (n + 1) // 2


def _k_odd_color(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    # 0-based scheme on K_n, n odd: vertex u misses color u.
    return (u + v) * _inv2(n) % n


def _k_even_class(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    # 0-based scheme on K_n, n even: polygon 0..n-2 plus hub n-1; every class
    # is a perfect matching, so every vertex sees all n-1 colors.
    hub = np.maximum(u, v) == n - 1
    return np.where(hub, np.minimum(u, v), (u + v) * _inv2(n - 1) % (n - 1))


def k_odd_prescribed_missing(n: int, desired_missing: Sequence[int] | np.ndarray,
                             matching_class: bool = False) -> np.ndarray:
    """Color K_n (n odd) so vertex u misses exactly desired_missing[u].

    Returns the colors of the edges (x, y), x < y, in `np.triu_indices(n, 1)`
    order. desired_missing is one prescription of n colors, or a (rows, n)
    array of them, which gives a (rows, n(n-1)/2) array of colors; each
    prescription must be injective, a precondition refused with ValueError.
    With matching_class, the matching (1,2),(3,4),...,(n-2,n-1) is a single
    class, colored desired_missing[0].
    """
    if n % 2 == 0:
        raise ValueError("odd n required")
    desired = np.asarray(desired_missing)
    if desired.shape[-1:] != (n,) or (np.diff(np.sort(desired, axis=-1), axis=-1) == 0).any():
        raise ValueError("desired_missing must be a bijection")
    perm = np.arange(n)
    if matching_class:
        # Vertex bijection carrying base class 0 = {(t, n-t)} onto the target
        # matching while keeping the uncovered vertex at 0.
        t = np.arange(1, (n - 1) // 2 + 1)
        perm[t] = 2 * t - 1
        perm[n - t] = 2 * t
    inv = np.argsort(perm)
    x, y = np.triu_indices(n, 1)
    return desired[..., perm[_k_odd_color(inv[x], inv[y], n)]]


# --- canonical bishop coloring --------------------------------------------------

@dataclass(frozen=True)
class PathGroup:
    """Edges of lengths i and m-i on opposite slopes; a disjoint union of paths."""

    i: int
    sign: int  # +1 or -1
    paths: tuple[tuple[int, ...], ...]  # each path ordered from its leftmost vertex


@dataclass(frozen=True)
class PathDecomposition:
    m: int
    n: int
    groups: tuple[PathGroup, ...]

    def to_lines(self) -> list[str]:
        lines = []
        for grp in self.groups:
            tag = f"{grp.i}{'+' if grp.sign > 0 else '-'}"
            for path in grp.paths:
                lines.append(tag + " " + " ".join(str(v + 1) for v in path))
        return lines


def _bishop_ranks(ru, cu, rv, cv, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The group and the rank of each bishop edge of an m-row board, given by
    the rows and columns of its ends, (ru, cu) and (rv, cv), in either order.

    Group g is (i, +) for g = 2i - 2 and (i, -) for g = 2i - 1. With L the
    column distance: when 2L = m the edge goes to (L, +); when L < m - L it
    goes to (L, -) climbing (the row grows with the column) and (L, +)
    falling; otherwise to (m - L, +) climbing and (m - L, -) falling.

    A path of group (i, -) steps its row r -> (r + i) mod m, and its column
    by i, or by m - i when the row wraps; (i, +) is its mirror image under
    r -> m - 1 - r. An edge's rank, the number of edges between it and the
    leftmost end of its path, is the number of back-steps from its
    lower-column end (r, c) that stay on the board: the largest k with
    D(k·i - r) <= c - r. D(x) = x + (m - 2i)·ceil(x/m) rises by 1 in each
    block of m values of x and skips m - 2i values between blocks, so that x
    is w·m + max(0, rem - m + 2i), (w, rem) = divmod(c - r, 2m - 2i).
    """
    left = cu < cv
    length = np.abs(cv - cu)
    short = 2 * length < m
    minus = (short == (left == (ru < rv))) & (2 * length != m)
    i = np.where(short, length, m - length)
    row = np.where(left, ru, rv)
    row = np.where(minus, row, m - 1 - row)
    w, rem = np.divmod(np.minimum(cu, cv) - row, 2 * (m - i))
    w *= m
    w += np.maximum(rem - (m - 2 * i), 0)
    w += row
    w //= i
    return 2 * (i - 1) + minus, w


# rows of a board coloured at once: the block's transients stay a few bytes an edge
_BLOCK = 1 << 14


def _board_colors(pairs: np.ndarray, m: int, n: int,
                  rook: tuple[np.ndarray, np.ndarray] | None = None,
                  rook_offset: int = 0, bishop_offset: int = 0) -> np.ndarray:
    """The int32 colour of each edge (u, v), u < v, of pairs, edges of an
    m x n board, from its geometry, one block of rows at a time. A row or
    column edge takes its entry in the rook colour tables (as
    `_rook_class1_tables` makes them; None for a board without rook edges)
    plus rook_offset. A diagonal takes its canonical bishop colour plus
    bishop_offset: group (i, +) has {4i-3, 4i-2} and (i, -) has {4i-1, 4i},
    the first on the edges of even rank."""
    colors = np.empty(len(pairs), np.int32)
    for lo in range(0, len(colors), _BLOCK):
        u, v = pairs[lo:lo + _BLOCK].T.copy()  # contiguous, as a fast division by n needs
        ru, rv = u // n, v // n
        cu, cv = u - ru * n, v - rv * n
        out = colors[lo:lo + _BLOCK]
        if rook is not None:
            at = np.flatnonzero(ru == rv)
            out[at] = rook[0][ru[at], _pair_index(cu[at], cv[at], n)] + rook_offset
            at = np.flatnonzero(cu == cv)
            out[at] = rook[1][cu[at], _pair_index(ru[at], rv[at], m)] + rook_offset
        at = np.flatnonzero((ru != rv) & (cu != cv))
        group, rank = _bishop_ranks(ru[at], cu[at], rv[at], cv[at], m)
        rank %= 2
        rank += 2 * group + 1 + bishop_offset
        out[at] = rank
    return colors


def bishop_path_decomposition(m: int, n: int) -> PathDecomposition:
    """Partition bishop edges into the path groups of the canonical coloring.

    Each path is listed from its leftmost end, and the paths of a group in
    the order of those ends (column, then id): each edge's lower-column end
    walked back its rank (`_bishop_ranks`), i·rank rows and D columns.
    """
    pairs = bishop_edge_pairs(m, n)
    (r, c), far = np.divmod(pairs[:, 0], n), pairs[:, 1]
    group, rank = _bishop_ranks(r, c, far // n, far % n, m)
    i, minus = group // 2 + 1, group % 2 == 1
    row = np.where(minus, r, m - 1 - r) - i * rank
    column = c - i * rank + (m - 2 * i) * (row // m)
    row %= m
    start = np.where(minus, row, m - 1 - row) * n + column
    order = np.lexsort((rank, start, column, group))
    paths: dict[int, list[list[int]]] = {}
    for g, near, vertex, k in zip(*(a[order].tolist() for a in (group, pairs[:, 0], far, rank))):
        group_paths = paths.setdefault(g, [])
        if k == 0:
            group_paths.append([near])
        # the ranks are closed forms with no walk behind them, so each edge
        # must go on from the end of its path (a raise, not an assert: it
        # holds under python -O too)
        if not group_paths or group_paths[-1][-1] != near or len(group_paths[-1]) != k + 1:
            raise CertificateError(f"bishop edge ({near + 1}, {vertex + 1}) of rank {k} "
                                   f"does not go on from a path of group {g}")
        group_paths[-1].append(vertex)
    # an even m has no group (m/2, -), g = m - 1, so g runs over range(m - 1) either way
    return PathDecomposition(m, n, tuple(
        PathGroup(g // 2 + 1, 1 - 2 * (g % 2), tuple(map(tuple, paths.get(g, ()))))
        for g in range(m - 1)))


def canonical_bishop_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 bishop coloring: group (i,+) uses {4i-3, 4i-2}, (i,-) uses
    {4i-1, 4i}, first color on the leftmost edge of each path. The ranks
    have no walk of the paths behind them, so the coloring is checked for a
    color repeated at a vertex before it is returned."""
    pairs = bishop_edge_pairs(m, n)
    pairs.sort(axis=1)
    colors = _board_colors(pairs, m, n)
    at = _repeat_at(pairs, colors)
    if at is not None:
        raise CertificateError(f"bishop color {at[1]} repeated at vertex {at[0] + 1}")
    return EdgeColoring._of_rows(pairs, colors, bishop_delta(m, n) if len(pairs) else 0)


def _repeat_at(pairs: np.ndarray, colors: np.ndarray) -> tuple[int, int] | None:
    """A (vertex, color) that two edges of pairs share, or None: each group
    has two colors, so a repeat is a vertex of degree 3 or an odd cycle in a
    group, or a path whose ranks do not alternate."""
    width, count = int(colors.max(initial=0)) + 1, len(colors)
    # one key vertex·width + color an end, int32 where the keys fit
    fits = (int(pairs.max(initial=0)) + 1) * width <= np.iinfo(np.int32).max
    keys = np.concatenate((pairs[:, 0], pairs[:, 1]), dtype=np.int32 if fits else np.int64)
    keys *= width
    keys[:count] += colors
    keys[count:] += colors
    keys.sort()
    same = np.flatnonzero(keys[1:] == keys[:-1])
    return divmod(int(keys[same[0]]), width) if len(same) else None


def rarest_bishop_color(m: int) -> int:
    """The last canonical color for odd m; its edges define the derived multicycle."""
    if m % 2 == 0:
        raise ValueError("odd m required")
    return 2 * m - 2


def _last_group_edges(m: int, n: int) -> np.ndarray:
    """Edges of group (k, -), k = m // 2, for odd m >= 3: positive slopes of
    column distance k and negative slopes of distance k + 1, as an (E, 2)
    array of (u, v) with u the lower-column endpoint."""
    k = m // 2
    ids = np.arange(m * n, dtype=np.int32).reshape(m, n)
    up, down = ids[:m - k, :n - k].ravel(), ids[k + 1:, :n - k - 1].ravel()
    return np.concatenate((np.column_stack((up, up + k * (n + 1))),
                           np.column_stack((down, down - (k + 1) * (n - 1)))))


def rarest_color_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edges carrying the last canonical bishop color 2m-2, as sorted id pairs.

    For odd m that color is the second color of group (k, -), k = m // 2, so
    its edges are every second edge along that group's paths, counted from
    each path's leftmost vertex: the edges of odd rank. Only this one group
    is built, not the whole coloring.
    """
    _check_board(m, n)
    rarest_bishop_color(m)  # rejects even m
    if m < 3:
        return []
    ends = _last_group_edges(m, n)
    group, rank = _bishop_ranks(*np.divmod(ends[:, 0], n), *np.divmod(ends[:, 1], n), m)
    # the group is listed by slope and length and classified by
    # `_bishop_ranks`: two closed forms, which must agree
    wrong = np.flatnonzero(group != m - 2)
    if len(wrong):
        u, v = ends[wrong[0]].tolist()
        raise CertificateError(f"bishop edge ({u + 1}, {v + 1}) listed in group "
                               f"({m // 2}, -) is classified in group {group[wrong[0]]}")
    return sorted(map(tuple, np.sort(ends[rank % 2 == 1], axis=1).tolist()))


# --- rook colorings -------------------------------------------------------------

def _pair_index(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The index of each pair (a, b), a < b, in `np.triu_indices(k, 1)` order."""
    return a * (2 * k - 1 - a) // 2 + (b - a - 1)


def _rook_class1_tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The class-1 rook colors, closed forms in the indices, as two tables:
    rows[r, t] colors the t-th column pair of row r and columns[c, t] the
    t-th row pair of column c, each in `np.triu_indices` order."""
    if m % 2 == 1 and n % 2 == 1:
        raise ValueError("R_{m,n} with both sides odd is class 2")
    x, y = _pairs32(n)  # columns of the row edges
    u, v = _pairs32(m)  # rows of the column edges
    if m % 2 == 0 and n % 2 == 0:
        row_colors = _k_even_class(x, y, n) + 1
        col_colors = _k_even_class(u, v, m) + n
    elif n % 2 == 1:
        # Rows are odd complete graphs on colors 1..n, column i missing color i;
        # column i reuses color i alongside the m-2 high colors.
        row_colors = _k_odd_color(x, y, n) + 1
        cls = _k_even_class(u, v, m)
        col_colors = np.where(cls == 0, np.arange(1, n + 1, dtype=np.int32)[:, None], n + cls)
    else:
        # Mirror image: columns odd on colors 1..m, row r missing color r.
        col_colors = _k_odd_color(u, v, m) + 1
        cls = _k_even_class(x, y, n)
        row_colors = np.where(cls == 0, np.arange(1, m + 1, dtype=np.int32)[:, None], m + cls)
    return np.broadcast_to(row_colors, (m, x.size)), np.broadcast_to(col_colors, (n, u.size))


def rook_class1_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 coloring of R_{m,n} with m+n-2 colors; fails for m, n both odd."""
    pairs = build_rook(m, n).pairs
    return EdgeColoring._of_rows(pairs, _board_colors(pairs, m, n, _rook_class1_tables(m, n)),
                                 m + n - 2)


def _ladder_tables(m: int, n: int, fixed: Mapping[int, int] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The colours of `ladder_coloring` as the two tables of
    `_rook_class1_tables`, with its checks."""
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("ladder coloring needs m and n odd")
    if m < 1 or n < 3:
        raise ValueError("board too small for a ladder coloring")
    desired = np.zeros((m, n), np.int32)  # the color each vertex misses; 0 until set
    desired[:, 0] = np.arange(1, m + 1)
    used = np.zeros((m, m + n), bool)  # used[r, c]: A color c is fixed in row r
    for v, color in (fixed or {}).items():
        row, col = divmod(v, n)
        if not 0 <= v < m * n or col == 0:
            raise ValueError(f"vertex {v} is off the board or in column 1")
        if not m < color < m + n:
            raise ValueError(f"color {color} is not an A color")
        if used[row, color]:
            raise ValueError(f"color {color} fixed twice in row {row + 1}")
        used[row, color] = True
        desired[row, col] = color
    # each row has as many unset vertices as unused A colors, both met in ascending order
    desired[desired == 0] = np.nonzero(~used[:, m + 1:])[1] + m + 1
    u, v = _pairs32(m)
    return (k_odd_prescribed_missing(n, desired, matching_class=True),
            np.broadcast_to(_k_odd_color(u, v, m) + 1, (n, u.size)))


def ladder_coloring(m: int, n: int, fixed: Mapping[int, int] | None = None) -> EdgeColoring:
    """Class-2 rook coloring of R_{m,n} (m, n odd) with m+n-1 colors.

    Columns use colors 1..m with color r missing at row r. In row r the
    matching on columns (2,3),(4,5),...,(n-1,n) takes color r, and the rest of
    the row uses the A colors {m+1..m+n-1}, so that every vertex off column 1
    misses one A color and vertex (1, r) misses color r. fixed maps vertex ids
    off column 1 to the A color they must miss; every other vertex off column
    1 takes its row's unused A colors in ascending column order. ValueError
    names a vertex in column 1 or off the board, a color outside A, or an A
    color fixed twice in one row.
    """
    pairs = build_rook(m, n).pairs
    return EdgeColoring._of_rows(pairs, _board_colors(pairs, m, n, _ladder_tables(m, n, fixed)),
                                 m + n - 1)
