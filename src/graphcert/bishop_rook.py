"""Constructive optimal colorings for bishops and rooks.

The bishop coloring decomposes the edge set into groups of disjoint paths and
2-colors each path; the rook colorings assemble complete-graph colorings per
row and column with controlled missing colors. The class-2 "ladder" rook
coloring additionally realizes an arbitrary prescription of which high color
is missing at every vertex outside the leftmost column, given as a map from
vertex ids to colors; that freedom is what the queen constructions consume.

Every coloring here is computed on int32 index arrays, and its ends and
colors are int32. The complete-graph and rook colors are closed forms in the
vertex indices. The bishop colors need each edge's group, a closed form in
its length and slope, and its parity along its path, which `_path_ranks`
finds for all paths at once by pointer doubling, with int32 counts; its
one int64 array is the key that pairs the incidences at each vertex.
Each coloring is returned through `EdgeColoring._of_rows`, without a repeat
check: its edges come from the board's edge lists, which hold each edge
once. The queen constructions join these parts in `queen._union`, whose
`EdgeColoring.from_arrays` checks the joined rows for a repeated edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chess import (_check_board, _column_edges, _pairs32, _row_edges, bishop_delta,
                    bishop_edge_pairs)
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


def _bishop_groups(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bishop edges (u, v), u the lower-column endpoint, and the group of each.

    Group g is (i, +) for g = 2i - 2 and (i, -) for g = 2i - 1. With L the
    column distance of the edge: when 2L = m it goes to (L, +); when
    L < m - L it goes to (L, -) on a positive slope and (L, +) on a negative
    one; otherwise it goes to (m - L, +) on a positive slope and (m - L, -)
    on a negative one.
    """
    pairs = bishop_edge_pairs(m, n)
    u, v = pairs[:, 0], pairs[:, 1]
    length = v % n - u % n
    short = 2 * length < m
    minus = np.where(short, v > u, v < u) & (2 * length != m)
    return pairs, 2 * (np.where(short, length, m - length) - 1) + minus


def _path_ranks(ends, group, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the paths of every group at once. For each edge: the leftmost end
    of its path (smallest column, then row, on a board of n columns), its end
    further from that one along the path, and its rank, the number of edges
    between it and the leftmost end.

    ends is an (E, 2) array of edges in either orientation and group[i] the
    group of edge i. Edge i has two arcs, 2i running from ends[i, 0] to
    ends[i, 1] and 2i + 1 back; the arc after an arc leaves its head along
    the other edge of the group there. Doubling these links about log2(E)
    times gives every arc the number of arcs after it and the last one. An
    edge's rank is that count for its arc whose walk ends further left. The
    ids, counts and incidence links are int32, as the board's ids are, but
    for the doubled links, which are intp because every gather of the
    doubling indexes with them. The one int64 array is the sort key that
    pairs the incidences at a vertex, group·span + id.

    Raises CertificateError when a vertex has degree > 2 in a group, or a
    group has a cycle, whose arcs never reach a last one: preconditions of
    the walk, not checks of a coloring.
    """
    flat = np.asarray(ends).reshape(-1)  # incidence 2i + side is vertex flat[2i + side]
    if not flat.size:
        return flat, flat, flat
    span = int(flat.max()) + 1
    at = np.repeat(np.asarray(group, np.int64), 2)
    at *= span
    at += flat
    order = np.argsort(at, kind="stable")
    at = at[order]
    shared = at[1:] == at[:-1]
    del at
    if (shared[1:] & shared[:-1]).any():
        raise CertificateError("path group has a vertex of degree > 2")
    arc = np.arange(flat.size, dtype=np.int32)
    partner = arc.copy()  # the other incidence at the same vertex of the group, or itself
    partner[order[1:][shared]] = order[:-1][shared]
    partner[order[:-1][shared]] = order[1:][shared]
    del order, shared
    # arc a runs from flat[a] to flat[a ^ 1] and goes on along partner[a ^ 1]
    # intp from here: the doubling gathers with nxt, and would cast int32 at each
    back = arc ^ 1
    nxt = partner[back].astype(np.intp)
    del partner
    last = nxt == back
    nxt[last] = arc[last]
    count = (~last).astype(np.int32)
    for _ in range(flat.size.bit_length()):
        if last[nxt].all():
            break
        count += count[nxt]
        nxt = nxt[nxt]
    if not last[nxt].all():
        raise CertificateError("path group contains a cycle")
    nxt ^= 1
    end = flat[nxt]
    col = end % n
    # the arc of each edge whose walk ends further left: smaller column, then id
    toward = arc[0::2] + ((col[1::2] < col[0::2])
                          | ((col[1::2] == col[0::2]) & (end[1::2] < end[0::2])))
    return end[toward], flat[toward], count[toward]


def bishop_path_decomposition(m: int, n: int) -> PathDecomposition:
    """Partition bishop edges into the path groups of the canonical coloring.

    Each path is listed from its leftmost end, and the paths of a group in
    the order of those ends, as `_path_ranks` finds them.
    """
    ends, group = _bishop_groups(m, n)
    start, far, rank = _path_ranks(ends, group, n)
    order = np.lexsort((rank, start, start % n, group))
    paths: dict[int, list[list[int]]] = {}
    for g, first, vertex, r in zip(*(a[order].tolist() for a in (group, start, far, rank))):
        if r == 0:
            paths.setdefault(g, []).append([first])
        paths[g][-1].append(vertex)
    groups = []
    for i in range(1, m // 2 + 1):
        for sign in (1, -1):
            if m % 2 == 0 and 2 * i == m and sign == -1:
                continue  # coincides with the + group
            group_paths = paths.get(2 * i - 2 + (sign < 0), ())
            groups.append(PathGroup(i, sign, tuple(map(tuple, group_paths))))
    return PathDecomposition(m, n, tuple(groups))


def canonical_bishop_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 bishop coloring: group (i,+) uses {4i-3, 4i-2}, (i,-) uses
    {4i-1, 4i}, first color on the leftmost edge of each path."""
    ends, group = _bishop_groups(m, n)
    rank = _path_ranks(ends, group, n)[2]
    declared = bishop_delta(m, n) if len(ends) else 0
    ends.sort(axis=1)
    return EdgeColoring._of_rows(ends, 2 * group + 1 + rank % 2, declared)


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
    rank = _path_ranks(ends, np.zeros(len(ends), np.int64), n)[2]
    return sorted(map(tuple, np.sort(ends[rank % 2 == 1], axis=1).tolist()))


# --- rook colorings -------------------------------------------------------------

def rook_class1_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 coloring of R_{m,n} with m+n-2 colors; fails for m, n both odd.

    The row edges come row by row and the column edges column by column, as
    `_row_edges` and `_column_edges` list them; each color is a closed form
    in the row or column index and the pair's indices inside it.
    """
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
    colors = (np.broadcast_to(row_colors, (m, x.size)), np.broadcast_to(col_colors, (n, u.size)))
    return EdgeColoring._of_rows(np.concatenate((_row_edges(m, n), _column_edges(m, n))),
                                 np.concatenate([c.ravel() for c in colors]), m + n - 2)


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
    col_colors = np.broadcast_to(_k_odd_color(u, v, m) + 1, (n, u.size))
    row_colors = k_odd_prescribed_missing(n, desired, matching_class=True)
    return EdgeColoring._of_rows(np.concatenate((_column_edges(m, n), _row_edges(m, n))),
                                 np.concatenate((col_colors.ravel(), row_colors.ravel())),
                                 m + n - 1)
