"""Constructive optimal colorings for complete graphs, bishops and rooks.

The bishop coloring decomposes the edge set into groups of disjoint paths and
2-colors each path; the rook colorings assemble complete-graph colorings per
row and column with controlled missing colors. The class-2 "ladder" rook
coloring additionally realizes an arbitrary prescription of which high color
is missing at every vertex outside the leftmost column; that freedom is what
the queen constructions consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .chess import BoardCoord, _check_board, bishop_delta, bishop_edge_pairs
from .core import CertificateError, EdgeColoring


# --- complete graphs ----------------------------------------------------------

def _inv2(n: int) -> int:
    """The inverse of 2 modulo an odd n."""
    if n % 2 == 0:
        raise CertificateError(f"2 has no inverse modulo the even {n}")
    return (n + 1) // 2


def _k_odd_color(u: int, v: int, n: int) -> int:
    # 0-based scheme on K_n, n odd: vertex u misses color u.
    return ((u + v) * _inv2(n)) % n


def _k_even_class(u: int, v: int, n: int) -> int:
    # 0-based scheme on K_n, n even: polygon 0..n-2 plus hub n-1; every class
    # is a perfect matching, so every vertex sees all n-1 colors.
    h = n - 1
    if v == h:
        return u
    if u == h:
        return v
    return ((u + v) * _inv2(n - 1)) % (n - 1)


def _base_class_pairs(n: int) -> list[tuple[int, int]]:
    # Pairs of class 0 in the odd scheme, or of class 0 in the even scheme.
    if n % 2 == 1:
        return [(t, n - t) for t in range(1, (n - 1) // 2 + 1)]
    h = n - 1
    pairs = [(0, h)]
    pairs += [(t, (n - 1 - t)) for t in range(1, (n - 2) // 2 + 1)]
    return pairs


def _is_maximum_matching(n: int, matching: Sequence[tuple[int, int]]) -> bool:
    covered: set[int] = set()
    for u, v in matching:
        if u == v or not (0 <= u < n) or not (0 <= v < n):
            return False
        if u in covered or v in covered:
            return False
        covered.update((u, v))
    return len(matching) == n // 2


def complete_graph_coloring(n: int, matching_as_class: Sequence[tuple[int, int]] | None = None
                            ) -> EdgeColoring:
    """Optimal coloring of K_n: n-1 colors for even n, n colors for odd n.

    With matching_as_class (a maximum matching), the coloring is relabeled by
    a vertex bijection so that the matching is exactly color class 1.
    """
    if n < 2:
        raise ValueError("K_n coloring needs n >= 2")
    perm = list(range(n))
    if matching_as_class is not None:
        matching = [tuple(sorted(e)) for e in matching_as_class]
        if not _is_maximum_matching(n, matching):
            raise ValueError("matching_as_class is not a maximum matching of K_n")
        base_pairs = _base_class_pairs(n)
        if n % 2 == 1:
            missed = (set(range(n)) - {w for e in matching for w in e}).pop()
            perm[0] = missed
        for (a, b), (x, y) in zip(base_pairs, matching):
            perm[a], perm[b] = x, y
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    assignment: dict[tuple[int, int], int] = {}
    for x in range(n):
        for y in range(x + 1, n):
            u, v = inv[x], inv[y]
            c = _k_odd_color(u, v, n) if n % 2 == 1 else _k_even_class(u, v, n)
            assignment[(x, y)] = c + 1
    return EdgeColoring(assignment, n if n % 2 == 1 else n - 1)


def k_odd_prescribed_missing(n: int, desired_missing: Sequence[int],
                             matching_class: bool = False) -> dict[tuple[int, int], int]:
    """Color K_n (n odd) so vertex u misses exactly desired_missing[u].

    desired_missing must be injective. With matching_class, the matching
    (1,2),(3,4),...,(n-2,n-1) is a single class, colored desired_missing[0].
    """
    if n % 2 == 0:
        raise ValueError("odd n required")
    if len(set(desired_missing)) != n:
        raise ValueError("desired_missing must be a bijection")
    perm = list(range(n))
    if matching_class:
        # Vertex bijection carrying base class 0 = {(t, n-t)} onto the target
        # matching while keeping the uncovered vertex at 0.
        for t in range(1, (n - 1) // 2 + 1):
            perm[t] = 2 * t - 1
            perm[n - t] = 2 * t
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    out: dict[tuple[int, int], int] = {}
    for x in range(n):
        for y in range(x + 1, n):
            b = _k_odd_color(inv[x], inv[y], n)
            out[(x, y)] = desired_missing[perm[b]]
    return out


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


def _group_buckets(m: int, n: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in bishop_edge_pairs(m, n):
        length = v % n - u % n
        pos_slope = v > u
        if 2 * length == m:
            key = (length, 1)
        elif length < m - length:
            key = (length, -1 if pos_slope else 1)
        else:
            key = (m - length, 1 if pos_slope else -1)
        buckets.setdefault(key, []).append((u, v))
    return buckets


def _walk_paths(edges: Iterable[tuple[int, int]], n: int) -> list[tuple[int, ...]]:
    """Split the edges of one path group into paths, each walked from its
    leftmost end (smallest column, then row) and listed in the order of
    those ends. The order of the edges does not matter.

    Raises CertificateError when a vertex has degree > 2 or an edge lies on
    a cycle, since then the group is no disjoint union of paths.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) > 2 for nbrs in adj.values()):
        raise CertificateError("path group has a vertex of degree > 2")
    paths = []
    far_ends: set[int] = set()
    walked = 0
    ends = sorted(
        (v for v, nbrs in adj.items() if len(nbrs) == 1),
        key=lambda v: (v % n, v // n),
    )
    for start in ends:
        if start in far_ends:
            continue
        # A component with an end and no degree > 2 is a path: step to the
        # neighbour that is not the previous vertex until the other end.
        path = [start, adj[start][0]]
        while len(adj[path[-1]]) == 2:
            a, b = adj[path[-1]]
            path.append(a + b - path[-2])
        far_ends.add(path[-1])
        walked += len(path)
        paths.append(tuple(path))
    if walked != len(adj):
        raise CertificateError("path group contains a cycle")
    return paths


def bishop_path_decomposition(m: int, n: int) -> PathDecomposition:
    """Partition bishop edges into the path groups of the canonical coloring.

    One pass over the bishop edges puts each edge into the bucket of its
    group. With L the column distance of the edge: when 2L = m it goes to
    (L, +); when L < m - L it goes to (L, -) on a positive slope and (L, +)
    on a negative one; otherwise it goes to (m - L, +) on a positive slope
    and (m - L, -) on a negative one.
    """
    buckets = _group_buckets(m, n)
    groups = []
    for i in range(1, m // 2 + 1):
        for sign in (1, -1):
            if m % 2 == 0 and 2 * i == m and sign == -1:
                continue  # coincides with the + group
            paths = _walk_paths(buckets.get((i, sign), ()), n)
            groups.append(PathGroup(i, sign, tuple(paths)))
    return PathDecomposition(m, n, tuple(groups))


def canonical_bishop_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 bishop coloring: group (i,+) uses {4i-3, 4i-2}, (i,-) uses
    {4i-1, 4i}, first color on the leftmost edge of each path."""
    pd = bishop_path_decomposition(m, n)
    assignment: dict[tuple[int, int], int] = {}
    for grp in pd.groups:
        first = 4 * grp.i - 3 if grp.sign > 0 else 4 * grp.i - 1
        for path in grp.paths:
            for idx in range(len(path) - 1):
                u, v = path[idx], path[idx + 1]
                e = (u, v) if u < v else (v, u)
                assignment[e] = first + (idx % 2)
    declared = bishop_delta(m, n) if assignment else 0
    return EdgeColoring(assignment, declared)


def rarest_bishop_color(m: int) -> int:
    """The last canonical color for odd m; its edges define the derived multicycle."""
    if m % 2 == 0:
        raise ValueError("odd m required")
    return 2 * m - 2


def _last_group_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edges of group (k, -), k = m // 2, for odd m >= 3: positive slopes of
    column distance k and negative slopes of distance k + 1, as (u, v) with
    u the lower-column endpoint."""
    k = m // 2
    up, down = k * (n + 1), (k + 1) * (n - 1)
    edges = [(u, u + up) for row in range(m - k) for u in range(row * n, row * n + n - k)]
    edges += [(u, u - down) for row in range(k + 1, m)
              for u in range(row * n, row * n + n - k - 1)]
    return edges


def rarest_color_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edges carrying the last canonical bishop color 2m-2, as sorted id pairs.

    For odd m that color is the second color of group (k, -), k = m // 2, so
    its edges are every second edge along that group's paths, counted from
    each path's leftmost vertex: edges 1, 3, 5, ... of each path, 0-based.
    Only this one group is built, not the whole coloring.
    """
    _check_board(m, n)
    rarest_bishop_color(m)  # rejects even m
    if m < 3:
        return []
    rare = []
    for path in _walk_paths(_last_group_edges(m, n), n):
        for u, v in zip(path[1::2], path[2::2]):
            rare.append((u, v) if u < v else (v, u))
    return sorted(rare)


# --- rook colorings -------------------------------------------------------------

def _row_vertex(row0: int, col0: int, n: int) -> int:
    return row0 * n + col0


def rook_class1_coloring(m: int, n: int) -> EdgeColoring:
    """Class-1 coloring of R_{m,n} with m+n-2 colors; fails for m, n both odd."""
    if m % 2 == 1 and n % 2 == 1:
        raise ValueError("R_{m,n} with both sides odd is class 2")
    assignment: dict[tuple[int, int], int] = {}

    def color_rows(color_fn) -> None:
        for r0 in range(m):
            for x in range(n):
                for y in range(x + 1, n):
                    assignment[(_row_vertex(r0, x, n), _row_vertex(r0, y, n))] = color_fn(r0, x, y)

    def color_cols(color_fn) -> None:
        for j in range(n):
            for u in range(m):
                for v in range(u + 1, m):
                    assignment[(_row_vertex(u, j, n), _row_vertex(v, j, n))] = color_fn(j, u, v)

    if m % 2 == 0 and n % 2 == 0:
        color_rows(lambda r0, x, y: _k_even_class(x, y, n) + 1)
        color_cols(lambda j, u, v: _k_even_class(u, v, m) + n)
    elif n % 2 == 1:
        # Rows are odd complete graphs on colors 1..n, column i missing color i;
        # column i reuses color i alongside the m-2 high colors.
        color_rows(lambda r0, x, y: _k_odd_color(x, y, n) + 1)

        def col_color(j: int, u: int, v: int) -> int:
            cls = _k_even_class(u, v, m)
            return j + 1 if cls == 0 else n + cls
        color_cols(col_color)
    else:
        # Mirror image: columns odd on colors 1..m, row r missing color r.
        color_cols(lambda j, u, v: _k_odd_color(u, v, m) + 1)

        def row_color(r0: int, x: int, y: int) -> int:
            cls = _k_even_class(x, y, n)
            return r0 + 1 if cls == 0 else m + cls
        color_rows(row_color)
    return EdgeColoring(assignment, m + n - 2)


@dataclass(frozen=True)
class MissingColorPlan:
    """Which high color each vertex outside column 1 misses in a ladder coloring.

    rows[r-1][c-2] is the color of A = {m+1..m+n-1} missing at (col c, row r);
    each row is a permutation of A. Column-1 vertices miss their row color
    instead, never an A color.
    """

    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a_set = set(range(self.m + 1, self.m + self.n))
        if len(self.rows) != self.m:
            raise ValueError("plan needs one row per board row")
        for row in self.rows:
            if set(row) != a_set or len(row) != self.n - 1:
                raise ValueError("each plan row must be a permutation of the A colors")

    @staticmethod
    def identity(m: int, n: int) -> "MissingColorPlan":
        row = tuple(range(m + 1, m + n))
        return MissingColorPlan(m, n, tuple(row for _ in range(m)))

    @staticmethod
    def from_assignments(m: int, n: int,
                         fixed: Mapping[tuple[int, int], int]) -> "MissingColorPlan":
        """Extend partial (col, row) -> color requirements to a full plan.

        Keys use 1-based board coordinates with col >= 2; each row's
        assignments must be injective. Unconstrained vertices take the unused
        A colors in ascending order.
        """
        a_colors = list(range(m + 1, m + n))
        per_row: list[dict[int, int]] = [dict() for _ in range(m)]
        for (col, row), color in fixed.items():
            if not (2 <= col <= n and 1 <= row <= m):
                raise ValueError(f"assignment at ({col},{row}) outside board or in column 1")
            if color not in a_colors:
                raise ValueError(f"color {color} is not an A color")
            if color in per_row[row - 1].values():
                raise ValueError(f"color {color} assigned twice in row {row}")
            per_row[row - 1][col] = color
        rows = []
        for r0 in range(m):
            taken = set(per_row[r0].values())
            spare = iter(c for c in a_colors if c not in taken)
            row = tuple(per_row[r0].get(c, None) or next(spare) for c in range(2, n + 1))
            rows.append(row)
        return MissingColorPlan(m, n, tuple(rows))

    def missing_at(self, col: int, row: int) -> int:
        if col < 2:
            raise ValueError("column 1 vertices miss their row color, not an A color")
        return self.rows[row - 1][col - 2]


def ladder_coloring(m: int, n: int, plan: MissingColorPlan | None = None) -> EdgeColoring:
    """Class-2 rook coloring of R_{m,n} (m, n odd) with m+n-1 colors.

    Columns use colors 1..m with color r missing at row r. In row r the
    matching on columns (2,3),(4,5),...,(n-1,n) takes color r, and the rest of
    the row uses the A colors so that the plan's missing color is realized at
    every vertex with col >= 2. Vertex (1, r) misses color r entirely.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("ladder coloring needs m and n odd")
    if m < 1 or n < 3:
        raise ValueError("board too small for a ladder coloring")
    if plan is None:
        plan = MissingColorPlan.identity(m, n)
    if plan.m != m or plan.n != n:
        raise ValueError("plan dimensions do not match the board")
    assignment: dict[tuple[int, int], int] = {}
    for j in range(n):
        for u in range(m):
            for v in range(u + 1, m):
                assignment[(_row_vertex(u, j, n), _row_vertex(v, j, n))] = _k_odd_color(u, v, m) + 1
    for r0 in range(m):
        desired = [r0 + 1] + list(plan.rows[r0])
        row_colors = k_odd_prescribed_missing(n, desired, matching_class=True)
        for (x, y), c in row_colors.items():
            assignment[(_row_vertex(r0, x, n), _row_vertex(r0, y, n))] = c
    return EdgeColoring(assignment, m + n - 1)


def ladder_missing_color(plan: MissingColorPlan, coord: BoardCoord) -> int:
    """The single color absent at a vertex under the ladder coloring."""
    if coord.col == 1:
        return coord.row
    return plan.missing_at(coord.col, coord.row)
