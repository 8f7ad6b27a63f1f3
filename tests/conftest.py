"""Shared graph builders and brute-force oracles for the test suite."""

import itertools
from collections import Counter
from dataclasses import dataclass
import random
import re
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from graphcert.bishop_rook import (PathDecomposition, PathGroup, _k_even_class,
                                   _k_odd_color, canonical_bishop_coloring, rarest_bishop_color,
                                   rarest_color_edges)
from graphcert.chess import SquareColor, _check_board, bishop_delta
from graphcert.core import (CapExceeded, CertificateError, ColorState, EdgeColoring,
                            EmptyGraphError, Graph, VerificationReport, _report,
                            is_overfull, lowest_bit, max_degree, verify_edge_coloring,
                            verify_hamiltonian_cycle, vizing_delta_plus_one)
from graphcert.keller import (ColorKernel, _fixture_rows, _union_cycle_count, build, delta,
                              parse_vertex)
from graphcert.kempe import SearchBudget, SearchOutcome, _bits
from graphcert.multicycle import DerivedMulticycle, Multicycle, MulticycleColoring


# --- the src constructors from tuples and dicts, and the tuple views ------------

def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _ints(values: list) -> np.ndarray:
    """values as an int64 array; as an object array, which the src checks
    judge, when one passes int64 or is not an integer."""
    a = np.array(values, dtype=object)
    if all(isinstance(x, (int, np.integer)) for x in values):
        try:
            return a.astype(np.int64)
        except OverflowError:
            pass
    return a


def graph_of(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Graph.from_array on the pairs, each (u, v) or (v, u); a self loop raises."""
    return Graph.from_array(n, _ints([x for u, v in pairs for x in _normalize_edge(u, v)]))


def coloring_of(mapping: Mapping[tuple[int, int], int], k: int) -> EdgeColoring:
    """EdgeColoring.from_arrays on the items of mapping, in their order."""
    ends = _ints([x for e in mapping for x in e]).reshape(-1, 2)
    return EdgeColoring.from_arrays(ends, _ints(list(mapping.values())), k)


def edge_set(g: Graph) -> frozenset[tuple[int, int]]:
    """The edges of g as tuples (u, v), u < v."""
    return frozenset(zip(*g.pairs.T.tolist()))


def neighbours(g: Graph) -> list[set[int]]:
    """The neighbour set of each vertex of g."""
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in zip(*g.pairs.T.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def assignment_of(coloring: EdgeColoring) -> dict[tuple[int, int], int]:
    """The colouring as a dict {(u, v): color}, in assignment order."""
    return dict(zip(zip(*coloring.ends.T.tolist()), coloring.colors.tolist()))


# --- small graphs ---------------------------------------------------------------

def cycle(n: int) -> Graph:
    return graph_of(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return graph_of(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return graph_of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless(n: int) -> Graph:
    return graph_of(n, [])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return graph_of(10, edges)


def colors_used(coloring: EdgeColoring) -> set[int]:
    """The colours that at least one edge of the colouring takes."""
    return set(np.unique(coloring.colors).tolist())


def color_counts(coloring: EdgeColoring) -> dict[int, int]:
    """The number of edges of each colour, in the order the colours first occur."""
    return dict(Counter(coloring.colors.tolist()))


def normalized(coloring: EdgeColoring) -> EdgeColoring:
    """Relabel colors to a contiguous 1..k range, preserving relative order.

    A coloring that already uses exactly 1..declared_color_count is
    returned as is.
    """
    used = np.unique(coloring.colors)
    if len(used) == coloring.declared_color_count:
        return coloring
    # coloring.ends held no repeat when coloring was built, and it is read-only
    return EdgeColoring._of_rows(coloring.ends, np.searchsorted(used, coloring.colors) + 1,
                                 len(used))


def neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.vertex_count
    for u, v in edge_set(g):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def naive_alpha(g: Graph) -> int:
    """Plain subset enumeration; only for graphs with <= 16 vertices."""
    assert g.vertex_count <= 16
    masks = neighbor_masks(g)
    best = 0
    for subset in range(1 << g.vertex_count):
        if any(subset >> v & 1 and subset & masks[v] for v in range(g.vertex_count)):
            continue
        best = max(best, bin(subset).count("1"))
    return best


def naive_omega(g: Graph) -> int:
    assert g.vertex_count <= 16
    masks = neighbor_masks(g)
    full = (1 << g.vertex_count) - 1
    best = 0
    for subset in range(1 << g.vertex_count):
        members = [v for v in range(g.vertex_count) if subset >> v & 1]
        if all((masks[v] | 1 << v) & subset == subset for v in members):
            best = max(best, len(members))
    return best


def find_ham_cycle(g: Graph) -> list[int] | None:
    """Backtracking Hamiltonian cycle search for small graphs."""
    n = g.vertex_count
    nbrs = neighbours(g)
    adj = [sorted(a) for a in nbrs]
    visited = [False] * n
    visited[0] = True
    order = [0]

    def dfs() -> bool:
        if len(order) == n:
            return 0 in nbrs[order[-1]]
        for w in adj[order[-1]]:
            if not visited[w]:
                visited[w] = True
                order.append(w)
                if dfs():
                    return True
                order.pop()
                visited[w] = False
        return False

    return list(order) if dfs() else None


def is_hamiltonian(g: Graph, seq: list[int], closed: bool,
                   start: int | None = None, end: int | None = None) -> bool:
    """Definition check: a permutation of the vertices whose consecutive pairs
    (and, when closed, the last and first) are all edges, with the given ends.
    The oracle for verify_hamiltonian_cycle and verify_hamiltonian_path."""
    n = g.vertex_count
    if sorted(seq) != list(range(n)) or (closed and n < 3):
        return False
    pairs = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if closed else [])
    edges = edge_set(g)
    if not all((min(u, v), max(u, v)) in edges for u, v in pairs):
        return False
    return (start is None or seq[0] == start) and (end is None or seq[-1] == end)


def reference_verify_edge_coloring(g: Graph, coloring: EdgeColoring,
                                   require_total: bool = True) -> VerificationReport:
    """Per-vertex dictionary check of an edge coloring: the oracle for
    graphcert.core.verify_edge_coloring, which must report the same tuple."""
    detail: list[str] = []
    delta = max_degree(g) if g.vertex_count else 0
    edges, assignment = edge_set(g), assignment_of(coloring)
    for e in assignment:
        if e not in edges:
            detail.append(f"colored edge {e} not in graph")
    seen: dict[int, dict[int, tuple[int, int]]] = {}
    for e, c in assignment.items():
        for v in e:
            at_v = seen.setdefault(v, {})
            if c in at_v:
                detail.append(f"color {c} repeated at vertex {v} on {at_v[c]} and {e}")
            else:
                at_v[c] = e
    if require_total:
        missing = edges - set(assignment)
        for e in sorted(missing)[:10]:
            detail.append(f"edge {e} uncolored")
        if len(missing) > 10:
            detail.append(f"...{len(missing) - 10} more uncolored edges")
    return _report(detail, len(colors_used(coloring)), delta)


def reference_vizing_delta_plus_one(g: Graph, order: Sequence[tuple[int, int]] | None = None
                                    ) -> EdgeColoring:
    """Fan rotation with per-edge uncolour and recolour: the oracle for
    graphcert.core.vizing_delta_plus_one, which must give the same colouring
    for every insertion order."""
    if g.edge_count == 0:
        return coloring_of({}, 0)
    palette = max_degree(g) + 1
    at: list[dict[int, int]] = [dict() for _ in range(g.vertex_count)]
    present = [1] * g.vertex_count  # bit c set when color c is at v; bit 0 always
    color_of: dict[tuple[int, int], int] = {}

    def free(v: int) -> int:
        return lowest_bit(~present[v])

    def set_color(u: int, v: int, c: int) -> None:
        e = _normalize_edge(u, v)
        old = color_of.get(e)
        if old is not None:
            del at[u][old]
            del at[v][old]
            present[u] ^= 1 << old
            present[v] ^= 1 << old
        color_of[e] = c
        at[u][c] = v
        at[v][c] = u
        present[u] |= 1 << c
        present[v] |= 1 << c

    def uncolor(u: int, v: int) -> None:
        e = _normalize_edge(u, v)
        old = color_of.pop(e)
        del at[u][old]
        del at[v][old]
        present[u] ^= 1 << old
        present[v] ^= 1 << old

    def walk(start: int, first: int, second: int) -> list[tuple[int, int, int]]:
        # Maximal path from start whose edges alternate first, second, ...
        # start must miss one of the two colors, so this is a simple path.
        chain: list[tuple[int, int, int]] = []
        cur, col = start, first
        while col in at[cur]:
            nxt = at[cur][col]
            chain.append((cur, nxt, col))
            cur = nxt
            col = first if col == second else second
        return chain

    def invert(chain: list[tuple[int, int, int]], c: int, d: int) -> None:
        for x, y, _ in chain:
            uncolor(x, y)
        for x, y, col in chain:
            set_color(x, y, c if col == d else d)

    def rotate_finish(u: int, prefix: list[int], final_color: int) -> None:
        # Edge (u, prefix[0]) is uncolored; shift colors down the fan.
        cols = [color_of[_normalize_edge(u, f)] for f in prefix[1:]]
        for f in prefix[1:]:
            uncolor(u, f)
        for f, col in zip(prefix[:-1], cols):
            set_color(u, f, col)
        set_color(u, prefix[-1], final_color)

    for e in (order if order is not None else sorted(edge_set(g))):
        u, v = e
        # Maximal fan at u starting with v; fan_cols[i] = color of (u, fan[i+1]),
        # which is a color missing at fan[i].
        fan = [v]
        fan_cols: list[int] = []
        in_fan = {v}
        while True:
            d = free(fan[-1])
            w = at[u].get(d)
            if w is None or w in in_fan:
                break
            fan.append(w)
            fan_cols.append(d)
            in_fan.add(w)
        d = free(fan[-1])
        if d not in at[u]:
            rotate_finish(u, fan, d)
            continue
        c = free(u)
        path = walk(fan[-1], c, d)
        end = path[-1][1] if path else fan[-1]
        if end == u:
            # u terminates the c,d path from the fan tip; use the earlier fan
            # vertex that also misses d. Its c,d path cannot reach u.
            i0 = fan_cols.index(d)
            invert(walk(fan[i0], c, d), c, d)
            prefix = fan[:i0 + 1]
        else:
            invert(path, c, d)
            prefix = fan
        j = next(i for i, f in enumerate(prefix) if c not in at[f])
        rotate_finish(u, prefix[:j + 1], c)

    used = max(color_of.values())
    if used > palette:
        raise CertificateError(f"fan rotation used {used} colors, more than Δ+1 = {palette}")
    return coloring_of(color_of, used)


def snapshot(state: ColorState, edges: Iterable[tuple[int, int]], declared: int) -> EdgeColoring:
    """The colours state gives these edges, as they are, over colours 1..declared."""
    at = state.at
    return coloring_of({(u, v): at[u].index(v) for u, v in edges}, declared)


def vizing_coloring(g: Graph, order: Sequence[tuple[int, int]] | None = None) -> EdgeColoring:
    """The colouring of graphcert.core.vizing_delta_plus_one's state, unrelabelled,
    over colours 1..the highest it used, as the reference Vizing declares it."""
    state = vizing_delta_plus_one(g, order)
    return snapshot(state, edge_set(g), state.colors)


def chain_counts(state: ColorState, start: int, a: int, b: int
                 ) -> tuple[int, int, tuple[int, int] | None]:
    """The maximal (a,b)-alternating component through start, counted.

    Returns its length, its number of a-coloured edges and the two end
    vertices of a path (the end reached by leaving start on a first), or
    None for a closed cycle and for an empty chain. Colours alternate along
    the walk, so the a-edges are the odd steps of the walk that leaves start
    on a and the even steps of the one that leaves on b.
    """
    at = state.at
    out = 0
    cur, col, other = start, a, b
    while (nxt := at[cur][col]) is not None:
        out += 1
        if nxt == start:
            return out, out // 2, None
        cur, col, other = nxt, other, col
    first_end = cur
    back = 0
    cur, col, other = start, b, a
    while (nxt := at[cur][col]) is not None:
        back += 1
        cur, col, other = nxt, other, col
    length = out + back
    return length, (out + 1) // 2 + back // 2, ((first_end, cur) if length else None)


def missing_after_swap(state: ColorState, full: int, v: int,
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


def reference_scored_moves(state: ColorState, u: int, v: int, target: int, not_target: int
                           ) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The candidate switches for the target edge (u, v), collected in a set,
    sorted and scored by one chain_counts call each: the oracle for
    graphcert.kempe._scored_moves, which must list the same moves with the
    same scores in the same order."""
    present = state.present
    candidates: set[tuple[int, int, int]] = set()
    for w, other in ((u, v), (v, u)):
        candidates.update((w, target, c) for c in _bits(not_target))
        for acol in _bits(not_target & ~present[w]):
            for bcol in _bits(not_target & ~present[other] & ~(1 << acol)):
                candidates.add((other, acol, bcol))
    moves: list[tuple[int, int, int]] = []
    scores: list[int] = []
    for anchor, acol, bcol in sorted(candidates):
        length, t, ends = chain_counts(state, anchor, acol, bcol)
        if not length:
            continue
        if acol == target:
            score = (2 * t - length) * 1000 - length
        else:
            freed = (missing_after_swap(state, not_target, u, ends, acol, bcol)
                     & missing_after_swap(state, not_target, v, ends, acol, bcol))
            score = (1000 if freed else 0) - length
        moves.append((anchor, acol, bcol))
        scores.append(score)
    return moves, scores


def _uncolor(state: ColorState, x: int, y: int, col: int) -> None:
    state.at[x][col] = state.at[y][col] = None
    state.present[x] ^= 1 << col
    state.present[y] ^= 1 << col


def _color(state: ColorState, x: int, y: int, col: int) -> None:
    state.at[x][col], state.at[y][col] = y, x
    state.present[x] |= 1 << col
    state.present[y] |= 1 << col


def reference_switch(state: ColorState, start: int, a: int, b: int) -> None:
    """Swap a and b on the component of start in the subgraph of the a- and
    b-coloured edges, found by a search rather than a walk: every edge is
    uncoloured, then each takes the other colour."""
    at = state.at
    seen, stack, chain = {start}, [start], set()
    while stack:
        x = stack.pop()
        for col in (a, b):
            y = at[x][col]
            if y is not None:
                chain.add((min(x, y), max(x, y), col))
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    for x, y, col in chain:
        _uncolor(state, x, y, col)
    for x, y, col in chain:
        _color(state, x, y, a if col == b else b)


def reference_eliminate_color(g: Graph, coloring: EdgeColoring, target: int,
                              budget: SearchBudget) -> EdgeColoring | None:
    """Colour elimination that rescans at for the whole target class every
    round, scores the candidates with reference_scored_moves and edits the
    colouring one edge at a time: the oracle for
    graphcert.kempe.eliminate_color, which must make the same switches and
    the same random draws."""
    report = verify_edge_coloring(g, coloring)
    if not report.ok:
        raise ValueError(f"input coloring is not proper/total: {report.detail}")
    declared = coloring.declared_color_count
    state = ColorState.of(g.vertex_count, coloring)
    at, present = state.at, state.present
    full = (1 << (declared + 1)) - 2  # bits 1..declared
    rng = random.Random(budget.seed)
    not_target = full & ~(1 << target)
    switches = 0
    while True:
        targets = [(u, v) for u, row in enumerate(at) if (v := row[target]) is not None and u < v]
        if not targets:
            return normalized(snapshot(state, assignment_of(coloring), declared))
        progress = False
        for e in targets:
            u, v = e
            common = not_target & ~(present[u] | present[v])
            if common:
                _uncolor(state, u, v, target)
                _color(state, u, v, lowest_bit(common))
                progress = True
        if progress:
            continue
        if switches >= budget.max_switches:
            return None
        u, v = targets[rng.randrange(len(targets))]
        best: tuple[tuple[int, float], tuple[int, int, int]] | None = None
        for move, score in zip(*reference_scored_moves(state, u, v, target, not_target)):
            key = (score, rng.random())
            if best is None or key > best[0]:
                best = (key, move)
        if best is None:
            return None
        reference_switch(state, *best[1])
        switches += 1


def reference_find_class1(g: Graph, budget: SearchBudget,
                          warm_start: EdgeColoring | None = None) -> SearchOutcome:
    """The Kempe search one EdgeColoring at a time: each elimination starts
    from a colouring, loads it into a fresh state and hands back its
    relabelled copy. The oracle for graphcert.kempe.find_class1, which keeps
    one state per restart and must make the same switches and draws."""
    if g.edge_count == 0:
        return SearchOutcome(coloring_of({}, 0), "ok", 0)
    if is_overfull(g):
        return SearchOutcome(None, "overfull", 0)
    delta = max_degree(g)
    if warm_start is not None:
        report = verify_edge_coloring(g, warm_start)
        if not report.ok:
            raise CertificateError(f"warm start is not a proper total coloring: "
                                   f"{'; '.join(report.detail)}")
    for r in range(budget.max_restarts):
        sub_seed = budget.seed * 1_000_003 + r
        if r == 0 and warm_start is not None:
            current = warm_start
        else:
            order = sorted(edge_set(g))
            random.Random(sub_seed).shuffle(order)
            current = reference_vizing_delta_plus_one(g, order)
        while len(colors_used(current)) > delta:
            counts = color_counts(current)
            target = min(counts, key=lambda c: (counts[c], c))
            sub_budget = SearchBudget(budget.max_switches, budget.max_restarts, sub_seed)
            nxt = reference_eliminate_color(g, current, target, sub_budget)
            if nxt is None:
                break
            current = nxt
        if len(colors_used(current)) <= delta:
            return SearchOutcome(normalized(current), "ok", r + 1)
    return SearchOutcome(None, "budget", budget.max_restarts)


def reference_derive(m: int, n: int) -> DerivedMulticycle:
    """Project the edges colored 2m-2 by the canonical bishop coloring onto
    their row indices, arranged on the k-step cycle. Colours the whole board:
    the oracle for graphcert.multicycle.derive, which builds one path group."""
    if m % 2 == 0 or n % 2 == 0 or m > n:
        raise ValueError("derive needs odd m <= n")
    if m < 3:
        raise ValueError("derive needs m >= 3")
    k = m // 2
    cyan = rarest_bishop_color(m)
    coloring = canonical_bishop_coloring(m, n)
    pos = {(j * k) % m + 1: j for j in range(m)}
    slot_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for edge, color in assignment_of(coloring).items():
        if color != cyan:
            continue
        r1 = id_to_coord(edge[0], n).row
        r2 = id_to_coord(edge[1], n).row
        p1, p2 = pos[r1], pos[r2]
        if (p1 + 1) % m == p2:
            slot_edges[p1].append(edge)
        elif (p2 + 1) % m == p1:
            slot_edges[p2].append(edge)
        else:
            raise CertificateError("projected edge joins non-adjacent positions")
    mult = tuple(len(s) for s in slot_edges)
    return DerivedMulticycle(m, n, Multicycle(mult), tuple(tuple(sorted(s)) for s in slot_edges))


# --- board generators and constructions, one edge at a time --------------------


def reference_build_rook(m: int, n: int) -> Graph:
    """Rook edges pair by pair: the oracle for graphcert.chess.build_rook."""
    _check_board(m, n)
    edges = [(row * n + c1, row * n + c2)
             for row in range(m) for c1 in range(n) for c2 in range(c1 + 1, n)]
    edges += [(r1 * n + col, r2 * n + col)
              for col in range(n) for r1 in range(m) for r2 in range(r1 + 1, m)]
    return graph_of(m * n, edges)


def reference_bishop_edge_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """Bishop edges (u, v), u the lower-column endpoint, square by square in
    the order of graphcert.chess.bishop_edge_pairs, which must list the same."""
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


def reference_build_bishop(m: int, n: int, color_filter: SquareColor = SquareColor.ALL
                           ) -> Graph:
    """Bishop graph edge by edge: the oracle for graphcert.chess.build_bishop."""
    pairs = reference_bishop_edge_pairs(m, n)
    if color_filter is not SquareColor.ALL:
        white = color_filter is SquareColor.WHITE
        pairs = [(u, v) for u, v in pairs if ((u % n + u // n) % 2 == 0) == white]
    return graph_of(m * n, pairs)


def reference_build_queen(m: int, n: int) -> Graph:
    """Union of the oracle rook and bishop edge sets."""
    edges = edge_set(reference_build_rook(m, n)) | edge_set(reference_build_bishop(m, n))
    return graph_of(m * n, edges)


def reference_group_buckets(m: int, n: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Bishop edges by path group (i, sign), one edge at a time."""
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in reference_bishop_edge_pairs(m, n):
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


def reference_walk_paths(edges: Iterable[tuple[int, int]], n: int) -> list[tuple[int, ...]]:
    """Split the edges of one path group into paths, each walked from its
    leftmost end (smallest column, then row) and listed in the order of
    those ends. Raises CertificateError on a vertex of degree > 2 or a cycle."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) > 2 for nbrs in adj.values()):
        raise CertificateError("path group has a vertex of degree > 2")
    paths = []
    far_ends: set[int] = set()
    walked = 0
    ends = sorted((v for v, nbrs in adj.items() if len(nbrs) == 1),
                  key=lambda v: (v % n, v // n))
    for start in ends:
        if start in far_ends:
            continue
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


def reference_bishop_path_decomposition(m: int, n: int) -> PathDecomposition:
    """Path groups walked vertex by vertex: the oracle for
    graphcert.bishop_rook.bishop_path_decomposition."""
    buckets = reference_group_buckets(m, n)
    groups = []
    for i in range(1, m // 2 + 1):
        for sign in (1, -1):
            if m % 2 == 0 and 2 * i == m and sign == -1:
                continue
            paths = reference_walk_paths(buckets.get((i, sign), ()), n)
            groups.append(PathGroup(i, sign, tuple(paths)))
    return PathDecomposition(m, n, tuple(groups))


def reference_canonical_bishop_coloring(m: int, n: int) -> EdgeColoring:
    """Each path of the oracle decomposition 2-coloured from its leftmost edge:
    the oracle for graphcert.bishop_rook.canonical_bishop_coloring."""
    assignment: dict[tuple[int, int], int] = {}
    for grp in reference_bishop_path_decomposition(m, n).groups:
        first = 4 * grp.i - 3 if grp.sign > 0 else 4 * grp.i - 1
        for path in grp.paths:
            for idx, (u, v) in enumerate(zip(path, path[1:])):
                assignment[_normalize_edge(u, v)] = first + idx % 2
    return coloring_of(assignment, bishop_delta(m, n) if assignment else 0)


def _odd_color(u: int, v: int, n: int) -> int:
    return ((u + v) * ((n + 1) // 2)) % n


def _even_class(u: int, v: int, n: int) -> int:
    h = n - 1
    if v == h:
        return u
    if u == h:
        return v
    return ((u + v) * (n // 2)) % (n - 1)


def reference_k_odd_prescribed_missing(n: int, desired: Sequence[int],
                                       matching_class: bool) -> dict[tuple[int, int], int]:
    """K_n (n odd) coloured pair by pair so vertex u misses desired[u]."""
    perm = list(range(n))
    if matching_class:
        for t in range(1, (n - 1) // 2 + 1):
            perm[t] = 2 * t - 1
            perm[n - t] = 2 * t
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return {(x, y): desired[perm[_odd_color(inv[x], inv[y], n)]]
            for x in range(n) for y in range(x + 1, n)}


def reference_rook_class1_coloring(m: int, n: int) -> EdgeColoring:
    """Row and column complete graphs coloured pair by pair: the oracle for
    graphcert.bishop_rook.rook_class1_coloring."""
    assignment: dict[tuple[int, int], int] = {}
    for r0 in range(m):
        for x in range(n):
            for y in range(x + 1, n):
                if n % 2 == 1:
                    c = _odd_color(x, y, n) + 1
                else:
                    cls = _even_class(x, y, n)
                    c = cls + 1 if m % 2 == 0 else (r0 + 1 if cls == 0 else m + cls)
                assignment[(r0 * n + x, r0 * n + y)] = c
    for j in range(n):
        for u in range(m):
            for v in range(u + 1, m):
                if m % 2 == 1:
                    c = _odd_color(u, v, m) + 1
                else:
                    cls = _even_class(u, v, m)
                    c = cls + n if n % 2 == 0 else (j + 1 if cls == 0 else n + cls)
                assignment[(u * n + j, v * n + j)] = c
    return coloring_of(assignment, m + n - 2)


# --- board squares and ladder plans, used only by the tests ---------------------

@dataclass(frozen=True)
class BoardCoord:
    """A board square; col 1..n, row 1..m."""

    col: int
    row: int

    @property
    def white(self) -> bool:
        return (self.col + self.row) % 2 == 0


def id_to_coord(v: int, n: int) -> BoardCoord:
    return BoardCoord(col=v % n + 1, row=v // n + 1)


def coord_to_id(c: BoardCoord, n: int) -> int:
    return (c.row - 1) * n + (c.col - 1)


@dataclass(frozen=True)
class MissingColorPlan:
    """Which A color, A = {m+1..m+n-1}, each vertex outside column 1 misses
    in a ladder coloring: rows[r-1][c-2] is the one missing at (col c, row r).
    Column-1 vertices miss their row color instead."""

    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def fixed(self) -> dict[int, int]:
        """The plan as ladder_coloring's map from vertex ids to A colors."""
        return {r * self.n + c: color for r, row in enumerate(self.rows)
                for c, color in enumerate(row, start=1)}

    def missing_at(self, col: int, row: int) -> int:
        return self.rows[row - 1][col - 2]


def reference_ladder_coloring(m: int, n: int, plan: MissingColorPlan) -> EdgeColoring:
    """Columns and rows coloured pair by pair: the oracle for
    graphcert.bishop_rook.ladder_coloring."""
    assignment: dict[tuple[int, int], int] = {}
    for j in range(n):
        for u in range(m):
            for v in range(u + 1, m):
                assignment[(u * n + j, v * n + j)] = _odd_color(u, v, m) + 1
    for r0 in range(m):
        row = reference_k_odd_prescribed_missing(n, [r0 + 1, *plan.rows[r0]], True)
        for (x, y), c in row.items():
            assignment[(r0 * n + x, r0 * n + y)] = c
    return coloring_of(assignment, m + n - 1)


# --- complete graphs and ladder missing colours, used only by the tests ---------

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
    perm = np.arange(n)
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
    inv = np.argsort(perm)
    x, y = np.triu_indices(n, 1)
    scheme = _k_odd_color if n % 2 == 1 else _k_even_class
    return EdgeColoring.from_arrays(np.column_stack((x, y)), scheme(inv[x], inv[y], n) + 1,
                                    n if n % 2 == 1 else n - 1)


def ladder_missing_color(plan: MissingColorPlan, coord: BoardCoord) -> int:
    """The single color absent at a vertex under the ladder coloring."""
    if coord.col == 1:
        return coord.row
    return plan.missing_at(coord.col, coord.row)


def is_decomposition(g: Graph, cycles: Sequence[Sequence[int]],
                     matching: Iterable[tuple[int, int]] | None = None) -> bool:
    """Definition check: every cycle is a Hamiltonian cycle of g, the matching
    (when given) covers every vertex once, and together their edges are the
    edges of g, each exactly once. The oracle for
    verify_hamiltonian_decomposition."""
    used = []
    for cyc in cycles:
        if not is_hamiltonian(g, list(cyc), closed=True):
            return False
        used += [tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(len(cyc))]
    if matching is not None:
        matching = [tuple(sorted(e)) for e in matching]
        if sorted(v for e in matching for v in e) != list(range(g.vertex_count)):
            return False
        used += matching
    return sorted(used) == sorted(edge_set(g))


def reference_verify_hamiltonian_decomposition(g: Graph, cycles: Sequence[Sequence[int]],
                                               matching=None) -> VerificationReport:
    """Edge-tuple bookkeeping: the oracle for
    graphcert.core.verify_hamiltonian_decomposition, which must report the
    same detail."""
    detail: list[str] = []
    used: set[tuple[int, int]] = set()
    edges = edge_set(g)

    def claim(e: tuple[int, int], part: str) -> None:
        if e in used:
            detail.append(f"edge {e} reused by {part}")
        used.add(e)

    for idx, cyc in enumerate(cycles):
        rep = verify_hamiltonian_cycle(g, cyc)
        if not rep.ok:
            detail.append(f"cycle {idx}: " + "; ".join(rep.detail))
            continue
        for u, v in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            claim(_normalize_edge(u, v), f"cycle {idx}")
    parts = len(cycles)
    if matching is not None:
        parts += 1
        covered: set[int] = set()
        for u, v in matching:
            e = _normalize_edge(u, v)
            if e not in edges:
                detail.append(f"matching edge {e} not in graph")
            if u in covered or v in covered:
                detail.append(f"matching repeats a vertex on {e}")
            covered.update((u, v))
            claim(e, "matching")
        if len(covered) != g.vertex_count:
            detail.append("matching is not perfect")
    leftover = edges - used
    if leftover:
        detail.append(f"{len(leftover)} edges uncovered, e.g. {sorted(leftover)[:5]}")
    return _report(detail, parts)


def _unsigned_token(token: str, lineno: int, raw: str, error: type) -> int:
    if not re.fullmatch("[0-9]+", token):
        raise error(f"line {lineno}: non-integer token in {raw.strip()!r}")
    return int(token)


def reference_read_dimacs(fh: IO[str]) -> Graph:
    """Line-by-line DIMACS reader: the oracle for graphcert.io.read_dimacs,
    which must return the same graph or raise the same error."""
    n = declared = None
    rows: list[tuple[int, int, int]] = []  # (line, a, b) with 1-based ids as written
    for lineno, raw in enumerate(fh, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "e":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: bad edge line {raw.strip()!r}")
            a, b = (_unsigned_token(t, lineno, raw, ValueError) for t in parts[1:])
            rows.append((lineno, a, b))
        elif parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: bad problem line {raw.strip()!r}")
            if n is not None:
                raise ValueError(f"line {lineno}: second 'p edge' line")
            n, declared = (_unsigned_token(t, lineno, raw, ValueError) for t in parts[2:])
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'p edge' line")
    for lineno, a, b in rows:
        for x in (a, b):
            if not 1 <= x <= n:
                raise ValueError(f"line {lineno}: vertex id {x} outside 1..{n}")
        if a == b:
            raise ValueError(f"self loop at vertex {a - 1}")
    g = graph_of(n, frozenset((min(a, b) - 1, max(a, b) - 1) for _, a, b in rows))
    if g.edge_count != declared:
        raise ValueError(f"declared {declared} edges, found {g.edge_count}")
    return g


def reference_read_coloring(fh: IO[str]) -> EdgeColoring:
    """Line-by-line colouring reader: the oracle for graphcert.io.read_coloring,
    which must return the same colouring or raise the same error."""
    declared = None
    assignment: dict[tuple[int, int], int] = {}
    lineno = 0
    for lineno, raw in enumerate(fh, 1):
        if not raw.isascii():
            raise CertificateError(f"line {lineno}: non-ASCII byte")
        parts = raw.split()
        if not parts:
            continue
        if parts[0][0] == "c":
            body = raw.strip()[1:].strip()
            if body.startswith("k="):
                if declared is not None:
                    raise CertificateError(f"line {lineno}: second 'c k=' line")
                declared = _unsigned_token(body[2:].strip(), lineno, raw, CertificateError)
            continue
        if len(parts) != 3:
            raise CertificateError(f"line {lineno}: expected 'u v color', got {raw.strip()!r}")
        u, v, c = (_unsigned_token(t, lineno, raw, CertificateError) for t in parts)
        if u == v:
            raise CertificateError(f"line {lineno}: self loop at vertex {u}")
        key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if key in assignment:
            raise CertificateError(f"line {lineno}: edge {u} {v} listed twice")
        assignment[key] = c
    if declared is None:
        raise CertificateError(f"line {lineno + 1}: end of file without a 'c k=<count>' line")
    for (lo, hi), c in assignment.items():
        if not 1 <= c <= declared:
            raise CertificateError(f"edge {lo + 1} {hi + 1}: color {c} outside 1..{declared}")
    return coloring_of(assignment, declared)


# --- the writers, one %-formatted batch of Python ints at a time ---------------

def _reference_open_write(path_or_file) -> tuple[IO[str], bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="ascii"), True


# rows per write; keeps each formatted string small
_REFERENCE_ROW_BATCH = 4096


def _reference_write_rows(fh: IO[str], row_format: str, rows: np.ndarray) -> None:
    """Write each row of an integer array as row_format % row, one batch at a time."""
    for start in range(0, len(rows), _REFERENCE_ROW_BATCH):
        batch = rows[start:start + _REFERENCE_ROW_BATCH]
        fh.write(row_format * len(batch) % tuple(batch.ravel().tolist()))


def reference_write_dimacs(g: Graph, path_or_file, comments: Iterable[str] = ()) -> None:
    """The %-formatting DIMACS writer: the oracle for graphcert.io.write_dimacs,
    which must write the same bytes."""
    fh, close = _reference_open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"p edge {g.vertex_count} {g.edge_count}\n")
        _reference_write_rows(fh, "e %d %d\n", g.pairs + 1)
    finally:
        if close:
            fh.close()


def reference_write_coloring(coloring: EdgeColoring, path_or_file,
                             comments: Iterable[str] = ()) -> None:
    """The %-formatting colouring writer, which sorts every colouring: the oracle
    for graphcert.io.write_coloring, which must write the same bytes."""
    fh, close = _reference_open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"c k={coloring.declared_color_count}\n")
        ends = coloring.ends
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        _reference_write_rows(fh, "%d %d %d\n",
                              np.column_stack((ends[order] + 1, coloring.colors[order])))
    finally:
        if close:
            fh.close()


# --- Keller digit rule, one vertex at a time -------------------------------------------

def keller_digits(v: int, d: int) -> tuple[int, ...]:
    """The base-4 digits of vertex code v, most significant first."""
    if not 0 <= v < 4 ** d:
        raise ValueError(f"{v} out of range for d={d}")
    return tuple((v >> 2 * (d - 1 - i)) & 3 for i in range(d))


def adjacent(u: int, v: int, d: int) -> bool:
    """Scalar form of the Keller adjacency rule; the array paths of keller must agree with it."""
    diffs = [(a - b) % 4 for a, b in zip(keller_digits(u, d), keller_digits(v, d))]
    return sum(1 for x in diffs if x) >= 2 and any(x == 2 for x in diffs)


def reference_color_kernel(d: int) -> ColorKernel:
    """The kernel by one test per vector: a 2 among at least two non-zero digits."""
    even, odd = [], []
    for value in range(4 ** d):
        digits = keller_digits(value, d)
        if 2 in digits and sum(1 for x in digits if x) >= 2:
            (even if all(x % 2 == 0 for x in digits) else odd).append(value)
    return ColorKernel(d, tuple(even), tuple(odd))


def reference_class1_coloring(d: int) -> dict[tuple[int, int], int]:
    """The kernel colouring of G_d as a map {(u, v): colour}, by one loop per
    orbit, as class1_coloring's docstring states it: one colour for each even
    kernel element, ascending, then two for each odd pair (s, -s), s < -s,
    ascending in s. Even s colours every {v, v+s}; an odd pair walks each
    orbit v, v+s, v+2s, v+3s from its smallest vertex v and colours (v, v+s),
    (v+2s, v+3s) with its first colour and (v, v+3s), (v+s, v+2s) with the
    next."""
    def plus(v: int, s: int) -> int:
        code = 0
        for a, b in zip(keller_digits(v, d), keller_digits(s, d)):
            code = 4 * code + (a + b) % 4
        return code

    def negated(s: int) -> int:
        code = 0
        for a in keller_digits(s, d):
            code = 4 * code + (-a) % 4
        return code

    kernel = reference_color_kernel(d)
    out: dict[tuple[int, int], int] = {}
    color = 0
    for s in kernel.even:
        color += 1
        for v in range(4 ** d):
            out[min(v, plus(v, s)), max(v, plus(v, s))] = color
    for s in kernel.odd:
        if negated(s) < s:
            continue
        first, second = color + 1, color + 2
        color += 2
        seen: set[int] = set()
        for v in range(4 ** d):  # the first unseen vertex of an orbit is its smallest
            if v in seen:
                continue
            orbit = [v]
            for _ in range(3):
                orbit.append(plus(orbit[-1], s))
            seen.update(orbit)
            for (a, b), c in (((0, 1), first), ((2, 3), first), ((0, 3), second),
                              ((1, 2), second)):
                out[min(orbit[a], orbit[b]), max(orbit[a], orbit[b])] = c
    return out


def reference_row_col(v: int, d: int) -> tuple[int, int]:
    """Square row and column of v, one digit at a time."""
    row = col = 0
    for x in keller_digits(v, d):
        row = row * 2 + (1 if x in (2, 3) else 0)
        col = col * 2 + (1 if x in (1, 2) else 0)
    return row, col


def vertex_string(v: int, d: int) -> str:
    """The d base-4 digits of vertex code v, most significant first."""
    if not 0 <= v < 4 ** d:
        raise ValueError(f"{v} out of range for d={d}")
    return np.base_repr(v, 4).zfill(d)


def reference_vertex_string(v: int, d: int) -> str:
    return "".join(str(x) for x in keller_digits(v, d))


def reference_parse_vertex(text: str, d: int) -> int:
    """A d-char digit string read digit by digit, else a base-10 integer in range."""
    text = text.strip()
    if len(text) == d and all(ch in "0123" for ch in text):
        value = 0
        for ch in text:
            value = value * 4 + int(ch)
        return value
    value = int(text)
    keller_digits(value, d)  # the range check
    return value


def fixture_square(d: int, flipped: bool = False) -> list[list[int]]:
    """The bundled independence square of G_d, as vertex codes."""
    name = f"g{d}_square_flip001" if flipped else f"g{d}_square"
    return [[parse_vertex(tok, d) for tok in row] for row in _fixture_rows(name)]


def perfect_factorization_exists(d: int = 2) -> bool:
    """Exhaustively decide whether G_d has a perfect 1-factorization.

    Every pair of the Delta matchings must union into a Hamiltonian cycle.
    Only d=2 is small enough for the exhaustive claim.
    """
    if d != 2:
        raise ValueError("exhaustive search is limited to d=2")
    g = build(d)
    n = g.vertex_count
    adj = [sorted(a) for a in neighbours(g)]
    all_edges = sorted(edge_set(g))

    def matchings(avail: set[tuple[int, int]], first: tuple[int, int]
                  ) -> Iterable[frozenset[tuple[int, int]]]:
        # perfect matchings within avail that contain the anchor edge
        def extend(uncovered: list[int], picked: list[tuple[int, int]]
                   ) -> Iterable[frozenset[tuple[int, int]]]:
            if not uncovered:
                yield frozenset(picked)
                return
            u = uncovered[0]
            for w in adj[u]:
                e = (u, w) if u < w else (w, u)
                if e in avail and w in uncovered:
                    rest = [x for x in uncovered if x not in (u, w)]
                    yield from extend(rest, picked + [e])
        start = [x for x in range(n) if x not in first]
        yield from extend(start, [first])

    def hamiltonian_pair(m1: frozenset, m2: frozenset) -> bool:
        at: list[list[int | None]] = [[None, None] for _ in range(n)]
        for c, m in enumerate((m1, m2)):
            for u, v in m:
                at[u][c] = v
                at[v][c] = u
        return _union_cycle_count(at, 0, 1)[0] == 1

    def search(avail: set[tuple[int, int]], chosen: list[frozenset]) -> bool:
        if len(chosen) == delta(d):
            return True
        # anchor on the lowest uncovered edge so each factorization is seen once
        anchor = min(avail)
        for m in matchings(avail, anchor):
            if all(hamiltonian_pair(m, prev) for prev in chosen):
                if search(avail - m, chosen + [m]):
                    return True
        return False

    return search(set(all_edges), [])


# --- oracles and checks that only the tests use ---------------------------------

def complement(g: Graph) -> Graph:
    n, edges = g.vertex_count, edge_set(g)
    return graph_of(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges])


def fournier_forest_check(g: Graph) -> bool:
    """True when the subgraph induced by the maximum-degree vertices is a forest.

    A true result certifies class 1 for the whole graph.
    """
    if g.vertex_count == 0:
        raise EmptyGraphError("fournier check on empty graph")
    delta = max_degree(g)
    majors = [v for v, a in enumerate(neighbours(g)) if len(a) == delta]
    index = {v: i for i, v in enumerate(majors)}
    parent = list(range(len(majors)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_set(g):
        if u in index and v in index:
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def exhaustive_chromatic_index(mc: Multicycle, cap: int = 24) -> tuple[int, MulticycleColoring]:
    """Exact chromatic index by branch and bound; guarded by sigma <= cap."""
    if mc.sigma > cap:
        raise CapExceeded(f"sigma {mc.sigma} exceeds oracle cap {cap}")
    m = mc.m
    if mc.sigma == 0:
        return 0, MulticycleColoring(tuple(() for _ in range(m)))
    rot = max(range(m), key=lambda p: mc.mult[p])
    mult = tuple(mc.mult[(rot + i) % m] for i in range(m))

    def feasible(limit: int) -> list[tuple[int, ...]] | None:
        chosen: list[tuple[int, ...]] = []

        def dfs(p: int, max_used: int) -> bool:
            if p == m:
                return True
            need = mult[p]
            banned = set(chosen[p - 1]) if p else set()
            if p == m - 1:
                banned |= set(chosen[0])
            if need == 0:
                chosen.append(())
                if dfs(p + 1, max_used):
                    return True
                chosen.pop()
                return False
            old = [c for c in range(1, max_used + 1) if c not in banned]
            for fresh in range(min(need, limit - max_used) + 1):
                base = tuple(range(max_used + 1, max_used + fresh + 1))
                for pick in itertools.combinations(old, need - fresh):
                    chosen.append(tuple(sorted(pick + base)))
                    if dfs(p + 1, max_used + fresh):
                        return True
                    chosen.pop()
            return False

        got = dfs(0, 0)
        return chosen if got else None

    for limit in itertools.count(mc.lower_bound):
        result = feasible(limit)
        if result is not None:
            slots = [()] * m
            for i, colors in enumerate(result):
                slots[(rot + i) % m] = colors
            return limit, MulticycleColoring(tuple(slots))
    raise AssertionError("unreachable")


def derived_sigma(m: int, n: int) -> int:
    """Number of edges wearing the rarest bishop color 2m-2: every second
    edge, from the leftmost end, along the paths of group (k, -), k = m // 2.
    Neither this nor `derive` colors the whole board."""
    return len(rarest_color_edges(m, n))


def sigma_period_observed(m: int, n_start: int | None = None, samples: int = 4) -> bool:
    """Check whether 2*sigma - m*n repeats with period m^2 - 1 along odd n."""
    if m % 2 == 0:
        raise ValueError("odd m required")
    period = m * m - 1
    n0 = n_start if n_start is not None else m
    for idx in range(samples):
        n = n0 + 2 * idx
        a = 2 * derived_sigma(m, n) - m * n
        b = 2 * derived_sigma(m, n + period) - m * (n + period)
        if a != b:
            return False
    return True


# --- Mycielskians, one tuple at a time ------------------------------------------

def reference_mycielskian(g: Graph) -> Graph:
    """mu(g) edge by edge: the oracle for graphcert.mycielski.mycielskian."""
    n = g.vertex_count
    edges: list[tuple[int, int]] = []
    for u, v in edge_set(g):
        edges += [(u, v), (u, n + v), (v, n + u)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return graph_of(2 * n + 1, edges)


def ham_path_search(g: Graph, s: int, t: int) -> list[int] | None:
    """A Hamiltonian path s -> t by exhaustive DFS, or None (small graphs): the
    oracle for graphcert.mycielski's paths and its parity witness."""
    n = g.vertex_count
    # pairs ascend, so each vertex takes its lower neighbours first, then its
    # higher ones, and both runs ascend
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(*g.pairs.T.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    visited = [False] * n
    visited[s] = True
    path = [s]

    def reachable_t() -> bool:
        # t must stay reachable from the path head through unvisited vertices.
        stack = [path[-1]]
        seen = {path[-1]}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w == t:
                    return True
                if not visited[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def dfs() -> bool:
        u = path[-1]
        if len(path) == n:
            return u == t
        if visited[t] or not reachable_t():
            return False
        for w in adj[u]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                if dfs():
                    return True
                path.pop()
                visited[w] = False
        return False

    return list(path) if dfs() else None


def hc_check_all_pairs(g: Graph) -> bool:
    """True iff every vertex pair admits a Hamiltonian path (small graphs)."""
    if g.vertex_count > 30:
        raise ValueError("all-pairs check is limited to 30 vertices")
    for s in range(g.vertex_count):
        for t in range(s + 1, g.vertex_count):
            if ham_path_search(g, s, t) is None:
                return False
    return True


def decode_vertex_code(code: int, n: int) -> int:
    """Id of a grid code of mu(C_n): 1..n = x1..xn, n+1..2n = y1..yn, 2n+1 = z."""
    if not 1 <= code <= 2 * n + 1:
        raise ValueError(f"code {code} out of range for n={n}")
    return code - 1
