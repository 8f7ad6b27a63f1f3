"""Plain graph types, certificate verifiers, exact small-graph solvers and
the colour state that Vizing and the Kempe searches edit.

Vertices are 0-based ints internally (1-based only in files). Graphs are
simple and undirected. A graph stores its edges as one sorted (E, 2) int32
array, `pairs`, and an edge colouring as an (E, 2) array of edges, `ends`,
with a colour array aligned to it, `colors`. These arrays are the only store
of a finished graph or colouring: the constructions, the verifiers and the
file writers all read them. A search holds its colouring in one ColorState
instead, two per-vertex lists it edits in place, and reads the arrays out
of it once. Everything here is deterministic, and only ColorState's edits
change their argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np


class EmptyGraphError(ValueError):
    """Raised when an operation needs at least one vertex."""


class CertificateError(ValueError):
    """Raised when a certificate is malformed or fails a check that voids it."""


class CapExceeded(ValueError):
    """Raised when an exact solver is asked for more vertices than its cap."""


def _check_integer(a: np.ndarray, what: str, kinds: str = "iu") -> None:
    """Refuse a non-empty array of a dtype outside kinds (integer by default),
    which the int stores would truncate or misread: float, bool, complex,
    string. An object array, where kinds allow one, must hold integers only."""
    if a.size and (a.dtype.kind not in kinds or (a.dtype.kind == "O" and not all(
            isinstance(x, (int, np.integer)) for x in a.tolist()))):
        raise ValueError(f"{what} of dtype {a.dtype} are not integers")


def _narrow(a: np.ndarray) -> np.ndarray:
    """a as int32 when its values fit, else as int64 when they fit there, else as it is."""
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        if not a.size or (info.min <= a.min() and a.max() <= info.max):
            return a.astype(dtype, copy=False)
    return a


def _row(pairs: np.ndarray, i: int) -> tuple[int, int]:
    """Row i of an (E, 2) array as a tuple of Python ints."""
    return tuple(pairs[i].tolist())


def _ascending(pairs: np.ndarray) -> bool:
    """True when the rows (u, v) of an (E, 2) array strictly ascend, by u and then v."""
    u, v = pairs[:, 0], pairs[:, 1]
    return bool(((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all())


_INT32 = np.iinfo(np.int32)


def _row_keys(pairs: np.ndarray) -> np.ndarray | None:
    """One int64 key per row (u, v) of an (E, 2) array, u·2^32 + (v + 2^31),
    ordered as the rows are, by u and then v; None when a column does not fit
    int32, as an int64 or object array from a forged file may not."""
    if pairs.dtype.kind not in "iu" or (pairs.dtype != np.int32 and pairs.size and (
            pairs.min() < _INT32.min or pairs.max() > _INT32.max)):
        return None
    return (pairs[:, 0].astype(np.int64) << 32) + (pairs[:, 1].astype(np.int64) - _INT32.min)


def _row_order(pairs: np.ndarray) -> np.ndarray:
    """The stable order of the rows (u, v) of an (E, 2) array, by u and then v:
    an argsort of the row keys, or a lexsort of the columns when there are none."""
    keys = _row_keys(pairs)
    if keys is None:
        return np.lexsort((pairs[:, 1], pairs[:, 0]))
    return np.argsort(keys, kind="stable")


def _first_repeat(pairs: np.ndarray) -> int:
    """Index of the first row of an (E, 2) array that equals an earlier row, or -1.

    Rows that fit int32 are first told apart by one sorted int64 key each,
    u·2^32 + (v + 2^31) (`_row_keys`): no two equal neighbours there means
    no repeat, and that one sort is all the work. Only a repeat, or rows
    past int32, take the stable row order.
    """
    if _ascending(pairs):
        return -1  # strictly ascending rows cannot repeat
    keys = _row_keys(pairs)
    if keys is not None:
        keys.sort()
        if (keys[1:] != keys[:-1]).all():
            return -1
    # the order is stable, so the first occurrence of each row comes ahead of its repeats
    order = _row_order(pairs)
    ordered = pairs[order]
    repeated = (ordered[1:] == ordered[:-1]).all(axis=1)
    if not repeated.any():
        return -1
    return int(order[1:][repeated].min())


def _frozen(a: np.ndarray, given: np.ndarray) -> np.ndarray:
    """a made read-only, copied first when it shares memory the caller can still write."""
    if given.flags.writeable and np.may_share_memory(a, given):
        a = a.copy()
    a.setflags(write=False)
    return a


class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1.

    The one edge store is `pairs`, a read-only (E, 2) int32 array of the
    edges (u, v) with u < v, sorted and without repeats; `codes`,
    `max_degree` and `edge_index` are computed from it.
    """

    @classmethod
    def from_array(cls, vertex_count: int, pairs: np.ndarray) -> "Graph":
        """The graph on the rows (u, v), u < v, of an (E, 2) integer array.

        Rows may come in any order and may repeat.
        """
        g = cls.__new__(cls)
        g._store(vertex_count, np.asarray(pairs).reshape(-1))
        return g

    def _store(self, vertex_count: int, flat: np.ndarray) -> None:
        """Check the edges (flat[2i], flat[2i+1]) and keep them sorted and unique.

        An array that is not of an integer dtype is refused. The first edge,
        in the given order, that is not 0 <= u < v < n is named. Rows that do
        not already ascend are sorted as one int64 key each, u·n + v, in
        place; repeats are dropped only when there is one, and the keys are
        decoded straight into the int32 store.
        """
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        if vertex_count > 2 ** 31:
            raise ValueError(f"{vertex_count} vertices: ids past int32 are not supported")
        _check_integer(flat, "edge ends")
        u, v = flat[0::2], flat[1::2]
        bad = ~((0 <= u) & (u < v) & (v < vertex_count))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range or unnormalized")
        pairs = flat.reshape(-1, 2)
        if not _ascending(pairs):
            codes = np.multiply(u, vertex_count, dtype=np.int64)
            codes += v
            codes.sort()
            repeat = codes[1:] == codes[:-1]
            if repeat.any():
                codes = codes[np.concatenate(([True], ~repeat))]
            del repeat
            pairs = np.empty((codes.size, 2), np.int32)
            np.floor_divide(codes, vertex_count, out=pairs[:, 0], casting="unsafe")
            np.remainder(codes, vertex_count, out=pairs[:, 1], casting="unsafe")
        self.vertex_count = vertex_count
        self.pairs = _frozen(pairs.astype(np.int32, copy=False), flat)

    @cached_property
    def codes(self) -> np.ndarray:
        """u·n + v for each edge (u, v), ascending: the keys edge_index searches."""
        codes = self.pairs[:, 0].astype(np.int64) * self.vertex_count + self.pairs[:, 1]
        codes.setflags(write=False)
        return codes

    @cached_property
    def max_degree(self) -> int:
        """Largest degree (0 without edges), from a bincount of each column of pairs."""
        # one column at a time: bincount counts an int64 copy of its input
        size = max(1, self.vertex_count)
        return int((np.bincount(self.pairs[:, 0], minlength=size)
                    + np.bincount(self.pairs[:, 1], minlength=size)).max())

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def edge_index(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The row of pairs holding each edge {u[i], v[i]}, or -1 where there is none.

        u and v are int64 arrays, in either order per edge. An id outside the
        graph is never an edge, and neither is u[i] == v[i], whose code no
        edge has. One searchsorted in codes.
        """
        n, codes = self.vertex_count, self.codes
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = np.where((0 <= lo) & (hi < n), lo * n + hi, -1)
        at = np.searchsorted(codes, key)
        found = at < codes.size
        found[found] = codes[at[found]] == key[found]
        return np.where(found, at, -1)


def max_degree(g: Graph) -> int:
    if g.vertex_count == 0:
        raise EmptyGraphError("max degree of empty graph")
    return g.max_degree


def is_overfull(g: Graph) -> bool:
    """Edge count exceeds Δ·⌊n/2⌋, forcing class 2."""
    if g.vertex_count == 0:
        return False
    return g.edge_count > max_degree(g) * (g.vertex_count // 2)


class EdgeColoring:
    """Partial or total assignment of positive color ids to edges.

    The one store is two aligned read-only arrays in assignment order:
    `ends`, an (E, 2) array of the edges (u, v) with u < v, and `colors`;
    each is int32 when its values fit, int64 past that, and an object array
    of Python ints past int64, as a reader makes for a forged certificate.
    """

    @classmethod
    def from_arrays(cls, ends: np.ndarray, colors: np.ndarray,
                    declared_color_count: int) -> "EdgeColoring":
        """The colouring that gives colors[i] to the edge ends[i] = (u, v), u < v.

        ends is (E, 2) and colors has E entries, both of an integer dtype;
        no edge may repeat.
        """
        coloring = cls._of_rows(ends, colors, declared_color_count)
        first = _first_repeat(coloring.ends)
        if first >= 0:
            raise ValueError(f"edge {_row(coloring.ends, first)} colored twice")
        return coloring

    @classmethod
    def _of_rows(cls, ends: np.ndarray, colors: np.ndarray,
                 declared_color_count: int) -> "EdgeColoring":
        """from_arrays without the repeat check, for rows known to hold no repeat.

        Every other check of from_arrays is made. Its callers: from_arrays,
        which then makes the repeat check;
        `io.read_coloring`, which makes its own check first to name the
        line; `shifted`, on the rows of a colouring that holds none
        already; `ColorState.coloring` and the queen constructions
        (`queen._board_coloring`), on the rows of a graph; and the bishop
        and rook colourings of `bishop_rook`, built on board edge lists that
        hold each edge once.
        """
        coloring = cls.__new__(cls)
        coloring._store(np.asarray(ends).reshape(-1), np.asarray(colors).reshape(-1),
                        declared_color_count)
        return coloring

    def _store(self, flat: np.ndarray, colors: np.ndarray, declared: int) -> None:
        """Check each edge (flat[2i], flat[2i+1]) and its colour, and keep both arrays.

        An array of a dtype other than integer or object, or an object array
        holding a value that is not an integer, is refused. The first
        offender in assignment order is named: a colour outside 1..declared
        before an edge that is not u < v.
        """
        if declared < 0:
            raise ValueError("negative color count")
        if flat.size != 2 * colors.size:
            raise ValueError(f"{flat.size // 2} edges but {colors.size} colors")
        _check_integer(flat, "edge ends", "iuO")
        _check_integer(colors, "colors", "iuO")
        u, v = flat[0::2], flat[1::2]
        off_palette = (colors < 1) | (colors > declared)
        bad = off_palette | (u >= v)
        if bad.any():
            i = int(bad.argmax())
            e = (int(u[i]), int(v[i]))
            if off_palette[i]:
                raise ValueError(f"color {colors[i]} on edge {e} outside 1..{declared}")
            raise ValueError(f"self loop at vertex {e[0]}" if e[0] == e[1]
                             else f"unnormalized edge key {e}")
        self.ends = _frozen(_narrow(flat).reshape(-1, 2), flat)
        self.colors = _frozen(_narrow(colors), colors)
        self.declared_color_count = declared

    def shifted(self, offset: int) -> "EdgeColoring":
        # every colour lies in 1..declared, so the sums fit int32 when 1 + offset
        # and declared + offset do, and are made at int64 width (or as Python
        # ints) otherwise, so the shift cannot wrap
        top = self.declared_color_count + offset
        if self.colors.dtype == object:
            colors = self.colors + offset
        else:
            fits = _INT32.min <= 1 + offset and top <= _INT32.max
            colors = np.add(self.colors, offset, dtype=np.int32 if fits else np.int64)
        return EdgeColoring._of_rows(self.ends, colors, top)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Structured verifier output. ok is true iff detail is empty.

    delta is the host's maximum degree in the reports of the edge-colouring
    and multicycle verifiers, which need it to name a colouring's class. The
    Hamiltonian, decomposition and clique-cover verifiers never read it, so
    they report None rather than spend a pass over the edges on it.
    """

    ok: bool
    colors_used: int
    delta: int | None
    detail: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def _report(detail: list[str], colors_used: int, delta: int | None = None
            ) -> VerificationReport:
    return VerificationReport(not detail, colors_used, delta, tuple(detail))


def _colored_ends(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Both ends of every colored edge as one flat array, in assignment order:
    the stored array itself when every end is a vertex, with None for a mask.

    Otherwise an end outside 0..n-1 is relabelled to an id from n up, one id
    per distinct value, in a new int64 array, so no arithmetic ever sees it,
    and the mask of those ends is returned too.
    """
    flat = ends.ravel()
    if flat.dtype != object and (not flat.size or (flat.min() >= 0 and flat.max() < n)):
        return flat, None
    relabel: dict[int, int] = {}
    flat = np.array([x if 0 <= x < n else relabel.setdefault(x, n + len(relabel))
                     for x in flat.tolist()], np.int64)
    return flat, flat >= n


def _color_keys(ends: np.ndarray, colors: np.ndarray, palette: int, top: int) -> np.ndarray:
    """end·palette + colour for each end of each edge, in one new array of
    ends' order: uint32 when top·palette fits it, with every end below top
    (and palette itself, without ends), and int64 otherwise."""
    keys = np.empty(ends.size, np.uint32 if max(top, 1) * palette <= 2 ** 32 else np.int64)
    np.multiply(ends, palette, out=keys, dtype=keys.dtype, casting="unsafe")
    for side in (keys[0::2], keys[1::2]):
        np.add(side, colors, out=side, dtype=keys.dtype, casting="unsafe")
    return keys


def verify_edge_coloring(g: Graph, coloring: EdgeColoring,
                         require_total: bool = True) -> VerificationReport:
    """Check properness of an edge coloring against its host graph.

    The check runs on the stored arrays, with no copy of the ends. A
    colouring whose ends equal g.pairs colours every edge once. Otherwise
    each edge (u, v) gives the code u·n + v; rows in another order sort to
    g.codes. Any other colored codes are searched in g.codes: a code not
    found is a colored non-edge, and the edges no code hits are uncolored.
    Each colored edge gives one key per end, vertex·K + color, all in one
    array, uint32 when n·K < 2^32 and int64 past that, sorted in place; a
    color repeated at a vertex is two equal neighbours there, and only then
    are the keys built again for a stable order. A declared count K too
    large for int64 keys is replaced by the rank of each colour among those
    used.
    An end outside 0..n-1 is reported as not in the graph before any
    arithmetic, and takes part in the repeat check under a relabelled id.
    Detail lines are built from the offending indices only, in this order:
    colored non-edges in assignment order; repeats in assignment order (first
    end before second), each naming the first edge that took the color; then
    up to ten uncolored edges in sorted order. No check rests on assert.
    """
    detail: list[str] = []
    n = g.vertex_count
    ends, outside = _colored_ends(coloring.ends, n)
    colors = coloring.colors
    used = np.unique(colors)
    palette = coloring.declared_color_count + 1
    if palette * (n + ends.size + 1) >= 2 ** 63:  # a forged huge k: compare colors by rank
        colors, palette = np.searchsorted(used, colors), len(used)
    missing = np.zeros(0, np.intp)
    if outside is not None or not np.array_equal(coloring.ends, g.pairs):
        codes = g.codes
        colored = ends[0::2].astype(np.int64) * n + ends[1::2]
        # rows in another order: sorted, their codes are g.codes (rows that
        # ascend and differ from g.pairs cannot be)
        if outside is not None or _ascending(coloring.ends) or not np.array_equal(
                np.sort(colored), codes):
            # a colored non-edge or an uncolored edge: find out which
            at = np.searchsorted(codes, colored)
            in_graph = np.zeros(colored.size, bool)
            if codes.size:
                in_graph = codes[np.minimum(at, codes.size - 1)] == colored
            if outside is not None:
                in_graph &= ~(outside[0::2] | outside[1::2])
            hit = np.zeros(codes.size, bool)
            hit[at[in_graph]] = True
            missing = np.flatnonzero(~hit)
            for i in np.flatnonzero(~in_graph).tolist():
                detail.append(f"colored edge {_row(coloring.ends, i)} not in graph")

    top = n if outside is None else int(ends.max()) + 1
    keys = _color_keys(ends, colors, palette, top)
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    del keys
    if repeated.any():
        # a stable order puts the first occurrence of each key at the head of its run
        order = np.argsort(_color_keys(ends, colors, palette, top), kind="stable")
        first = np.concatenate(([True], ~repeated))
        head = order[np.maximum.accumulate(np.where(first, np.arange(order.size), 0))]
        later, head = order[~first], head[~first]
        by_occurrence = np.argsort(later)
        for j, h in zip(later[by_occurrence].tolist(), head[by_occurrence].tolist()):
            e = _row(coloring.ends, j // 2)
            detail.append(f"color {coloring.colors[j // 2]} repeated at vertex {e[j % 2]} "
                          f"on {_row(coloring.ends, h // 2)} and {e}")
    del repeated  # not held through max_degree's count

    if require_total and missing.size:
        for code in g.codes[missing[:10]].tolist():
            detail.append(f"edge {divmod(code, n)} uncolored")
        if missing.size > 10:
            detail.append(f"...{missing.size - 10} more uncolored edges")
    return _report(detail, len(used), g.max_degree)


def _missing_edges(g: Graph, seq: Sequence[int], closed: bool) -> list[str]:
    """A line for each step of seq (and its last to first, when closed) that is not an edge."""
    walk = np.asarray(seq, dtype=np.int64)
    steps = g.edge_index(walk, np.roll(walk, -1)) if closed else g.edge_index(walk[:-1],
                                                                              walk[1:])
    return [f"missing edge ({seq[i]},{seq[(i + 1) % len(seq)]})"
            for i in np.flatnonzero(steps < 0).tolist()]


def verify_hamiltonian_cycle(g: Graph, seq: Sequence[int]) -> VerificationReport:
    detail: list[str] = []
    if len(seq) != g.vertex_count or set(seq) != set(range(g.vertex_count)):
        detail.append("sequence is not a permutation of the vertices")
    elif g.vertex_count < 3:
        detail.append("cycle needs at least 3 vertices")
    else:
        detail.extend(_missing_edges(g, seq, closed=True))
    return _report(detail, 0)


def verify_hamiltonian_path(g: Graph, seq: Sequence[int],
                            start: int | None = None, end: int | None = None,
                            base: int = 0) -> VerificationReport:
    """Check that seq is a Hamiltonian path of g, from start and to end when
    given. The endpoint lines name each id plus base: 1 names them as a file
    and the command line do."""
    detail: list[str] = []
    if len(seq) != g.vertex_count or set(seq) != set(range(g.vertex_count)):
        detail.append("sequence is not a permutation of the vertices")
    else:
        if g.vertex_count >= 2:
            detail.extend(_missing_edges(g, seq, closed=False))
        if start is not None and seq[0] != start:
            detail.append(f"path starts at {seq[0] + base}, expected {start + base}")
        if end is not None and seq[-1] != end:
            detail.append(f"path ends at {seq[-1] + base}, expected {end + base}")
    return _report(detail, 0)


def verify_hamiltonian_decomposition(g: Graph, cycles: Sequence[Sequence[int]],
                                     matching: Iterable[tuple[int, int]] | None = None
                                     ) -> VerificationReport:
    """Cycles (plus an optional perfect matching) must partition the edge set.

    colors_used reports the number of parts (cycles, plus one for a matching).
    Each edge is looked up by its row in g.pairs, one search per part. A
    matching end that is not an integer in 0..n-1 is named out of range, as
    `verify_clique_cover` names a vertex, and its edge covers nothing; so
    does a self loop.
    """
    detail: list[str] = []
    claimed = np.zeros(g.edge_count, bool)  # the graph edges some part holds already
    for idx, cyc in enumerate(cycles):
        rep = verify_hamiltonian_cycle(g, cyc)
        if not rep.ok:
            detail.append(f"cycle {idx}: " + "; ".join(rep.detail))
            continue
        walk = np.asarray(cyc, dtype=np.int64)
        rows = g.edge_index(walk, np.roll(walk, -1))
        for r in rows[claimed[rows]].tolist():
            detail.append(f"edge {_row(g.pairs, r)} reused by cycle {idx}")
        claimed[rows] = True
    parts = len(cycles)
    if matching is not None:
        parts += 1
        edges = [(u, v) if u <= v else (v, u) for u, v in matching]
        # ends that are not an integer in 0..n-1; their edge is named and covers nothing
        outside = [[x for x in e if not (0 <= x < g.vertex_count and x == int(x))]
                   for e in edges]
        ids = np.array([-1 if bad else x for e, bad in zip(edges, outside) for x in e], np.int64)
        covered: set[int] = set()
        claimed_off: set[tuple[int, int]] = set()  # matching edges that are not graph edges
        for e, bad, r in zip(edges, outside, g.edge_index(ids[0::2], ids[1::2]).tolist()):
            if bad:
                detail.extend(f"matching edge {e} end {x} out of range" for x in bad)
                continue
            if e[0] == e[1]:
                detail.append(f"matching edge {e} is a self loop")
                continue
            if r < 0:
                detail.append(f"matching edge {e} not in graph")
            if e[0] in covered or e[1] in covered:
                detail.append(f"matching repeats a vertex on {e}")
            covered.update(e)
            if (claimed[r] if r >= 0 else e in claimed_off):
                detail.append(f"edge {e} reused by matching")
            if r >= 0:
                claimed[r] = True
            else:
                claimed_off.add(e)
        if len(covered) != g.vertex_count:
            detail.append("matching is not perfect")
    leftover = np.flatnonzero(~claimed)
    if leftover.size:
        examples = [_row(g.pairs, r) for r in leftover[:5].tolist()]
        detail.append(f"{leftover.size} edges uncovered, e.g. {examples}")
    return _report(detail, parts)


_COVER_DETAIL = 20  # detail lines a clique-cover report keeps
_COVER_PAIRS = 1 << 18  # pairs of one clique checked at once


def _verify_cover(n: int, cliques: Iterable[Iterable[int]],
                  joined: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  part: str = "clique", misfit: str = "misses edge") -> VerificationReport:
    """verify_clique_cover on vertices 0..n-1, where joined(u, v) maps two
    broadcastable int64 id arrays to a bool array of their shape.

    Detail lines name each set a `part` and say `misfit` of a pair in it
    that joined refuses; the defaults word a clique cover.
    """
    cliques = [list(raw) for raw in cliques]
    detail: list[str] = []
    seen: set[int] = set()
    for idx, raw in enumerate(cliques):
        if len(detail) >= _COVER_DETAIL:
            break  # nothing later can be kept
        members = sorted(set(raw))
        if len(members) != len(raw):
            detail.append(f"{part} {idx} repeats a vertex")
        inside = []
        for v in members:
            if not (0 <= v < n and v == int(v)):
                detail.append(f"{part} {idx} vertex {v} out of range")
                continue
            if v in seen:
                detail.append(f"vertex {v} in more than one {part}")
            seen.add(v)
            inside.append(v)
        ids = np.array(inside, np.int64)
        step = max(1, _COVER_PAIRS // max(1, ids.size))
        for lo in range(0, ids.size, step):
            if len(detail) >= _COVER_DETAIL:
                break
            rows = ids[lo:lo + step]
            i, j = np.nonzero(np.triu(~joined(rows[:, None], ids[None, lo:]), 1))
            detail.extend(f"{part} {idx} {misfit} ({u},{v})" for u, v in
                          zip(rows[i[:_COVER_DETAIL]].tolist(), ids[lo + j[:_COVER_DETAIL]].tolist()))
    if len(seen) != n:
        detail.append(f"{n - len(seen)} vertices uncovered")
    return _report(detail[:_COVER_DETAIL], len(cliques))


def verify_clique_cover(g: Graph, cliques: Iterable[Iterable[int]]) -> VerificationReport:
    """Disjoint cliques covering every vertex. colors_used reports the clique count.

    Each clique is read once, so one-shot iterables are checked as lists
    would be. A vertex that is not an integer in 0..n-1 is named out of
    range and left out of the other checks, so it covers nothing. A clique's
    pairs are looked up a block of rows at a time. At most 20 detail lines
    are kept: per clique a repeat, each vertex out of range or seen before,
    the missing edges; then the uncovered count.
    """
    return _verify_cover(g.vertex_count, cliques, lambda u, v: g.edge_index(u, v) >= 0)


# --- exact independence and clique numbers -----------------------------------

DEFAULT_EXACT_CAP = 4096


def _max_clique_masks(adj: list[int], incumbent: int = 0) -> tuple[int, int]:
    """Tomita-style branch and bound with a greedy coloring bound.

    adj[v] is a neighbor bitmask. Returns (size, vertex bitmask). A known
    clique can be passed as an incumbent bitmask to prime the bound.
    """
    best_mask = incumbent
    best_size = bin(incumbent).count("1")

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_size, best_mask
        if p_mask == 0:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        order: list[int] = []
        bound: list[int] = []
        q = p_mask
        color = 0
        while q:
            color += 1
            avail = q
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(adj[v] | bit)
                q &= ~bit
                order.append(v)
                bound.append(color)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            expand(r_mask | bit, r_size + 1, p_mask & adj[v])
            p_mask &= ~bit

    expand(0, 0, (1 << len(adj)) - 1 if adj else 0)
    return best_size, best_mask


def _mask_to_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


def _seed_mask(masks: list[int], seed: Iterable[int] | None) -> int:
    if seed is None:
        return 0
    members = sorted(set(seed))
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if not masks[u] & (1 << v):
                raise ValueError(f"seed vertices {u},{v} are not mutually joined")
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _exact_clique(g: Graph, cap: int, seed: Iterable[int] | None, complemented: bool,
                  what: str) -> tuple[int, list[int]]:
    """Maximum clique of g, or of its complement, with witness; seed primes the bound."""
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError(f"{what} of empty graph")
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds cap {cap}")
    masks = [0] * n
    for u, v in zip(*g.pairs.T.tolist()):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if complemented:
        full = (1 << n) - 1
        masks = [(~m & full) & ~(1 << v) for v, m in enumerate(masks)]
    size, mask = _max_clique_masks(masks, _seed_mask(masks, seed))
    return size, _mask_to_vertices(mask)


def exact_omega(g: Graph, cap: int = DEFAULT_EXACT_CAP,
                seed: Iterable[int] | None = None) -> tuple[int, list[int]]:
    """Exact clique number with witness. seed: a known clique to prime the bound."""
    return _exact_clique(g, cap, seed, complemented=False, what="clique number")


def exact_alpha(g: Graph, cap: int = DEFAULT_EXACT_CAP,
                seed: Iterable[int] | None = None) -> tuple[int, list[int]]:
    """Exact independence number with witness (clique search on the complement).

    seed: a known independent set to prime the bound.
    """
    return _exact_clique(g, cap, seed, complemented=True, what="independence number")


# --- Vizing's Δ+1 construction ------------------------------------------------

class ColorState:
    """A proper partial edge colouring held per vertex and edited in place.

    Two lists per vertex are the whole store. at[v][c] is the neighbour
    across v's c-coloured edge, None when colour c is absent at v; at[v]
    runs over the colours 0..the palette, so a chain walk is one list index
    per step. Bit c of present[v] is set when colour c is at v; bit 0 is
    always set, so the lowest clear bit is the lowest free colour. colors is
    the number of declared colours: the colouring's own for of(), the
    highest used for Vizing. An edge's colour, a colour class and the
    non-empty classes are read from at and present when asked for; no edit
    keeps a second copy of the colouring in step.

    walk is the one chain primitive, and a chain is inverted by one rule:
    swap the two slots at[x][c] and at[x][d] at each of its vertices, and
    flip the masks of a path's two ends. A maximal chain holds both colours
    at each inner vertex, so the swap is the whole inversion. invert applies
    it to the steps of a maximal chain (the Keller decomposition search
    walks its cycles), and Vizing applies it as it walks (_swap_path).
    """

    def __init__(self, vertex_count: int, colors: int):
        """An uncoloured state on vertex_count vertices for colours 1..colors."""
        self.at: list[list[int | None]] = [[None] * (colors + 1) for _ in range(vertex_count)]
        self.present = [1] * vertex_count
        self.colors = colors

    @classmethod
    def of(cls, vertex_count: int, coloring: EdgeColoring) -> "ColorState":
        """The state of a proper colouring, over its declared colours."""
        state = cls(vertex_count, coloring.declared_color_count)
        at, present = state.at, state.present
        for u, v, c in zip(*coloring.ends.T.tolist(), coloring.colors.tolist()):
            at[u][c] = v
            at[v][c] = u
            present[u] |= 1 << c
            present[v] |= 1 << c
        return state

    def walk(self, start: int, first: int, second: int) -> list[tuple[int, int, int]]:
        """Maximal walk from start whose edges alternate first, second, ...

        Each step is (vertex, next vertex, colour of their edge). The walk
        ends at a vertex that misses the next colour, or back at start once
        it closes a cycle, so it never repeats an edge.
        """
        at = self.at
        path: list[tuple[int, int, int]] = []
        cur, col, other = start, first, second
        while (nxt := at[cur][col]) is not None:
            path.append((cur, nxt, col))
            if nxt == start:
                break
            cur, col, other = nxt, other, col
        return path

    def invert(self, path: list[tuple[int, int, int]], c: int, d: int) -> None:
        """Swap c and d on the steps of a maximal chain, a walk or two walks
        joined end to end, by the slot swap at each of its vertices.

        The steps run from one end to the other, so path[0][0] and
        path[-1][1] are the ends of a path, or start twice for a cycle. Each
        vertex starts one step, bar a path's last end.
        """
        if not path:
            return
        at = self.at
        for x, _, _ in path:
            row = at[x]
            row[c], row[d] = row[d], row[c]
        first, last = path[0][0], path[-1][1]
        if first != last:
            row = at[last]
            row[c], row[d] = row[d], row[c]
            flip = (1 << c) | (1 << d)
            self.present[first] ^= flip
            self.present[last] ^= flip

    def class_edges(self, c: int) -> list[tuple[int, int]]:
        """The edges of colour c as (u, v) rows, u < v, in ascending order."""
        return [(u, v) for u, row in enumerate(self.at) if (v := row[c]) is not None and u < v]

    def used(self) -> int:
        """Bitmask of the colours whose classes are non-empty."""
        mask = 0
        for p in self.present:
            mask |= p
        return mask & ~1

    def coloring(self, pairs: np.ndarray) -> EdgeColoring:
        """The colouring of the edge rows pairs, relabelled to 1..k.

        pairs holds every coloured edge once as (u, v) with u < v, like
        Graph.pairs, and its rows are the rows of the result. The k
        non-empty classes keep their relative order. One pass over at, as
        a float array with None read as NaN, finds each edge's colour at
        its lower end; the rows are then placed by the key u·n + v. Other
        pairs raise CertificateError: a precondition of the read-out.
        """
        used = self.used()
        rank = np.cumsum([(used >> c) & 1 for c in range(self.colors + 1)])
        n = len(self.at)
        at = np.array(self.at, dtype=float).reshape(n, len(self.at[0]) if n else 0)
        u, c = np.nonzero(at > np.arange(n)[:, None])  # NaN compares false
        keys = u * n + at[u, c].astype(np.int64)
        order = np.argsort(keys)
        wanted = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
        pos = np.searchsorted(keys, wanted, sorter=order)
        if len(pos) != len(keys) or (pos == len(keys)).any() or (keys[order[pos]] != wanted).any():
            raise CertificateError("pairs must hold each coloured edge once")
        return EdgeColoring._of_rows(pairs, rank[c[order[pos]]], int(rank[-1]))


def _swap_path(at: list[list[int | None]], start: int, first: int, second: int) -> int:
    """Swap the slots first and second at each vertex of the maximal walk from
    start, which misses second, and return its last vertex (start when the
    walk is empty). The walk is a path; the caller flips its ends' masks."""
    cur, col, other = start, first, second
    while True:
        row = at[cur]
        nxt = row[col]
        row[first], row[second] = row[second], row[first]
        if nxt is None:
            return cur
        cur, col, other = nxt, other, col


def vizing_delta_plus_one(g: Graph, order: Sequence[tuple[int, int]] | None = None
                          ) -> ColorState:
    """Proper edge coloring with at most Δ+1 colors by fan rotation.

    Returns the ColorState it coloured, declared over the colours 1..the
    highest it used: the Kempe search edits this state in place, and
    state.coloring(g.pairs) reads the colouring out. Deterministic for a
    fixed insertion order of the edges (u, v), u < v (by default the rows
    of g.pairs, which are sorted).
    Each edge (u, v) grows a maximal fan at u from v; if the tip's free
    colour is also free at u the fan rotates, otherwise the c,d path from
    the tip (or from the earlier fan vertex that misses d, when that path
    ends at u) is inverted first. When the lowest colour free at v is free
    at u too, (u, v) takes it at once. Every edit is made inline on one
    ColorState. The path is inverted as it is walked, by ColorState's slot
    swap; one that turns out to end at u is swapped back by a second walk.
    Rotation moves each fan colour one edge down, so a fan vertex loses one
    colour and gains one and u gains only the final colour. The fan colours
    ds are kept as the fan grows: the inverted path misses c at u, so it
    never reaches u, and no edge at u changes before the rotation. The
    lowest colour free at a vertex with mask p is the lowest clear bit of
    p, (~p & (p + 1)).bit_length() - 1, computed inline. A vertex of degree
    at most Δ always has one among 1..Δ+1, so no colour past the palette is
    ever taken.
    """
    palette = max_degree(g) + 1 if g.edge_count else 0
    state = ColorState(g.vertex_count, palette)
    at, present = state.at, state.present
    edges = order if order is not None else list(zip(*g.pairs.T.tolist()))
    for u, v in edges:
        at_u = at[u]
        p = present[v]
        d = (~p & (p + 1)).bit_length() - 1
        if (w := at_u[d]) is None:  # d, free at v, is free at u too
            at_u[d] = v
            at[v][d] = u
            present[u] |= 1 << d
            present[v] = p | 1 << d
            continue
        # Maximal fan at u starting with v: the next fan vertex is u's
        # neighbour w across d, the lowest colour free at the current tip.
        fan = [v]
        ds: list[int] = []
        while w is not None and w not in fan:
            fan.append(w)
            ds.append(d)
            p = present[w]
            d = (~p & (p + 1)).bit_length() - 1
            w = at_u[d]
        if w is None:  # d, free at the tip, is free at u too
            c, j = d, len(fan) - 1
        else:
            p = present[u]
            c = (~p & (p + 1)).bit_length() - 1
            start = fan[-1]
            end = _swap_path(at, start, c, d)
            if end == u:
                # u terminates the c,d path from the fan tip: swap it back
                # (the tip now leaves on d) and use the earlier fan vertex
                # that also misses d, the one before w = at_u[d]. Its c,d
                # path cannot reach u.
                _swap_path(at, start, d, c)
                start = fan[fan.index(w) - 1]
                end = _swap_path(at, start, c, d)
            if end != start:
                flip = (1 << c) | (1 << d)
                present[start] ^= flip
                present[end] ^= flip
            # the first fan vertex that misses c: the inverted path's start at the latest
            j = 0
            while at[fan[j]][c] is not None:
                j += 1
        # rotate: each (u, fan[i]) takes ds[i], and (u, fan[j]) takes c
        prev = v
        for f, col in zip(fan[1:j + 1], ds):
            at_u[col] = prev
            at[prev][col] = u
            present[prev] |= 1 << col
            at[f][col] = None
            present[f] ^= 1 << col
            prev = f
        at_u[c] = prev
        at[prev][c] = u
        present[prev] |= 1 << c
        present[u] |= 1 << c

    state.colors = max(present, default=1).bit_length() - 1
    return state
