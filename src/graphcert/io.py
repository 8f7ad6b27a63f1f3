"""File formats: DIMACS edge lists, edge-coloring files, id sequences and sets.

Vertex ids are 1-based in every file and 0-based in memory. See FORMATS.md
at the repository root for the grammar of each format.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

from .core import CertificateError, EdgeColoring, Graph


def _open_read(path_or_file, certificate: bool = False) -> tuple[IO[str], bool]:
    """Open a path as ASCII text; an open file is used as it is.

    A certificate keeps each non-ASCII byte as a lone surrogate, so that its
    reader can name the line (a failed certificate); anywhere else such a
    byte raises UnicodeDecodeError (bad input).
    """
    if hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, "r", encoding="ascii",
                errors="surrogateescape" if certificate else "strict"), True


def _open_write(path_or_file) -> tuple[IO[str], bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="ascii"), True


def _bad_token(lineno: int, raw: str) -> CertificateError:
    return CertificateError(f"line {lineno}: non-integer token in {raw.strip()!r}")


def _non_ascii(lineno: int) -> CertificateError:
    return CertificateError(f"line {lineno}: non-ASCII byte")


# rows per write; keeps each formatted string small
_ROW_BATCH = 4096


def _write_rows(fh: IO[str], row_format: str, rows: np.ndarray) -> None:
    """Write each row of an int64 array as row_format % row, one batch at a time."""
    for start in range(0, len(rows), _ROW_BATCH):
        batch = rows[start:start + _ROW_BATCH]
        fh.write(row_format * len(batch) % tuple(batch.ravel().tolist()))


def _sorted_pairs(pairs: Iterable[tuple[int, int]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs as an (count, 2) int64 array, and the order that sorts its rows."""
    arr = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * count).reshape(-1, 2)
    return arr, np.lexsort((arr[:, 1], arr[:, 0]))


def write_dimacs(g: Graph, path_or_file, comments: Iterable[str] = ()) -> None:
    fh, close = _open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"p edge {g.vertex_count} {g.edge_count}\n")
        edges, order = _sorted_pairs(g.edges, g.edge_count)
        _write_rows(fh, "e %d %d\n", edges[order] + 1)
    finally:
        if close:
            fh.close()


def read_dimacs(path_or_file) -> Graph:
    fh, close = _open_read(path_or_file)
    try:
        n = None
        declared_edges = None
        loop = None  # first self loop, reported as Graph.from_edges would
        pairs: list[tuple[int, int]] = []
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0][0] == "c":
                continue
            if parts[0] == "e":
                if len(parts) != 3:
                    raise ValueError(f"line {lineno}: bad edge line {raw.strip()!r}")
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                if u < v:
                    pairs.append((u, v))
                elif v < u:
                    pairs.append((v, u))
                elif loop is None:
                    loop = u
            elif parts[0] == "p":
                if len(parts) != 4 or parts[1] != "edge":
                    raise ValueError(f"line {lineno}: bad problem line {raw.strip()!r}")
                n, declared_edges = int(parts[2]), int(parts[3])
            else:
                raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
        if n is None:
            raise ValueError("missing 'p edge' line")
        if loop is not None:
            raise ValueError(f"self loop at vertex {loop}")
        g = Graph(n, frozenset(pairs))
        if declared_edges is not None and g.edge_count != declared_edges:
            raise ValueError(f"declared {declared_edges} edges, found {g.edge_count}")
        return g
    finally:
        if close:
            fh.close()


def write_coloring(coloring: EdgeColoring, path_or_file,
                   comments: Iterable[str] = ()) -> None:
    fh, close = _open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"c k={coloring.declared_color_count}\n")
        assignment = coloring.assignment
        ends, order = _sorted_pairs(assignment, len(assignment))
        colors = np.fromiter(assignment.values(), np.int64, len(assignment))
        _write_rows(fh, "%d %d %d\n", np.column_stack((ends[order] + 1, colors[order])))
    finally:
        if close:
            fh.close()


def read_coloring(path_or_file) -> EdgeColoring:
    fh, close = _open_read(path_or_file, certificate=True)
    try:
        declared = None
        assignment: dict[tuple[int, int], int] = {}
        lineno = 0
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                raise _non_ascii(lineno)
            parts = raw.split()
            if not parts:
                continue
            if parts[0][0] == "c":
                body = raw.strip()[1:].strip()
                if body.startswith("k="):
                    try:
                        declared = int(body[2:])
                    except ValueError:
                        raise _bad_token(lineno, raw) from None
                continue
            if len(parts) != 3:
                raise CertificateError(f"line {lineno}: expected 'u v color', got {raw.strip()!r}")
            try:
                u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise _bad_token(lineno, raw) from None
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in assignment:
                raise CertificateError(f"line {lineno}: edge {u} {v} listed twice")
            assignment[key] = c
        if declared is None:
            raise CertificateError(f"line {lineno + 1}: end of file without a 'c k=<count>' line")
        for (lo, hi), c in assignment.items():
            if not 1 <= c <= declared:
                raise CertificateError(f"edge {lo + 1} {hi + 1}: color {c} outside 1..{declared}")
        return EdgeColoring(assignment, declared)
    finally:
        if close:
            fh.close()


def write_sequence(seq: Sequence[int], path_or_file) -> None:
    fh, close = _open_write(path_or_file)
    try:
        fh.write(" ".join(str(v + 1) for v in seq) + "\n")
    finally:
        if close:
            fh.close()


def read_sequence(path_or_file) -> list[int]:
    fh, close = _open_read(path_or_file, certificate=True)
    try:
        out: list[int] = []
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                raise _non_ascii(lineno)
            try:
                out.extend([int(t) - 1 for t in raw.split()])
            except ValueError:
                raise _bad_token(lineno, raw) from None
        return out
    finally:
        if close:
            fh.close()


def write_vertex_sets(sets: Sequence[Sequence[int]], path_or_file) -> None:
    """One set per line, members as 1-based ids."""
    fh, close = _open_write(path_or_file)
    try:
        for s in sets:
            fh.write(" ".join(str(v + 1) for v in s) + "\n")
    finally:
        if close:
            fh.close()


def read_vertex_sets(path_or_file) -> list[list[int]]:
    fh, close = _open_read(path_or_file, certificate=True)
    try:
        out = []
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                raise _non_ascii(lineno)
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            try:
                out.append([int(t) - 1 for t in line.split()])
            except ValueError:
                raise _bad_token(lineno, raw) from None
        return out
    finally:
        if close:
            fh.close()
