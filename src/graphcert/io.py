"""File formats: DIMACS edge lists, edge-coloring files, id sequences and sets.

Vertex ids are 1-based in every file and 0-based in memory. See FORMATS.md
at the repository root for the grammar of each format.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from .core import CertificateError, EdgeColoring, Graph


def _open_read(path_or_file) -> tuple[IO[str], bool]:
    if hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, "r", encoding="ascii"), True


def _open_write(path_or_file) -> tuple[IO[str], bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="ascii"), True


def _bad_token(lineno: int, raw: str) -> CertificateError:
    return CertificateError(f"line {lineno}: non-integer token in {raw.strip()!r}")


def write_dimacs(g: Graph, path_or_file, comments: Iterable[str] = ()) -> None:
    fh, close = _open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"p edge {g.vertex_count} {g.edge_count}\n")
        for u, v in sorted(g.edges):
            fh.write(f"e {u + 1} {v + 1}\n")
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
        for (u, v), c in sorted(coloring.assignment.items()):
            fh.write(f"{u + 1} {v + 1} {c}\n")
    finally:
        if close:
            fh.close()


def read_coloring(path_or_file) -> EdgeColoring:
    fh, close = _open_read(path_or_file)
    try:
        declared = None
        assignment: dict[tuple[int, int], int] = {}
        for lineno, raw in enumerate(fh, 1):
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
                raise ValueError(f"line {lineno}: expected 'u v color', got {raw.strip()!r}")
            try:
                u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise _bad_token(lineno, raw) from None
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in assignment:
                raise CertificateError(f"line {lineno}: edge {u} {v} listed twice")
            assignment[key] = c
        if declared is None:
            raise ValueError("missing 'c k=<count>' line")
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
    fh, close = _open_read(path_or_file)
    try:
        out: list[int] = []
        for lineno, raw in enumerate(fh, 1):
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
    fh, close = _open_read(path_or_file)
    try:
        out = []
        for lineno, raw in enumerate(fh, 1):
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
