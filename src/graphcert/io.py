"""File formats: DIMACS edge lists, edge-coloring files, id sequences and sets.

Vertex ids are 1-based in every file and 0-based in memory. See FORMATS.md
at the repository root for the grammar of each format.
"""

from __future__ import annotations

import re
import sys
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import CertificateError, EdgeColoring, Graph, _first_repeat


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


def _read_text(path_or_file, certificate: bool = False) -> str:
    fh, close = _open_read(path_or_file, certificate)
    try:
        return fh.read()
    finally:
        if close:
            fh.close()


def _open_write(path_or_file) -> tuple[IO[str], bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="ascii"), True


def _bad_token(lineno: int, raw: str, error: type[ValueError] = CertificateError) -> ValueError:
    return error(f"line {lineno}: non-integer token in {raw.strip()!r}")


def _non_ascii(lineno: int) -> CertificateError:
    return CertificateError(f"line {lineno}: non-ASCII byte")


def _unsigned(token: str, lineno: int, raw: str,
              error: type[ValueError] = CertificateError) -> int:
    """An unsigned decimal token as an int; anything else names its line."""
    if not (token.isascii() and token.isdigit()):
        raise _bad_token(lineno, raw, error)
    return int(token)


# A run of body lines: fields separated by spaces or tabs, '\n' or '\r\n'
# ends, and ids of at most 18 digits, so int64 holds each. Any other line, a
# comment, a 'p' or 'k=' line or a longer id, is read on its own. The
# patterns compile on first use, so importing the CLI does not pay for them.
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""
_ID, _GAP, _END = r"[0-9]{1,18}", r"[ \t]+", r"[ \t]*\r?\n"
_DIMACS_RUN = rf"(?:[ \t]*e{_GAP}{_ID}{_GAP}{_ID}{_END})*" + _POSSESSIVE
_COLORING_RUN = rf"(?:[ \t]*{_ID}{_GAP}{_ID}{_GAP}{_ID}{_END})*" + _POSSESSIVE


class _Rows:
    """The integer rows of a body, in file order, with the line of each.

    Runs of plain lines are parsed by numpy in one call each; the reader
    parses every other line and adds its row.
    """

    def __init__(self, width: int, run: str):
        self.width, self.run = width, run
        self.chunks: list[np.ndarray] = []
        self.lines: list[np.ndarray] = []
        self.loose: list[list[int]] = []  # rows of single lines, not yet in a chunk
        self.loose_lines: list[int] = []

    def other_lines(self, text: str) -> Iterator[tuple[int, str]]:
        """Take in every run of plain lines of text, and yield each other line
        with its number, in file order."""
        match = re.compile(self.run).match
        pos, lineno = 0, 1
        while pos < len(text):
            end = match(text, pos).end()
            if end > pos:
                lineno = self._add_run(lineno, text[pos:end])
                pos = end
                continue
            stop = text.find("\n", pos)
            stop = len(text) if stop < 0 else stop
            yield lineno, text[pos:stop]
            lineno += 1
            pos = stop + 1

    def _add_run(self, lineno: int, run: str) -> int:
        """Parse a run of plain lines from line lineno on; return the line after it."""
        self._flush()
        values = np.fromstring(run.replace("e", " "), dtype=np.int64, sep=" ")
        count = run.count("\n")
        if values.size != self.width * count:
            raise ValueError(f"line {lineno}: a run of {count} lines gave {values.size} ids")
        self.chunks.append(values.reshape(count, self.width))
        self.lines.append(np.arange(lineno, lineno + count))
        return lineno + count

    def add_row(self, lineno: int, row: list[int]) -> None:
        self.loose.append(row)
        self.loose_lines.append(lineno)

    def _flush(self) -> None:
        if self.loose:
            try:
                self.chunks.append(np.array(self.loose, np.int64))
            except OverflowError:  # an id past int64
                self.chunks.append(np.array(self.loose, dtype=object))
            self.lines.append(np.array(self.loose_lines))
            self.loose, self.loose_lines = [], []

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as one (R, width) array, and the line number of each row."""
        self._flush()
        if not self.chunks:
            return np.zeros((0, self.width), np.int64), np.zeros(0, np.int64)
        return np.concatenate(self.chunks), np.concatenate(self.lines)


def _zero_based_edges(pairs: np.ndarray) -> np.ndarray:
    """Rows of 1-based ids (a, b) as 0-based edges (u, v), u <= v."""
    return np.column_stack((np.minimum(pairs[:, 0], pairs[:, 1]),
                            np.maximum(pairs[:, 0], pairs[:, 1]))) - 1


# rows per write; keeps each formatted string small
_ROW_BATCH = 4096


def _write_rows(fh: IO[str], row_format: str, rows: np.ndarray) -> None:
    """Write each row of an integer array as row_format % row, one batch at a time."""
    for start in range(0, len(rows), _ROW_BATCH):
        batch = rows[start:start + _ROW_BATCH]
        fh.write(row_format * len(batch) % tuple(batch.ravel().tolist()))


def write_dimacs(g: Graph, path_or_file, comments: Iterable[str] = ()) -> None:
    fh, close = _open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"p edge {g.vertex_count} {g.edge_count}\n")
        _write_rows(fh, "e %d %d\n", g.pairs + 1)
    finally:
        if close:
            fh.close()


def read_dimacs(path_or_file) -> Graph:
    """Read a DIMACS edge list in one pass over the whole text.

    Plain `e u v` lines are parsed as runs; every other line on its own.
    Errors name the first bad line: a malformed record, a token that is
    not an unsigned decimal integer, a second `p edge` line, then an id
    outside 1..n. A self loop, and an edge count other than the declared
    one, are reported after.
    """
    text = _read_text(path_or_file)
    n = declared = None
    rows = _Rows(2, _DIMACS_RUN)
    for lineno, line in rows.other_lines(text):
        parts = line.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "e":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: bad edge line {line.strip()!r}")
            rows.add_row(lineno, [_unsigned(t, lineno, line, ValueError) for t in parts[1:]])
        elif parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: bad problem line {line.strip()!r}")
            if n is not None:
                raise ValueError(f"line {lineno}: second 'p edge' line")
            n, declared = (_unsigned(t, lineno, line, ValueError) for t in parts[2:])
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'p edge' line")
    pairs, lines = rows.arrays()
    outside = (pairs < 1) | (pairs > n)
    bad = outside.any(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        i = int(bad.argmax())
        if outside[i].any():
            x = pairs[i, int(outside[i].argmax())]
            raise ValueError(f"line {lines[i]}: vertex id {x} outside 1..{n}")
        raise ValueError(f"self loop at vertex {pairs[i, 0] - 1}")
    g = Graph.from_array(n, _zero_based_edges(pairs))
    if g.edge_count != declared:
        raise ValueError(f"declared {declared} edges, found {g.edge_count}")
    return g


def write_coloring(coloring: EdgeColoring, path_or_file,
                   comments: Iterable[str] = ()) -> None:
    fh, close = _open_write(path_or_file)
    try:
        for line in comments:
            fh.write(f"c {line}\n")
        fh.write(f"c k={coloring.declared_color_count}\n")
        ends = coloring.ends
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        _write_rows(fh, "%d %d %d\n", np.column_stack((ends[order] + 1, coloring.colors[order])))
    finally:
        if close:
            fh.close()


def read_coloring(path_or_file) -> EdgeColoring:
    """Read an edge-colouring certificate in one pass over the whole text.

    Plain `u v color` lines are parsed as runs; every other line on its
    own. Errors name the first bad line: a non-ASCII byte, a malformed
    line, a token that is not an unsigned decimal integer, a second `c k=`
    line, or an edge listed twice. A missing `c k=` line and a colour
    outside 1..k are reported after.
    """
    text = _read_text(path_or_file, certificate=True)
    bad_byte = None
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]", text).start()
        bad_byte = text.count("\n", 0, at) + 1
        text = text[:text.rfind("\n", 0, at) + 1]
    declared = None
    rows = _Rows(3, _COLORING_RUN)
    failure = None
    try:
        for lineno, line in rows.other_lines(text):
            parts = line.split()
            if not parts:
                continue
            if parts[0][0] == "c":
                body = line.strip()[1:].strip()
                if body.startswith("k="):
                    if declared is not None:
                        raise CertificateError(f"line {lineno}: second 'c k=' line")
                    declared = _unsigned(body[2:].strip(), lineno, line)
                continue
            if len(parts) != 3:
                raise CertificateError(
                    f"line {lineno}: expected 'u v color', got {line.strip()!r}")
            rows.add_row(lineno, [_unsigned(t, lineno, line) for t in parts])
        if bad_byte is not None:
            raise _non_ascii(bad_byte)
    except CertificateError as exc:
        failure = exc  # an edge listed twice above this line is reported first
    body, lines = rows.arrays()
    ends = _zero_based_edges(body[:, :2])
    twice = _first_repeat(ends)
    if twice >= 0:
        u, v = body[twice, :2].tolist()
        raise CertificateError(f"line {lines[twice]}: edge {u} {v} listed twice")
    if failure is not None:
        raise failure
    if declared is None:
        lines_read = text.count("\n") + (1 if text and not text.endswith("\n") else 0)
        raise CertificateError(
            f"line {lines_read + 1}: end of file without a 'c k=<count>' line")
    colors = body[:, 2]
    off_palette = (colors < 1) | (colors > declared)
    if off_palette.any():
        i = int(off_palette.argmax())
        lo, hi = ends[i].tolist()
        raise CertificateError(f"edge {lo + 1} {hi + 1}: color {colors[i]} outside 1..{declared}")
    return EdgeColoring.from_arrays(ends, colors, declared)


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
            out.extend([_unsigned(t, lineno, raw) - 1 for t in raw.split()])
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
            out.append([_unsigned(t, lineno, raw) - 1 for t in line.split()])
        return out
    finally:
        if close:
            fh.close()
