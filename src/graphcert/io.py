"""File formats: DIMACS edge lists, edge-coloring files, id sequences and sets.

Vertex ids are 1-based in every file and 0-based in memory. See FORMATS.md
at the repository root for the grammar of each format.

Every writer makes ASCII bytes: a path is opened in binary mode, and an open
file such as `sys.stdout` or a `StringIO` gets the same bytes as text. The
rows of DIMACS and colouring files are formatted by `_ascii_rows`, which
writes what `"%d %d ...\\n" % row` would, from a table of the digits of every
4-digit group; a colouring whose rows already ascend is written without a
sort, and any other in the order of one int64 key per row.

The DIMACS and colouring readers take in the whole text at once and keep
the line number of every row (`_Rows`). A canonical body, one as the
writers make it, is parsed by numpy in one call from its first line to the
end of the file: `e u v` or `u v c` lines, single spaces, '\\n' ends, a
final newline, and every id below 10^18. Any other body, one with a tab, a
comment, an empty slot, a sign, a longer id or no final newline, is cut by
a regular expression into runs of plain lines, each parsed in one call, and
the lines between the runs are read one by one. Both give the same rows,
line numbers and errors. A path is read in text mode, which turns '\\r\\n'
and a lone '\\r' into '\\n', so a CRLF file read from a path is canonical;
the run pattern takes the '\\r\\n' ends of an open file.
"""

from __future__ import annotations

import functools
import re
import sys
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (CertificateError, EdgeColoring, Graph, _ascending, _first_repeat, _narrow,
                   _row_order)


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


@contextmanager
def _ascii_sink(path_or_file) -> Iterator[Callable[[bytes], object]]:
    """A function that writes ASCII bytes: to a path opened in binary mode, or
    as text to an open file, which is left open."""
    if hasattr(path_or_file, "write"):
        yield lambda data: path_or_file.write(data.decode("ascii"))
        return
    with open(path_or_file, "wb") as fh:
        yield fh.write


def _header(comments: Iterable[str], last: str) -> bytes:
    """A 'c' line per comment, then the line last, as ASCII."""
    return "".join([f"c {line}\n" for line in comments] + [last + "\n"]).encode("ascii")


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

_NO_DIGITS = str.maketrans("", "", "0123456789")
# np.fromstring saturates at INT64_MAX, so a run may hold only ids below this
_RUN_LIMIT = 10 ** 18


class _Rows:
    """The integer rows of a body, in file order, with the line of each.

    The body is canonical when it ends with '\\n' and every line from its
    first to the end of the file starts with `lead` ("e " for `e u v`, ""
    for `u v c`) and is `lead`, width - 1 spaces and '\\n' once its digits
    are taken out. Such a line has width places for ids, so the body is
    one run exactly when it gives width ids a line, all below 10^18; numpy
    then parses it in one call. Any other body is cut into runs of plain
    lines by the run pattern, each parsed in one call, and the reader
    parses every other line and adds its row.
    """

    def __init__(self, width: int, run: str, lead: str):
        self.width, self.run, self.lead = width, run, lead
        self.blank = lead + " " * (width - 1) + "\n"
        self.chunks: list[np.ndarray] = []
        self.lines: list[np.ndarray] = []
        self.loose: list[list[int]] = []  # rows of single lines, not yet in a chunk
        self.loose_lines: list[int] = []

    def other_lines(self, text: str) -> Iterator[tuple[int, str]]:
        """Take in the body as one run if it is canonical, else every run of
        plain lines of text, and yield each other line with its number, in
        file order."""
        match = re.compile(self.run).match
        pos, lineno, body = 0, 1, False
        while pos < len(text):
            stop = text.find("\n", pos)
            stop = len(text) if stop < 0 else stop
            if not body and text[pos:stop + 1].translate(_NO_DIGITS) == self.blank:
                body = True  # the first body line: is the rest canonical?
                rest = text[pos:]
                count = self._canonical_lines(rest)
                if count and self._add_run(lineno, rest, count):
                    return
                del rest  # a copy to the end of the file, not kept through the scan
            end = match(text, pos).end()
            if end > pos:
                run = text[pos:end]
                count = run.count("\n")
                if not self._add_run(lineno, run, count):
                    raise ValueError(f"line {lineno}: a run of {count} lines did not parse")
                lineno += count
                pos = end
                continue
            yield lineno, text[pos:stop]
            lineno += 1
            pos = stop + 1

    def _canonical_lines(self, body: str) -> int:
        """The number of lines of body when it ends with '\\n' and each of
        its lines starts with lead and is blank once its digits are taken
        out; else 0."""
        stripped = body.translate(_NO_DIGITS)
        count, extra = divmod(len(stripped), len(self.blank))
        # count disjoint blanks in the length of count blanks: stripped is blank * count
        if extra or stripped.count(self.blank) != count or not body.endswith("\n"):
            return 0
        if self.lead and not (body.startswith(self.lead)
                              and body.count("\n" + self.lead) == count - 1):
            return 0
        return count

    def _add_run(self, lineno: int, run: str, count: int) -> bool:
        """Parse the count plain lines of run, from line lineno on, as one
        chunk. False, and nothing added, unless they give width ids a line,
        each below 10^18."""
        values = np.fromstring(run.replace("e", " "), dtype=np.int64, sep=" ")
        if values.size != self.width * count or (values.size and values.max() >= _RUN_LIMIT):
            return False
        self._flush()
        self.chunks.append(values.reshape(count, self.width))
        self.lines.append(np.arange(lineno, lineno + count))
        return True

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
        if len(self.chunks) == 1:  # a canonical body: no copy
            return self.chunks[0], self.lines[0]
        return np.concatenate(self.chunks), np.concatenate(self.lines)


def _ordered(pairs: np.ndarray) -> np.ndarray:
    """Rows (a, b) as (min, max): pairs itself when every row has a <= b, as
    in every file this program writes, else a new array."""
    if (pairs[:, 0] <= pairs[:, 1]).all():
        return pairs
    return np.column_stack((np.minimum(pairs[:, 0], pairs[:, 1]),
                            np.maximum(pairs[:, 0], pairs[:, 1])))


def _zero_based(pairs: np.ndarray) -> np.ndarray:
    """A reader's own rows of 1-based ids, shifted to 0-based in place, then
    narrowed to int32 when they fit, in one C-ordered array."""
    pairs -= 1
    return np.ascontiguousarray(_narrow(pairs))


# rows formatted at once when every value is below 10^4, about 7 MB of
# arrays for three columns; values of more 4-digit groups take fewer rows
_ROW_BATCH = 1 << 16


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """For every 4-digit group g: its four ASCII digits, zero-padded, as one
    uint32 word, and a word whose bytes are 1 at the significant digits of g
    (only the last for g = 0) and 0 at its leading zeros. Each word holds its
    bytes in memory in the order they are written in."""
    group = np.arange(10 ** 4)
    digits = (group[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    count = 1 + (group >= 10) + (group >= 100) + (group >= 1000)
    significant = (np.arange(4) >= 4 - count[:, None]).astype(np.uint8)
    return digits.view(np.uint32).ravel(), significant.view(np.uint32).ravel()


def _words(data: bytes) -> np.ndarray:
    """data, padded with zero bytes to whole uint32 words, as those words."""
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), np.uint32)


def _ascii_rows(rows: np.ndarray, lead: bytes = b"") -> Iterator[bytes]:
    """The bytes of lead + "%d %d ...\\n" % row for each row of an (R, w)
    integer array, one batch of rows at a time.

    Each value is cut into as many 4-digit groups as the largest needs (five
    hold any int64). `_digit_table` gives each group's digits and which of
    them are significant; a value keeps the significant digits of its first
    non-zero group (of its last group when it is 0) and every digit of the
    groups after that. One boolean mask keeps those digits, the lead, and
    the space or newline after each value. Only rows with a value outside
    0..2^63-1, an id past int64 in a forged file or a negative id handed to
    `EdgeColoring.from_arrays`, are formatted by %d instead.
    """
    width = rows.shape[1]
    if rows.dtype == object or (rows.size and rows.min() < 0):
        row_format = lead + b" ".join([b"%d"] * width) + b"\n"
        for start in range(0, len(rows), _ROW_BATCH):
            batch = rows[start:start + _ROW_BATCH]
            yield row_format * len(batch) % tuple(batch.ravel().tolist())
        return
    top, count = (int(rows.max()) if rows.size else 0), 1
    while top >= 10 ** (4 * count):
        count += 1
    scale = 10 ** (4 * np.arange(count - 1, -1, -1, dtype=np.int64))
    digits, significant = _digit_table()
    head, head_mask = _words(lead), _words(b"\1" * len(lead))
    every = _words(b"\1\1\1\1")[0]
    step = -(-_ROW_BATCH // count)
    for start in range(0, len(rows), step):
        batch = rows[start:start + step, :, None]
        groups = batch if count == 1 else batch.astype(np.int64) // scale % 10 ** 4
        keep = significant[groups]
        if count > 1:
            nonzero = groups > 0
            first = np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), count - 1)[:, :, None]
            at = np.arange(count)
            keep = np.where(at < first, 0, np.where(at == first, keep, every))
        out = np.empty((len(batch), head.size + width * (count + 1)), np.uint32)
        mask = np.empty_like(out)
        out[:, :head.size], mask[:, :head.size] = head, head_mask
        values = out[:, head.size:].reshape(len(batch), width, count + 1)
        values_mask = mask[:, head.size:].reshape(len(batch), width, count + 1)
        values[:, :, :count], values_mask[:, :, :count] = digits[groups], keep
        values[:, :, count], values_mask[:, :, count] = _words(b" ")[0], _words(b"\1")[0]
        values[:, -1, count] = _words(b"\n")[0]
        yield out.view(np.uint8)[mask.view(bool)].tobytes()


def write_dimacs(g: Graph, path_or_file, comments: Iterable[str] = ()) -> None:
    with _ascii_sink(path_or_file) as write:
        write(_header(comments, f"p edge {g.vertex_count} {g.edge_count}"))
        for chunk in _ascii_rows(g.pairs + 1, b"e "):
            write(chunk)


def read_dimacs(path_or_file) -> Graph:
    """Read a DIMACS edge list in one pass over the whole text.

    A canonical body is parsed as one run, any other body's plain `e u v`
    lines as runs, and every other line on its own. Errors name the first
    bad line: a malformed record, a token that is not an unsigned decimal
    integer, a second `p edge` line, then an id outside 1..n. A self loop,
    and an edge count other than the declared one, are reported after.
    The text is dropped once parsed, and the parsed rows become the graph's
    int32 edge store (`_ordered`, `_zero_based`).
    """
    text = _read_text(path_or_file)
    n = declared = None
    rows = _Rows(2, _DIMACS_RUN, "e ")
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
    del text
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
    pairs = _zero_based(_ordered(pairs))
    pairs.setflags(write=False)  # handed over, so the graph keeps it without a copy
    g = Graph.from_array(n, pairs)
    if g.edge_count != declared:
        raise ValueError(f"declared {declared} edges, found {g.edge_count}")
    return g


def write_coloring(coloring: EdgeColoring, path_or_file,
                   comments: Iterable[str] = ()) -> None:
    """Write the comments, a `c k=` line and one `u v color` line per edge, in
    (u, v) order. Rows that already ascend, as `keller.class1_coloring` and
    the queen constructions joined by `queen._union` give them, are written
    without a sort; the digits come from `_ascii_rows`, byte for byte what
    `%d` gives."""
    ends, colors = coloring.ends, coloring.colors
    if not _ascending(ends):
        order = _row_order(ends)
        ends, colors = ends[order], colors[order]
    rows = np.column_stack((ends, colors))
    rows[:, :2] += 1
    with _ascii_sink(path_or_file) as write:
        write(_header(comments, f"c k={coloring.declared_color_count}"))
        for chunk in _ascii_rows(rows):
            write(chunk)


def read_coloring(path_or_file) -> EdgeColoring:
    """Read an edge-colouring certificate in one pass over the whole text.

    A canonical body is parsed as one run, any other body's plain
    `u v color` lines as runs, and every other line on its own. Errors name
    the first bad line: a non-ASCII byte, a malformed line, a token that is
    not an unsigned decimal integer, a second `c k=` line, a self loop, or
    an edge listed twice. A missing `c k=` line and a colour outside 1..k
    are reported after. The rows are checked here once, so the colouring is
    built without a second repeat check. The text is dropped once parsed,
    and the parsed rows become the colouring's int32 arrays (`_ordered`,
    `_zero_based`).
    """
    text = _read_text(path_or_file, certificate=True)
    bad_byte = None
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]", text).start()
        bad_byte = text.count("\n", 0, at) + 1
        text = text[:text.rfind("\n", 0, at) + 1]
    declared = None
    rows = _Rows(3, _COLORING_RUN, "")
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
    if declared is None:
        end = text.count("\n") + (1 if text and not text.endswith("\n") else 0) + 1
    del text
    body, lines = rows.arrays()
    pairs = _ordered(body[:, :2])
    twice = _first_repeat(pairs)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size and (twice < 0 or loops[0] < twice):
        raise CertificateError(f"line {lines[loops[0]]}: self loop at vertex {body[loops[0], 0]}")
    if twice >= 0:
        u, v = body[twice, :2].tolist()
        raise CertificateError(f"line {lines[twice]}: edge {u} {v} listed twice")
    if failure is not None:
        raise failure
    if declared is None:
        raise CertificateError(f"line {end}: end of file without a 'c k=<count>' line")
    colors = body[:, 2]
    off_palette = (colors < 1) | (colors > declared)
    if off_palette.any():
        i = int(off_palette.argmax())
        lo, hi = pairs[i].tolist()
        raise CertificateError(f"edge {lo} {hi}: color {colors[i]} outside 1..{declared}")
    ends, colors = _zero_based(pairs), _narrow(colors)
    del body, pairs
    # handed over, so the colouring keeps them without a copy
    ends.setflags(write=False)
    colors.setflags(write=False)
    return EdgeColoring._of_rows(ends, colors, declared)


def write_sequence(seq: Sequence[int], path_or_file) -> None:
    with _ascii_sink(path_or_file) as write:
        write((" ".join(str(v + 1) for v in seq) + "\n").encode("ascii"))


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
    with _ascii_sink(path_or_file) as write:
        for s in sets:
            write((" ".join(str(v + 1) for v in s) + "\n").encode("ascii"))


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
