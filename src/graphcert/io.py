"""File formats: DIMACS edge lists, edge-coloring files, id sequences and sets.

Vertex ids are 1-based in every file and 0-based in memory. See FORMATS.md
at the repository root for the grammar of each format.

Every writer makes ASCII bytes: a path is opened in binary mode, and an open
file such as `sys.stdout` or a `StringIO` gets the same bytes as text. The
DIMACS and colouring writers hand `_ascii_rows` one `_ROW_BATCH` of rows at a
time, their ids made 1-based there, so no whole-array copy is made; it
writes what `"%d %d ...\\n" % row` would, from a table of the digits of every
4-digit group. A colouring whose rows already ascend is written without a
sort, and any other in the order of one int64 key per row.

The DIMACS and colouring readers take in the whole file at once, as bytes
with no decoded copy, and parse its body into preallocated int32 arrays
(`_Rows`), the ids 0-based, widened only for a value past int32; the line
of a row is kept as the first line of its run. A canonical body, one as the
writers make it (`e u v` or `u v c` lines, single spaces, '\\n' ends, a
final newline, every id below 10^18), is parsed by numpy in chunks of about
1 MB (`_CHUNK`), each cut after a '\\n', with no copy of the rest of the
text. From the first chunk that is not canonical, one with a tab, a
comment, an empty slot, a sign, a longer id or no final newline, the text is
cut by a regular expression into runs of plain lines, each parsed in one
call, and the lines between the runs are read one by one. Both give the same rows, line numbers and errors. A path's bytes
get the line ends that text mode gives: '\\r\\n' and a lone '\\r' become '\\n',
a pass made only when there is a '\\r', so a CRLF file read from a path is
canonical; the run pattern takes the '\\r\\n' ends of an open text file,
whose text is encoded as it stands (`_read_bytes`).
"""

from __future__ import annotations

import bisect
import functools
import re
import sys
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import CertificateError, EdgeColoring, Graph, _ascending, _first_repeat, _row_order


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


def _as_bytes(text: str | bytes) -> bytes:
    """text as bytes: bytes as they are, and a str encoded so that decoding
    a line of it as `_Rows.other_lines` does gives that line back."""
    return text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")


def _ascii(data: bytes, start: int, stop: int) -> str:
    """data[start:stop], ASCII bytes, as text, with no copy of the slice."""
    return str(memoryview(data)[start:stop], "ascii")


def _read_bytes(path_or_file, certificate: bool = False) -> bytes:
    """The bytes of a file, read once, with the line ends text mode would give.

    A path, or an open binary file, is read as bytes: '\\r\\n' and a lone
    '\\r' are made '\\n' when there is a '\\r', and outside a certificate a
    non-ASCII byte raises the UnicodeDecodeError of an ASCII text read (bad
    input). A certificate keeps such a byte, so that its reader can name the
    line (a failed certificate). An open text file's text is taken as it is.
    """
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
        if isinstance(data, str):
            return _as_bytes(data)
    else:
        with open(path_or_file, "rb") as fh:
            data = fh.read()
    if not (certificate or data.isascii()):
        data.decode("ascii")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


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

_DIGITS = b"0123456789"
# np.fromstring saturates at INT64_MAX, so a run may hold only ids below this
_RUN_LIMIT = 10 ** 18
# characters of a canonical body parsed at once: about 1 MB, cut after a '\n'
_CHUNK = 1 << 20
_INT64_MAX = np.iinfo(np.int64).max


class _Rows:
    """The integer rows of a body, in file order, in preallocated arrays:
    the (R, 2) ids, shifted to 0-based, and for a colouring the (R,) colours.

    Each array is int32, and widens to int64 when a run holds a value past
    int32, or to object when a single line holds one past int64. The line of
    a row is kept per run, as the first row and line of each run of
    consecutive lines (`line`).

    The text is bytes (`_as_bytes`). The body starts at the first line that
    is `lead` ("e " for `e u v`, "" for `u v c`), width - 1 spaces and '\\n'
    once its digits are taken out.
    From there the text is taken in chunks of about `_CHUNK` characters, each
    cut after a '\\n', and no copy of the rest of the text is made. A chunk
    whose lines are all such lines has width places for ids a line, so numpy
    parses it in one call when it gives width ids a line, all below 10^18.
    From the first chunk that is not one, the text is cut into runs of plain
    lines by the run pattern, each parsed in one call, and the reader parses
    every other line and adds its row.
    """

    def __init__(self, width: int, run: str, lead: str):
        self.width, self.run, self.lead = width, run.encode("ascii"), lead.encode("ascii")
        self.blank = self.lead + b" " * (width - 1) + b"\n"
        self.columns = [np.empty((0, 2), np.int32)]  # the ids, then any colours
        if width == 3:
            self.columns.append(np.empty(0, np.int32))
        self.size = 0  # rows stored
        self.runs: list[tuple[int, int]] = []  # (first row, its line) of each run
        self.loose: list[list[int]] = []  # rows of single lines, not yet stored
        self.loose_lines: list[int] = []

    def other_lines(self, text: str | bytes) -> Iterator[tuple[int, str]]:
        """Take in the canonical chunks of the body and every run of plain
        lines of text, and yield each other line, as text, with its number,
        in file order."""
        text = _as_bytes(text)
        match = re.compile(self.run).match
        pos, lineno, body = 0, 1, False
        while pos < len(text):
            stop = text.find(b"\n", pos)
            stop = len(text) if stop < 0 else stop
            if not body and text[pos:stop + 1].translate(None, _DIGITS) == self.blank:
                body = True  # the first body line
                pos, lineno = self._canonical_chunks(text, pos, lineno)
                continue
            end = match(text, pos).end()
            if end > pos:
                count = text.count(b"\n", pos, end)
                if not self._add_run(lineno, _ascii(text, pos, end), count):
                    raise ValueError(f"line {lineno}: a run of {count} lines did not parse")
                lineno += count
                pos = end
                continue
            yield lineno, text[pos:stop].decode("utf-8", "surrogatepass")
            lineno += 1
            pos = stop + 1

    def _canonical_chunks(self, text: bytes, pos: int, lineno: int) -> tuple[int, int]:
        """Make room for one row per line from pos to the end of text, take
        in the chunks from pos on while they are canonical, and return the
        place and number of the first line not taken in."""
        self._reserve(text.count(b"\n", pos) + (not text.endswith(b"\n")))
        while pos < len(text):
            end = (text.rfind(b"\n", pos, pos + _CHUNK) + 1
                   or text.find(b"\n", pos + _CHUNK) + 1 or len(text))
            # the bytes are checked, then parsed as text decoded straight from them
            count = self._canonical_lines(text[pos:end])
            if not (count and self._add_run(lineno, _ascii(text, pos, end), count)):
                break
            pos, lineno = end, lineno + count
        return pos, lineno

    def _canonical_lines(self, body: bytes) -> int:
        """The number of lines of body when it ends with '\\n' and each of
        its lines starts with lead and is blank once its digits are taken
        out; else 0."""
        stripped = body.translate(None, _DIGITS)
        count, extra = divmod(len(stripped), len(self.blank))
        # count disjoint blanks in the length of count blanks: stripped is blank * count
        if extra or stripped.count(self.blank) != count or not body.endswith(b"\n"):
            return 0
        if self.lead and not (body.startswith(self.lead)
                              and body.count(b"\n" + self.lead) == count - 1):
            return 0
        return count

    def _add_run(self, lineno: int, run: str, count: int) -> bool:
        """Parse the count plain lines of run, ASCII text from line lineno
        on, and store their rows as one run. False, and nothing stored,
        unless they give width ids a line, each below 10^18."""
        values = np.fromstring(run.replace("e", " "), dtype=np.int64, sep=" ")
        if not count or values.size != self.width * count:
            return False
        top = values.max()
        if top >= _RUN_LIMIT:
            return False
        self._flush()
        self.runs.append((self.size, lineno))
        self._store(values.reshape(count, self.width), top)
        return True

    def add_row(self, lineno: int, row: list[int]) -> None:
        self.loose.append(row)
        self.loose_lines.append(lineno)

    def _flush(self) -> None:
        if self.loose:
            try:
                block = np.array(self.loose, np.int64)
            except OverflowError:  # an id past int64
                block = np.array(self.loose, dtype=object)
            self.runs.extend(zip(range(self.size, self.size + len(block)), self.loose_lines))
            self._store(block, block.max())
            self.loose, self.loose_lines = [], []

    def _reserve(self, rows: int) -> None:
        """Reallocate the arrays to hold rows more rows than are stored."""
        for k, column in enumerate(self.columns):
            room = np.empty((self.size + rows,) + column.shape[1:], column.dtype)
            room[:self.size] = column[:self.size]
            self.columns[k] = room

    def _store(self, block: np.ndarray, top) -> None:
        """Store the rows of block, whose largest value is top, with the ids
        of its first two columns shifted to 0-based; an array whose dtype
        cannot hold its part of the rows is widened first."""
        count = len(block)
        if self.size + count > len(self.columns[0]):
            self._reserve(max(count, len(self.columns[0])))
        rows = slice(self.size, self.size + count)
        for k, part in enumerate([block[:, :2]] + ([block[:, 2]] if self.width == 3 else [])):
            column, shift = self.columns[k], 1 - k
            if column.dtype != object and top > np.iinfo(column.dtype).max:
                high = part.max() - shift
                if high > np.iinfo(column.dtype).max:
                    column = column.astype(np.int64 if high <= _INT64_MAX else object)
                    self.columns[k] = column
            np.subtract(part, shift, out=column[rows], casting="unsafe")
        self.size += count

    def line(self, row: int) -> int:
        """The line of a stored row."""
        first_row, first_line = self.runs[bisect.bisect_right(self.runs, row,
                                                              key=lambda run: run[0]) - 1]
        return first_line + int(row) - first_row

    def arrays(self) -> list[np.ndarray]:
        """The ids, and for a colouring the colours, each as one array of the
        stored rows."""
        self._flush()
        return [column if len(column) == self.size else column[:self.size].copy()
                for column in self.columns]


def _ordered(pairs: np.ndarray) -> np.ndarray:
    """Rows (a, b) as (min, max): pairs itself when every row has a <= b, as
    in every file this program writes, else a new array."""
    if (pairs[:, 0] <= pairs[:, 1]).all():
        return pairs
    return np.column_stack((np.minimum(pairs[:, 0], pairs[:, 1]),
                            np.maximum(pairs[:, 0], pairs[:, 1])))


# rows formatted at once when every value is below 10^4, about 2 MB of
# arrays for three columns; values of more 4-digit groups take fewer rows
_ROW_BATCH = 1 << 14


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
    """Write the comments, a `p edge` line and one `e u v` line per edge, in
    (u, v) order: the ids of one `_ROW_BATCH` of edges at a time are made
    1-based and formatted by `_ascii_rows`."""
    with _ascii_sink(path_or_file) as write:
        write(_header(comments, f"p edge {g.vertex_count} {g.edge_count}"))
        for start in range(0, g.edge_count, _ROW_BATCH):
            for chunk in _ascii_rows(g.pairs[start:start + _ROW_BATCH] + 1, b"e "):
                write(chunk)


def read_dimacs(path_or_file) -> Graph:
    """Read a DIMACS edge list in one pass over the whole text.

    The canonical chunks of the body, then any other body's plain `e u v`
    lines as runs, and every other line on its own, are parsed into `_Rows`,
    which keeps one first line per run. Errors name the first bad line: a
    malformed record, a token that is not an unsigned decimal integer, a
    second `p edge` line, then an id outside 1..n. A self loop, and an edge
    count other than the declared one, are reported after. The text is
    dropped once parsed, and the rows' 0-based int32 ids become the graph's
    edge store (`_ordered`).
    """
    text = _read_bytes(path_or_file)
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
    pairs, = rows.arrays()
    outside = (pairs < 0) | (pairs >= n)
    bad = outside.any(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        i = int(bad.argmax())
        if outside[i].any():
            x = int(pairs[i, int(outside[i].argmax())]) + 1
            raise ValueError(f"line {rows.line(i)}: vertex id {x} outside 1..{n}")
        raise ValueError(f"self loop at vertex {pairs[i, 0]}")
    pairs = _ordered(pairs)
    pairs.setflags(write=False)  # handed over, so the graph keeps it without a copy
    g = Graph.from_array(n, pairs)
    if g.edge_count != declared:
        raise ValueError(f"declared {declared} edges, found {g.edge_count}")
    return g


def write_coloring(coloring: EdgeColoring, path_or_file,
                   comments: Iterable[str] = ()) -> None:
    """Write the comments, a `c k=` line and one `u v color` line per edge, in
    (u, v) order, one `_ROW_BATCH` of rows at a time: each batch's ids are
    made 1-based and put beside its colours, and `_ascii_rows` gives the
    digits, byte for byte what `%d` gives. Rows that already ascend, as
    `keller.class1_coloring` and the queen constructions joined by
    `queen._union` give them, are taken as they stand; any others through
    their sorted order, one batch of it at a time."""
    ends, colors = coloring.ends, coloring.colors
    order = None if _ascending(ends) else _row_order(ends)
    with _ascii_sink(path_or_file) as write:
        write(_header(comments, f"c k={coloring.declared_color_count}"))
        for start in range(0, len(ends), _ROW_BATCH):
            batch = (slice(start, start + _ROW_BATCH) if order is None
                     else order[start:start + _ROW_BATCH])
            for chunk in _ascii_rows(np.column_stack((ends[batch] + 1, colors[batch]))):
                write(chunk)


def read_coloring(path_or_file) -> EdgeColoring:
    """Read an edge-colouring certificate in one pass over the whole text.

    The canonical chunks of the body, then any other body's plain
    `u v color` lines as runs, and every other line on its own, are parsed
    into `_Rows`, which keeps one first line per run. Errors name the first
    bad line: a non-ASCII byte, a malformed line, a token that is not an
    unsigned decimal integer, a second `c k=` line, a self loop, or an edge
    listed twice. A missing `c k=` line and a colour outside 1..k are
    reported after. The rows are checked here once, so the colouring is
    built without a second repeat check. The text is dropped once parsed,
    and the rows' int32 arrays, the ids 0-based, become the colouring's
    (`_ordered`).
    """
    text = _read_bytes(path_or_file, certificate=True)
    bad_byte = None
    if not text.isascii():
        at = re.search(rb"[^\x00-\x7f]", text).start()
        bad_byte = text.count(b"\n", 0, at) + 1
        text = text[:text.rfind(b"\n", 0, at) + 1]
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
        end = text.count(b"\n") + (1 if text and not text.endswith(b"\n") else 0) + 1
    del text
    ends, colors = rows.arrays()
    pairs = _ordered(ends)
    twice = _first_repeat(pairs)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size and (twice < 0 or loops[0] < twice):
        raise CertificateError(
            f"line {rows.line(loops[0])}: self loop at vertex {int(ends[loops[0], 0]) + 1}")
    if twice >= 0:
        u, v = (int(x) + 1 for x in ends[twice])
        raise CertificateError(f"line {rows.line(twice)}: edge {u} {v} listed twice")
    if failure is not None:
        raise failure
    if declared is None:
        raise CertificateError(f"line {end}: end of file without a 'c k=<count>' line")
    off_palette = (colors < 1) | (colors > declared)
    if off_palette.any():
        i = int(off_palette.argmax())
        lo, hi = (int(x) + 1 for x in pairs[i])
        raise CertificateError(f"edge {lo} {hi}: color {colors[i]} outside 1..{declared}")
    del ends
    # handed over, so the colouring keeps them without a copy
    pairs.setflags(write=False)
    colors.setflags(write=False)
    return EdgeColoring._of_rows(pairs, colors, declared)


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
