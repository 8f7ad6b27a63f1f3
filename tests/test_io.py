"""File format round trips: DIMACS graphs, colorings, sequences, vertex sets."""

import functools
import hashlib
import io
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphcert.io as gio
import graphcert.keller as keller
from conftest import (assignment_of, coloring_of, cycle, edge_set, graph_of,
                      reference_read_coloring, reference_read_dimacs, reference_write_coloring,
                      reference_write_dimacs)
from graphcert.bishop_rook import canonical_bishop_coloring
from graphcert.chess import build_queen
from graphcert.core import (CertificateError, EdgeColoring, verify_edge_coloring,
                            verify_hamiltonian_cycle)
from graphcert.queen import classify_and_color


def test_dimacs_roundtrip(tmp_path):
    g = build_queen(3, 3)
    target = tmp_path / "q33.dimacs"
    gio.write_dimacs(g, target, comments=["queen m=3 n=3"])
    text = target.read_text()
    assert text.startswith("c queen m=3 n=3\np edge 9 28\n")
    back = gio.read_dimacs(target)
    assert back.vertex_count == g.vertex_count and edge_set(back) == edge_set(g)


def test_dimacs_ids_are_one_based_on_disk():
    buf = io.StringIO()
    gio.write_dimacs(cycle(3), buf)
    assert "e 1 2" in buf.getvalue() and "e 0 1" not in buf.getvalue()


# (text, message) of each malformed DIMACS file; every one is bad input (exit 2)
MALFORMED_DIMACS = [
    ("e 1 2\n", "missing 'p edge' line"),
    ("p edge 3\ne 1 2\n", "line 1: bad problem line 'p edge 3'"),
    ("p edge 3 2\ne 1 2\n", "declared 2 edges, found 1"),
    ("p edge 3 1\nx 1 2\n", "line 2: unknown record 'x'"),
    ("p edge 3 1\ne 1 2 3\n", "line 2: bad edge line 'e 1 2 3'"),
    ("p edge 3 1\ne 1 x\n", "line 2: non-integer token in 'e 1 x'"),
    ("p edge 3 1\nc note\ne +1 2\n", "line 3: non-integer token in 'e +1 2'"),
    ("p edge 3 1\ne 1_0 2\n", "line 2: non-integer token in 'e 1_0 2'"),
    ("p edge 3 1\ne -1 2\n", "line 2: non-integer token in 'e -1 2'"),
    ("p edge x 1\ne 1 2\n", "line 1: non-integer token in 'p edge x 1'"),
    ("p edge 4 2\ne 1 2\ne 1 5\n", "line 3: vertex id 5 outside 1..4"),
    ("p edge 4 1\ne 0 4\n", "line 2: vertex id 0 outside 1..4"),
    ("e 2 3\ne 9 1\np edge 4 2\n", "line 2: vertex id 9 outside 1..4"),
    ("p edge 3 1\np edge 5 1\ne 1 2\n", "line 2: second 'p edge' line"),
    ("p edge 3 2\ne 1 2\ne 3 3\n", "self loop at vertex 2"),
    # ids where the writer puts none, in bodies that look canonical without their digits
    ("p edge 3 1\ne1 2 \n", "line 2: unknown record 'e1'"),
    ("p edge 3 1\n1e 2 \n", "line 2: unknown record '1e'"),
    ("p edge 20 2\ne 12 \ne1 2 3\n", "line 2: bad edge line 'e 12'"),
    ("p edge 4 2\ne 1 2\ne 3 \n4", "line 3: bad edge line 'e 3'"),
]


def test_dimacs_errors():
    for text, message in MALFORMED_DIMACS:
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            gio.read_dimacs(io.StringIO(text))
        assert not isinstance(caught.value, CertificateError), text  # bad input, not a failed check


def test_coloring_roundtrip(tmp_path):
    col = canonical_bishop_coloring(3, 5)
    target = tmp_path / "b35.col"
    gio.write_coloring(col, target)
    assert f"c k={col.declared_color_count}" in target.read_text()
    back = gio.read_coloring(target)
    assert assignment_of(back) == assignment_of(col)
    assert back.declared_color_count == col.declared_color_count


def test_coloring_requires_declared_count():
    with pytest.raises(ValueError):
        gio.read_coloring(io.StringIO("1 2 1\n2 3 2\n"))


def test_coloring_accepts_comments_and_blank_lines():
    text = "c produced by hand\n\nc k=2\n1 2 1\n3 2 2\n"
    col = gio.read_coloring(io.StringIO(text))
    assert assignment_of(col) == {(0, 1): 1, (1, 2): 2}  # endpoints normalized
    assert col.declared_color_count == 2


def test_coloring_rejects_malformed_line():
    with pytest.raises(ValueError):
        gio.read_coloring(io.StringIO("c k=1\n1 2\n"))


# (text, message) of each malformed colouring read from text; each is a failed certificate
MALFORMED_COLORING = [
    ("1 2 1\n2 3 2\n", "line 3: end of file without a 'c k="),
    ("c k=1\n1 2\n", "line 2: expected 'u v color', got '1 2'"),
    ("c k=1\n1 2 1\nc k=5\n2 3 5\n", "line 3: second 'c k=' line"),
    ("c k=2\n1 2 1\n3 4 2\n2 1 2\n", "line 4: edge 2 1 listed twice"),
    ("c k=2\n1 2 1\n2 1 2\n1 x 1\n", "line 3: edge 2 1 listed twice"),
    ("c k=2\n1 2 1\n2 3 3\n", "edge 2 3: color 3 outside 1..2"),
    ("c k=2\n1 2 +1\n", "line 2: non-integer token in '1 2 +1'"),
    ("c k=1_0\n1 2 1\n", "line 1: non-integer token in 'c k=1_0'"),
    ("c k=2\n1 2 1\n2 3 two\n", "line 3: non-integer token in '2 3 two'"),
    ("c k=2\n1 2 1\nc \u00e9\n", "line 3: non-ASCII byte"),
    ("c k=6\n1 2 3\n4 5 \n6", "line 3: expected 'u v color', got '4 5'"),
]


@pytest.mark.parametrize("text,message", MALFORMED_COLORING)
def test_coloring_errors(text, message):
    with pytest.raises(CertificateError, match=re.escape(message)):
        gio.read_coloring(io.StringIO(text))


@pytest.mark.parametrize("reader,text,line", [
    (gio.read_coloring, "c k=2\n1 2 1\n2 3 two\n", 3),
    (gio.read_coloring, "c k=2.5\n1 2 1\n", 1),
    (gio.read_sequence, "1 2\n3 x\n", 2),
    (gio.read_vertex_sets, "c cover\n1 2\n\n3 4 5e\n", 4),
    (gio.read_sequence, "1 +2\n", 1),
    (gio.read_sequence, "1 2\n-3\n", 2),
    (gio.read_vertex_sets, "1 2\n1_0 4\n", 2),
], ids=["coloring-body", "coloring-k", "sequence", "vertex-sets", "sequence-plus",
        "sequence-minus", "vertex-sets-underscore"])
def test_non_integer_token_is_a_certificate_error_naming_the_line(reader, text, line):
    with pytest.raises(CertificateError, match=f"line {line}: non-integer token"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("reader,content,message", [
    (gio.read_coloring, b"c k=1\n1 2\n", "line 2: expected 'u v color'"),
    (gio.read_coloring, b"1 2 1\n2 3 2\n", "line 3: end of file without a 'c k="),
    (gio.read_coloring, b"", "line 1: end of file without a 'c k="),
    (gio.read_coloring, b"c k=1\nc \xe9\n1 2 1\n", "line 2: non-ASCII byte"),
    (gio.read_sequence, b"1 2\n4 3\xe9\n", "line 2: non-ASCII byte"),
    (gio.read_vertex_sets, b"1 2\n3 4\n\x80\n", "line 3: non-ASCII byte"),
], ids=["coloring-short-line", "coloring-without-k", "coloring-empty",
        "coloring-non-ascii", "sequence-non-ascii", "vertex-sets-non-ascii"])
def test_malformed_certificate_file_names_the_line(tmp_path, reader, content, message):
    target = tmp_path / "cert"
    target.write_bytes(content)
    with pytest.raises(CertificateError, match=message):
        reader(target)


def test_sequence_roundtrip(tmp_path):
    seq = keller.ham_cycle(2)
    target = tmp_path / "cycle.seq"
    gio.write_sequence(seq, target)
    assert gio.read_sequence(target) == seq
    assert target.read_text().split()[0] == "1"  # vertex 0 written 1-based


def test_vertex_sets_roundtrip(tmp_path):
    sets = keller.fixture_clique_cover(3)
    target = tmp_path / "cover.sets"
    gio.write_vertex_sets(sets, target)
    assert gio.read_vertex_sets(target) == [list(s) for s in sets]


def test_file_like_objects_are_not_closed():
    buf = io.StringIO()
    gio.write_coloring(coloring_of({(0, 1): 1}, 1), buf)
    buf.seek(0)
    assert assignment_of(gio.read_coloring(buf)) == {(0, 1): 1}
    assert not buf.closed


# sha256 of write_dimacs and write_coloring output, with the comment "pin",
# recorded from the one-line-per-write writers; any writer must keep the bytes.
WRITER_PINS = {
    "G3": ("0bf62bf0a4e7cfc5a3dffcc5116240833bdcd3fb15584a3d133405431fc902eb",
           "5cb1302ab943075806b91377b1da564f3c72cf64fa8ef40f8a94c7824d3dbae9"),
    "Q5,7": ("3eac56d80aaea5bd183174fab25ec86500ed0238a2566bf73afc9654741fcdaf",
             "63d819bc24e26befdfe7b6e6a794d7bff8a1308d8410c7ba131ae00222a5313e"),
    "Q8,8": ("7811953a621fac66e8deae4db41e820c764ee5b4f6cf6da0f3c99397667bd3ec",
             "30eea160f7e95c0305e6717c3aaa6035765b8d42b060f8b4acbde21f105e7dab"),
    "Q3,13": ("4890c6e215d66c154533bf625c1489534d8b9700b93643127f2ee29e76cdfb6a",
              "9f8df0505ebd3560b34580cd7f7caf331b19b90c2938a1202c43ab617f123616"),
}


def _pinned_instance(name):
    if name == "G3":
        return keller.build(3), keller.class1_coloring(3)
    m, n = map(int, name[1:].split(","))
    return build_queen(m, n), classify_and_color(m, n).coloring


@pytest.mark.parametrize("name", sorted(WRITER_PINS))
def test_writers_keep_their_bytes(tmp_path, name):
    g, coloring = _pinned_instance(name)
    for writer, obj, digest in zip((gio.write_dimacs, gio.write_coloring), (g, coloring),
                                   WRITER_PINS[name]):
        target = tmp_path / "pinned"
        writer(obj, target, comments=["pin"])
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
        buf = io.StringIO()
        writer(obj, buf, comments=["pin"])
        assert buf.getvalue().encode("ascii") == target.read_bytes()


# --- the row formatter and both writers against %-formatting --------------------------------

# digit counts at every group boundary, and the ends of int64
_ROW_VALUES = st.one_of(
    st.sampled_from([0, 9, 10, 99, 100, 999, 1000, 9_999, 10_000, 99_999_999, 10 ** 8,
                     10 ** 12, 10 ** 16 - 1, 10 ** 16, 10 ** 17, 2 ** 63 - 1]),
    st.integers(0, 10 ** 5), st.integers(0, 2 ** 63 - 1))


def _percent_d(rows, width, lead):
    return (lead + b" ".join([b"%d"] * width) + b"\n") * len(rows) % tuple(
        v for row in rows for v in row)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
           st.just(w), st.lists(st.lists(_ROW_VALUES, min_size=w, max_size=w), max_size=30))),
       st.sampled_from([b"", b"e ", b"abcde"]))
def test_ascii_rows_match_percent_d(shape, lead):
    width, rows = shape
    array = np.array(rows, np.int64).reshape(-1, width)
    assert b"".join(gio._ascii_rows(array, lead)) == _percent_d(rows, width, lead)


def test_ascii_rows_in_batches(monkeypatch):
    # batches of three rows of ids below 10^4, and of one row when a value
    # has five 4-digit groups; int32 rows, and object rows past int64
    monkeypatch.setattr(gio, "_ROW_BATCH", 3)
    rows = [[1, 2], [30, 4], [5, 6], [7, 9_999], [8, 9], [10, 11], [12, 13]]
    for big in ([], [[2 ** 63 - 1, 0], [10 ** 4, 10 ** 8]]):
        got = b"".join(gio._ascii_rows(np.array(rows + big, np.int64), b"e "))
        assert got == _percent_d(rows + big, 2, b"e ")
    assert b"".join(gio._ascii_rows(np.array(rows, np.int32))) == _percent_d(rows, 2, b"")
    huge = np.array([[2 ** 64, 1], [3, 4], [-1, 5], [6, 7]], dtype=object)
    assert b"".join(gio._ascii_rows(huge, b"e ")) == _percent_d(huge.tolist(), 2, b"e ")
    negative = np.array([[-1, 5], [6, 7], [8, 9], [10, 11]], np.int64)
    assert b"".join(gio._ascii_rows(negative)) == _percent_d(negative.tolist(), 2, b"")


def _shuffled(coloring, seed=0):
    """The same colouring with its rows in a random order."""
    order = np.random.default_rng(seed).permutation(len(coloring.colors))
    return EdgeColoring.from_arrays(coloring.ends[order], coloring.colors[order],
                                    coloring.declared_color_count)


# what each writer is handed: rows that ascend and rows that do not, no rows, an
# id past int64 (only a forged file gives one) and a negative id (only the dict
# constructor lets one in)
WRITER_CASES = {
    "write_dimacs": {
        "Q5,7": lambda: build_queen(5, 7),
        "G3": lambda: keller.build(3),
        "C5": lambda: cycle(5),
        "edgeless": lambda: graph_of(3, []),
        "empty": lambda: graph_of(0, []),
    },
    "write_coloring": {
        "Q5,7 ascending": lambda: classify_and_color(5, 7).coloring,
        "Q5,7 shuffled": lambda: _shuffled(classify_and_color(5, 7).coloring),
        "G3": lambda: keller.class1_coloring(3),
        "G4 shuffled": lambda: _shuffled(keller.class1_coloring(4), 2),
        "bishop 9x13 shuffled": lambda: _shuffled(canonical_bishop_coloring(9, 13), 1),
        "empty": lambda: coloring_of({}, 0),
        "past int64": lambda: coloring_of({(3, 2 ** 64): 1, (0, 1): 2 ** 70}, 2 ** 70),
        "negative id": lambda: coloring_of({(-1, 0): 1, (-3, 5): 2}, 2),
    },
}


@pytest.mark.parametrize("writer_name, case",
                         [(w, c) for w in sorted(WRITER_CASES) for c in WRITER_CASES[w]])
@pytest.mark.parametrize("comments", [(), ("pin",), ("two words", "k=7 is a comment")])
def test_writers_match_their_oracles(tmp_path, writer_name, case, comments):
    obj = WRITER_CASES[writer_name][case]()
    writer = getattr(gio, writer_name)
    oracle = {"write_dimacs": reference_write_dimacs,
              "write_coloring": reference_write_coloring}[writer_name]
    writer(obj, tmp_path / "got", comments=comments)
    oracle(obj, tmp_path / "want", comments=comments)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    got, want = io.StringIO(), io.StringIO()
    writer(obj, got, comments=comments)
    oracle(obj, want, comments=comments)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().encode("ascii") == (tmp_path / "want").read_bytes()


# --- the array readers against the line-by-line oracles -----------------------------------

def _outcome(reader, fh):
    """What a reader makes of a file: its result, or the type and text of its error."""
    try:
        return reader(fh)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_graph(got, want):
    if isinstance(want, tuple):
        return got == want
    return (not isinstance(got, tuple) and got.vertex_count == want.vertex_count
            and edge_set(got) == edge_set(want)
            and got.pairs.tolist() == sorted(map(list, edge_set(want))))


def _same_coloring(got, want):
    if isinstance(want, tuple):
        return got == want
    return (not isinstance(got, tuple)
            and got.declared_color_count == want.declared_color_count
            and list(assignment_of(got).items()) == list(assignment_of(want).items()))


@st.composite
def _line(draw, tokens):
    """tokens joined by spaces or tabs, with optional blanks around and a LF or CRLF end."""
    gaps = draw(st.lists(st.sampled_from([" "] * 6 + ["  ", "\t", " \t"]),
                         min_size=len(tokens), max_size=len(tokens)))
    lead = draw(st.sampled_from([""] * 6 + [" ", "\t"]))
    tail = draw(st.sampled_from([""] * 6 + [" ", "\t"]))
    body = lead + tokens[0] + "".join(g + t for g, t in zip(gaps[1:], tokens[1:])) + tail
    return body + draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))


_NOISE = st.sampled_from(["c a comment\n", "c\n", "\n", "   \n", "\t\r\n", "cx 1 2\n"])


@st.composite
def _file(draw, header, rows):
    """header lines and row lines in a random order, with comments and blank lines between."""
    lines = list(rows)
    for line in header:
        lines.insert(draw(st.integers(0, len(lines))), line)
    for noise in draw(st.lists(_NOISE, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), noise)
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


def _pair(draw, ids):
    """Pairs of ids, reversed as often as not; a self loop in about one file of five."""
    pairs = st.tuples(ids, ids)
    return pairs if draw(st.integers(0, 4)) == 0 else pairs.filter(lambda p: p[0] != p[1])


@st.composite
def _dimacs_text(draw):
    n = draw(st.integers(1, 7))
    ids = st.integers(0, n + 1) if draw(st.integers(0, 4)) == 0 else st.integers(1, n)
    pairs = draw(st.lists(_pair(draw, ids), max_size=12))
    rows = [draw(_line(["e", str(a), str(b)])) for a, b in pairs]
    distinct = len({(min(a, b), max(a, b)) for a, b in pairs})
    declared = distinct + draw(st.sampled_from([0, 0, 0, 1]))
    header = [draw(_line(["p", "edge", str(n), str(declared)]))]
    header *= draw(st.sampled_from([1, 1, 1, 2]))
    return draw(_file(header, rows))


@st.composite
def _coloring_text(draw):
    k = draw(st.integers(1, 6))
    colors = st.integers(0, k + 1) if draw(st.integers(0, 4)) == 0 else st.integers(1, k)
    distinct = draw(st.sampled_from([True, True, False]))
    pairs = draw(st.lists(_pair(draw, st.integers(1, 6)), max_size=10,
                          unique_by=(lambda p: (min(p), max(p))) if distinct else None))
    rows = [draw(_line([str(a), str(b), str(draw(colors))])) for a, b in pairs]
    header = [draw(_line(["c", f"k={k}"]))] * draw(st.sampled_from([0, 1, 1, 1, 2]))
    return draw(_file(header, rows))


@settings(max_examples=300, deadline=None)
@given(_dimacs_text())
def test_read_dimacs_matches_the_line_reader(text):
    assert _same_graph(_outcome(gio.read_dimacs, io.StringIO(text)),
                       _outcome(reference_read_dimacs, io.StringIO(text)))


@settings(max_examples=300, deadline=None)
@given(_coloring_text())
def test_read_coloring_matches_the_line_reader(text):
    assert _same_coloring(_outcome(gio.read_coloring, io.StringIO(text)),
                          _outcome(reference_read_coloring, io.StringIO(text)))


@pytest.mark.parametrize("text", [text for text, _ in MALFORMED_DIMACS])
def test_malformed_dimacs_fails_as_in_the_line_reader(text):
    assert _outcome(gio.read_dimacs, io.StringIO(text)) == \
        _outcome(reference_read_dimacs, io.StringIO(text))


@pytest.mark.parametrize("content", [text.encode("utf-8") for text, _ in MALFORMED_COLORING] + [
    b"c k=2\n1 2 1\n2 3 two\n", b"c k=2.5\n1 2 1\n", b"c k=1\n1 2\n", b"1 2 1\n2 3 2\n", b"",
    b"c k=1\nc \xe9\n1 2 1\n", b"c k=2\r\n1 2 1\r\n2 1 2\r\n",
    b"c k=1\n1 100000000000000000000 1\n2 3 1\n100000000000000000000 1 1\n"])
def test_malformed_coloring_fails_as_in_the_line_reader(tmp_path, content):
    target = tmp_path / "cert"
    target.write_bytes(content)
    with open(target, encoding="ascii", errors="surrogateescape") as fh:
        want = _outcome(reference_read_coloring, fh)
    assert isinstance(want, tuple)
    assert _outcome(gio.read_coloring, target) == want


@pytest.mark.parametrize("width,run,lead,text,other", [
    (2, gio._DIMACS_RUN, "e ", "p edge 4 3\r\ne 1 2\r\n\te\t2 3 \r\n  e 3  4\n",
     ["p edge 4 3\r"]),
    (3, gio._COLORING_RUN, "", "c k=2\r\n1 2 1\r\n\t2\t3 2 \r\n  3 4  1\n", ["c k=2\r"]),
], ids=["dimacs", "coloring"])
def test_tabs_and_crlf_lines_are_read_as_one_run(width, run, lead, text, other):
    rows = gio._Rows(width, run, lead)
    assert [line for _, line in rows.other_lines(text)] == other
    ends = rows.arrays()[0]
    assert rows.runs == [(0, 2)] and [rows.line(i) for i in range(3)] == [2, 3, 4]
    assert ends.tolist() == [[0, 1], [1, 2], [2, 3]]  # 0-based


# --- a canonical body is one run, read as the line reader reads it ----------------------

_READERS = {"dimacs": (gio.read_dimacs, reference_read_dimacs, _same_graph),
            "coloring": (gio.read_coloring, reference_read_coloring, _same_coloring)}


@functools.cache
def _written(kind: str, d: int) -> str:
    """The writer's file of G_d, or of its class-1 colouring: a comment, a
    'p edge' or 'c k=' line, then the body."""
    out = io.StringIO()
    if kind == "dimacs":
        gio.write_dimacs(keller.build(d), out, comments=[f"keller d={d}"])
    else:
        gio.write_coloring(keller.class1_coloring(d), out, comments=[f"keller d={d}"])
    return out.getvalue()


def _retoken(line: str, at: int, change) -> str:
    """line with its at-th number (counted cyclically) replaced by change(number)."""
    parts = line[:-1].split(" ")
    numbers = [i for i, part in enumerate(parts) if part.isdigit()]
    i = numbers[at % len(numbers)]
    parts[i] = change(parts[i])
    return " ".join(parts) + "\n"


# each defect takes a body line, the number it may change and the vertex count
_DEFECTS = {
    "19-digit id": lambda line, at, n: _retoken(line, at, lambda t: t.zfill(19)),
    "id past int64": lambda line, at, n: _retoken(line, at, lambda t: str(2 ** 63 + int(t))),
    "empty slot": lambda line, at, n: _retoken(line, at, lambda t: ""),
    "plus sign": lambda line, at, n: _retoken(line, at, lambda t: "+" + t),
    "minus sign": lambda line, at, n: _retoken(line, at, lambda t: "-" + t),
    "tab": lambda line, at, n: line.replace(" ", "\t", 1),
    "crlf": lambda line, at, n: line[:-1] + "\r\n",
    "comment": lambda line, at, n: "c a comment\n" + line,
    "non-ascii": lambda line, at, n: line[:-1] + " \xe9\n",
    "repeated edge": lambda line, at, n: line + line,
    "id past n": lambda line, at, n: _retoken(line, at % 2, lambda t: str(n + 1)),
    "first id glued": lambda line, at, n: _glued(line),
    "id moved to the front": lambda line, at, n: _moved_to_front(line),
    "ids balanced across lines": lambda line, at, n: _balanced_across_lines(line),
}


def _glued(line: str) -> str:
    """line with its first two fields joined and a trailing space: "e1 2 " or "12 3 "."""
    return line.replace(" ", "", 1)[:-1] + " \n"


def _moved_to_front(line: str) -> str:
    """line with its second field moved in front of its first, and a trailing
    space: "1e 2 " or "21 3 "."""
    parts = line.split()
    return parts[1] + parts[0] + " " + " ".join(parts[2:]) + " \n"


def _balanced_across_lines(line: str) -> str:
    """Two lines for line, one id short and one id over: "e 12 \\ne1 2 1"."""
    cut = line.rfind(" ")
    return line[:cut] + line[cut + 1:-1] + " \n" + _glued(line)[:-1] + "1\n"


def _id_after_the_final_newline(text: str) -> str:
    """text with the last id of its last line moved past the final newline:
    "e 3 4\\n" ends as "e 3 \\n4", which holds as many ids as before."""
    cut = text.rfind(" ")
    return text[:cut + 1] + "\n" + text[cut + 1:-1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_READERS)), st.integers(2, 3),
       st.sampled_from([None, "no final newline", "id after the final newline"]
                       + sorted(_DEFECTS)),
       st.integers(0, 10 ** 6), st.integers(0, 2))
def test_canonical_body_reads_as_the_line_reader(kind, d, defect, where, at):
    reader, reference, same = _READERS[kind]
    lines = _written(kind, d).splitlines(keepends=True)
    i = 2 + where % (len(lines) - 2)  # a body line
    if defect in _DEFECTS:
        lines[i] = _DEFECTS[defect](lines[i], at, 4 ** d)
    text = "".join(lines)
    if defect == "no final newline":
        text = text[:-1]
    if defect == "id after the final newline":
        text = _id_after_the_final_newline(text)
    assert same(_outcome(reader, io.StringIO(text)), _outcome(reference, io.StringIO(text)))


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_a_writer_file_is_read_as_one_chunk(monkeypatch, kind):
    text = _written(kind, 3)
    runs = []
    add_run = gio._Rows._add_run

    def spy(rows, lineno, run, count):
        runs.append((lineno, count))
        return add_run(rows, lineno, run, count)

    monkeypatch.setattr(gio._Rows, "_add_run", spy)
    # run patterns that match no line: only the canonical body makes a run
    monkeypatch.setattr(gio, "_DIMACS_RUN", "")
    monkeypatch.setattr(gio, "_COLORING_RUN", "")
    reader, reference, same = _READERS[kind]
    assert same(reader(io.StringIO(text)), reference(io.StringIO(text)))
    assert runs == [(3, text.count("\n") - 2)]


# --- a body read in chunks of a few lines reads as it does in one chunk ------------------

# chunk sizes in characters: a cut after every line, and after every few lines
_SMALL_CHUNKS = st.sampled_from([1, 7, 16, 40])


@settings(max_examples=300, deadline=None)
@given(_dimacs_text(), _SMALL_CHUNKS)
def test_read_dimacs_in_small_chunks_matches_the_line_reader(text, chunk):
    with mock.patch.object(gio, "_CHUNK", chunk):
        test_read_dimacs_matches_the_line_reader.hypothesis.inner_test(text)


@settings(max_examples=300, deadline=None)
@given(_coloring_text(), _SMALL_CHUNKS)
def test_read_coloring_in_small_chunks_matches_the_line_reader(text, chunk):
    with mock.patch.object(gio, "_CHUNK", chunk):
        test_read_coloring_matches_the_line_reader.hypothesis.inner_test(text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_READERS)), st.integers(2, 3),
       st.sampled_from([None, "no final newline", "id after the final newline"]
                       + sorted(_DEFECTS)),
       st.integers(0, 10 ** 6), st.integers(0, 2), _SMALL_CHUNKS)
def test_canonical_body_in_small_chunks_reads_as_the_line_reader(kind, d, defect, where, at,
                                                                 chunk):
    with mock.patch.object(gio, "_CHUNK", chunk):
        test_canonical_body_reads_as_the_line_reader.hypothesis.inner_test(
            kind, d, defect, where, at)


@pytest.mark.parametrize("chunk", [1, 7, 16])
def test_malformed_files_in_small_chunks_fail_as_in_the_line_reader(monkeypatch, chunk):
    monkeypatch.setattr(gio, "_CHUNK", chunk)
    for text, _ in MALFORMED_DIMACS:
        test_malformed_dimacs_fails_as_in_the_line_reader(text)
    for text, _ in MALFORMED_COLORING:
        assert _outcome(gio.read_coloring, io.StringIO(text)) == \
            _outcome(reference_read_coloring, io.StringIO(text))


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_a_writer_file_is_read_in_chunks_cut_after_line_ends(monkeypatch, kind):
    text = _written(kind, 3)
    runs = []
    add_run = gio._Rows._add_run

    def spy(rows, lineno, run, count):
        runs.append((lineno, run))
        return add_run(rows, lineno, run, count)

    monkeypatch.setattr(gio._Rows, "_add_run", spy)
    monkeypatch.setattr(gio, "_CHUNK", 30)
    # run patterns that match no line: only canonical chunks make runs
    monkeypatch.setattr(gio, "_DIMACS_RUN", "")
    monkeypatch.setattr(gio, "_COLORING_RUN", "")
    reader, reference, same = _READERS[kind]
    assert same(reader(io.StringIO(text)), reference(io.StringIO(text)))
    body = text.split("\n", 2)[2]
    assert "".join(run for _, run in runs) == body and len(runs) > len(body) // 30
    assert all(len(run) <= 30 and run.endswith("\n") for _, run in runs)
    assert [lineno for lineno, _ in runs] == list(itertools.accumulate(
        [3] + [run.count("\n") for _, run in runs[:-1]]))


def _in_small_chunks(monkeypatch, kind: str, change) -> tuple[str, object]:
    """The G_3 file of kind with change applied to its body lines, and what
    its reader makes of it in chunks of about three lines, which must be
    what the line reader makes of it."""
    monkeypatch.setattr(gio, "_CHUNK", 30)
    lines = _written(kind, 3).splitlines(keepends=True)
    lines[2:] = change(lines[2:])
    text = "".join(lines)
    reader, reference, same = _READERS[kind]
    got = _outcome(reader, io.StringIO(text))
    assert same(got, _outcome(reference, io.StringIO(text)))
    return text, got


def _past_int32(body: list[str]) -> list[str]:
    """body with the second id of a row two thirds of the way down set past int32."""
    i = 2 * len(body) // 3
    return body[:i] + [_retoken(body[i], 1, lambda t: str(2 ** 32 + 1))] + body[i + 1:]


def test_an_id_past_int32_in_a_later_chunk_widens_the_ids_only(monkeypatch):
    _, got = _in_small_chunks(monkeypatch, "coloring", _past_int32)
    assert (got.ends.dtype, got.colors.dtype) == (np.int64, np.int32)
    assert 2 ** 32 in got.ends
    text, got = _in_small_chunks(monkeypatch, "dimacs", _past_int32)
    line = 3 + 2 * (text.count("\n") - 2) // 3
    assert got == (ValueError, f"line {line}: vertex id {2 ** 32 + 1} outside 1..64")


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_a_bad_token_in_the_last_chunk_names_the_last_line(monkeypatch, kind):
    text, got = _in_small_chunks(monkeypatch, kind, lambda body: body[:-1] + [
        _retoken(body[-1], -1, lambda t: "x")])
    last = text.count("\n")
    assert got[1].startswith(f"line {last}: non-integer token in ")


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_a_crlf_line_in_the_last_chunk_reads_as_the_line_reader(monkeypatch, kind):
    _, got = _in_small_chunks(monkeypatch, kind, lambda body: body[:-1] + [body[-1][:-1] + "\r\n"])
    assert not isinstance(got, tuple)


def test_array_path_builds_no_tuple_views(tmp_path):
    g, coloring = keller.build(4), keller.class1_coloring(4)
    assert verify_edge_coloring(g, coloring).ok
    assert verify_hamiltonian_cycle(g, keller.ham_cycle(4)).ok
    gio.write_dimacs(g, tmp_path / "g.col")
    gio.write_coloring(coloring, tmp_path / "g.coloring")
    back, read = gio.read_dimacs(tmp_path / "g.col"), gio.read_coloring(tmp_path / "g.coloring")
    assert verify_edge_coloring(back, read).ok
    assert verify_hamiltonian_cycle(back, keller.ham_cycle(4)).ok
    # each object holds its arrays and what is computed from them, nothing else
    for graph in (g, back):
        assert set(vars(graph)) <= {"vertex_count", "pairs", "codes", "max_degree"}
    for col in (coloring, read):
        assert set(vars(col)) == {"ends", "colors", "declared_color_count"}
    assert edge_set(back) == edge_set(g) and assignment_of(read) == assignment_of(coloring)
