"""File format round trips: DIMACS graphs, colorings, sequences, vertex sets."""

import hashlib
import io

import pytest

import graphcert.io as gio
import graphcert.keller as keller
from conftest import cycle
from graphcert.bishop_rook import canonical_bishop_coloring
from graphcert.chess import build_queen
from graphcert.core import CertificateError, EdgeColoring
from graphcert.queen import classify_and_color


def test_dimacs_roundtrip(tmp_path):
    g = build_queen(3, 3)
    target = tmp_path / "q33.dimacs"
    gio.write_dimacs(g, target, comments=["queen m=3 n=3"])
    text = target.read_text()
    assert text.startswith("c queen m=3 n=3\np edge 9 28\n")
    back = gio.read_dimacs(target)
    assert back.vertex_count == g.vertex_count and back.edges == g.edges


def test_dimacs_ids_are_one_based_on_disk():
    buf = io.StringIO()
    gio.write_dimacs(cycle(3), buf)
    assert "e 1 2" in buf.getvalue() and "e 0 1" not in buf.getvalue()


def test_dimacs_errors():
    with pytest.raises(ValueError):
        gio.read_dimacs(io.StringIO("e 1 2\n"))  # no problem line
    with pytest.raises(ValueError):
        gio.read_dimacs(io.StringIO("p edge 3\ne 1 2\n"))
    with pytest.raises(ValueError):
        gio.read_dimacs(io.StringIO("p edge 3 2\ne 1 2\n"))  # declared 2, found 1
    with pytest.raises(ValueError):
        gio.read_dimacs(io.StringIO("p edge 3 1\nx 1 2\n"))


def test_coloring_roundtrip(tmp_path):
    col = canonical_bishop_coloring(3, 5)
    target = tmp_path / "b35.col"
    gio.write_coloring(col, target)
    assert f"c k={col.declared_color_count}" in target.read_text()
    back = gio.read_coloring(target)
    assert back.assignment == col.assignment
    assert back.declared_color_count == col.declared_color_count


def test_coloring_requires_declared_count():
    with pytest.raises(ValueError):
        gio.read_coloring(io.StringIO("1 2 1\n2 3 2\n"))


def test_coloring_accepts_comments_and_blank_lines():
    text = "c produced by hand\n\nc k=2\n1 2 1\n3 2 2\n"
    col = gio.read_coloring(io.StringIO(text))
    assert col.assignment == {(0, 1): 1, (1, 2): 2}  # endpoints normalized
    assert col.declared_color_count == 2


def test_coloring_rejects_malformed_line():
    with pytest.raises(ValueError):
        gio.read_coloring(io.StringIO("c k=1\n1 2\n"))


@pytest.mark.parametrize("reader,text,line", [
    (gio.read_coloring, "c k=2\n1 2 1\n2 3 two\n", 3),
    (gio.read_coloring, "c k=2.5\n1 2 1\n", 1),
    (gio.read_sequence, "1 2\n3 x\n", 2),
    (gio.read_vertex_sets, "c cover\n1 2\n\n3 4 5e\n", 4),
], ids=["coloring-body", "coloring-k", "sequence", "vertex-sets"])
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
    gio.write_coloring(EdgeColoring({(0, 1): 1}, 1), buf)
    buf.seek(0)
    assert gio.read_coloring(buf).assignment == {(0, 1): 1}
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
