"""File format round trips: DIMACS graphs, colorings, sequences, vertex sets."""

import io

import pytest

import graphcert.io as gio
import graphcert.keller as keller
from conftest import cycle
from graphcert.bishop_rook import canonical_bishop_coloring
from graphcert.chess import build_queen
from graphcert.core import CertificateError, EdgeColoring


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
