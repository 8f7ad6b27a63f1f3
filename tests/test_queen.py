"""Queen coloring constructions and the classification dispatcher."""

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from conftest import assignment_of, color_counts

from graphcert import cli, core, queen
from graphcert.bishop_rook import canonical_bishop_coloring
from graphcert import io as gio
from graphcert.chess import build_queen, overfull_threshold, queen_delta, queen_edge_count
from graphcert.core import EdgeColoring, verify_edge_coloring
from graphcert.queen import (
    MethodInapplicableError,
    class1_even,
    class1_ladder_multicycle,
    class1_square_odd,
    class2_overfull_coloring,
    classify_and_color,
)


def check_certificate(cert):
    report = verify_edge_coloring(build_queen(cert.m, cert.n), cert.coloring)
    assert report.ok, report.detail
    delta = queen_delta(cert.m, cert.n)
    expected = delta + (1 if cert.claimed_class == 2 else 0)
    assert cert.coloring.declared_color_count == expected
    assert report.colors_used == expected
    return report


@pytest.mark.parametrize("m,n,colors", [(4, 5, 13), (2, 2, 3), (4, 4, 11)])
def test_even_union(m, n, colors):
    cert = class1_even(m, n)
    assert cert.construction == "EvenUnion" and cert.claimed_class == 1
    assert cert.coloring.declared_color_count == colors
    check_certificate(cert)


def test_even_union_rejects_odd_boards():
    with pytest.raises(ValueError):
        class1_even(3, 5)


@pytest.mark.parametrize("n,colors", [(7, 24), (3, 8), (5, 16)])
def test_square_odd(n, colors):
    cert = class1_square_odd(n)
    assert cert.construction == "SquareOdd" and cert.claimed_class == 1
    assert cert.coloring.declared_color_count == colors == queen_delta(n, n) == 4 * n - 4
    check_certificate(cert)


def test_square_odd_keeps_one_lonely_color():
    # The rerouted edge is the only one wearing the recycled top color.
    for n in range(3, 14, 2):
        counts = color_counts(class1_square_odd(n).coloring)
        assert min(counts.values()) == 1


def test_square_odd_rejects_bad_input():
    with pytest.raises(ValueError):
        class1_square_odd(4)
    with pytest.raises(ValueError):
        class1_square_odd(1)


def test_class2_claim_on_a_board_that_is_not_overfull_fails(monkeypatch, tmp_path, capsys):
    # A class-2 claim rests on the overfull inequality, which the command line
    # reads off the verified board, not off a closed form; under python -O too.
    # With the threshold for m = 3 forged to 11, the overfull construction
    # colours Q(3,11) properly with Delta+1 colours, and only that check can
    # refuse it.
    real = queen.overfull_threshold
    monkeypatch.setattr(queen, "overfull_threshold", lambda m: 11 if m == 3 else real(m))
    out = tmp_path / "q.coloring"
    assert cli.main(["color", "--m", "3", "--n", "11", "--construction", "overfull",
                     "--out", str(out), "--json"]) == 1
    captured = capsys.readouterr()
    fail = [line.removeprefix("fail: ") for line in captured.err.splitlines()]
    assert len(fail) == 1 and "Q_3,11 is not" in fail[0] and "not more than" in fail[0]
    payload = json.loads(captured.out)
    assert payload["ok"] is False and payload["class"] == 2 and payload["detail"] == fail
    assert not out.exists()
    assert cli.main(["conjecture", "2", "--m-max", "3", "--n-max", "11", "--json"]) == 1
    detail = json.loads(capsys.readouterr().out)["detail"]
    assert f"Q_3,11: {fail[0]}" in detail
    assert all(line.startswith("Q_3,11: ") for line in detail)


@pytest.mark.parametrize("build, board, part", [
    (class1_even, (4, 6), "canonical_bishop_coloring"),
    (class1_even, (4, 6), "rook_class1_coloring"),
    (class1_square_odd, (7,), "ladder_coloring"),
    (class1_ladder_multicycle, (7, 9), "ladder_coloring"),
    (class2_overfull_coloring, (3, 13), "canonical_bishop_coloring"),
])
@pytest.mark.parametrize("repeat", ["own-row", "other-part"])
def test_union_refuses_an_edge_colored_twice(monkeypatch, build, board, part, repeat):
    # The parts are built without a repeat check, so the joined rows must be
    # checked: a part repeats one of its own rows, or holds an edge of the other part.
    m, n = board * (3 - len(board))
    real = getattr(queen, part)

    def with_a_repeat(*args, **kwargs):
        got = real(*args, **kwargs)
        own = set(map(tuple, got.ends.tolist()))
        edge = (got.ends[0].tolist() if repeat == "own-row" else
                next(e for e in build_queen(m, n).pairs.tolist() if tuple(e) not in own))
        return EdgeColoring._of_rows(np.concatenate((got.ends, [edge])),
                                     np.append(got.colors, got.colors[0]),
                                     got.declared_color_count)

    monkeypatch.setattr(queen, part, with_a_repeat)
    with pytest.raises(ValueError, match="colored twice"):
        build(*board)

@pytest.mark.parametrize("m,n,colors", [(7, 9, 26), (9, 27, 50), (5, 11, 22)])
def test_ladder_multicycle(m, n, colors):
    cert = class1_ladder_multicycle(m, n)
    assert cert.construction == "LadderMulticycle" and cert.claimed_class == 1
    assert cert.coloring.declared_color_count == colors == queen_delta(m, n)
    check_certificate(cert)


def test_ladder_multicycle_inapplicable_when_colors_run_out():
    # Derived multicycle of B_{3,7} needs 8 colors but only n-1 = 6 exist.
    with pytest.raises(MethodInapplicableError):
        class1_ladder_multicycle(3, 7)


def test_ladder_multicycle_beyond_the_guaranteed_range():
    # (3,5) has no guarantee yet chi'(derived) = 4 = n-1 exactly, so it applies.
    cert = class1_ladder_multicycle(3, 5)
    assert cert.coloring.declared_color_count == 10 == queen_delta(3, 5)
    check_certificate(cert)


def test_ladder_multicycle_rejects_bad_boards():
    with pytest.raises(ValueError):
        class1_ladder_multicycle(4, 5)
    with pytest.raises(ValueError):
        class1_ladder_multicycle(1, 5)


@pytest.mark.parametrize("m,n", [(3, 13), (3, 15), (5, 71)])
def test_overfull_coloring(m, n):
    cert = class2_overfull_coloring(m, n)
    assert cert.construction == "OverfullDeltaPlusOne" and cert.claimed_class == 2
    assert cert.coloring.declared_color_count == queen_delta(m, n) + 1
    check_certificate(cert)


def test_overfull_coloring_rejects_non_overfull_boards():
    with pytest.raises(ValueError):
        class2_overfull_coloring(5, 11)
    with pytest.raises(ValueError):
        class2_overfull_coloring(3, 14)


def test_overfull_inequality_at_and_beyond_threshold():
    for m in (3, 5, 7):
        f = overfull_threshold(m)
        for n in (f, f + 2):
            assert queen_edge_count(m, n) > queen_delta(m, n) * ((m * n) // 2)
        assert not (queen_edge_count(m, f - 2) > queen_delta(m, f - 2) * ((m * (f - 2)) // 2))


def test_classify_and_color_examples():
    cert = classify_and_color(3, 7)
    assert cert.claimed_class == 1
    assert cert.construction == "KempeSearch"
    assert cert.coloring.declared_color_count == 12
    check_certificate(cert)
    assert classify_and_color(3, 13).claimed_class == 2
    assert classify_and_color(5, 5).construction == "SquareOdd"
    assert classify_and_color(4, 9).construction == "EvenUnion"


def test_certificate_json():
    data = json.loads(classify_and_color(3, 13).to_json())
    assert data == {"m": 3, "n": 13, "class": 2,
                    "construction": "OverfullDeltaPlusOne", "colors": 19}


def test_classify_and_color_grid():
    for m in range(1, 10):
        for n in range(m, 10):
            cert = classify_and_color(m, n)
            assert (cert.m, cert.n) == (m, n)
            overfull = queen_edge_count(m, n) > queen_delta(m, n) * ((m * n) // 2)
            assert (cert.claimed_class == 2) == overfull
            if m == n == 1:
                assert assignment_of(cert.coloring) == {}
                continue
            check_certificate(cert)


@pytest.mark.parametrize("m,n", [(50, 50), (49, 49), (25, 49), (3, 51)])
def test_color_command_builds_no_tuple_views(monkeypatch, tmp_path, capsys, m, n):
    # one board per construction: each is built, verified and written on the
    # edge and colour arrays alone
    graphs, colorings = [], []
    for cls, seen in ((core.Graph, graphs), (core.EdgeColoring, colorings)):
        def store(self, *args, _store=cls._store, _seen=seen):
            _seen.append(self)
            _store(self, *args)
        monkeypatch.setattr(cls, "_store", store)
    out = tmp_path / "q.coloring"
    assert cli.main(["color", "--m", str(m), "--n", str(n), "--out", str(out)]) == 0
    assert graphs and colorings and out.exists()
    for graph in graphs:
        assert not {"edges", "adjacency"} & set(vars(graph))
    for coloring in colorings:
        assert "assignment" not in vars(coloring)


def test_recoloring_an_edge_outside_the_union_raises_certificate_error():
    # a rerouted edge takes its new colour; one that no part colours is left
    # to the verifier at the command line, which checks every construction
    part = EdgeColoring.from_arrays([[0, 1]], [1], 1)
    assert assignment_of(queen._union(2, 2, [part], 2, recolor=[((0, 1), 2)])) == {(0, 1): 2}


# sha256 over the write_coloring bytes of every certificate below, in order,
# recorded before the ladder prescription moved onto vertex ids
QUEEN_CERTIFICATES_SHA256 = "3d518d93e9744afacb656a3093206d15f2fddc6ed6e120a529bf988babf9c847"


def test_queen_constructions_keep_their_bytes():
    # square-odd on every odd n <= 51, then every odd board 3 <= m <= 15,
    # m < n < 120, that the overfull or ladder-multicycle construction colours
    certs = [class1_square_odd(n) for n in range(3, 52, 2)]
    for m in range(3, 16, 2):
        for n in range(m + 2, 120, 2):
            build = class2_overfull_coloring if n >= overfull_threshold(m) else class1_ladder_multicycle
            try:
                certs.append(build(m, n))
            except MethodInapplicableError:
                pass
    digest = hashlib.sha256()
    for cert in certs:
        text = io.StringIO()
        gio.write_coloring(cert.coloring, text)
        digest.update(text.getvalue().encode("ascii"))
    assert len(certs) == 291
    assert digest.hexdigest() == QUEEN_CERTIFICATES_SHA256


def test_queen_path_stays_within_its_bytes_per_edge(tmp_path):
    # tracemalloc sees numpy's buffers, so each peak is the same on every run;
    # the bounds sit a few bytes an edge above the peaks at Q(50,50), which are
    # far below those of the int64 path each replaced: the board 28.5 (73.0),
    # the bishop colouring 34.5 (74.8), the whole construction 48.0 (84.0),
    # and the batch-wise writers 9.5 and 7.5 (36.4 and 29.4)
    def peak_per_edge(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1] / edges
        finally:
            tracemalloc.stop()

    g, cert = build_queen(50, 50), classify_and_color(50, 50)
    edges = g.edge_count
    assert peak_per_edge(build_queen, 50, 50) < 32
    assert peak_per_edge(canonical_bishop_coloring, 50, 50) < 38
    assert peak_per_edge(classify_and_color, 50, 50) < 52
    assert peak_per_edge(gio.write_coloring, cert.coloring, tmp_path / "q.coloring") < 12
    assert peak_per_edge(gio.write_dimacs, g, tmp_path / "q.col") < 10


@pytest.mark.parametrize("m,n", [(50, 50), (49, 49), (25, 49), (3, 51), (1, 5)])
def test_the_queen_path_is_int32(m, n):
    # board, bishop and rook colourings and every construction's join
    assert build_queen(m, n).pairs.dtype == np.int32
    assert canonical_bishop_coloring(m, n).colors.dtype == np.int32
    cert = classify_and_color(m, n)
    assert cert.coloring.ends.dtype == cert.coloring.colors.dtype == np.int32
