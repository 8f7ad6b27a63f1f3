"""Board graph generators, parameter formulas, and the class prediction table."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (BoardCoord, coord_to_id, edge_set, id_to_coord, reference_bishop_edge_pairs,
                      reference_build_bishop, reference_build_queen, reference_build_rook)
from graphcert.chess import (
    QueenClass,
    SquareColor,
    bishop_delta,
    bishop_edge_pairs,
    build_bishop,
    build_queen,
    build_rook,
    classify_queen_prediction,
    overfull_threshold,
    queen_delta,
    queen_edge_count,
    rook_delta,
)
from graphcert.core import max_degree


def test_build_queen_3_3():
    g = build_queen(3, 3)
    assert g.edge_count == 28
    assert max_degree(g) == 8


def test_build_rook_4_5():
    g = build_rook(4, 5)
    assert g.edge_count == 70  # m*C(n,2) + n*C(m,2)
    assert max_degree(g) == 7


def test_build_bishop_single_row_is_edgeless():
    assert build_bishop(1, 6).edge_count == 0


def test_board_size_validation():
    with pytest.raises(ValueError):
        build_rook(5, 4)  # m > n
    with pytest.raises(ValueError):
        build_queen(0, 3)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
def test_coord_id_roundtrip(m, n, seed):
    if m > n:
        m, n = n, m
    col = seed % n + 1
    row = seed % m + 1
    c = BoardCoord(col, row)
    assert id_to_coord(coord_to_id(c, n), n) == c


def test_square_color_convention():
    assert BoardCoord(1, 1).white  # lower left square
    assert not BoardCoord(2, 1).white
    white = build_bishop(3, 3, SquareColor.WHITE)
    black = build_bishop(3, 3, SquareColor.BLACK)
    full = build_bishop(3, 3)
    assert edge_set(white) | edge_set(black) == edge_set(full)
    assert not edge_set(white) & edge_set(black)


def _reference_bishop_pairs(m, n):
    # reference on BoardCoord: row, column, length, positive slope before
    # negative, lower-column endpoint first
    out = []
    for row in range(1, m + 1):
        for col in range(1, n + 1):
            for length in range(1, m):
                if col + length <= n:
                    if row + length <= m:
                        out.append((BoardCoord(col, row), BoardCoord(col + length, row + length)))
                    if row - length >= 1:
                        out.append((BoardCoord(col, row), BoardCoord(col + length, row - length)))
    return [(coord_to_id(a, n), coord_to_id(b, n)) for a, b in out]


def test_bishop_edge_pairs_match_coordinate_enumeration():
    wrong = [(m, n) for n in range(1, 13) for m in range(1, n + 1)
             if list(map(tuple, bishop_edge_pairs(m, n).tolist()))
             != _reference_bishop_pairs(m, n)]
    assert wrong == []


def test_generators_match_the_tuple_oracle():
    boards = ([(m, n) for n in range(1, 22) for m in range(1, n + 1)]
              + [(50, 50), (49, 49), (25, 49), (3, 51)])
    wrong = []
    for m, n in boards:
        built = [(build_rook(m, n), reference_build_rook(m, n)),
                 (build_queen(m, n), reference_build_queen(m, n))]
        built += [(build_bishop(m, n, f), reference_build_bishop(m, n, f)) for f in SquareColor]
        wrong += [(m, n, i) for i, (got, want) in enumerate(built)
                  if edge_set(got) != edge_set(want)]
        if bishop_edge_pairs(m, n).tolist() != list(map(list, reference_bishop_edge_pairs(m, n))):
            wrong.append((m, n, "pairs"))
    assert wrong == []


# sha256 of "u v" per line of sorted(edge_set(build_bishop(m, n, f))), recorded
# from the coordinate enumeration that the id arithmetic replaced
BISHOP_EDGES_SHA256 = {
    (5, 5, SquareColor.ALL): "1819f8876aa42645a2421871fe8d42956e1b61f609997a83d0496cc3b984c469",
    (5, 5, SquareColor.WHITE): "c741bc9f28b6b4fd18117a8c43021155d54aab4d7a90a80d53749c841f2ad7f9",
    (5, 5, SquareColor.BLACK): "5448860f9059ad3220a848b3edc9c813c8e336a8bd81953ebf3906cb42dd6f3b",
    (6, 9, SquareColor.ALL): "f2c203f5718a1a622a4e3468e518970d5d97b2ca2620b5a738a9c20f64f4e439",
    (6, 9, SquareColor.WHITE): "156978d8dc98b41f335d08db5bf068192983743abe26f2c8d3f2ff29efd9ec14",
    (6, 9, SquareColor.BLACK): "4c9a6a6eb0754af9c131b0cbab85c5a84de5754b325898187a0e95273eb3fe6a",
    (13, 61, SquareColor.ALL): "8e2edead2daeb4f513f81a80fbaf6294ba08ffa640ce31ee132452b074f904d9",
    (13, 61, SquareColor.WHITE): "2a4f172f4103ae9544e587274f19dc45f1aadb71be9e9e64bbc591baaeb888a7",
    (13, 61, SquareColor.BLACK): "94e8e82dc93e98a412d02e4da63e53a842179013f1a5908e8afb369b8293fad2",
}


@pytest.mark.parametrize("m, n, color_filter", list(BISHOP_EDGES_SHA256),
                         ids=lambda x: x.value if isinstance(x, SquareColor) else str(x))
def test_build_bishop_matches_recorded_digests(m, n, color_filter):
    h = hashlib.sha256()
    for u, v in sorted(edge_set(build_bishop(m, n, color_filter))):
        h.update(f"{u} {v}\n".encode())
    assert h.hexdigest() == BISHOP_EDGES_SHA256[(m, n, color_filter)]


def test_queen_formula_examples():
    assert queen_delta(3, 3) == 8
    assert queen_edge_count(3, 3) == 28
    assert queen_delta(4, 4) == 11 == max_degree(build_queen(4, 4))
    assert queen_edge_count(5, 5) == 160 == build_queen(5, 5).edge_count


def test_delta_formulas_on_a_sweep():
    # the closed forms against the array generators, which do not use them
    for m in range(1, 41):
        for n in range(m, 41):
            q = build_queen(m, n)
            assert queen_delta(m, n) == max_degree(q), (m, n)
            assert queen_edge_count(m, n) == q.edge_count, (m, n)
            assert rook_delta(m, n) == max_degree(build_rook(m, n)), (m, n)
            assert bishop_delta(m, n) == build_bishop(m, n).max_degree, (m, n)


def test_queen_is_disjoint_union_of_rook_and_bishop():
    for m, n in ((2, 2), (3, 4), (4, 7), (5, 5), (6, 6)):
        rook, bishop, queen = build_rook(m, n), build_bishop(m, n), build_queen(m, n)
        assert not edge_set(rook) & edge_set(bishop)
        assert edge_set(rook) | edge_set(bishop) == edge_set(queen)
        assert queen_delta(m, n) == rook_delta(m, n) + bishop_delta(m, n)


def test_overfull_threshold_values():
    assert overfull_threshold(3) == 13
    assert overfull_threshold(5) == 71


def test_classification_examples():
    assert classify_queen_prediction(3, 13).status is QueenClass.CLASS2_OVERFULL
    assert classify_queen_prediction(4, 9).status is QueenClass.CLASS1_PROVED
    assert classify_queen_prediction(7, 9).status is QueenClass.CLASS1_PROVED
    assert classify_queen_prediction(3, 11).status is QueenClass.CLASS1_CONJECTURED


def test_classification_partitions_odd_pairs():
    # proved and overfull ranges never overlap; every pair gets one status
    for m in range(3, 50, 2):
        quad = (m * m - 3 * m + 2) // 2
        assert quad < overfull_threshold(m)
        for n in range(m, overfull_threshold(m) + 4, 2):
            status = classify_queen_prediction(m, n).status
            if n >= overfull_threshold(m):
                assert status is QueenClass.CLASS2_OVERFULL, (m, n)
            elif m == n or 2 * n <= m * m - 3 * m + 2:
                assert status is QueenClass.CLASS1_PROVED, (m, n)
            else:
                assert status is QueenClass.CLASS1_CONJECTURED, (m, n)
