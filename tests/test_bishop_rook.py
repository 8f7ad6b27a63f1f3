"""Complete-graph, bishop, and rook coloring constructions."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BoardCoord, MissingColorPlan, assignment_of, color_counts, coloring_of,
                      colors_used, complete, complete_graph_coloring, coord_to_id, edge_set,
                      graph_of, id_to_coord, ladder_missing_color,
                      reference_bishop_path_decomposition,
                      reference_canonical_bishop_coloring, reference_group_buckets,
                      reference_ladder_coloring, reference_rook_class1_coloring)
from graphcert import bishop_rook
from graphcert.bishop_rook import (
    bishop_path_decomposition,
    canonical_bishop_coloring,
    k_odd_prescribed_missing,
    ladder_coloring,
    rarest_bishop_color,
    rarest_color_edges,
    rook_class1_coloring,
)
from graphcert.chess import bishop_delta, build_bishop, build_rook
from graphcert.core import CertificateError, EdgeColoring, verify_edge_coloring


def complete_coloring(n: int, colors, declared: int) -> EdgeColoring:
    """The colouring of K_n whose edges (x, y) take colors in np.triu_indices order."""
    return EdgeColoring.from_arrays(np.column_stack(np.triu_indices(n, 1)), colors, declared)


def missing_colors_at(coloring: EdgeColoring, vertex: int) -> set[int]:
    seen = {c for (u, v), c in assignment_of(coloring).items() if vertex in (u, v)}
    return set(range(1, coloring.declared_color_count + 1)) - seen


# --- complete graphs ----------------------------------------------------------


def test_complete_even_uses_n_minus_1_colors():
    coloring = complete_graph_coloring(4)
    report = verify_edge_coloring(complete(4), coloring)
    assert report.ok
    assert report.colors_used == 3


def test_complete_odd_missing_colors_are_distinct():
    coloring = complete_graph_coloring(5)
    assert verify_edge_coloring(complete(5), coloring).ok
    assert colors_used(coloring) == {1, 2, 3, 4, 5}
    missing = [missing_colors_at(coloring, u) for u in range(5)]
    assert all(len(m) == 1 for m in missing)
    assert set().union(*missing) == {1, 2, 3, 4, 5}


def test_complete_odd_matching_becomes_class_one():
    matching = [(0, 1), (2, 3), (4, 5)]
    coloring = complete_graph_coloring(7, matching_as_class=matching)
    assert verify_edge_coloring(complete(7), coloring).ok
    class1 = {e for e, c in assignment_of(coloring).items() if c == 1}
    assert class1 == set(matching)
    # Dropping the matching class leaves a 6-coloring of K_7 minus the matching.
    rest = coloring_of({e: c - 1 for e, c in assignment_of(coloring).items() if c != 1}, 6)
    g = graph_of(7, edge_set(complete(7)) - set(matching))
    report = verify_edge_coloring(g, rest)
    assert report.ok
    assert report.colors_used == 6


def test_complete_even_matching_becomes_class_one():
    matching = [(0, 2), (1, 3), (4, 5)]
    coloring = complete_graph_coloring(6, matching_as_class=matching)
    assert verify_edge_coloring(complete(6), coloring).ok
    assert coloring.declared_color_count == 5
    assert {e for e, c in assignment_of(coloring).items() if c == 1} == set(matching)


def test_complete_rejects_bad_matchings():
    with pytest.raises(ValueError):
        complete_graph_coloring(6, matching_as_class=[(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        complete_graph_coloring(5, matching_as_class=[(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        complete_graph_coloring(1)


def test_prescribed_missing_realizes_the_prescription():
    desired = (3, 1, 5, 2, 4)
    colors = k_odd_prescribed_missing(5, desired)
    assert colors.shape == (10,)
    coloring = complete_coloring(5, colors, 5)
    assert verify_edge_coloring(complete(5), coloring).ok
    for u in range(5):
        assert missing_colors_at(coloring, u) == {desired[u]}


def test_prescribed_missing_matching_class():
    desired = (7, 1, 2, 3, 4, 5, 6)
    coloring = complete_coloring(7, k_odd_prescribed_missing(7, desired, matching_class=True), 7)
    assignment = assignment_of(coloring)
    assert assignment[(1, 2)] == assignment[(3, 4)] == assignment[(5, 6)] == 7
    assert verify_edge_coloring(complete(7), coloring).ok
    for u in range(7):
        assert missing_colors_at(coloring, u) == {desired[u]}


def test_prescribed_missing_rejects_bad_input():
    with pytest.raises(ValueError):
        k_odd_prescribed_missing(4, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        k_odd_prescribed_missing(5, (1, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        k_odd_prescribed_missing(5, [(1, 2, 3, 4, 5), (1, 2, 3, 4, 4)])


# --- canonical bishop coloring ---------------------------------------------------


BOARDS = [(2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (4, 7), (5, 5), (5, 8), (6, 6), (7, 9)]


def test_path_decomposition_partitions_bishop_edges():
    for m, n in BOARDS:
        pd = bishop_path_decomposition(m, n)
        edges = edge_set(build_bishop(m, n))
        covered: set[tuple[int, int]] = set()
        for grp in pd.groups:
            for p in grp.paths:
                assert len(p) >= 2
                for a, b in zip(p, p[1:]):
                    e = (a, b) if a < b else (b, a)
                    assert e in edges
                    assert e not in covered
                    covered.add(e)
            # Paths within one group never share a vertex.
            vertices = [v for p in grp.paths for v in p]
            assert len(vertices) == len(set(vertices))
        assert covered == edges
        if m % 2 == 0:
            assert all(not (2 * grp.i == m and grp.sign < 0) for grp in pd.groups)


# sha256 of "\n".join(bishop_path_decomposition(m, n).to_lines()), recorded
# from the per-group enumeration that preceded the single-pass bucketing;
# the pointer-doubling walk and the vertex-by-vertex oracle must both give them.
DECOMPOSITION_SHA256 = {
    (1, 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 2): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 3): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 4): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 5): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 6): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 7): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 8): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 9): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 10): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 11): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 12): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 2): "ebe40926f3628569314f78c8429f11d546f12049e9afd8731c784c26834edc5f",
    (2, 3): "78e3887b8524eed72c6d61c8112e4b2ec3d047d92208ce7bf219acacb2a2d516",
    (2, 4): "ff10f992a34c8f53d762a5aa311652040146c7232596d640fa9dd5cf8f284837",
    (2, 5): "f18ef2336e6c44a7e07514c5cf125ac4b68c046729a0a300d5c4f66c06385562",
    (2, 6): "f76cd86332f77a5ccbaa9a30b2ece0f1035d81c87c1d952bf2118a5d169085d4",
    (2, 7): "aa83e8bd831e025ca25254304165248ed72f5248e73d903d4a1eaf2aa2a90f6a",
    (2, 8): "fd5afbed89b84bf2d420cfe92734586e8662709d7b0af9f01d219c7856a99306",
    (2, 9): "3cc986f2f1fa8ea23d6eea57ef0f8b9d6631168a7a3dac6e598d465c41fafa60",
    (2, 10): "0126058e78017b776be8e0040d5d588dcc68e5621e076d8ff2bcffb0d31f89a2",
    (2, 11): "9dbd92013065c00b6ce1906a516cc5a813b4175bd15937fcf118e14cf3d7687f",
    (2, 12): "94a2416adc5201b47a76d9df2c6761c924293864e6a487bf81965dbf6944504d",
    (3, 3): "6d77707f86880c0381e36d3c99e1ba99f63410e711a9367e0a49cf9751ee880f",
    (3, 4): "c29b995ce6ea594f6a2bd63db300d7bf7826e906e18eec43ded1aafa12dc4997",
    (3, 5): "ce9aad70b0702a730010c3fe427da2793fd7310d54409d5f5b480afce6936fc8",
    (3, 6): "edb925b5a62d1c8dabc1b8c98349e2e588639ee5751291079be874f32ba7ca37",
    (3, 7): "23f747eba65d280445e0b3b7a396997e6e2686288b017182d0232b46bf30e886",
    (3, 8): "47a83d416bdf395100d730e69ae01c9642f3fc81ad94ca9dd823c9f1c071ee1c",
    (3, 9): "16c7674c9e0a72f5f59549661f8b7d5e6f58a2d3a701519830f88bb30ecf9e21",
    (3, 10): "770389e9dcb611ead96ecdca19cda811d075dd3a20b0eba49fa2b48fc1df934c",
    (3, 11): "8d17c9a27b92be993d9f57e5df9e7f31635006234612e1e0a45f4ce16cfa0bad",
    (3, 12): "4c9896be25362c3a9d46a4e55b39827750b9635e806e63edb1d7cf92a6bd7e93",
    (4, 4): "5fefdb3814f884cc57a1b22a1576c000d7ffa88881efe847ec587f226d8461d1",
    (4, 5): "962e7b9be253a2bbe898c98ae6a1a7c360e790e2744e507c2f8d01082c3562cc",
    (4, 6): "25c7f6359db7a9c002d19b227ce6e661ca8cc097075725f5f0e5e4ceedb14eb8",
    (4, 7): "980241998f15ae84fc35a10b5f3f095fbea7f1a3868f2c08f62e99e24e8f7af7",
    (4, 8): "9d613d339e545a3dfd9f58ddd0e89fe4f4b747f3951497e9deaf69c4cf04d4ae",
    (4, 9): "24b1d616e496baa18744dce0d7cfaa9a86a59ad8208d49b056e7318da964aa49",
    (4, 10): "0fbf744b26f308e5006ab0ca75c58e52d019cdce4cf21cc018bac2fc16b20093",
    (4, 11): "9c72d0de9e480b2de1678ea32ad623b24fdb41cc42ccb1019e4f148541708661",
    (4, 12): "3e276de910514b3e851afbf8f5c6126d93951fbdb8b001541f0ec8a72e277ca8",
    (5, 5): "bd870f01b5f7f3008d606ec6eccaf04baefca468669e4f5d74019931dc404d00",
    (5, 6): "4450d4bd31f865e637774eae43ea3da74d157b6e648de2ff3c067ae523a26e79",
    (5, 7): "c8de1b8e3ce43fd7d8e01c01e22be05d262199d654a10430e6c8520fdfa942b8",
    (5, 8): "9e9dcae8f829034ef7ce20286850e743bd325eae175c1e8a3a817c0ed707ba01",
    (5, 9): "24855e71dd10d485837401ab8dd065f82ee3fbc4ba5b70607498b55054c76cfd",
    (5, 10): "4afa5c6cab53ae05a02b6c8d66125e93813c584b551019969f935497908b7385",
    (5, 11): "e0ebd83c7b2faca12577808c109946fd4dc12b4396bc6a35b197d8b59e691377",
    (5, 12): "15341d3d105375cb999f990944d553e9bfeed945e5ebb6ea75abc9ac6616c4fb",
    (6, 6): "4588e6505c22156352ca3d55029f927c3ed8e8fbf5af6c92e2719f2924aa11a4",
    (6, 7): "fb14b041387e39fa3947621d6a608004a00abbc5b50c4cffe021a8329202536b",
    (6, 8): "8607e2d140e29592e8da3a6cc7883aabc5a32b41b2c870a2ad590680b9b225b7",
    (6, 9): "efdf27af87917ad69c34e2326ef52cd53d8b9bda34640e10b47fdfb4902f12d3",
    (6, 10): "5aeacccdc934d3f124f863dfbd8322f53f86a1627a3260531f8aedb64afca72d",
    (6, 11): "091de0a716be7978d3c292c2a100784cc0c34db545cacb069e9560a716a95e84",
    (6, 12): "87e9fce5dd11cf5c725fd12ca9351ccca613d7345ed10c5314949284c6108c67",
    (7, 7): "4d952028e0715816b7c326c7d83266185362a512d84e6e0e547fb6247d7ff486",
    (7, 8): "640b4222345dc93c775c1ed92a6098218e64dd1ad305bdfd8b49a959b7221973",
    (7, 9): "7d56bc1f06b685570cf73d0dc1de1488b0ee451fe223d29fc13781b7b38a228e",
    (7, 10): "300b9089b73e2ef89b9246fd15b286f2047dd67a2acf6b75aab9a6124ab7ce49",
    (7, 11): "8801c6ead373cb6b8585aada58589bae5a2ed3f09a41ccdc151d313451811144",
    (7, 12): "282b4d204e8d9185c55fc893160e770b20ed8a4d7ebbb6ed6bfebc0dc4df21e0",
    (8, 8): "9b1e6d9de5644202d0956987b5e93d23fd45e99ce4049c349827744e9273a36b",
    (8, 9): "e0ca5cda1b96492168e1e6c94ae54d6feeb0459a951e797d22f908672f77b0c7",
    (8, 10): "5d9804caab5117b6b6a26fedbac85f5bcf0b5fe6e3f6b8531099e3ef64199ed1",
    (8, 11): "1dfe2f19252369aee68cde068bd7480fa2ad88bb1e2d7c40dab1072d72bc59b5",
    (8, 12): "bc57f8ea0e237522d80a7c5cf49ea825da36ac91fb2e2bb7987074f38fc6d437",
    (9, 9): "5466579bc00a82ed28ad48c3c229cdbfef026886e2ee637a92e6e516b2efbb10",
    (9, 10): "ac770bad6ac894188751d7dabeba4b3ed4a6dd0354b33b579f90586770254746",
    (9, 11): "446fde71fb51e9ee1d3de33af52c9ac9762b1824bbbef5b75122c396a15babbe",
    (9, 12): "3c53fdc54c669e09ca11c51aa4a086b94ae56e7ce5cbab046532a2bce37855d1",
    (10, 10): "30ad280e2d8b23091eab45b88ad64ca1162b3ef519fd9d1f0c7127110ac62fae",
    (10, 11): "aca413357f1331a8227a93f1111656f0d2a30b7afca4f338f8e1e77fbb4519e5",
    (10, 12): "8b3ab10a3301fc0339f9f5fd880ca85791ab5dcd9c37527df08110f5922adec5",
    (11, 11): "7cbfde41b9e39582fe5b3c721b2b0ed6b60ae0348a1cf8340f2b3c9c896ae100",
    (11, 12): "2117ce9addb80ebbf2ee1ef94687bf23f0098ec274dc6e7c7702f99d3db6918f",
    (12, 12): "cbb0272b8dc1f0fbbb1e85c52a161570b9133a69868c32c2b2f0a8d04b6dd846",
    (13, 61): "d0b1bdc398ace40dfa292259fa7531ce1e24f799dcd73c50ad784927464d01ab",
    (25, 49): "df4f334273fca5e171d0e0c63f36ee8c0acd3e05e67a83a3c23f440d6b3088a2",
}


def test_path_decomposition_matches_recorded_digests():
    wrong = [(decompose.__name__, board) for board, digest in DECOMPOSITION_SHA256.items()
             for decompose in (bishop_path_decomposition, reference_bishop_path_decomposition)
             if hashlib.sha256("\n".join(decompose(*board).to_lines())
                               .encode()).hexdigest() != digest]
    assert wrong == []


def test_inverse_of_two_needs_an_odd_modulus():
    # The K_n scheme for odd n divides by 2 mod n; an even n must fail under
    # python -O too, so the check cannot be an assert.
    assert [bishop_rook._inv2(n) * 2 % n for n in (3, 5, 7, 9)] == [1, 1, 1, 1]
    with pytest.raises(CertificateError, match="even"):
        bishop_rook._inv2(6)


def test_canonical_coloring_enumerates_bishop_edges_once(monkeypatch):
    calls = []
    enumerate_edges = bishop_rook.bishop_edge_pairs

    def counted(m, n):
        calls.append((m, n))
        return enumerate_edges(m, n)

    monkeypatch.setattr(bishop_rook, "bishop_edge_pairs", counted)
    canonical_bishop_coloring(9, 13)
    assert calls == [(9, 13)]


BAD_GROUPS = pytest.mark.parametrize("bucket", [
    [(0, 4), (4, 8), (2, 4)],  # vertex 4 has degree 3
    [(0, 1), (1, 2), (0, 2)],  # a triangle, so no path ends
], ids=["degree", "cycle"])


@BAD_GROUPS
def test_failed_path_check_raises_certificate_error(monkeypatch, bucket):
    # These checks must hold under python -O too, so they cannot be asserts.
    monkeypatch.setattr(bishop_rook, "_bishop_groups",
                        lambda m, n: (np.array(bucket), np.zeros(len(bucket), np.int64)))
    for build in (bishop_path_decomposition, canonical_bishop_coloring):
        with pytest.raises(CertificateError):
            build(3, 3)


@BAD_GROUPS
def test_rarest_color_path_check_raises_certificate_error(monkeypatch, bucket):
    # the one-group walk shares its checks with the whole decomposition
    monkeypatch.setattr(bishop_rook, "_last_group_edges", lambda m, n: np.array(bucket))
    with pytest.raises(CertificateError):
        rarest_color_edges(3, 3)


def test_last_group_edges_are_the_last_bucket():
    for m in range(3, 42, 2):
        for n in range(m, 42, 2):
            bucket = reference_group_buckets(m, n)[(m // 2, -1)]
            last = bishop_rook._last_group_edges(m, n).tolist()
            assert sorted(map(tuple, last)) == sorted(bucket), (m, n)


ORACLE_BOARDS = ([(m, n) for n in range(1, 22) for m in range(1, n + 1)]
                 + [(50, 50), (49, 49), (25, 49), (3, 51)])


def test_constructions_match_the_tuple_oracle():
    # the array colourings against the pair-by-pair ones, with a seeded random
    # ladder plan on every odd board
    rng = random.Random(0)
    wrong = []
    for m, n in ORACLE_BOARDS:
        built = [(canonical_bishop_coloring(m, n), reference_canonical_bishop_coloring(m, n))]
        if m % 2 == 0 or n % 2 == 0:
            built.append((rook_class1_coloring(m, n), reference_rook_class1_coloring(m, n)))
        elif n >= 3:
            rows = [rng.sample(range(m + 1, m + n), n - 1) for _ in range(m)]
            plan = MissingColorPlan(m, n, tuple(map(tuple, rows)))
            built.append((ladder_coloring(m, n, plan.fixed()),
                          reference_ladder_coloring(m, n, plan)))
        wrong += [(m, n, got.declared_color_count) for got, want in built
                  if assignment_of(got) != assignment_of(want)
                  or got.declared_color_count != want.declared_color_count]
    assert wrong == []


def test_path_decomposition_lines_format():
    pd = bishop_path_decomposition(3, 3)
    lines = pd.to_lines()
    assert all(line.split()[0] in ("1+", "1-") for line in lines)
    # Ids on disk are 1-based.
    flat = [int(tok) for line in lines for tok in line.split()[1:]]
    assert min(flat) >= 1 and max(flat) <= 9


def test_canonical_coloring_square_even():
    coloring = canonical_bishop_coloring(4, 4)
    report = verify_edge_coloring(build_bishop(4, 4), coloring)
    assert report.ok
    assert report.colors_used == 5 == bishop_delta(4, 4)


def test_canonical_coloring_group_colors_and_alternation():
    m, n = 5, 7
    coloring = canonical_bishop_coloring(m, n)
    assert verify_edge_coloring(build_bishop(m, n), coloring).ok
    pd = bishop_path_decomposition(m, n)
    assignment = assignment_of(coloring)
    for grp in pd.groups:
        first = 4 * grp.i - 3 if grp.sign > 0 else 4 * grp.i - 1
        for p in grp.paths:
            for idx, (a, b) in enumerate(zip(p, p[1:])):
                e = (a, b) if a < b else (b, a)
                assert assignment[e] == first + idx % 2


def test_rarest_color_is_lonely_on_the_odd_square():
    assert rarest_bishop_color(5) == 8
    coloring = canonical_bishop_coloring(5, 5)
    assert color_counts(coloring)[8] == 1
    assert rarest_color_edges(5, 5) == [(12, 24)]
    center = coord_to_id(BoardCoord(3, 3), 5)
    corner = coord_to_id(BoardCoord(5, 5), 5)
    assert (center, corner) == (12, 24)
    with pytest.raises(ValueError):
        rarest_bishop_color(4)


def test_rarest_color_minimal_across_odd_squares():
    for n in (3, 5, 7, 9):
        counts = color_counts(canonical_bishop_coloring(n, n))
        cyan = rarest_bishop_color(n)
        assert counts[cyan] == min(counts.values()) == 1


# --- rook colorings --------------------------------------------------------------


@pytest.mark.parametrize("m,n,colors", [(4, 5, 7), (2, 2, 2), (6, 8, 12), (5, 6, 9)])
def test_rook_class1(m, n, colors):
    coloring = rook_class1_coloring(m, n)
    report = verify_edge_coloring(build_rook(m, n), coloring)
    assert report.ok
    assert report.colors_used == colors == m + n - 2


def test_rook_class1_rejects_both_odd():
    with pytest.raises(ValueError):
        rook_class1_coloring(3, 5)


def test_ladder_identity_plan():
    for m, n in ((7, 9), (3, 3)):
        coloring = ladder_coloring(m, n)
        report = verify_edge_coloring(build_rook(m, n), coloring)
        assert report.ok
        assert report.colors_used == m + n - 1


def test_ladder_first_column_misses_row_color():
    m, n = 5, 7
    coloring = ladder_coloring(m, n)
    for row in range(1, m + 1):
        vertex = coord_to_id(BoardCoord(1, row), n)
        assert missing_colors_at(coloring, vertex) == {row}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 3), (3, 5), (5, 5), (3, 7)]), st.integers(0, 10**6))
def test_ladder_realizes_random_plans(dims, seed):
    m, n = dims
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        row = list(range(m + 1, m + n))
        rng.shuffle(row)
        rows.append(tuple(row))
    plan = MissingColorPlan(m, n, tuple(rows))
    coloring = ladder_coloring(m, n, plan.fixed())
    assert verify_edge_coloring(build_rook(m, n), coloring).ok
    for vertex in range(m * n):
        coord = id_to_coord(vertex, n)
        assert missing_colors_at(coloring, vertex) == {ladder_missing_color(plan, coord)}


def test_ladder_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        ladder_coloring(4, 5)
    with pytest.raises(ValueError):
        ladder_coloring(5, 6)
    with pytest.raises(ValueError, match="vertex 22 is off the board"):
        # a square of row 4 prescribed on a board of 3 rows
        ladder_coloring(3, 7, {22: 4})


def test_plan_identity_and_partial_assignments():
    # unprescribed vertices take their row's unused A colors left to right
    def plan_rows(fixed):
        coloring = ladder_coloring(3, 5, fixed)
        return [[missing_colors_at(coloring, r * 5 + c).pop() for c in range(1, 5)]
                for r in range(3)]

    assert plan_rows(None) == plan_rows({}) == [[4, 5, 6, 7]] * 3
    # (col 3, row 1) misses 7 and (col 2, row 2) misses 6
    assert plan_rows({2: 7, 6: 6}) == [[4, 7, 5, 6], [6, 4, 5, 7], [4, 5, 6, 7]]


def test_plan_rejects_bad_assignments():
    # ids on a 3 x 5 board: row r, column c (both 0-based) is 5r + c
    with pytest.raises(ValueError, match="vertex 0 is off the board or in column 1"):
        ladder_coloring(3, 5, {0: 4})
    with pytest.raises(ValueError, match="vertex 5 is off the board or in column 1"):
        ladder_coloring(3, 5, {5: 4})
    with pytest.raises(ValueError, match="vertex 15 is off the board"):
        ladder_coloring(3, 5, {15: 4})
    with pytest.raises(ValueError, match="vertex -1 is off the board"):
        ladder_coloring(3, 5, {-1: 4})
    with pytest.raises(ValueError, match="color 3 is not an A color"):
        ladder_coloring(3, 5, {1: 3})
    with pytest.raises(ValueError, match="color 8 is not an A color"):
        ladder_coloring(3, 5, {1: 8})
    with pytest.raises(ValueError, match="color 4 fixed twice in row 1"):
        ladder_coloring(3, 5, {1: 4, 2: 4})
    with pytest.raises(ValueError, match="color 6 fixed twice in row 3"):
        ladder_coloring(3, 5, dict(zip(range(11, 15), (4, 5, 6, 6))))
