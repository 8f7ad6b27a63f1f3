"""Mycielskian structure and Hamiltonian-path constructions."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete, cycle, decode_vertex_code, edge_set, edgeless, find_ham_cycle,
                      graph_of, ham_path_search, hc_check_all_pairs, neighbours, path,
                      reference_mycielskian)
from graphcert.core import verify_hamiltonian_path
from graphcert.mycielski import (
    cycle_graph,
    even_cycle_parity_witness,
    ham_path_mu_odd_cycle,
    ham_path_mu_of_hc_graph,
    mycielski_graph,
    mycielskian,
    parse_vertex,
    vertex_name,
)

FIG_CODES = [10, 2, 12, 4, 14, 19, 18, 1, 11, 3, 13, 5, 6, 16, 8, 9, 17, 7, 15]


def degrees(g):
    return sorted(len(a) for a in neighbours(g))


# --- the operator -----------------------------------------------------------------


def test_mu_of_k2_is_a_5_cycle():
    g = mycielskian(complete(2))
    assert g.vertex_count == 5 and g.edge_count == 5
    assert degrees(g) == [2] * 5
    assert find_ham_cycle(g) is not None


def test_mu_of_edgeless_is_a_star_plus_isolated_vertices():
    g = mycielskian(edgeless(5))
    assert g.vertex_count == 11
    assert edge_set(g) == frozenset((y, 10) for y in range(5, 10))


def test_mu_of_p6_structure():
    g = mycielskian(path(6))
    assert g.vertex_count == 13
    assert g.edge_count == 21
    assert len(neighbours(g)[12]) == 6


def test_mu_structural_formulas():
    from conftest import cycle, petersen

    for base in (cycle(5), complete(4), path(7), petersen()):
        mu = mycielskian(base)
        assert mu.vertex_count == 2 * base.vertex_count + 1
        assert mu.edge_count == 3 * base.edge_count + base.vertex_count


@st.composite
def _graph(draw):
    """A random graph on up to 12 vertices."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_of(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                            if pairs else [])


@settings(max_examples=60, deadline=None)
@given(_graph())
def test_mycielskian_matches_the_tuple_oracle(g):
    mu, ref = mycielskian(g), reference_mycielskian(g)
    assert mu.vertex_count == ref.vertex_count and edge_set(mu) == edge_set(ref)
    if g.vertex_count >= 3:
        assert edge_set(cycle_graph(g.vertex_count)) == edge_set(cycle(g.vertex_count))


def test_mycielski_graph_tower():
    assert (mycielski_graph(1).vertex_count, mycielski_graph(1).edge_count) == (1, 0)
    assert (mycielski_graph(2).vertex_count, mycielski_graph(2).edge_count) == (2, 1)
    m3 = mycielski_graph(3)
    assert m3.vertex_count == 5 and degrees(m3) == [2] * 5
    m4 = mycielski_graph(4)
    assert m4.vertex_count == 11 and m4.edge_count == 20
    assert mycielski_graph(5).vertex_count == 23
    with pytest.raises(ValueError):
        mycielski_graph(0)


# --- Hamiltonian paths in mu(odd cycle) ---------------------------------------------


def test_ham_path_spec_pairs():
    for n, a, b in [(9, "y1", "y6"), (5, "x1", "x3"), (7, "x2", "z")]:
        g = mycielskian(cycle_graph(n))
        a, b = parse_vertex(a, n), parse_vertex(b, n)
        seq = ham_path_mu_odd_cycle(g, a, b)
        assert verify_hamiltonian_path(g, seq, start=a, end=b).ok


def test_ham_path_all_pairs_small_n():
    for n in (3, 5, 7):
        g = mycielskian(cycle_graph(n))
        for a in range(2 * n + 1):
            for b in range(2 * n + 1):
                if a == b:
                    continue
                seq = ham_path_mu_odd_cycle(g, a, b)
                report = verify_hamiltonian_path(g, seq, start=a, end=b)
                assert report.ok, (n, a, b, report.detail)


# sha256 of every path of mu(C_n), odd n = 3..15, one line of 0-based ids per
# ordered pair (a, b), a != b, in ascending order: 2,842 lines
HAM_PATHS_SHA256 = "5a6097b9e6a605c043f3e7d49b45cb3b7ac53e5bd1631d4c26b2bcdac465687e"


def test_ham_paths_are_pinned():
    digest = hashlib.sha256()
    lines = 0
    for n in range(3, 16, 2):
        g = mycielskian(cycle_graph(n))
        for a in range(2 * n + 1):
            for b in range(2 * n + 1):
                if a != b:
                    digest.update((" ".join(map(str, ham_path_mu_odd_cycle(g, a, b))) + "\n")
                                  .encode())
                    lines += 1
    assert (lines, digest.hexdigest()) == (2842, HAM_PATHS_SHA256)


def test_ham_path_rejects_bad_input():
    mu5 = mycielskian(cycle_graph(5))
    with pytest.raises(ValueError):
        ham_path_mu_odd_cycle(mycielskian(cycle_graph(4)), 0, 8)
    with pytest.raises(ValueError):
        ham_path_mu_odd_cycle(mu5, 0, 0)
    for a, b in [(-1, 3), (0, 11)]:
        with pytest.raises(ValueError, match="ids in 0..10"):
            ham_path_mu_odd_cycle(mu5, a, b)


def test_published_grid_sequence_decodes_to_a_valid_path():
    n = 9
    g = mycielskian(cycle_graph(n))

    def verified(ids: list[int]) -> bool:
        return verify_hamiltonian_path(g, ids, start=ids[0], end=ids[-1]).ok

    identity = [decode_vertex_code(c, n) for c in FIG_CODES]

    def reflect(v: int) -> int:  # x_i -> x_{2-i} and y_i -> y_{2-i}, indices mod n
        return v if v == 2 * n else v - v % n + (-(v % n)) % n

    # The grid encoding is 1..n = x, n+1..2n = y, 2n+1 = z; accept the straight
    # reading or its reflection around vertex 1.
    assert verified(identity) or verified([reflect(v) for v in identity])
    assert verified(identity)
    assert (vertex_name(identity[0], n), vertex_name(identity[-1], n)) == ("y1", "y6")


# --- lifting along a Hamiltonian cycle ----------------------------------------------


def test_lift_identity_case_matches_direct_construction():
    g = cycle_graph(5)
    for a, b in [(0, 7), (5, 10), (2, 3)]:
        assert ham_path_mu_of_hc_graph(g, [0, 1, 2, 3, 4], mycielskian(g), a, b) == \
            ham_path_mu_odd_cycle(mycielskian(g), a, b)


def test_lift_through_k5():
    g = complete(5)
    seq = ham_path_mu_of_hc_graph(g, [0, 2, 4, 1, 3], mycielskian(cycle_graph(5)), 0, 10)
    assert verify_hamiltonian_path(mycielskian(g), seq, start=0, end=10).ok


def test_lift_m4_cycle_into_m5():
    m4 = mycielski_graph(4)
    hc = find_ham_cycle(m4)
    assert hc is not None
    m5 = mycielski_graph(5)
    assert edge_set(mycielskian(m4)) == edge_set(m5)
    mu = mycielskian(cycle_graph(11))
    for a in range(23):
        for b in range(23):
            if a != b:
                seq = ham_path_mu_of_hc_graph(m4, hc, mu, a, b)
                assert verify_hamiltonian_path(m5, seq, start=a, end=b).ok, (a, b)


def test_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(4), [0, 1, 2, 3], mycielskian(cycle_graph(4)), 0, 8)
    mu5 = mycielskian(cycle_graph(5))
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(5), [0, 1, 2, 3, 3], mu5, 0, 10)
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(5), [0, 2, 1, 3, 4], mu5, 0, 10)
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(5), [0, 1, 2, 3, 4], mu5, 0, 11)


@st.composite
def _planted_cycle(draw):
    """An odd graph with a Hamiltonian cycle planted in random edges, and two ends of mu."""
    n = draw(st.sampled_from((3, 5, 7, 9, 11, 13)))
    cycle = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True))
    g = graph_of(n, [(cycle[i - 1], cycle[i]) for i in range(n)] + extra)
    a, b = draw(st.lists(st.integers(0, 2 * n), min_size=2, max_size=2, unique=True))
    return g, cycle, a, b


@settings(max_examples=200, deadline=None)
@given(_planted_cycle())
def test_lift_stays_on_the_cycle_mu_image(case):
    g, cycle, a, b = case
    n = g.vertex_count
    seq = ham_path_mu_of_hc_graph(g, cycle, mycielskian(cycle_graph(n)), a, b)
    assert verify_hamiltonian_path(mycielskian(g), seq, start=a, end=b).ok
    lift = list(cycle) + [n + v for v in cycle] + [2 * n]
    image = {frozenset((lift[u], lift[v])) for u, v in edge_set(mycielskian(cycle_graph(n)))}
    assert all(frozenset(step) in image for step in zip(seq, seq[1:]))


# --- parity witness and HC checks ----------------------------------------------------


def test_even_cycle_has_no_x1_to_z_path():
    for n in range(4, 13, 2):
        report = even_cycle_parity_witness(n)
        assert (report.n, report.same_parity_x) == (n, n // 2)
        assert ham_path_search(mycielskian(cycle_graph(n)), 0, 2 * n) is None, n


def test_parity_witness_rejects_odd_n():
    with pytest.raises(ValueError):
        even_cycle_parity_witness(5)
    with pytest.raises(ValueError):
        even_cycle_parity_witness(2)


def test_hamiltonian_connectivity_checks():
    assert hc_check_all_pairs(mycielski_graph(4))
    assert not hc_check_all_pairs(cycle_graph(5))
    assert not hc_check_all_pairs(mycielskian(cycle_graph(4)))
    with pytest.raises(ValueError):
        hc_check_all_pairs(edgeless(31))


# --- vertex naming --------------------------------------------------------------------


def test_vertex_codes_and_ids():
    assert vertex_name(decode_vertex_code(1, 9), 9) == "x1"
    assert vertex_name(decode_vertex_code(10, 9), 9) == "y1"
    assert vertex_name(decode_vertex_code(19, 9), 9) == "z"
    assert decode_vertex_code(19, 9) == 18
    with pytest.raises(ValueError):
        decode_vertex_code(0, 9)
    with pytest.raises(ValueError):
        decode_vertex_code(20, 9)


def test_vertex_validation():
    # an index past n is refused: x10 at n = 9 would be y1's id
    for text in ("x10", "x99", "y0", "x", "w1", "z1", "x+1", "x1.0", ""):
        with pytest.raises(ValueError, match="is not one of z, x1..x9, y1..y9"):
            parse_vertex(text, 9)
    for v in (-1, 19):
        with pytest.raises(ValueError):
            vertex_name(v, 9)
    assert [parse_vertex(t, 9) for t in (" X1", "x09", "y9", "Z ")] == [0, 8, 17, 18]


@given(st.integers(3, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 * n))))
def test_vertex_id_roundtrip(case):
    n, v = case
    name = vertex_name(v, n)
    assert parse_vertex(name, n) == v
    assert (name == "z") == (v == 2 * n) and name[0] == "xyz"[v // n]
