"""Mycielskian structure and Hamiltonian-path constructions."""

import pytest
from hypothesis import given, strategies as st

from conftest import complete, edgeless, find_ham_cycle, path
from graphcert import mycielski
from graphcert.core import CertificateError, VerificationReport, verify_hamiltonian_path
from graphcert.mycielski import (
    MycielskiVertex,
    cycle_graph,
    decode_vertex_code,
    even_cycle_parity_witness,
    ham_path_mu_odd_cycle,
    ham_path_mu_of_hc_graph,
    hc_check_all_pairs,
    mycielski_graph,
    mycielskian,
)

FIG_CODES = [10, 2, 12, 4, 14, 19, 18, 1, 11, 3, 13, 5, 6, 16, 8, 9, 17, 7, 15]


def degrees(g):
    return sorted(len(g.adjacency[v]) for v in range(g.vertex_count))


# --- the operator -----------------------------------------------------------------


def test_mu_of_k2_is_a_5_cycle():
    g = mycielskian(complete(2))
    assert g.vertex_count == 5 and g.edge_count == 5
    assert degrees(g) == [2] * 5
    assert find_ham_cycle(g) is not None


def test_mu_of_edgeless_is_a_star_plus_isolated_vertices():
    g = mycielskian(edgeless(5))
    assert g.vertex_count == 11
    assert g.edges == frozenset((y, 10) for y in range(5, 10))


def test_mu_of_p6_structure():
    g = mycielskian(path(6))
    assert g.vertex_count == 13
    assert g.edge_count == 21
    assert len(g.adjacency[12]) == 6


def test_mu_structural_formulas():
    from conftest import cycle, petersen

    for base in (cycle(5), complete(4), path(7), petersen()):
        mu = mycielskian(base)
        assert mu.vertex_count == 2 * base.vertex_count + 1
        assert mu.edge_count == 3 * base.edge_count + base.vertex_count


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
    for n, a, b in [(9, MycielskiVertex("y", 1), MycielskiVertex("y", 6)),
                    (5, MycielskiVertex("x", 1), MycielskiVertex("x", 3)),
                    (7, MycielskiVertex("x", 2), MycielskiVertex("z"))]:
        g = mycielskian(cycle_graph(n))
        seq = ham_path_mu_odd_cycle(n, a, b)
        assert verify_hamiltonian_path(g, seq, start=a.to_id(n), end=b.to_id(n)).ok


def test_ham_path_all_pairs_small_n():
    for n in (3, 5, 7):
        g = mycielskian(cycle_graph(n))
        everyone = [MycielskiVertex("x", i) for i in range(1, n + 1)]
        everyone += [MycielskiVertex("y", i) for i in range(1, n + 1)]
        everyone.append(MycielskiVertex("z"))
        for a in everyone:
            for b in everyone:
                if a == b:
                    continue
                seq = ham_path_mu_odd_cycle(n, a, b)
                report = verify_hamiltonian_path(g, seq, start=a.to_id(n), end=b.to_id(n))
                assert report.ok, (n, str(a), str(b), report.detail)


def test_ham_path_rejects_bad_input():
    with pytest.raises(ValueError):
        ham_path_mu_odd_cycle(4, MycielskiVertex("x", 1), MycielskiVertex("z"))
    with pytest.raises(ValueError):
        ham_path_mu_odd_cycle(5, MycielskiVertex("x", 1), MycielskiVertex("x", 1))


def test_published_grid_sequence_decodes_to_a_valid_path():
    n = 9
    g = mycielskian(cycle_graph(n))

    def verified(vertices: list[MycielskiVertex]) -> bool:
        ids = [v.to_id(n) for v in vertices]
        return verify_hamiltonian_path(g, ids, start=ids[0], end=ids[-1]).ok

    identity = [decode_vertex_code(c, n) for c in FIG_CODES]

    def reflect(v: MycielskiVertex) -> MycielskiVertex:
        if v.kind == "z":
            return v
        return MycielskiVertex(v.kind, 1 if v.index == 1 else n + 2 - v.index)

    # The grid encoding is 1..n = x, n+1..2n = y, 2n+1 = z; accept the straight
    # reading or its reflection around vertex 1.
    assert verified(identity) or verified([reflect(v) for v in identity])
    assert verified(identity)
    assert (str(identity[0]), str(identity[-1])) == ("y1", "y6")


# --- lifting along a Hamiltonian cycle ----------------------------------------------


def test_lift_identity_case_matches_direct_construction():
    g = cycle_graph(5)
    for a, b in [(0, 7), (5, 10), (2, 3)]:
        lifted = ham_path_mu_of_hc_graph(g, [0, 1, 2, 3, 4], a, b)
        direct = ham_path_mu_odd_cycle(5, MycielskiVertex.from_id(a, 5),
                                       MycielskiVertex.from_id(b, 5))
        assert lifted == direct


def test_lift_through_k5():
    g = complete(5)
    seq = ham_path_mu_of_hc_graph(g, [0, 2, 4, 1, 3], 0, 10)
    assert verify_hamiltonian_path(mycielskian(g), seq, start=0, end=10).ok


def test_lift_m4_cycle_into_m5():
    m4 = mycielski_graph(4)
    hc = find_ham_cycle(m4)
    assert hc is not None
    m5 = mycielski_graph(5)
    assert mycielskian(m4).edges == m5.edges
    for a, b in [(0, 22), (3, 15), (11, 12)]:
        seq = ham_path_mu_of_hc_graph(m4, hc, a, b)
        assert verify_hamiltonian_path(m5, seq, start=a, end=b).ok


def test_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(4), [0, 1, 2, 3], 0, 8)
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(5), [0, 1, 2, 3, 3], 0, 10)
    with pytest.raises(ValueError):
        ham_path_mu_of_hc_graph(cycle_graph(5), [0, 2, 1, 3, 4], 0, 10)


# The lift's two self-checks must hold under python -O too, so they cannot
# be asserts.


def test_lift_raises_when_the_path_strays(monkeypatch):
    def swap_middle(n, a, b):  # two inner vertices swapped: off mu(C_n)
        seq = ham_path_mu_odd_cycle(n, a, b)
        seq[1], seq[3] = seq[3], seq[1]
        return seq

    monkeypatch.setattr(mycielski, "ham_path_mu_odd_cycle", swap_middle)
    with pytest.raises(CertificateError, match="strayed"):
        ham_path_mu_of_hc_graph(complete(5), [0, 2, 4, 1, 3], 0, 10)


def test_lift_raises_when_the_lifted_path_fails_verification(monkeypatch):
    # the canonical path runs the verifier itself, so it is built before the patch
    canonical = ham_path_mu_odd_cycle(5, MycielskiVertex("x", 1), MycielskiVertex("z"))
    monkeypatch.setattr(mycielski, "ham_path_mu_odd_cycle", lambda n, a, b: canonical)
    monkeypatch.setattr(mycielski, "verify_hamiltonian_path",
                        lambda *args, **kwargs: VerificationReport(False, 0, None, ("forced",)))
    with pytest.raises(CertificateError, match="failed verification"):
        ham_path_mu_of_hc_graph(complete(5), [0, 2, 4, 1, 3], 0, 10)


# --- parity witness and HC checks ----------------------------------------------------


def test_even_cycle_has_no_x1_to_z_path():
    for n in (4, 6):
        report = even_cycle_parity_witness(n)
        assert not report.path_exists
        assert report.nodes_explored > 0
        assert report.n == n


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
    assert str(decode_vertex_code(1, 9)) == "x1"
    assert str(decode_vertex_code(10, 9)) == "y1"
    assert str(decode_vertex_code(19, 9)) == "z"
    assert decode_vertex_code(19, 9).to_id(9) == 18
    with pytest.raises(ValueError):
        decode_vertex_code(0, 9)
    with pytest.raises(ValueError):
        decode_vertex_code(20, 9)


def test_vertex_validation():
    with pytest.raises(ValueError):
        MycielskiVertex("w", 1)
    with pytest.raises(ValueError):
        MycielskiVertex("z", 2)
    with pytest.raises(ValueError):
        MycielskiVertex("x", 0)


@given(st.integers(0, 22))
def test_vertex_id_roundtrip(v):
    vertex = MycielskiVertex.from_id(v, 11)
    assert vertex.to_id(11) == v
    assert MycielskiVertex.parse(str(vertex)) == vertex
