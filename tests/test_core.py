"""Core types, verifiers, exact solvers, and the Vizing baseline."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphcert.core as core
import graphcert.keller as keller
from conftest import (assignment_of, coloring_of, complement, complete, cycle, edge_set, edgeless,
                      fournier_forest_check, graph_of, is_decomposition, is_hamiltonian,
                      naive_alpha, naive_omega, neighbours, normalized, path, petersen,
                      reference_verify_edge_coloring, reference_verify_hamiltonian_decomposition,
                      vizing_coloring)
from graphcert.bishop_rook import canonical_bishop_coloring
from graphcert.chess import build_bishop, build_queen, build_rook
from graphcert.core import (
    CapExceeded,
    EdgeColoring,
    EmptyGraphError,
    Graph,
    exact_alpha,
    exact_omega,
    is_overfull,
    max_degree,
    verify_clique_cover,
    verify_edge_coloring,
    verify_hamiltonian_cycle,
    verify_hamiltonian_decomposition,
    verify_hamiltonian_path,
    vizing_delta_plus_one,
)
from graphcert.mycielski import (
    cycle_graph,
    ham_path_mu_odd_cycle,
    mycielskian,
    mycielski_graph,
    parse_vertex,
)


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        graph_of(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph_of(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_array(3, np.array([[2, 1]]))  # unnormalized edge


def _first_offender(assignment, k):
    """The loop the array check of EdgeColoring replaced: each (edge, colour)
    in turn, the colour before the edge."""
    for (u, v), c in assignment.items():
        if not 1 <= c <= k:
            return f"color {c} on edge {(u, v)} outside 1..{k}"
        if u >= v:
            return f"self loop at vertex {u}" if u == v else f"unnormalized edge key {(u, v)}"
    return None


def _message(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(-1, 4),
       st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), st.integers(-1, 5)), max_size=8))
def test_constructor_checks_name_the_first_offender_as_the_loops_did(n, k, items):
    edges = frozenset((u, v) for u, v, _ in items)
    want = next((f"edge ({u},{v}) out of range or unnormalized"
                 for u, v in edges if not 0 <= u < v < n), None)
    assert _message(lambda: Graph.from_array(n, np.array(list(edges)))) == want
    assignment = {(u, v): c for u, v, c in items}
    want = "negative color count" if k < 0 else _first_offender(assignment, k)
    assert _message(lambda: coloring_of(assignment, k)) == want


def test_graph_deduplicates_edges():
    g = graph_of(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_max_degree_examples():
    assert max_degree(build_queen(3, 3)) == 8
    assert max_degree(complete(1)) == 0
    assert max_degree(build_rook(4, 5)) == 7


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_max_degree_matches_adjacency_sets(graph):
    n, pairs = graph
    g = graph_of(n, [(u, v) for u, v in pairs if u != v])
    assert max_degree(g) == max(len(a) for a in neighbours(g))


def test_max_degree_empty_graph():
    with pytest.raises(EmptyGraphError):
        max_degree(graph_of(0, []))


def test_complement_of_c5_is_c5():
    g = complement(cycle(5))
    assert g.edge_count == 5
    assert all(len(a) == 2 for a in neighbours(g))


def test_is_overfull_examples():
    assert is_overfull(complete(3))
    assert not is_overfull(complete(4))
    assert is_overfull(build_queen(3, 13))


def test_overfull_is_the_counting_inequality():
    # the certificate is arithmetic: n_e > delta * floor(n_v / 2)
    for g in (complete(3), complete(5), build_queen(3, 13)):
        assert g.edge_count > max_degree(g) * (g.vertex_count // 2)
        assert is_overfull(g)
    boundary = build_queen(3, 11)  # meets the bound with equality
    assert boundary.edge_count == max_degree(boundary) * (boundary.vertex_count // 2)
    assert not is_overfull(boundary)
    assert not is_overfull(graph_of(0, []))


def test_verify_edge_coloring_on_paths():
    g = path(4)
    good = verify_edge_coloring(g, coloring_of({(0, 1): 1, (1, 2): 2, (2, 3): 1}, 2))
    assert good.ok and good.colors_used == 2
    bad = verify_edge_coloring(g, coloring_of({(0, 1): 1, (1, 2): 1, (2, 3): 2}, 2))
    assert not bad.ok
    assert any("repeated" in d for d in bad.detail)


def test_verify_edge_coloring_canonical_bishop():
    rep = verify_edge_coloring(build_bishop(5, 9), canonical_bishop_coloring(5, 9))
    assert rep.ok and rep.colors_used == 8


def test_verify_edge_coloring_foreign_edge():
    rep = verify_edge_coloring(path(3), coloring_of({(0, 2): 1, (0, 1): 2, (1, 2): 3}, 3))
    assert not rep.ok
    assert any("not in graph" in d for d in rep.detail)


def test_verify_edge_coloring_partial():
    partial = coloring_of({(0, 1): 1}, 1)
    assert not verify_edge_coloring(path(3), partial).ok
    assert verify_edge_coloring(path(3), partial, require_total=False).ok


@functools.cache
def _vizing_instance(name):
    if name[0] == "G":
        g = keller.build(int(name[1:]))
    else:
        g = build_queen(*map(int, name[1:].split(",")))
    return g, vizing_delta_plus_one(g).coloring(g.pairs)


@st.composite
def _colored_graph(draw):
    """A Vizing colouring of a small queen, Keller or random graph."""
    name = draw(st.sampled_from(["Q2,3", "Q3,4", "Q4,4", "Q3,7", "G2", "G3", "random"]))
    if name != "random":
        return _vizing_instance(name)
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))) if n else []
    g = graph_of(n, [(u, v) for u, v in pairs if u != v])
    return g, vizing_delta_plus_one(g).coloring(g.pairs)


_MUTATION = st.tuples(
    st.sampled_from(["recolor", "drop", "non-edge", "id -1", "id n", "huge id", "reinsert"]),
    st.integers(0, 10**6), st.integers(0, 10**6))


def _mutate(g, coloring, mutations):
    n, k = g.vertex_count, coloring.declared_color_count
    edges, assignment = edge_set(g), assignment_of(coloring)
    for kind, a, b in mutations:
        keys = list(assignment)
        color = 1 + b % (k + 1)
        if kind == "recolor" and keys:
            assignment[keys[a % len(keys)]] = color
        elif kind == "drop" and keys:
            del assignment[keys[a % len(keys)]]
        elif kind == "reinsert" and keys:
            key = keys[a % len(keys)]
            assignment[key] = assignment.pop(key)
        elif kind == "non-edge" and n >= 2:
            u, v = sorted((a % n, b % n))
            if u != v and (u, v) not in edges:
                assignment[(u, v)] = color
        elif kind == "id -1" and n:
            assignment[(-1, a % n)] = color
        elif kind == "id n" and n:
            assignment[(a % n, n)] = color
        elif kind == "huge id":
            assignment[(a % (n + 1), 10**20 + b % 3)] = color
    return coloring_of(assignment, max([k, *assignment.values()]))


@settings(max_examples=300, deadline=None)
@given(_colored_graph(), st.lists(_MUTATION, max_size=6), st.booleans(),
       st.sampled_from([None, 2**31, 10**20]))
def test_verify_edge_coloring_matches_the_reference_on_mutants(instance, mutations,
                                                              require_total, forge_k):
    g, coloring = instance
    mutant = _mutate(g, coloring, mutations)
    # 2^31 colours: n·K past 2^32 from n = 2 on, so the keys are int64 (and
    # uint32 keys would wrap, not fail), short of the rank path; 10^20, past
    # int64, must not reach the arrays
    if forge_k is not None:
        mutant = coloring_of(assignment_of(mutant), forge_k)
    got = verify_edge_coloring(g, mutant, require_total)
    want = reference_verify_edge_coloring(g, mutant, require_total)
    assert (got.ok, got.colors_used, got.delta, got.detail) == \
        (want.ok, want.colors_used, want.delta, want.detail)


def test_color_keys_are_uint32_while_n_times_the_palette_fits():
    # n·K < 2^32 up to G_7 (16,384 vertices, Delta 14,190); past it, int64
    ends, colors = np.array([0, 16383], np.int32), np.array([14190], np.int32)
    keys = core._color_keys(ends, colors, 14191, 16384)
    assert keys.dtype == np.uint32 and keys.tolist() == [14190, 16383 * 14191 + 14190]
    keys = core._color_keys(ends, colors, 2**33, 16384)
    assert keys.dtype == np.int64 and keys.tolist() == [14190, 16383 * 2**33 + 14190]


def _mutants(seq: list[int]):
    """Every swap of two entries, every entry overwritten by another (a repeat),
    every entry dropped, and the reversal."""
    n = len(seq)
    for i in range(n):
        for j in range(n):
            if i < j:
                swapped = list(seq)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield f"swap {i},{j}", swapped
            if i != j:
                yield f"repeat {j} at {i}", seq[:i] + [seq[j]] + seq[i + 1:]
        yield f"drop {i}", seq[:i] + seq[i + 1:]
    yield "reverse", seq[::-1]


def test_hamiltonian_cycle_verifier_matches_the_definition_on_mutants():
    g, cyc = keller.build(3), keller.ham_cycle(3)
    assert verify_hamiltonian_cycle(g, cyc).ok
    rejected = 0
    for name, mutant in _mutants(cyc):
        ok = verify_hamiltonian_cycle(g, mutant).ok
        assert ok == is_hamiltonian(g, mutant, closed=True), name
        rejected += not ok
    assert rejected > 0.9 * len(cyc) ** 2


@pytest.mark.parametrize("ends", [("x1", "y3"), ("y2", "z"), ("x4", "x5")])
def test_hamiltonian_path_verifier_matches_the_definition_on_mutants(ends):
    n = 9
    a, b = (parse_vertex(e, n) for e in ends)
    g = mycielskian(cycle_graph(n))
    seq = ham_path_mu_odd_cycle(g, a, b)
    assert verify_hamiltonian_path(g, seq, start=a, end=b).ok
    for name, mutant in _mutants(seq):
        for start, end in ((a, b), (None, None)):
            ok = verify_hamiltonian_path(g, mutant, start=start, end=end).ok
            assert ok == is_hamiltonian(g, mutant, False, start, end), (name, start, end)
    # the reversal is still a Hamiltonian path, but not one from a to b
    assert not verify_hamiltonian_path(g, seq[::-1], start=a, end=b).ok


def test_structure_verifiers_report_no_delta():
    # Only the edge-colouring report needs Δ; the others must not spend an
    # edge pass on it (Graph.max_degree is a cached property, so a computed
    # Δ would show in the instance dict).
    g = keller.build(2)
    reports = [verify_hamiltonian_cycle(g, keller.ham_cycle(2)),
               verify_hamiltonian_path(g, keller.ham_cycle(2)),
               verify_hamiltonian_decomposition(g, [keller.ham_cycle(2)]),
               verify_clique_cover(g, [[v] for v in range(g.vertex_count)]),
               keller.verify_cover_by_rule(2, [[v] for v in range(16)])]
    assert [r.delta for r in reports] == [None] * 5
    assert "max_degree" not in vars(g)
    assert verify_edge_coloring(cycle(3), vizing_coloring(cycle(3))).delta == 2


def test_edge_coloring_invariants():
    with pytest.raises(ValueError):
        coloring_of({(0, 1): 3}, 2)  # color above the declared count
    with pytest.raises(ValueError):
        coloring_of({(1, 0): 1}, 1)  # unnormalized key
    norm = normalized(coloring_of({(0, 1): 5, (1, 2): 9}, 9))
    assert assignment_of(norm) == {(0, 1): 1, (1, 2): 2}
    assert norm.declared_color_count == 2
    # a gap in the palette relabels even when the top color is in use
    gapped = normalized(coloring_of({(0, 1): 1, (1, 2): 3}, 3))
    assert assignment_of(gapped) == {(0, 1): 1, (1, 2): 2} and gapped.declared_color_count == 2
    contiguous = coloring_of({(0, 1): 2, (1, 2): 1}, 2)
    assert normalized(contiguous) is contiguous
    shifted = coloring_of({(0, 1): 1}, 1).shifted(3)
    assert assignment_of(shifted) == {(0, 1): 4} and shifted.declared_color_count == 4


def test_edge_coloring_refuses_an_edge_end_that_is_not_an_integer():
    # the int stores would truncate 0.5 and 2.7, so (0.5, 1) would become (0, 1)
    not_integers = [np.array([[0.5, 1.0], [1.0, 2.7]]), np.array([[False, True]]),
                    np.array([["0", "1"]]), np.array([[0, 1], [1, 2.5]], dtype=object)]
    for ends in not_integers:
        with pytest.raises(ValueError, match="edge ends of dtype .* are not integers"):
            Graph.from_array(3, ends)
        with pytest.raises(ValueError, match="edge ends of dtype .* are not integers"):
            EdgeColoring.from_arrays(ends, np.ones(len(ends), np.int64), 1)
    for colors in (np.array([1.0]), np.array([True]), np.array(["1"])):
        with pytest.raises(ValueError, match="colors of dtype .* are not integers"):
            EdgeColoring.from_arrays([[0, 1]], colors, 1)
    # an empty list is float64 and holds no value to refuse; an object array
    # of ints, as a reader makes past int64, is kept
    assert Graph.from_array(3, np.asarray([])).edge_count == 0
    assert EdgeColoring.from_arrays(np.asarray([]), np.asarray([]), 0).ends.shape == (0, 2)
    huge = EdgeColoring.from_arrays(np.array([[0, 2 ** 70]], dtype=object), [1], 1)
    assert huge.ends.dtype == object
    assert coloring_of({(np.int64(0), 1): 1}, 1).ends.tolist() == [[0, 1]]


def test_from_arrays_names_a_repeated_edge_and_relabelling_does_not_look_again(monkeypatch):
    with pytest.raises(ValueError, match=r"edge \(0, 1\) colored twice"):
        EdgeColoring.from_arrays([[1, 2], [0, 1], [0, 1]], [1, 2, 1], 2)
    coloring = EdgeColoring.from_arrays([[1, 2], [0, 1]], [3, 1], 3)  # rows not ascending
    # the rows were checked when coloring was built; relabelling keeps them
    monkeypatch.setattr(core, "_first_repeat", lambda pairs: pytest.fail("rows checked again"))
    assert assignment_of(normalized(coloring)) == {(1, 2): 2, (0, 1): 1}
    assert assignment_of(coloring.shifted(2)) == {(1, 2): 5, (0, 1): 3}
    with pytest.raises(ValueError, match="outside 1..2"):  # the colour range is still checked
        coloring.shifted(-1)


def _first_seen_again(rows: list[tuple[int, int]]) -> int:
    """Brute-force oracle for core._first_repeat: the first row seen earlier, or -1."""
    seen: set[tuple[int, int]] = set()
    for i, row in enumerate(rows):
        if row in seen:
            return i
        seen.add(row)
    return -1


# values for each kind of edge array: int32 rows, which take the one int64 key,
# and int64 and object rows past int32, which take the column sort; small
# values make repeats likely, and every kind holds negative ids
_ROW_VALUES = {
    "int32": (np.int32, st.integers(-3, 3) | st.sampled_from([-2 ** 31, 2 ** 31 - 1])),
    "int64": (np.int64, st.integers(-3, 3) | st.sampled_from(
        [-2 ** 63, 2 ** 63 - 1, -2 ** 31 - 1, 2 ** 31, 2 ** 40])),
    "object": (object, st.integers(-3, 3) | st.sampled_from([-2 ** 70, 2 ** 70])),
}


@pytest.mark.parametrize("kind", sorted(_ROW_VALUES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_first_repeat_matches_the_brute_force_oracle(kind, data):
    dtype, values = _ROW_VALUES[kind]
    rows = data.draw(st.lists(st.tuples(values, values), max_size=12))
    pairs = np.array(rows, dtype=dtype).reshape(-1, 2)
    assert core._first_repeat(pairs) == _first_seen_again(rows)


def test_verification_report_is_truthy():
    rep = verify_edge_coloring(path(3), coloring_of({(0, 1): 1, (1, 2): 2}, 2))
    assert rep and rep.ok
    assert not verify_edge_coloring(path(3), coloring_of({}, 0))


def test_verify_hamiltonian_cycle_examples():
    assert verify_hamiltonian_cycle(keller.build(2), keller.ham_cycle(2)).ok
    c5 = cycle(5)
    assert verify_hamiltonian_cycle(c5, [0, 1, 2, 3, 4]).ok
    assert not verify_hamiltonian_cycle(c5, [0, 3, 2, 1, 4]).ok  # 1 and 3 swapped
    assert not verify_hamiltonian_cycle(c5, [0, 1, 2, 3, 3]).ok
    assert not verify_hamiltonian_cycle(c5, [0, 1, 2, 3]).ok


def test_verify_hamiltonian_path_p3():
    g = path(3)
    assert verify_hamiltonian_path(g, [0, 1, 2], start=0, end=2).ok
    wrong_end = verify_hamiltonian_path(g, [0, 1, 2], start=0, end=1)
    assert not wrong_end.ok
    assert any("ends at" in d for d in wrong_end.detail)
    assert not verify_hamiltonian_path(g, [0, 2, 1]).ok  # (0,2) is not an edge


def test_verify_hamiltonian_path_mu_c9():
    g = mycielskian(cycle_graph(9))
    a, b = parse_vertex("y1", 9), parse_vertex("y6", 9)
    seq = ham_path_mu_odd_cycle(g, a, b)
    assert verify_hamiltonian_path(g, seq, start=a, end=b).ok


def test_verify_hamiltonian_decomposition_g3():
    g3 = keller.build(3)
    cycles = keller.fixture_ham_decomposition()
    assert len(cycles) == 17
    assert verify_hamiltonian_decomposition(g3, cycles).ok
    short = verify_hamiltonian_decomposition(g3, cycles[:-1])
    assert not short.ok
    assert any("uncovered" in d for d in short.detail)


def test_verify_hamiltonian_decomposition_with_matching():
    # C_4 splits into its own cycle; K_4 splits into one cycle plus a matching
    k4 = complete(4)
    rep = verify_hamiltonian_decomposition(k4, [[0, 1, 2, 3]], [(0, 2), (1, 3)])
    assert rep.ok and rep.colors_used == 2
    assert not verify_hamiltonian_decomposition(k4, [[0, 1, 2, 3]], [(0, 2)]).ok
    assert not verify_hamiltonian_decomposition(k4, [[0, 1, 2, 3]]).ok



def test_decomposition_names_a_matching_end_that_is_not_a_vertex():
    # 0.5 used to be looked up as vertex 0 and counted as a vertex of its own,
    # so this matching passed as perfect on K_2
    k2 = graph_of(2, {(0, 1)})
    rep = verify_hamiltonian_decomposition(k2, [], [(0.5, 1)])
    assert rep.detail == ("matching edge (0.5, 1) end 0.5 out of range",
                          "matching is not perfect", "1 edges uncovered, e.g. [(0, 1)]")
    rep = verify_hamiltonian_decomposition(k2, [], [(0, 7)])
    assert rep.detail == ("matching edge (0, 7) end 7 out of range",
                          "matching is not perfect", "1 edges uncovered, e.g. [(0, 1)]")
    assert verify_hamiltonian_decomposition(k2, [], [(1.0, 0)]).ok

@functools.cache
def _decompositions():
    """The G_3 fixture (17 Hamiltonian cycles) and the G_2 search result (two
    Hamiltonian cycles plus a perfect matching)."""
    found = keller.ham_decomposition_search(2)
    return [(keller.build(3), keller.fixture_ham_decomposition(), None),
            (keller.build(2), [list(c) for c in found.cycles], list(found.matching))]


def _mutate_decomposition(cycles, matching, kind, rng):
    cycles = [list(c) for c in cycles]
    matching = None if matching is None else list(matching)
    i, j = rng.sample(range(len(cycles)), 2)
    if kind == "swap":  # two vertices of one cycle trade places
        a, b = rng.sample(range(len(cycles[i])), 2)
        cycles[i][a], cycles[i][b] = cycles[i][b], cycles[i][a]
        return cycles, matching
    if kind == "drop-matching":
        del matching[rng.randrange(len(matching))]
        return cycles, matching
    p = rng.randrange(len(cycles[i]))
    edge = (cycles[i][p - 1], cycles[i][p])
    if kind == "cycle-into-matching":  # a cycle edge replaces a matching edge
        matching[rng.randrange(len(matching))] = edge
        return cycles, matching
    if kind == "matching-into-cycle":
        edge = matching[rng.randrange(len(matching))]
    # "move" and "matching-into-cycle": cycle j takes the edge, its second end
    # moved to follow its first
    a, b = edge if rng.random() < 0.5 else edge[::-1]
    cycles[j].remove(b)
    cycles[j].insert(cycles[j].index(a) + 1, b)
    return cycles, matching


@pytest.mark.parametrize("which,kind", [
    (0, "swap"), (0, "move"), (1, "swap"), (1, "move"), (1, "matching-into-cycle"),
    (1, "cycle-into-matching"), (1, "drop-matching")])
def test_decomposition_mutants_are_rejected(which, kind):
    g, cycles, matching = _decompositions()[which]
    assert is_decomposition(g, cycles, matching)
    assert verify_hamiltonian_decomposition(g, cycles, matching).ok
    rng = random.Random(kind)
    for _ in range(25):
        mutant_cycles, mutant_matching = _mutate_decomposition(cycles, matching, kind, rng)
        assert not is_decomposition(g, mutant_cycles, mutant_matching)
        got = verify_hamiltonian_decomposition(g, mutant_cycles, mutant_matching)
        want = reference_verify_hamiltonian_decomposition(g, mutant_cycles, mutant_matching)
        assert not got.ok and (got.colors_used, got.detail) == (want.colors_used, want.detail)


def test_edge_index_finds_edges_in_either_order_and_nothing_else():
    g = cycle(4)  # rows (0,1), (0,3), (1,2), (2,3); (0,6) would wrap onto (1,2)
    u = np.array([1, 3, 0, 0, -1, 2, 2, 0])
    v = np.array([0, 2, 3, 6, 5, 2, 9, 2])
    assert g.edge_index(u, v).tolist() == [0, 3, 1, -1, -1, -1, -1, -1]


def test_stored_arrays_are_read_only_and_not_shared_with_a_writer():
    pairs = np.array([[0, 1], [1, 2]], np.int32)
    ends, colors = pairs.copy(), np.array([1, 2], np.int32)
    g = Graph.from_array(3, pairs)
    coloring = EdgeColoring.from_arrays(ends, colors, 2)
    pairs[0], ends[0], colors[0] = (0, 2), (0, 2), 2
    assert g.pairs.tolist() == coloring.ends.tolist() == [[0, 1], [1, 2]]
    assert coloring.colors.tolist() == [1, 2]
    built = graph_of(3, {(0, 1)}), coloring_of({(0, 1): 1}, 1)
    for a in (g.pairs, g.codes, coloring.ends, coloring.colors, built[0].pairs,
              built[1].ends, built[1].colors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # a read-only store is shared as it is
    assert np.shares_memory(EdgeColoring.from_arrays(g.pairs, coloring.colors, 2).ends, g.pairs)
    assert np.shares_memory(normalized(coloring).ends, coloring.ends)


def test_verify_clique_cover_reads_each_clique_once():
    g = graph_of(4, {(0, 1), (2, 3)})
    assert verify_clique_cover(g, [iter([0, 1]), iter([2, 3])]).ok
    assert verify_clique_cover(g, (iter(c) for c in ([0, 1], [2, 3]))).ok
    rep = verify_clique_cover(g, [iter([0, 2]), iter([1, 3])])
    assert rep.detail == ("clique 0 misses edge (0,2)", "clique 1 misses edge (1,3)")
    rep = verify_clique_cover(g, [[0, 2, 0], [2, 1, 3]])
    assert rep.detail == ("clique 0 repeats a vertex", "clique 0 misses edge (0,2)",
                          "vertex 2 in more than one clique", "clique 1 misses edge (1,2)",
                          "clique 1 misses edge (1,3)")


def test_verify_clique_cover_examples():
    g3 = keller.build(3)
    rep = verify_clique_cover(g3, keller.fixture_clique_cover(3))
    assert rep.ok and rep.colors_used == 13
    c5 = cycle(5)
    singles = verify_clique_cover(c5, [[v] for v in range(5)])
    assert singles.ok and singles.colors_used == 5
    assert not verify_clique_cover(c5, [[0, 2], [1], [3], [4]]).ok  # not a clique
    assert not verify_clique_cover(c5, [[0, 1], [1, 2], [3], [4]]).ok  # overlap
    # a vertex outside the graph is named, and never counts as covering one
    rep = verify_clique_cover(complete(2), [[0, 1], [7]])
    assert rep.detail == ("clique 1 vertex 7 out of range",)
    rep = verify_clique_cover(complete(2), [[0, 1.5]])
    assert rep.detail == ("clique 0 vertex 1.5 out of range", "1 vertices uncovered")


def test_exact_alpha_examples():
    size, witness = exact_alpha(keller.build(2))
    assert size == 5
    masks = {frozenset(e) for e in edge_set(keller.build(2))}
    assert len(witness) == 5
    assert all(frozenset((u, v)) not in masks for i, u in enumerate(witness)
               for v in witness[i + 1:])
    assert exact_alpha(cycle(5))[0] == 2
    assert exact_alpha(edgeless(7))[0] == 7


def test_exact_alpha_known_witness_is_independent():
    edges = edge_set(keller.build(2))
    for i, u in enumerate(keller.MAX_INDEPENDENT_G2):
        for v in keller.MAX_INDEPENDENT_G2[i + 1:]:
            assert (min(u, v), max(u, v)) not in edges


def test_exact_omega_examples():
    assert exact_omega(keller.build(2))[0] == 2
    assert exact_omega(keller.build(3))[0] == 5
    size, witness = exact_omega(complete(6))
    assert size == 6 and sorted(witness) == list(range(6))


def test_exact_solvers_cap_and_seed():
    with pytest.raises(CapExceeded):
        exact_alpha(cycle(9), cap=8)
    with pytest.raises(CapExceeded):
        exact_omega(cycle(9), cap=8)
    with pytest.raises(EmptyGraphError):
        exact_alpha(graph_of(0, []))
    with pytest.raises(ValueError):
        exact_omega(cycle(5), seed=[0, 2])  # not a clique
    size, _ = exact_omega(complete(5), seed=[0, 1, 2])
    assert size == 5


def test_exact_solvers_match_naive_enumeration():
    corpus = [
        complete(1), complete(4), complete(6),
        path(2), path(5), cycle(4), cycle(5), cycle(7),
        edgeless(7), petersen(), complement(cycle(7)),
        keller.build(2), mycielski_graph(4),
        build_queen(2, 2), build_rook(2, 3), build_bishop(3, 4),
    ]
    for g in corpus:
        assert g.vertex_count <= 16
        assert exact_alpha(g)[0] == naive_alpha(g)
        assert exact_omega(g)[0] == naive_omega(g)


def test_fournier_forest_check_examples():
    assert fournier_forest_check(build_queen(7, 7))  # unique major vertex
    assert fournier_forest_check(mycielski_graph(4))  # apex is the unique major
    assert not fournier_forest_check(complete(4))
    assert not fournier_forest_check(cycle(5))
    assert fournier_forest_check(path(5))
    with pytest.raises(EmptyGraphError):
        fournier_forest_check(graph_of(0, []))


def test_vizing_delta_plus_one_examples():
    c5 = cycle(5)
    col = vizing_delta_plus_one(c5).coloring(c5.pairs)
    rep = verify_edge_coloring(c5, col)
    assert rep.ok and rep.colors_used <= 3

    k4 = complete(4)
    rep = verify_edge_coloring(k4, vizing_delta_plus_one(k4).coloring(k4.pairs))
    assert rep.ok and rep.colors_used <= 4

    q = build_queen(3, 13)
    rep = verify_edge_coloring(q, vizing_delta_plus_one(q).coloring(q.pairs))
    assert rep.ok and rep.colors_used == 19  # overfull, so delta+1 exactly


def test_vizing_is_deterministic():
    g = build_queen(3, 5)
    assert assignment_of(vizing_coloring(g)) == assignment_of(vizing_coloring(g))
    assert assignment_of(vizing_coloring(g, sorted(edge_set(g)))) == \
        assignment_of(vizing_coloring(g))


def test_vizing_handles_edgeless_graph():
    g = edgeless(4)
    col = vizing_delta_plus_one(g).coloring(g.pairs)
    assert assignment_of(col) == {} and col.declared_color_count == 0


def test_vizing_on_small_corpus():
    for g in (path(6), cycle(6), cycle(9), complete(5), complete(6), petersen(),
              build_rook(3, 3), build_bishop(4, 5)):
        rep = verify_edge_coloring(g, vizing_delta_plus_one(g).coloring(g.pairs))
        assert rep.ok and rep.colors_used <= max_degree(g) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] < p[1]),
                max_size=40),
       st.sampled_from([np.int32, np.int64]), st.randoms(use_true_random=False),
       st.sampled_from([31, 2 ** 31]))
def test_from_array_sorts_and_drops_repeats_at_either_width(rows, dtype, rnd, vertex_count):
    # shuffled rows with repeats, int32 or int64, become sorted(set(rows)) as
    # int32 pairs; near 2^31 - 1 the int64 key u·n + v must decode right too
    shift = vertex_count - 31
    given = [(u + shift, v + shift) for u, v in rows]
    given += rnd.sample(given, len(given) // 2)
    rnd.shuffle(given)
    g = Graph.from_array(vertex_count, np.array(given, dtype).reshape(-1, 2))
    assert g.pairs.dtype == np.int32
    assert list(map(tuple, g.pairs.tolist())) == sorted(set(given))
