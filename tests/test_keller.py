"""Keller graphs: structure, colorings, independence, covers, decompositions."""

import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (adjacent, assignment_of, color_counts, edge_set, fixture_square, neighbours,
                      perfect_factorization_exists, reference_class1_coloring,
                      reference_color_kernel, reference_parse_vertex, reference_row_col,
                      reference_vertex_string, vertex_string)
from hypothesis import given, strategies as st

import graphcert.core as core
import graphcert.io as gio
import graphcert.keller as keller
from graphcert.cli import main
from graphcert.core import (
    CertificateError,
    ColorState,
    EdgeColoring,
    exact_omega,
    verify_clique_cover,
    verify_edge_coloring,
    verify_hamiltonian_cycle,
    verify_hamiltonian_decomposition,
)
from graphcert.keller import (
    KNOWN_OMEGA,
    ColorKernel,
    _digit_matrix,
    _row_col,
    _shift,
    alpha_exact,
    alpha_value,
    bitstring_automorphism,
    build,
    class1_coloring,
    color_kernel,
    delta,
    double_clique_cover,
    fixture_clique_cover,
    fixture_ham_decomposition,
    ham_cycle,
    ham_decomposition_search,
    independence_square,
    omega_value,
    parse_vertex,
    theta_bounds,
    verify_cover_by_rule,
    verify_square_by_rule,
)

G2_CYCLE = [0, 11, 1, 8, 2, 9, 3, 10, 4, 15, 5, 12, 6, 13, 7, 14]


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((" ".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


# --- structure --------------------------------------------------------------------


def test_delta_values():
    assert [delta(d) for d in (2, 3, 4, 5)] == [5, 34, 171, 776]


def test_build_is_regular():
    for d in (2, 3, 4):
        g = build(d)
        assert g.vertex_count == 4 ** d
        assert g.edge_count == 4 ** d * delta(d) // 2
        assert all(len(a) == delta(d) for a in neighbours(g))
    with pytest.raises(ValueError):
        build(1)


# sha256 of "u v" per line of sorted(edge_set(build(d))), recorded from the
# per-vertex loop implementation that the array kernels replaced, and of
# "u v color" per line of sorted(assignment_of(class1_coloring(d))): the
# colouring as a map, whatever order its rows are built in
RECORDED_DIGESTS = {
    2: ("3d3eb9a365b510d2a4108a9bba248ef83caf2ceb9bde99167795ae5d3e55c0c3",
        "5c581d627850de95bc83a85d10f724b173fa518ff9cbed9868e0174a744ddd43"),
    3: ("010fb80b7a44ceae60ab31d4ba890ca57647b40f81d7db5e0a789e7ead6e6e3d",
        "8c5d8191dafea787577809481f5bd82367eecd8d73afaf6e5b78c6326cb1154f"),
    4: ("4220903522344f055e45de19b77a04ee0b189355764e11e8f733f65e4f070c9d",
        "1d3908284f24287828547ce5194785752379fde5e4a3a67c26c3a79f79f1d896"),
    5: ("555381836c830fcb60279d78058842c96275c179151bf295c8bf619401cb2aa7",
        "10bc41e78931dfcb76b23d1571c80b5fdde83dc56dd623c1e07d41c4d6efa825"),
}


@pytest.mark.parametrize("d", sorted(RECORDED_DIGESTS))
def test_build_and_class1_match_recorded_digests(d):
    edges, coloring = RECORDED_DIGESTS[d]
    assert _digest(sorted(edge_set(build(d)))) == edges
    assert _digest((u, v, c) for (u, v), c in sorted(assignment_of(class1_coloring(d)).items())) \
        == coloring


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cayley_build_is_the_rule_graph(d):
    # the rule graph tests every pair of rows: the reference for the Cayley table
    got, want = build(d).pairs, keller._rule_graph(_digit_matrix(d)).pairs
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.longrun
def test_cayley_build_of_g6_is_regular():
    g = build(6)
    assert g.edge_count == 6_883_328
    assert delta(6) == 3361
    assert (np.bincount(g.pairs.ravel(), minlength=4 ** 6) == 3361).all()


def test_adjacency_rule():
    # 00-11 differs in two coordinates but never by exactly 2.
    assert not adjacent(0, parse_vertex("11", 2), 2)
    assert adjacent(0, parse_vertex("22", 2), 2)
    assert not adjacent(0, parse_vertex("02", 2), 2)
    g = build(3)
    by_rule = {(u, v) for u in range(64) for v in range(u + 1, 64) if adjacent(u, v, 3)}
    assert by_rule == edge_set(g)


def test_ham_cycle():
    assert ham_cycle(2) == G2_CYCLE
    for d in (2, 3, 4):
        assert verify_hamiltonian_cycle(build(d), ham_cycle(d)).ok
    with pytest.raises(ValueError):
        ham_cycle(1)


# --- edge coloring ------------------------------------------------------------------


def test_kernel_g2():
    kernel = color_kernel(2)
    assert {vertex_string(s, 2) for s in kernel.even} == {"22"}
    assert {vertex_string(s, 2) for s in kernel.odd} == {"21", "23", "12", "32"}
    assert set(kernel.even + kernel.odd) == {10, 9, 11, 6, 14}
    assert kernel.size == 5
    odd = set(kernel.odd)
    digs = _digit_matrix(2)
    assert all(_shift(digs, -digs[s])[0] in odd for s in kernel.odd)  # the code of 0 - s
    assert len(kernel.odd_pairs()) == 2


def test_class1_g2():
    coloring = class1_coloring(2)
    report = verify_edge_coloring(build(2), coloring)
    assert report.ok and report.colors_used == 5
    assignment = assignment_of(coloring)
    shared = assignment[(0, 11)]
    cls = {e for e, c in assignment.items() if c == shared}
    assert {(0, 11), (2, 9), (4, 15)} <= cls


def test_class1_g3_histogram():
    coloring = class1_coloring(3)
    assert verify_edge_coloring(build(3), coloring).ok
    counts = color_counts(coloring)
    assert len(counts) == 34
    assert set(counts.values()) == {32}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_class1_coloring_is_the_orbit_coloring(d):
    # the same map as one loop per orbit, with rows that ascend as build's do
    coloring = class1_coloring(d)
    assert assignment_of(coloring) == reference_class1_coloring(d)
    assert core._ascending(coloring.ends) and len(coloring.ends) == build(d).edge_count


def test_g5_certificate_path_stays_within_its_bytes_per_edge(tmp_path):
    # tracemalloc sees numpy's buffers, so each peak is the same on every run;
    # the bounds sit a few bytes an edge above the peaks, which are far below
    # those of the code each path replaced: the batch-wise writers 4.7 and 3.6
    # (batches four times larger: 18 and 14; whole arrays: 32 and 24), the
    # int32 colouring and verifier 19 and 13
    # (int64 copies: 77 and 95), the chunked readers 32 and 28 (whole
    # bodies: 55 and 46)
    def peak_per_edge(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1] / edges
        finally:
            tracemalloc.stop()

    g, coloring = build(5), class1_coloring(5)
    edges = g.edge_count
    assert peak_per_edge(gio.write_coloring, coloring, tmp_path / "g5.coloring") < 7
    assert peak_per_edge(gio.write_dimacs, g, tmp_path / "g5.col") < 6
    assert peak_per_edge(class1_coloring, 5) < 24
    assert peak_per_edge(verify_edge_coloring, build(5), coloring) < 16
    assert peak_per_edge(gio.read_coloring, tmp_path / "g5.coloring") < 36
    assert peak_per_edge(gio.read_dimacs, tmp_path / "g5.col") < 31


def test_class1_classes_are_perfect_matchings():
    for d in (2, 3):
        coloring = class1_coloring(d)
        classes: dict[int, list[tuple[int, int]]] = {}
        for e, c in assignment_of(coloring).items():
            classes.setdefault(c, []).append(e)
        for edges in classes.values():
            assert len(edges) == 4 ** d // 2
            covered = [v for e in edges for v in e]
            assert len(covered) == len(set(covered)) == 4 ** d


def test_odd_kernel_orbit_representatives_match_for_s_and_minus_s():
    for d in (2, 3):
        kernel = color_kernel(d)
        digs = _digit_matrix(d)

        def reps(step) -> set[int]:
            # step[v] is the code of v + s; each orbit is named by its smallest vertex
            out = set()
            seen = set()
            for v in range(4 ** d):
                if v in seen:
                    continue
                orbit = [v]
                for _ in range(3):
                    orbit.append(int(step[orbit[-1]]))
                seen.update(orbit)
                out.add(min(orbit))
            return out

        for s in kernel.odd:
            assert reps(_shift(digs, digs[s])) == reps(_shift(digs, -digs[s]))


def _short_kernel(d):
    kernel = color_kernel(d)
    return ColorKernel(d, kernel.even[1:], kernel.odd)


def _kernel_with_a_non_edge(d):
    # 0...02 has one non-zero digit: an even involution, but no kernel element
    kernel = color_kernel(d)
    return ColorKernel(d, (2,) + kernel.even, kernel.odd)


def _kernel_with_repeated_even(d):
    kernel = color_kernel(d)
    return ColorKernel(d, kernel.even[:1] * 2 + kernel.even[2:], kernel.odd)


def _kernel_coloring_without_first_edge(d):
    coloring = class1_coloring(d)
    return EdgeColoring.from_arrays(coloring.ends[1:], coloring.colors[1:],
                                    coloring.declared_color_count)


def _kernel_coloring_with_first_edge_recolored(d):
    # both ends of the first edge lose its colour and see another one twice
    coloring = class1_coloring(d)
    colors = coloring.colors.copy()
    colors[0] = colors[0] % coloring.declared_color_count + 1
    return EdgeColoring.from_arrays(coloring.ends, colors, coloring.declared_color_count)


def _rule_everywhere(a, b, value):
    # a patched adjacency rule that answers value, broadcast, for every pair of digit rows
    return np.full(np.broadcast_shapes(a.shape, b.shape)[:-1], value)


@pytest.mark.parametrize("patch, call", [
    (("color_kernel", _kernel_with_a_non_edge), "keller edgecolor --d 3"),
    (("ColorKernel", lambda d, even, odd: ColorKernel(d, even + odd[:1], odd[1:])),
     "keller edgecolor --d 3"),
    (("color_kernel", _short_kernel), "keller edgecolor --d 3"),
    (("color_kernel", _kernel_with_repeated_even), lambda: class1_coloring(3)),
    # an improper colouring pairs into no decomposition, so the search refuses it
    (("class1_coloring", _kernel_coloring_with_first_edge_recolored),
     lambda: ham_decomposition_search(2)),
    (("class1_coloring", _kernel_coloring_without_first_edge),
     lambda: ham_decomposition_search(2)),
    (("_row_col", lambda digs: (np.zeros(len(digs), int), np.zeros(len(digs), int))),
     "keller square --d 2"),
    (("_joined", lambda a, b: _rule_everywhere(a, b, True)), "keller square --d 2"),
    # a row with an even last digit joins every row: each line of the square holds one
    (("_joined", lambda a, b: _rule_everywhere(a, b, a[..., -1] % 2 == 0)),
     "keller square --d 3 --flip 001"),
    (("_joined", lambda a, b: _rule_everywhere(a, b, False)), lambda: alpha_exact(3)),
], ids=["kernel-size", "kernel-negation", "color-count", "edge-twice", "decomposition", "matching",
        "square-bijection", "square-independence", "automorphism-adjacency", "alpha-members"])
def test_failed_self_check_raises_certificate_error(monkeypatch, capsys, patch, call):
    # These checks must hold under python -O too, so they cannot be asserts.
    # A fault that the boundary check of an emitted result finds is left to
    # it (argv rows): the command that emits the result exits 1, "ok": false.
    monkeypatch.setattr(keller, *patch)
    if isinstance(call, str):
        code = main(call.split() + ["--json"])
        assert (code, json.loads(capsys.readouterr().out)["ok"]) == (1, False)
    else:
        with pytest.raises(CertificateError):
            call()


# --- independence ---------------------------------------------------------------------


def test_independence_square_matches_fixture():
    assert independence_square(3).tolist() == fixture_square(3)


def test_independence_square_first_row_d4():
    square = independence_square(4)
    assert [vertex_string(v, 4) for v in square[0]] == [format(i, "04b") for i in range(16)]
    with pytest.raises(ValueError):
        independence_square(1)


def test_independence_square_lines_are_independent():
    square = independence_square(2)
    for idx in range(4):
        for line in (square[idx], square[:, idx]):
            ids = line.tolist()
            assert all(not adjacent(u, w, 2) for i, u in enumerate(ids) for w in ids[i + 1:])


@given(st.permutations(range(16)), st.integers(0, 5))
def test_square_check_matches_the_adjacency_oracle(order, swaps):
    # a square with a few cells swapped: ok iff every line is independent
    grid = independence_square(2).ravel()
    for i in range(swaps):
        a, b = order[2 * i], order[2 * i + 1]
        grid[[a, b]] = grid[[b, a]]
    grid = grid.reshape(4, 4)
    independent = all(not adjacent(u, w, 2) for line in (*grid.tolist(), *grid.T.tolist())
                      for i, u in enumerate(line) for w in line[i + 1:])
    assert verify_square_by_rule(2, grid).ok == independent


def test_square_check_names_an_empty_cell():
    grid = independence_square(3)
    grid[0, 0] = -1
    assert verify_square_by_rule(3, grid).detail == ("row 0 vertex -1 out of range",
                                                    "1 vertices uncovered",
                                                    "column 0 vertex -1 out of range",
                                                    "1 vertices uncovered")
    assert verify_square_by_rule(3, fixture_square(3)).ok


def test_bitstring_automorphism():
    perm = bitstring_automorphism(3, "001")
    assert perm[0] == parse_vertex("001", 3) == 1
    assert bitstring_automorphism(3, "000") == list(range(64))
    flipped = [[perm[v] for v in row] for row in fixture_square(3)]
    assert flipped == fixture_square(3, flipped=True)
    with pytest.raises(ValueError):
        bitstring_automorphism(3, "01")
    with pytest.raises(ValueError):
        bitstring_automorphism(3, "012")


def test_anchor_vertex_coloring_is_proper():
    # the anchor colouring: the class of v is its row of the square, read
    # from the high bit of each digit
    for d in (2, 3):
        colors = np.empty(4 ** d, dtype=int)
        colors[independence_square(d)] = np.arange(2 ** d)[:, None]
        assert len(set(colors.tolist())) == 2 ** d
        g = build(d)
        assert all(colors[u] != colors[v] for u, v in edge_set(g))


def test_alpha():
    assert [alpha_exact(d) for d in (2, 3, 4)] == [5, 8, 16]
    assert all(alpha_exact(d) == alpha_value(d) for d in (2, 3, 4))
    with pytest.raises(ValueError):
        alpha_exact(8)
    with pytest.raises(ValueError):
        alpha_value(1)


def test_omega():
    assert KNOWN_OMEGA[2] == 2
    assert exact_omega(build(3))[0] == 5 == omega_value(3)
    assert omega_value(9) == 512
    with pytest.raises(ValueError):
        omega_value(1)


# --- clique covers ---------------------------------------------------------------------


def test_fixture_covers_verify_by_rule():
    for d, size in ((3, 13), (4, 22), (5, 40)):
        cover = fixture_clique_cover(d)
        assert len(cover) == size
        report = verify_cover_by_rule(d, cover)
        assert report.ok, report.detail
        assert report.colors_used == size


def test_cover_rule_matches_graph_verifier():
    from graphcert.core import verify_clique_cover

    cover = fixture_clique_cover(3)
    assert verify_clique_cover(build(3), cover).ok
    broken = [list(c) for c in cover]
    broken[0] = broken[0][1:]
    assert not verify_cover_by_rule(3, broken).ok


@pytest.mark.parametrize("bad", [64, -1])
def test_cover_rule_reports_out_of_range_vertices(bad):
    # -1 must not wrap around to the last vertex
    cover = [list(c) for c in fixture_clique_cover(3)]
    cover[0].append(bad)
    report = verify_cover_by_rule(3, cover)
    assert not report.ok
    assert report.detail == (f"clique 0 vertex {bad} out of range",)


def _cover_reference(d, cover):
    """The clique-cover verifiers' detail, from the scalar adjacent() rule."""
    n = 4 ** d
    detail, seen = [], set()
    for idx, raw in enumerate(cover):
        members = sorted(set(raw))
        if len(members) != len(raw):
            detail.append(f"clique {idx} repeats a vertex")
        inside = []
        for v in members:
            if not 0 <= v < n:
                detail.append(f"clique {idx} vertex {v} out of range")
                continue
            if v in seen:
                detail.append(f"vertex {v} in more than one clique")
            seen.add(v)
            inside.append(v)
        detail += [f"clique {idx} misses edge ({u},{v})"
                   for i, u in enumerate(inside) for v in inside[i + 1:]
                   if not adjacent(u, v, d)]
    if len(seen) != n:
        detail.append(f"{n - len(seen)} vertices uncovered")
    return tuple(detail[:20])


@functools.cache
def _valid_cover_and_graph(d):
    if d == 2:  # a color class of the class-1 coloring is a cover by edges
        return [sorted(e) for e, c in assignment_of(class1_coloring(2)).items() if c == 1], build(2)
    return fixture_clique_cover(d), build(d)


_MUTATION = st.tuples(st.sampled_from(["move", "drop", "repeat", "out-of-range"]),
                      st.integers(0, 999), st.integers(0, 999), st.integers(0, 999))


@given(st.sampled_from([2, 3, 4]), st.lists(_MUTATION, min_size=1, max_size=3))
def test_cover_rule_agrees_with_graph_verifier_on_mutants(d, mutations):
    valid, g = _valid_cover_and_graph(d)
    cover = [list(c) for c in valid]
    for kind, a, b, pick in mutations:
        src, dst = cover[a % len(cover)], cover[b % len(cover)]
        if kind == "out-of-range":
            dst.append((4 ** d, -1)[pick % 2])
        elif not src:
            continue
        elif kind == "move":
            dst.append(src.pop(pick % len(src)))
        elif kind == "drop":
            src.pop(pick % len(src))
        else:
            dst.append(src[pick % len(src)])
    report = verify_cover_by_rule(d, cover)
    assert report.ok == verify_clique_cover(g, cover).ok
    assert report.detail == _cover_reference(d, cover)
    assert verify_clique_cover(g, cover).detail == report.detail


def test_rule_chunking_does_not_change_results(monkeypatch):
    whole = [list(range(64))]
    expected = (sorted(edge_set(build(3))), verify_cover_by_rule(3, whole).detail)
    assert expected[1] == _cover_reference(3, whole)
    monkeypatch.setattr(keller, "_RULE_CELLS", 1)  # one row per chunk
    monkeypatch.setattr(core, "_COVER_PAIRS", 1)  # one row per chunk in the cover check
    assert (sorted(edge_set(build(3))), verify_cover_by_rule(3, whole).detail) == expected
    assert verify_clique_cover(build(3), whole).detail == expected[1]


def test_double_clique_cover():
    doubled = double_clique_cover(3, fixture_clique_cover(3))
    assert len(doubled) == 26
    assert verify_cover_by_rule(4, doubled).ok


def test_doubling_a_single_clique():
    # {00, 23} doubles to prefix-0/prefix-2(+1) and prefix-1/prefix-3(+1).
    plus_ones = _shift(_digit_matrix(2), (1, 1))
    clique = [parse_vertex("00", 2), parse_vertex("23", 2)]
    first = clique + [32 + int(plus_ones[v]) for v in clique]
    second = [16 + v for v in clique] + [48 + int(plus_ones[v]) for v in clique]
    for grown in (first, second):
        assert all(adjacent(u, w, 3) for i, u in enumerate(grown) for w in grown[i + 1:])


def test_double_clique_cover_rejects_bad_input():
    with pytest.raises(ValueError):
        double_clique_cover(2, [[0, 11]])
    # the input is not checked: its non-cliques double into non-cliques, which
    # the check of the doubled cover finds
    report = verify_cover_by_rule(3, double_clique_cover(2, [[2 * i, 2 * i + 1]
                                                             for i in range(8)]))
    assert not report.ok and report.detail[0] == "clique 0 misses edge (0,1)"


@pytest.mark.parametrize("bad", [16, -1])
def test_double_clique_cover_refuses_ids_out_of_range(bad):
    # 4^2 has no digits in G_2, and -1 must not wrap to the last row
    cover = [[v] for v in range(15)] + [[bad]]
    with pytest.raises(ValueError, match=f"vertex {bad} out of range for d=2"):
        double_clique_cover(2, cover)


@pytest.mark.longrun
def test_double_g5_cover_into_g6():
    doubled = double_clique_cover(5, fixture_clique_cover(5))
    assert len(doubled) == 80
    assert verify_cover_by_rule(6, doubled).ok


def test_theta_bounds():
    assert [theta_bounds(d).lower for d in range(2, 8)] == [8, 13, 22, 37, 69, 133]
    assert str(theta_bounds(5, verified_cover_size=40)) == "37 <= theta(G_5) <= 40"
    assert str(theta_bounds(3)) == "13 <= theta(G_3) <= ?"


# --- Hamiltonian decompositions ----------------------------------------------------------


def test_fixture_ham_decomposition():
    cycles = fixture_ham_decomposition()
    assert len(cycles) == 17
    assert all(len(c) == 64 for c in cycles)
    assert verify_hamiltonian_decomposition(build(3), cycles, None).ok


def test_ham_decomposition_search_g2():
    result = ham_decomposition_search(2)
    assert result is not None and result.d == 2
    assert len(result.cycles) == 2
    assert result.matching is not None and len(result.matching) == 8
    assert verify_hamiltonian_decomposition(build(2), result.cycles, result.matching).ok


# sha256 of repr((cycles, matching)) and switches_used of ham_decomposition_search(d, 400, seed)
_SEARCH_PINS = [
    (2, 0, 8, "515d827d502e63d8cf0fd7ea168d378aa9a255de63717c500fe55070bb86e35b"),
    (2, 1, 8, "2eb14793559fadc50e3244ddda65a78f1cf348c865c9939e704231ee67b3b098"),
    (2, 2, 8, "8a7e6ea6e1ecc7b74f039c785f8e2ec7ca6eadbcb987d033f55379290dfc69dd"),
    (2, 3, 8, "fbc84b1e2d7747b7b820522c5a5faa560cfff1861588b7683cf4753a1a19b334"),
    (2, 4, 8, "8a7e6ea6e1ecc7b74f039c785f8e2ec7ca6eadbcb987d033f55379290dfc69dd"),
    (2, 5, 8, "88f5161f38823a367fda39e5edac28725ab804333c51b39821008aee7346eba7"),
    (3, 2, 176, "f1ca6e864010c36923fab95d6e7ad716638f5d58470a16ec3b5f815b8067d956"),
]


def _search_pin(d, seed):
    r = ham_decomposition_search(d, budget=400, seed=seed)
    return r.switches_used, hashlib.sha256(repr((r.cycles, r.matching)).encode()).hexdigest()


@pytest.mark.parametrize("d,seed,switches,digest", _SEARCH_PINS)
def test_ham_decomposition_search_output_is_pinned(d, seed, switches, digest):
    assert _search_pin(d, seed) == (switches, digest)


def test_ham_decomposition_search_switches_on_its_own_state(monkeypatch):
    # trial switches edit the search's one ColorState in place; no other state is built
    states = []
    real = ColorState.of
    monkeypatch.setattr(ColorState, "of", lambda n, coloring: states.append(n) or real(n, coloring))
    d, seed, switches, digest = _SEARCH_PINS[0]
    assert _search_pin(d, seed) == (switches, digest)
    assert states == [4 ** d]


def test_no_perfect_factorization_of_g2():
    assert perfect_factorization_exists(2) is False
    with pytest.raises(ValueError):
        perfect_factorization_exists(3)


# --- vertex codec ---------------------------------------------------------------------


def test_vertex_parsing():
    assert parse_vertex("23", 2) == 11
    assert parse_vertex("11", 2) == 5  # digit string, not base 10
    assert parse_vertex("9", 2) == 9 == parse_vertex("21", 2)
    assert vertex_string(14, 2) == "32"
    with pytest.raises(ValueError):
        parse_vertex("16", 2)
    with pytest.raises(ValueError):
        vertex_string(16, 2)


@given(st.integers(2, 4), st.integers(0, 255))
def test_vertex_roundtrip(d, value):
    value %= 4 ** d
    text = vertex_string(value, d)
    assert len(text) == d and int(text, 4) == value
    assert parse_vertex(text, d) == value


def _parsed(parse, text, d):
    try:
        return parse(text, d)
    except ValueError:
        return ValueError


@given(st.integers(2, 5), st.integers(0, 4 ** 5 - 1), st.text("0123456789 +-_", max_size=7))
def test_digit_arrays_match_the_scalar_oracles(d, value, text):
    value %= 4 ** d
    assert color_kernel(d) == reference_color_kernel(d)
    rows, cols = _row_col(_digit_matrix(d))
    assert (int(rows[value]), int(cols[value])) == reference_row_col(value, d)
    assert vertex_string(value, d) == reference_vertex_string(value, d)
    for token in (text, str(value), vertex_string(value, d)):
        assert _parsed(parse_vertex, token, d) == _parsed(reference_parse_vertex, token, d)
