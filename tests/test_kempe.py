"""Kempe-chain local search: switches, color elimination, criticality."""

import functools
import hashlib
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (assignment_of, color_counts, coloring_of, colors_used, complete, cycle,
                      edge_set, fournier_forest_check, graph_of, normalized, path, petersen,
                      reference_eliminate_color, reference_find_class1,
                      reference_vizing_delta_plus_one, snapshot, vizing_coloring)
from graphcert import keller, kempe
from graphcert.chess import build_queen, overfull_threshold
from graphcert.core import (
    CertificateError,
    ColorState,
    EdgeColoring,
    Graph,
    max_degree,
    verify_edge_coloring,
)
from graphcert.kempe import (
    SearchBudget,
    SearchOutcome,
    edge_critical_check,
    eliminate_color,
    find_class1,
)
from graphcert.mycielski import mycielski_graph
from graphcert.queen import class2_overfull_coloring, classify_and_color


def c4_coloring() -> tuple[Graph, EdgeColoring]:
    g = cycle(4)
    return g, coloring_of({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, 2)


def k4_four_coloring() -> tuple[Graph, EdgeColoring]:
    g = complete(4)
    return g, coloring_of({(0, 1): 1, (2, 3): 2, (0, 2): 3, (1, 3): 3,
                            (0, 3): 4, (1, 2): 4}, 4)


def _digest(coloring: EdgeColoring) -> str:
    text = "".join(f"{u} {v} {c}\n" for (u, v), c in sorted(assignment_of(coloring).items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _shuffled(g: Graph, seed: int) -> list[tuple[int, int]]:
    order = sorted(edge_set(g))
    random.Random(seed).shuffle(order)
    return order


# --- switches ---------------------------------------------------------------------


def _component(state: ColorState, start: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """The steps of the maximal (a,b)-component through start, end to end: the
    walk that leaves start on a when it closes a cycle, and otherwise that
    walk reversed and joined to the walk that leaves start on b."""
    out = state.walk(start, a, b)
    if out and out[-1][1] == start:
        return out
    return [(y, x, c) for x, y, c in reversed(out)] + state.walk(start, b, a)


def kempe_switch(coloring: EdgeColoring, g: Graph, start: int, a: int, b: int) -> EdgeColoring:
    """Swap a and b along the maximal (a,b)-component through start by
    ColorState.invert, on a ColorState of the coloring; the result must be proper."""
    state = ColorState.of(g.vertex_count, coloring)
    state.invert(_component(state, start, a, b), a, b)
    result = snapshot(state, assignment_of(coloring), coloring.declared_color_count)
    assert verify_edge_coloring(g, result).ok
    return result


def test_switch_swaps_the_whole_even_cycle():
    g, coloring = c4_coloring()
    swapped = kempe_switch(coloring, g, 0, 1, 2)
    assert assignment_of(swapped) == {(0, 1): 2, (1, 2): 1, (2, 3): 2, (0, 3): 1}


def test_switch_swaps_a_path_chain():
    g = path(3)
    coloring = coloring_of({(0, 1): 1, (1, 2): 2}, 2)
    swapped = kempe_switch(coloring, g, 0, 1, 2)
    assert assignment_of(swapped) == {(0, 1): 2, (1, 2): 1}


def test_switch_stays_inside_the_component():
    g = graph_of(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    coloring = coloring_of({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2, (4, 5): 1}, 2)
    swapped = kempe_switch(coloring, g, 0, 1, 2)
    assert assignment_of(swapped)[(4, 5)] == 1


def test_switch_needs_two_colors(monkeypatch):
    # a swap on (a, a) would flip the masks at its ends without moving a
    # colour, so every switch the decomposition search makes has a != b; the
    # Kempe search inverts no chain
    pairs = []
    real = ColorState.invert

    def recording(self, steps, a, b):
        pairs.append((a, b))
        real(self, steps, a, b)

    monkeypatch.setattr(ColorState, "invert", recording)
    assert keller.ham_decomposition_search(2) is not None
    assert pairs and all(a != b for a, b in pairs)


def test_switch_sequence_reaches_class1_on_k4():
    # Breadth-first search over switch applications, oracle for the heuristic.
    g, start = k4_four_coloring()
    seen = {tuple(sorted(assignment_of(start).items()))}
    queue = deque([start])
    reached = None
    while queue:
        cur = queue.popleft()
        if len(colors_used(cur)) == 3:
            reached = cur
            break
        for v in range(4):
            for a in range(1, 5):
                for b in range(a + 1, 5):
                    nxt = kempe_switch(cur, g, v, a, b)
                    key = tuple(sorted(assignment_of(nxt).items()))
                    if key not in seen:
                        seen.add(key)
                        queue.append(nxt)
    assert reached is not None
    assert verify_edge_coloring(g, reached).ok


@st.composite
def _colored_graph_and_chain(draw):
    """A random graph, a shuffled Vizing colouring, an anchor and two colours."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = graph_of(n, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    coloring = vizing_coloring(g, _shuffled(g, draw(st.integers(0, 2**16))))
    colors = range(1, coloring.declared_color_count + 1)
    a = draw(st.sampled_from(colors))
    b = draw(st.sampled_from([c for c in colors if c != a] or [a]))
    return g, coloring, draw(st.integers(0, n - 1)), a, b


@settings(max_examples=300, deadline=None)
@given(_colored_graph_and_chain())
def test_invert_matches_a_rebuild_and_undoes_itself(case):
    # ColorState.invert edits at and present in place; the result must be the
    # state of the swapped colouring, and a second inversion of the chain,
    # walked again from the anchor, must restore the state.
    g, coloring, anchor, a, b = case
    assume(a != b)
    state = ColorState.of(g.vertex_count, coloring)
    swapped = ColorState.of(g.vertex_count, coloring)
    swapped.invert(_component(swapped, anchor, a, b), a, b)
    result = snapshot(swapped, assignment_of(coloring), coloring.declared_color_count)
    rebuilt = ColorState.of(g.vertex_count, result)
    assert (swapped.at, swapped.present) == (rebuilt.at, rebuilt.present)
    assert verify_edge_coloring(g, result).ok
    swapped.invert(_component(swapped, anchor, a, b), a, b)
    assert (swapped.at, swapped.present) == (state.at, state.present)


def _criticality_of_c4():
    # each removal leaves a path of maximum degree 2, which the search colours
    # with 2 colours; that colouring is what edge_critical_check verifies
    return edge_critical_check(cycle(4), SearchBudget.default())


@pytest.mark.parametrize("call", [_criticality_of_c4], ids=["edge_critical_check"])
def test_failed_final_check_raises_certificate_error(monkeypatch, call):
    # These checks must hold under python -O too, so they cannot be asserts.
    failed = verify_edge_coloring(path(2), coloring_of({}, 0))
    assert not failed.ok
    monkeypatch.setattr(kempe, "verify_edge_coloring", lambda g, coloring: failed)
    with pytest.raises(CertificateError):
        call()


# --- eliminate_color --------------------------------------------------------------


def _eliminate(g: Graph, coloring: EdgeColoring, target: int,
               budget: SearchBudget) -> EdgeColoring | None:
    """eliminate_color on a state of coloring over its declared colours, read
    out relabelled, as find_class1 reads its certificate."""
    palette = (1 << (coloring.declared_color_count + 1)) - 2
    state = eliminate_color(ColorState.of(g.vertex_count, coloring), palette, target, budget)
    return None if state is None else state.coloring(g.pairs)


def test_eliminate_color_on_small_cycle():
    g = cycle(4)
    coloring = coloring_of({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3}, 3)
    result = _eliminate(g, coloring, 3, SearchBudget.default())
    assert result is not None
    assert verify_edge_coloring(g, result).ok
    assert colors_used(result) == {1, 2}


def test_eliminate_color_reaches_class1_on_q37():
    g = build_queen(3, 7)
    start = vizing_coloring(g)
    assert len(colors_used(start)) == 13
    counts = color_counts(start)
    target = min(counts, key=lambda c: (counts[c], c))
    result = _eliminate(g, start, target, SearchBudget.default())
    assert result is not None
    assert verify_edge_coloring(g, result).ok
    assert len(colors_used(result)) == 12 == max_degree(g)


def test_eliminate_color_gives_up_on_overfull_board():
    g = build_queen(3, 13)
    start = class2_overfull_coloring(3, 13).coloring
    counts = color_counts(start)
    target = min(counts, key=lambda c: (counts[c], c))
    assert _eliminate(g, start, target, SearchBudget(200, 1, 0)) is None


def test_find_class1_rejects_an_improper_warm_start():
    # a warm start comes from outside the search, so it is checked before the
    # search starts; eliminate_color trusts the colourings the search hands it
    g = cycle(4)
    partial = coloring_of({(0, 1): 1}, 2)
    with pytest.raises(ValueError, match="warm start"):
        find_class1(g, SearchBudget.default(), warm_start=partial)


def test_eliminate_never_increases_colors():
    g, coloring = k4_four_coloring()
    for target in range(1, 5):
        result = _eliminate(g, coloring, target, SearchBudget.default())
        if result is not None:
            assert len(colors_used(result)) < 4
            assert verify_edge_coloring(g, result).ok


@st.composite
def _elimination_case(draw):
    """A random graph, a small queen board, Petersen or K_5 (the last two are
    class 2, so every budget runs out), a shuffled Vizing start, a switch
    budget and a seed."""
    name = draw(st.sampled_from(["random", "random", "Q3,4", "Q4,4", "petersen", "K5"]))
    if name == "random":
        n = draw(st.integers(2, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = graph_of(n, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    elif name == "petersen":
        g = petersen()
    elif name == "K5":
        g = complete(5)
    else:
        g = _vizing_host(name)
    start = vizing_coloring(g, _shuffled(g, draw(st.integers(0, 2**16))))
    return g, start, draw(st.integers(1, 12)), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_elimination_case())
def test_eliminate_color_matches_the_full_rescan_oracle(case):
    # The walk on a ColorState against the same walk on a dict colouring that
    # rescans the whole colouring for every colour set it reads.
    g, start, switches, seed = case
    for target in range(1, start.declared_color_count + 1):
        for sub_seed in (seed, seed + 1, seed + 2):
            budget = SearchBudget(switches, 1, sub_seed)
            got = _eliminate(g, start, target, budget)
            want = reference_eliminate_color(g, start, target, budget)
            assert (got is None) == (want is None)
            if got is not None:
                assert assignment_of(got) == assignment_of(want)
                assert got.declared_color_count == want.declared_color_count


def _uncoloured(g: Graph, state: ColorState) -> int:
    return g.edge_count - sum(x is not None for row in state.at for x in row) // 2


@settings(max_examples=150, deadline=None)
@given(_elimination_case())
def test_the_uncoloured_count_never_rises(case):
    # A switch colours one edge and uncolours one, and any other step colours
    # one, so the count of uncoloured edges never rises. The walk with a budget
    # of s + 1 switches repeats the walk with s until its s-th switch, and a
    # walk that runs out returns right after its last switch, so the states
    # left by the budgets 1, 2, ... are the walk's states after each switch.
    # A success uses only palette colours and leaves the target class empty.
    g, start, _, seed = case
    palette = (1 << (start.declared_color_count + 1)) - 2
    for target in sorted(colors_used(start)):
        counts = [len(ColorState.of(g.vertex_count, start).class_edges(target))]
        for switches in range(1, 16):
            state = ColorState.of(g.vertex_count, start)
            done = eliminate_color(state, palette, target, SearchBudget(switches, 1, seed))
            counts.append(_uncoloured(g, state))
            if done is not None:
                assert counts[-1] == 0
                assert state.used() & ~palette == 0 and not state.used() >> target & 1
                break
        assert counts == sorted(counts, reverse=True), (target, counts)


# --- find_class1 ------------------------------------------------------------------


def _outcome(outcome: SearchOutcome):
    coloring = outcome.coloring
    return (None if coloring is None else (assignment_of(coloring), coloring.declared_color_count),
            outcome.reason, outcome.restarts_used)


SEARCH_CASES = ([(m, n, seed, False) for m, n in ((3, 7), (3, 9), (5, 29)) for seed in range(4)]
                + [(5, 29, 0, True)])


@pytest.mark.parametrize("m,n,seed,warm", SEARCH_CASES,
                         ids=[f"Q{m}x{n}-seed{s}{'-warm' if w else ''}"
                              for m, n, s, w in SEARCH_CASES])
def test_find_class1_matches_the_oracle_search(m, n, seed, warm):
    # The same search with the oracle Vizing start and the oracle elimination,
    # one EdgeColoring at a time.
    g = build_queen(m, n)
    warm_start = vizing_coloring(g, _shuffled(g, 99)) if warm else None
    got = find_class1(g, SearchBudget.default(seed), warm_start)
    want = reference_find_class1(g, SearchBudget.default(seed), warm_start)
    assert want.reason == "ok"
    assert _outcome(got) == _outcome(want)


@st.composite
def _search_case(draw):
    """A random graph, a small queen board or Petersen (class 2, so every
    budget runs out), a budget small enough to force restarts, and an
    optional warm start: a Vizing colouring whose colours are spread apart
    and topped up, so that it declares colours no edge uses."""
    name = draw(st.sampled_from(["random", "random", "Q3,4", "Q4,4", "Q3,7", "petersen"]))
    if name == "random":
        n = draw(st.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = graph_of(n, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    elif name == "petersen":
        g = petersen()
    else:
        g = _vizing_host(name)
    budget = SearchBudget(draw(st.integers(1, 40)), draw(st.integers(1, 3)),
                          draw(st.integers(0, 2**16)))
    warm = None
    if draw(st.booleans()):
        start = vizing_coloring(g, _shuffled(g, draw(st.integers(0, 2**16))))
        spread, extra = draw(st.integers(1, 3)), draw(st.integers(0, 3))
        warm = coloring_of({e: spread * c for e, c in assignment_of(start).items()},
                            spread * start.declared_color_count + extra)
    return g, budget, warm


@settings(max_examples=200, deadline=None)
@given(_search_case())
def test_find_class1_matches_the_reference_search(case):
    # One state per restart, relabelled once at the end, against the search
    # that loads and relabels an EdgeColoring for every elimination.
    g, budget, warm = case
    assert _outcome(find_class1(g, budget, warm)) == \
        _outcome(reference_find_class1(g, budget, warm))


@settings(max_examples=200, deadline=None)
@given(_elimination_case())
def test_an_elimination_empties_no_class_but_the_target(case):
    # A step never empties a class other than the target: a switch moves
    # colour c from (v, w) to (u, v), and any other step only adds an edge to
    # a class. So the non-empty classes after a success are those before it,
    # less the target, plus any palette colour that was empty and took an
    # edge. With no colour to spare (a palette of Delta colours or fewer) the
    # walk gives up at once rather than draw from an empty set.
    g, start, switches, seed = case
    for target in sorted(colors_used(start)):
        state = ColorState.of(g.vertex_count, start)
        before = state.used()
        palette = (1 << (start.declared_color_count + 1)) - 2
        if eliminate_color(state, palette, target, SearchBudget(switches, 1, seed)) is not None:
            assert before & ~state.used() == 1 << target


def test_find_class1_q39():
    g = build_queen(3, 9)
    outcome = find_class1(g, SearchBudget.default())
    assert outcome.reason == "ok"
    assert verify_edge_coloring(g, outcome.coloring).ok
    assert len(colors_used(outcome.coloring)) == 14 == max_degree(g)


def test_find_class1_reports_overfull_immediately():
    outcome = find_class1(build_queen(3, 13), SearchBudget.default())
    assert outcome.coloring is None
    assert outcome.reason == "overfull"
    assert outcome.restarts_used == 0


def test_find_class1_gives_up_on_petersen():
    outcome = find_class1(petersen(), SearchBudget(500, 5, 1))
    assert outcome.coloring is None
    assert outcome.reason == "budget"
    assert outcome.restarts_used == 5


def test_find_class1_is_deterministic():
    g = build_queen(3, 7)
    budget = SearchBudget(3000, 20, 7)
    first = find_class1(g, budget)
    second = find_class1(g, budget)
    assert first.restarts_used == second.restarts_used
    assert assignment_of(first.coloring) == assignment_of(second.coloring)


def test_find_class1_accepts_a_warm_start():
    g = build_queen(3, 7)
    warm = classify_and_color(3, 7).coloring
    outcome = find_class1(g, SearchBudget.default(), warm_start=warm)
    assert outcome.reason == "ok" and outcome.restarts_used == 1
    assert assignment_of(outcome.coloring) == assignment_of(normalized(warm))


def test_find_class1_rejects_a_broken_warm_start():
    g = build_queen(3, 7)
    with pytest.raises(ValueError):
        find_class1(g, SearchBudget.default(), warm_start=coloring_of({(0, 1): 1}, 12))


def test_find_class1_succeeds_on_fournier_graphs():
    corpus = [build_queen(7, 7), mycielski_graph(4), path(7),
              graph_of(6, [(0, i) for i in range(1, 6)])]
    for g in corpus:
        assert fournier_forest_check(g)
        outcome = find_class1(g, SearchBudget.default())
        assert outcome.reason == "ok"
        assert len(colors_used(outcome.coloring)) == max_degree(g)
        assert verify_edge_coloring(g, outcome.coloring).ok


def test_every_gap_board_with_m_at_most_5_closes_at_the_default_budget():
    # The gap boards: odd m < n below the overfull threshold (none for m = 1)
    # that no construction covers, so classify_and_color hands each to the
    # search. Each must close at the default budget, seed 0, with Delta colours.
    closed = []
    for m in (3, 5):
        for n in range(m + 2, overfull_threshold(m), 2):
            g = build_queen(m, n)
            cert = classify_and_color(m, n, budget=SearchBudget.default(0), graph=g)
            if cert.construction != "KempeSearch":
                continue
            report = verify_edge_coloring(g, cert.coloring)
            assert report.ok and cert.coloring.declared_color_count == report.delta, (m, n)
            closed.append((m, n))
    assert len(closed) == 29 and closed[-1] == (5, 69)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(0, 1, 0)
    with pytest.raises(ValueError):
        SearchBudget(1, 0, 0)


# --- pinned search output ---------------------------------------------------------
# sha256 of the "u v c" lines of the sorted assignment, recorded from the
# hill-climb, so the search must make exactly the same draws and switches.


FIND_CLASS1_DIGESTS = [
    # Q(3,7) at seed 1: the first start stalls, and the second succeeds
    (3, 7, (3000, 20, 0), 1, "4fdd586b65204572c30c1a6f3775a657dfec46669198a8c05802518eb1aa65b6"),
    (3, 7, (3000, 20, 1), 2, "9b375fa3f73f13a4813aea440d33694400bdd556784dc68efd4282929f2f7711"),
    (3, 7, (3000, 20, 2), 1, "76f55f976739cc0478b95033a3ce3b87727cc5d8580d98e323e218b57e230ea1"),
    (5, 13, (3000, 20, 1), 1, "60c0d1b0c510f330fa47e93fb039a30acaf77b7c1a51e4f581dcb314a03dd422"),
    (5, 29, (3000, 20, 0), 1, "7b3c0acf96d3759c6c07fc5b5f030a014c774f3c4be9c0452b54f4e426ef7fee"),
    (5, 29, (3000, 20, 2), 1, "6861f04d7ae44e4e3e8e475c94dca120159d283b9a92fc9209fde519bee2b99a"),
    # small switch budgets: on Q(4,9) the first restart runs out, the second succeeds
    (5, 13, (200, 6, 0), 1, "e0696d5a2e2128379416dc9440be6cd396df4f649371e65f44592ae7a42805b1"),
    (5, 13, (200, 6, 2), 1, "4368d4089bb3dc27f3d0bbc69ace31cb5c0450816ce7b2609c780859abab2ebf"),
    (4, 9, (200, 6, 2), 2, "cc27442e0a72912b302fb82ae4b51ec68b17463e378e819fd72d7033c16623f2"),
    (5, 11, (200, 6, 2), 1, "14514d4469d8d2fe8e9be2dc732fe378286defa6609252622276d0e8467f8668"),
]


@pytest.mark.parametrize("m,n,budget,restarts_used,digest", FIND_CLASS1_DIGESTS,
                         ids=[f"Q{m}x{n}-{b[0]}-seed{b[2]}" for m, n, b, _, _ in FIND_CLASS1_DIGESTS])
def test_find_class1_matches_recorded_digests(m, n, budget, restarts_used, digest):
    outcome = find_class1(build_queen(m, n), SearchBudget(*budget))
    assert outcome.reason == "ok"
    assert outcome.restarts_used == restarts_used
    assert _digest(outcome.coloring) == digest


VIZING_DIGESTS = [
    (5, 9, None, 21, "6a863fc3f4bc93644f0459ca4699e58283ebc1e3a9ce2e55037d21561eaeb656"),
    (5, 9, 0, 21, "82b26813d7defbbda65ecdaa565cceb30ab9444959516197b6613a9c5fe89cf3"),
    (5, 9, 1, 21, "f2a5a2f3f360329cf6fbc449d806c136f9a1f905acf7e835f1739f87f06e5110"),
    (5, 9, 2, 21, "f63122594d59b282b083c2569e12e4b6db5f96e2f9210e5a4c7cc38dfb1c23da"),
    (6, 7, None, 22, "9e6b64f92aaeab48aa095c6e20e38983d18e587973472123145112bcc6302035"),
    (6, 7, 0, 22, "aadd3ca1cf60d75c37a2f9b51e7f8c13cd21d765ed49600ef1c83fdfdf503efa"),
    (6, 7, 1, 22, "8eb3c072ca0663bc0462859cc203fbee0900888ce7076f01bfdfef61fb6d1532"),
    (6, 7, 2, 22, "bbb81ca5dafa634c0b1166d20600d9a4825580a5610292566e63fca7ff6900e1"),
    # two gap-search boards
    (7, 31, 0, 49, "a5e12448e84f4221e9816caa4450e47fc5bd9d13d96e75b66f37eaa1311cbce3"),
    (7, 31, 1, 49, "d33abea5fc5da666b2b94614d87ea3d4e820f7e652d18d0ef50e2d7bcfad181d"),
    (7, 31, 2, 49, "b60dcaf631a61fbdf1d4873ac7a999a657bbc975d5aa6887852ef8a47d0447fa"),
    (5, 29, 0, 41, "9bc38d1a27ac0d2551b576ea645b986bec795b19814a58f38da74df8adf7a499"),
    (5, 29, 1, 41, "f1ddaa33ed712a8951981e8b7e43f71b30919b9de604da4f6ebc5c526f5d80b4"),
    (5, 29, 2, 41, "582ae5db1e00b37365ec86c47acf429e2b2280cf591d91e230b94a1c6af53523"),
]


@pytest.mark.parametrize("m,n,shuffle_seed,used,digest", VIZING_DIGESTS,
                         ids=[f"Q{m}x{n}-{s}" for m, n, s, _, _ in VIZING_DIGESTS])
def test_vizing_matches_recorded_digests(m, n, shuffle_seed, used, digest):
    g = build_queen(m, n)
    order = None if shuffle_seed is None else _shuffled(g, shuffle_seed)
    coloring = vizing_coloring(g, order)
    assert coloring.declared_color_count == used
    assert _digest(coloring) == digest


@functools.cache
def _vizing_host(name: str) -> Graph:
    if name[0] == "G":
        return keller.build(int(name[1:]))
    return build_queen(*map(int, name[1:].split(",")))


@st.composite
def _vizing_case(draw):
    """A small queen board, G_2, G_3 or a random graph, and an edge order."""
    name = draw(st.sampled_from(["Q3,4", "Q4,4", "Q3,7", "Q5,9", "Q4,11", "G2", "G3", "random"]))
    if name == "random":
        n = draw(st.integers(0, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = graph_of(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                             if pairs else [])
    else:
        g = _vizing_host(name)
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return g, None if seed is None else _shuffled(g, seed)


@settings(max_examples=150, deadline=None)
@given(_vizing_case())
def test_vizing_matches_the_reference(case):
    g, order = case
    got, want = vizing_coloring(g, order), reference_vizing_delta_plus_one(g, order)
    assert assignment_of(got) == assignment_of(want)
    assert got.declared_color_count == want.declared_color_count


def test_eliminate_color_switch_count_is_pinned():
    # Q(5,13) from the Vizing start of find_class1's seed 1: eliminating the
    # rarest color takes exactly 278 switches.
    g = build_queen(5, 13)
    sub_seed = 1_000_003
    start = vizing_coloring(g, _shuffled(g, sub_seed))
    counts = color_counts(start)
    target = min(counts, key=lambda c: (counts[c], c))
    assert target == 25
    assert _eliminate(g, start, target, SearchBudget(277, 1, sub_seed)) is None
    result = _eliminate(g, start, target, SearchBudget(278, 1, sub_seed))
    assert _digest(result) == "60c0d1b0c510f330fa47e93fb039a30acaf77b7c1a51e4f581dcb314a03dd422"


# --- edge criticality -------------------------------------------------------------


def test_k3_is_edge_critical():
    report = edge_critical_check(complete(3), SearchBudget.default())
    assert report.critical
    assert report.failures == () and report.disproved == ()


def test_k5_is_not_edge_critical():
    # K_5 minus any edge is still overfull, so every removal is a conclusive
    # counterexample rather than a budget failure. So is Q(3,15) minus any
    # edge, each sub-graph built on g.pairs with one row deleted; the report
    # names the edges in sorted order.
    for g, count in ((complete(5), 10), (build_queen(3, 15), 442)):
        report = edge_critical_check(g, SearchBudget.default())
        assert not report.critical
        assert report.failures == ()
        assert report.disproved == tuple(sorted(edge_set(g)))
        assert len(report.disproved) == count


def test_criticality_skips_delta_lowering_removals():
    star = graph_of(4, [(0, 1), (0, 2), (0, 3)])
    report = edge_critical_check(star, SearchBudget(1, 1, 0))
    assert report.critical and report.failures == () and report.disproved == ()


@pytest.mark.longrun
def test_q313_is_edge_critical():
    report = edge_critical_check(build_queen(3, 13), SearchBudget.default())
    assert report.critical, (report.failures, report.disproved)
