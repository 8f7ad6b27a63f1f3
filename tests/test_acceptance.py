"""Acceptance sweep: one test per release criterion.

Each test is a single pass/fail line under pytest -v. Slow reproductions
(edge criticality of the just-overfull board, the doubled G_6 cover) are
opt-in via -m longrun, matching the command line gates.
"""

import itertools
import random

import pytest

from conftest import (MissingColorPlan, assignment_of, color_counts, exhaustive_chromatic_index,
                      hc_check_all_pairs, id_to_coord, ladder_missing_color, neighbours,
                      perfect_factorization_exists)
from graphcert import keller
from graphcert.bishop_rook import (
    canonical_bishop_coloring,
    ladder_coloring,
    rarest_bishop_color,
    rook_class1_coloring,
)
from graphcert.chess import (
    bishop_delta,
    build_bishop,
    build_queen,
    build_rook,
    queen_delta,
    queen_edge_count,
)
from graphcert.core import (
    EdgeColoring,
    exact_omega,
    verify_clique_cover,
    verify_edge_coloring,
    verify_hamiltonian_cycle,
    verify_hamiltonian_decomposition,
    verify_hamiltonian_path,
)
from graphcert.kempe import SearchBudget, edge_critical_check, find_class1
from graphcert.multicycle import (
    Multicycle,
    chromatic_index,
    survey,
)
from graphcert.mycielski import (
    cycle_graph,
    even_cycle_parity_witness,
    ham_path_mu_odd_cycle,
    mycielski_graph,
    mycielskian,
)
from graphcert.queen import (
    class1_even,
    class1_ladder_multicycle,
    class1_square_odd,
    class2_overfull_coloring,
)


def checked_colors(g, coloring: EdgeColoring) -> int:
    report = verify_edge_coloring(g, coloring)
    assert report.ok, report.detail
    return coloring.declared_color_count


def test_criterion_01_queen_formulas_match_generated_graphs():
    for m in range(1, 26):
        for n in range(m, 26):
            g = build_queen(m, n)
            degrees = [len(a) for a in neighbours(g)]
            assert max(degrees) == queen_delta(m, n), (m, n)
            assert g.edge_count == queen_edge_count(m, n), (m, n)
    assert queen_delta(3, 3) == 8 and queen_edge_count(3, 3) == 28


def test_criterion_02_bishop_class1_with_lonely_color():
    for m in range(2, 16):
        for n in range(m, 16):
            coloring = canonical_bishop_coloring(m, n)
            g = build_bishop(m, n)
            assert len(assignment_of(coloring)) == g.edge_count  # total
            assert checked_colors(g, coloring) == bishop_delta(m, n), (m, n)
    for n in range(3, 16, 2):
        counts = color_counts(canonical_bishop_coloring(n, n))
        assert counts[rarest_bishop_color(n)] == 1 == min(counts.values()), n


def test_criterion_03_rook_dichotomy_and_arbitrary_ladder_plans():
    for m in range(1, 12):
        for n in range(m, 12):
            if m % 2 == 1 and n % 2 == 1:
                continue
            coloring = rook_class1_coloring(m, n)
            assert checked_colors(build_rook(m, n), coloring) == m + n - 2, (m, n)
    rng = random.Random(20260818)
    for m in range(1, 12, 2):
        for n in range(max(m, 3), 12, 2):
            rows = []
            for _ in range(m):
                row = list(range(m + 1, m + n))
                rng.shuffle(row)
                rows.append(tuple(row))
            plan = MissingColorPlan(m, n, tuple(rows))
            coloring = ladder_coloring(m, n, plan.fixed())
            assert checked_colors(build_rook(m, n), coloring) == m + n - 1, (m, n)
            for vertex in range(m * n):
                seen = {c for (u, v), c in assignment_of(coloring).items()
                        if vertex in (u, v)}
                missing = set(range(1, m + n)) - seen
                assert missing == {ladder_missing_color(plan, id_to_coord(vertex, n))}


def test_criterion_04_queen_even_union_and_square_odd():
    for m in range(1, 13):
        for n in range(m, 13):
            if m % 2 == 1 and n % 2 == 1:
                continue
            cert = class1_even(m, n)
            assert checked_colors(build_queen(m, n), cert.coloring) \
                == queen_delta(m, n), (m, n)
    for n in range(3, 14, 2):
        cert = class1_square_odd(n)
        colors = checked_colors(build_queen(n, n), cert.coloring)
        # 4n-4 = Delta(Q_{n,n}); the 7x7 board lands on 24 colors
        assert colors == 4 * n - 4 == queen_delta(n, n), n
    assert class1_square_odd(7).coloring.declared_color_count == 24


def test_criterion_05_queen_ladder_multicycle_guarantee_range():
    checked = 0
    for m in (5, 7, 9):
        for n in range(m, (m * m - 3 * m + 2) // 2 + 1, 2):
            cert = class1_ladder_multicycle(m, n)
            assert checked_colors(build_queen(m, n), cert.coloring) \
                == queen_delta(m, n), (m, n)
            checked += 1
    assert checked == 16


def test_criterion_06_multicycle_chi_matches_exhaustive_oracle():
    for m, hi in ((5, 4), (7, 3), (9, 2)):
        for mult in itertools.product(range(hi + 1), repeat=m):
            if not 1 <= sum(mult) <= 24:
                continue
            mc = Multicycle(mult)
            exact, _ = exhaustive_chromatic_index(mc, cap=24)
            assert chromatic_index(mc).value == exact, mult
    assert chromatic_index(Multicycle((9,) * 9)).value == 21
    assert chromatic_index(Multicycle((0, 0, 0, 1, 2))).value == 3


def test_criterion_07_survey_confirms_conjectures_4_and_5():
    rows = survey([3, 5, 7, 9], range(3, 40))
    assert len(rows) == 70
    bad = [(r.m, r.n) for r in rows if not (r.conjecture4_ok and r.conjecture5_ok)]
    assert not bad, bad


def test_criterion_08_overfull_boards_color_at_delta_plus_one():
    for m, n in ((3, 13), (5, 71)):
        g = build_queen(m, n)
        assert g.edge_count > queen_delta(m, n) * (m * n // 2), (m, n)
        cert = class2_overfull_coloring(m, n)
        assert checked_colors(g, cert.coloring) == queen_delta(m, n) + 1, (m, n)


@pytest.mark.longrun
def test_criterion_08_longrun_just_overfull_board_is_edge_critical():
    report = edge_critical_check(build_queen(3, 13), SearchBudget.default())
    assert report.critical, (report.failures, report.disproved)


def test_criterion_09_kempe_reaches_delta_on_odd_thin_boards():
    for n in (5, 7, 9, 11):
        g = build_queen(3, n)
        outcome = find_class1(g, SearchBudget.default(seed=0))
        assert outcome.coloring is not None, n
        assert checked_colors(g, outcome.coloring) == n + 5 == queen_delta(3, n)
    twelve = find_class1(build_queen(3, 7), SearchBudget.default(seed=0)).coloring
    assert twelve.declared_color_count == 12


def test_criterion_10_mycielski_ham_paths_and_parity_witnesses():
    for n in range(3, 14, 2):
        g = mycielskian(cycle_graph(n))
        for a in range(2 * n + 1):
            for b in range(2 * n + 1):
                if a == b:
                    continue
                seq = ham_path_mu_odd_cycle(g, a, b)
                assert verify_hamiltonian_path(g, seq, start=a, end=b).ok, (n, a, b)
    for n in (4, 6):
        assert even_cycle_parity_witness(n).same_parity_x == n // 2, n
    assert hc_check_all_pairs(mycielski_graph(4))


def test_criterion_11_keller_suite():
    for d in (2, 3, 4, 5):
        g = keller.build(d)
        assert {len(a) for a in neighbours(g)} == {keller.delta(d)}, d
    assert [keller.delta(d) for d in (2, 3, 4, 5)] == [5, 34, 171, 776]
    for d in (2, 3, 4):
        assert verify_hamiltonian_cycle(keller.build(d), keller.ham_cycle(d)).ok, d
        coloring = keller.class1_coloring(d)
        assert checked_colors(keller.build(d), coloring) == keller.delta(d), d
    assert [keller.alpha_exact(d) for d in (2, 3, 4, 5)] == [5, 8, 16, 32]
    assert exact_omega(keller.build(3))[0] == 5

    cycles = keller.fixture_ham_decomposition()
    assert verify_hamiltonian_decomposition(keller.build(3), cycles, None).ok
    for d, size in ((3, 13), (4, 22), (5, 40)):
        cover = keller.fixture_clique_cover(d)
        assert len(cover) == size and keller.verify_cover_by_rule(d, cover).ok, d
    doubled = keller.double_clique_cover(3, keller.fixture_clique_cover(3))
    assert len(doubled) == 26
    assert verify_clique_cover(keller.build(4), doubled).ok

    result = keller.ham_decomposition_search(2)
    assert result is not None and len(result.cycles) == 2
    assert result.matching is not None
    assert verify_hamiltonian_decomposition(
        keller.build(2), result.cycles, result.matching).ok
    assert perfect_factorization_exists(2) is False
