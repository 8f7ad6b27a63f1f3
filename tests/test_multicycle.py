"""Multicycle chromatic-index machinery and the derived-multicycle survey."""

import random
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (derived_sigma, exhaustive_chromatic_index, reference_derive,
                      sigma_period_observed)
from graphcert import multicycle
from graphcert.bishop_rook import rarest_color_edges
from graphcert.core import CertificateError, VerificationReport
from graphcert.multicycle import (
    SURVEY_COLUMNS,
    Multicycle,
    MulticycleColoring,
    arc_coloring,
    chromatic_index,
    conjecture5_bounds,
    derive,
    survey,
    survey_csv,
    verify_multicycle_coloring,
)


# --- structure --------------------------------------------------------------------


def test_multicycle_validation():
    with pytest.raises(ValueError):
        Multicycle((1, 2, 3, 4))
    with pytest.raises(ValueError):
        Multicycle((1,))
    with pytest.raises(ValueError):
        Multicycle((1, -1, 2, 0, 0))


def test_multicycle_properties():
    mc = Multicycle((3, 5, 3, 4, 4))
    assert (mc.m, mc.k) == (5, 2)
    assert mc.order == (1, 3, 5, 2, 4)
    assert mc.sigma == 19
    assert (mc.mu_minus, mc.mu_plus) == (3, 5)
    assert [mc.degree(p) for p in range(1, 6)] == [8, 8, 7, 8, 7]
    assert mc.delta == 8
    assert mc.tau == 10
    assert mc.lower_bound == 10


def test_verifier_rejects_malformed_colorings():
    mc = Multicycle((1, 1, 1, 1, 1))
    assert "slots" in verify_multicycle_coloring(
        mc, MulticycleColoring(((1,), (2,), (3,)))).detail[0]
    assert "multiplicity" in verify_multicycle_coloring(
        mc, MulticycleColoring(((1, 2), (2,), (3,), (1,), ()))).detail[0]
    bad = MulticycleColoring(((1,), (1,), (2,), (1,), (2,)))
    assert any("repeated color at position" in d
               for d in verify_multicycle_coloring(mc, bad).detail)
    assert any("nonpositive" in d for d in verify_multicycle_coloring(
        mc, MulticycleColoring(((0,), (2,), (3,), (1,), (3,)))).detail)
    good = MulticycleColoring(((1,), (2,), (3,), (1,), (2,)))
    assert verify_multicycle_coloring(mc, good).ok
    report = verify_multicycle_coloring(mc, good, expected_colors=4)
    assert not report.ok and "expected 4" in report.detail[0]


# --- chromatic index ----------------------------------------------------------------


@pytest.mark.parametrize("mult,colors", [((0, 0, 0, 1, 2), 3),
                                         ((0, 1, 1, 1, 1), 2),
                                         ((0, 4, 4, 0, 2), 8)])
def test_multipath_uses_exactly_delta_colors(mult, colors):
    mc = Multicycle(mult)
    result = chromatic_index(mc)
    assert verify_multicycle_coloring(mc, result.coloring, expected_colors=colors).ok
    assert result.value == colors == mc.delta


def regular_color_count(m, a):
    """Chromatic index of the regular multicycle C_{m,a}: 2a + ceil(2a/(m-1))."""
    return 2 * a + ceil(2 * a / (m - 1))


@pytest.mark.parametrize("m,a,colors", [(9, 9, 21), (5, 1, 3), (7, 3, 7), (5, 3, 8)])
def test_regular_coloring_count(m, a, colors):
    mc = Multicycle((a,) * m)
    result = chromatic_index(mc)
    assert verify_multicycle_coloring(mc, result.coloring, expected_colors=colors).ok
    assert result.value == regular_color_count(m, a) == colors


def test_regular_coloring_is_optimal():
    for m in (5, 7, 9):
        for a in range(1, 6):
            mc = Multicycle((a,) * m)
            exact, _ = exhaustive_chromatic_index(mc, cap=60)
            assert exact == regular_color_count(m, a) == chromatic_index(mc).value


def test_chromatic_index_examples():
    result = chromatic_index(derive(5, 11).multicycle)
    assert result.method == "arc" and result.value == 10
    assert verify_multicycle_coloring(derive(5, 11).multicycle, result.coloring,
                                      expected_colors=10).ok
    assert chromatic_index(Multicycle((0, 0, 0, 1, 2))).value == 3
    assert chromatic_index(Multicycle((1, 1, 1, 1, 2))).value == 3
    c99 = chromatic_index(Multicycle((9,) * 9))
    assert c99.method == "arc" and c99.value == 21
    assert chromatic_index(Multicycle((0, 0, 0))).value == 0


def test_chromatic_index_agrees_with_oracle_on_small_instances():
    for mult in ((1, 0, 2, 3, 1), (2, 2, 2, 1, 1), (0, 5, 1, 4, 2),
                 (1, 1, 2, 2, 1, 1, 2), (3, 1, 0, 2, 0, 1, 3),
                 (1, 1, 1, 1, 2), (2, 3, 2, 2, 4), (1, 2, 1, 2, 1, 2, 3)):
        mc = Multicycle(mult)
        result = chromatic_index(mc)
        exact, _ = exhaustive_chromatic_index(mc)
        assert result.value == exact
        assert verify_multicycle_coloring(mc, result.coloring, expected_colors=exact).ok


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple))
def test_chromatic_index_invariants(mult):
    mc = Multicycle(mult)
    result = chromatic_index(mc)
    assert result.value == mc.lower_bound
    assert verify_multicycle_coloring(mc, result.coloring,
                                      expected_colors=result.value).ok


@st.composite
def small_multicycles(draw, sigma_cap=24):
    """Random multicycles with odd m in 3..9 and at most sigma_cap edges."""
    m = draw(st.sampled_from((3, 5, 7, 9)))
    budget = sigma_cap
    mult = []
    for _ in range(m):
        x = draw(st.integers(0, min(budget, 12)))
        mult.append(x)
        budget -= x
    return Multicycle(tuple(draw(st.permutations(mult))))


@settings(max_examples=300, deadline=None)
@given(small_multicycles())
def test_chromatic_index_equals_oracle_and_lower_bound(mc):
    result = chromatic_index(mc)
    exact, _ = exhaustive_chromatic_index(mc)
    assert result.value == exact == mc.lower_bound
    assert verify_multicycle_coloring(mc, result.coloring, expected_colors=exact).ok


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, 7, 9, 11, 13, 25)).flatmap(
    lambda m: st.lists(st.integers(0, 40), min_size=m, max_size=m)))
def test_arc_coloring_hits_the_lower_bound_beyond_the_oracle(mult):
    mc = Multicycle(tuple(mult))
    coloring = arc_coloring(mc)
    assert verify_multicycle_coloring(mc, coloring, expected_colors=mc.lower_bound).ok


@pytest.mark.parametrize("patch,build,match", [
    # arc_coloring returns unverified; the survey checks each row's coloring once
    ((multicycle, "verify_multicycle_coloring",
      lambda mc, col, expected_colors=None: VerificationReport(False, 0, 0, ("forged",))),
     lambda: survey([5], [11]), "m=5 n=11 failed: forged"),
], ids=["verification"])
def test_arc_coloring_failed_self_check_raises_certificate_error(monkeypatch, patch, build,
                                                                 match):
    monkeypatch.setattr(*patch)
    with pytest.raises(CertificateError, match=match):
        build()


def single_mutants(coloring):
    """Every coloring one step from `coloring`: one edge recolored to a color
    already at an adjacent slot, one edge's color dropped, or one color added
    to a slot."""
    slots = [list(s) for s in coloring.slots]
    m = len(slots)
    palette = coloring.colors_used()
    fresh = (palette[-1] if palette else 0) + 1

    def with_slot(p, colors):
        return MulticycleColoring(tuple(tuple(colors) if q == p else tuple(s)
                                        for q, s in enumerate(slots)))

    for p, colors in enumerate(slots):
        for idx in range(len(colors)):
            for c in sorted(set(slots[p - 1]) | set(slots[(p + 1) % m])):
                yield with_slot(p, colors[:idx] + [c] + colors[idx + 1:])
            yield with_slot(p, colors[:idx] + colors[idx + 1:])
        for c in palette + (fresh,):
            yield with_slot(p, colors + [c])


@pytest.mark.parametrize("mc", [
    derive(5, 11).multicycle, derive(7, 15).multicycle, derive(9, 27).multicycle,
    Multicycle((3, 5, 3, 4, 4)), Multicycle((0, 4, 4, 0, 2)), Multicycle((2,) * 7),
] + [Multicycle(tuple(random.Random(seed).choices(range(7), k=m)))
      for seed, m in ((1, 5), (2, 7), (3, 9), (4, 11))],
    ids=["derived-5-11", "derived-7-15", "derived-9-27", "mixed", "multipath", "regular",
         "random-5", "random-7", "random-9", "random-11"])
def test_verifier_rejects_every_single_mutation_of_an_arc_coloring(mc):
    coloring = chromatic_index(mc).coloring
    assert verify_multicycle_coloring(mc, coloring).ok
    mutants = list(single_mutants(coloring))
    assert len(mutants) > mc.sigma
    for mutant in mutants:
        assert not verify_multicycle_coloring(mc, mutant).ok, mutant.slots


# --- derived multicycles -------------------------------------------------------------


def test_derive_5_11():
    dm = derive(5, 11)
    assert dm.mult == (3, 5, 3, 4, 4)
    assert dm.order == (1, 3, 5, 2, 4)
    assert dm.sigma == 19
    rare = rarest_color_edges(5, 11)
    assert sorted(e for slot in dm.slot_edges for e in slot) == rare
    assert [len(slot) for slot in dm.slot_edges] == list(dm.mult)


def test_derive_rejects_non_adjacent_projection(monkeypatch):
    # On 5x5 the rows project to positions 1->0, 3->1, 5->2, 2->3, 4->4, so an
    # edge of the rarest color 8 from row 1 to row 5 skips a position.
    monkeypatch.setattr(multicycle, "rarest_color_edges", lambda m, n: [(0, 20)])
    with pytest.raises(CertificateError):
        derive(5, 5)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(3, 62, 2) for n in range(m, 62, 2)]
                         + [(25, 49)])
def test_derive_matches_the_whole_board_reference(m, n):
    assert derive(m, n) == reference_derive(m, n)


def test_derive_validation():
    with pytest.raises(ValueError):
        derive(4, 5)
    with pytest.raises(ValueError):
        derive(5, 8)
    with pytest.raises(ValueError):
        derive(5, 3)
    with pytest.raises(ValueError):
        derive(1, 5)


def test_derived_delta_window_and_sigma_shortcut():
    for m in (3, 5, 7):
        k = m // 2
        for n in range(m, 16, 2):
            dm = derive(m, n)
            assert n - 2 * k <= dm.multicycle.delta <= n - k
            assert derived_sigma(m, n) == dm.sigma


# --- survey ---------------------------------------------------------------------------


def test_survey_row_5_11():
    rows = survey([5], [11])
    assert len(rows) == 1
    row = rows[0]
    assert (row.m, row.n, row.sigma, row.mu_minus) == (5, 11, 19, 3)
    assert (row.delta, row.tau, row.chi) == (8, 10, 10)
    assert row.conjecture4_ok and row.conjecture5_ok
    assert conjecture5_bounds(5, 11) == (64, 84)
    assert 64 <= 4 * row.sigma <= 84


def test_survey_skips_non_applicable_pairs():
    rows = survey(range(3, 8), range(3, 12))
    assert all(r.m % 2 == 1 and r.n % 2 == 1 and r.m <= r.n for r in rows)
    assert [(r.m, r.n) for r in rows] == sorted((r.m, r.n) for r in rows)


def test_survey_csv_column_order():
    text = survey_csv(survey([5], [11]))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SURVEY_COLUMNS)
    assert lines[1] == "5,11,19,3,8,10,10,true,true"


def test_sigma_period():
    assert sigma_period_observed(5)
    assert sigma_period_observed(7)
    assert sigma_period_observed(11)
    with pytest.raises(ValueError):
        sigma_period_observed(4)
