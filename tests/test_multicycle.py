"""Multicycle chromatic-index machinery and the derived-multicycle survey."""

import pytest
from hypothesis import given, settings, strategies as st

from graphcert import multicycle
from graphcert.bishop_rook import rarest_color_edges
from graphcert.core import CertificateError, EdgeColoring
from graphcert.multicycle import (
    SURVEY_COLUMNS,
    Multicycle,
    MulticycleColoring,
    chromatic_index,
    conjecture5_bounds,
    derive,
    derived_sigma,
    exhaustive_chromatic_index,
    greedy_cyclic,
    kernel_residual_coloring,
    multipath_coloring,
    recombination_coloring,
    regular_color_count,
    regular_coloring,
    sigma_period_observed,
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


# --- constructions ----------------------------------------------------------------


@pytest.mark.parametrize("mult,colors", [((0, 0, 0, 1, 2), 3),
                                         ((0, 1, 1, 1, 1), 2),
                                         ((0, 4, 4, 0, 2), 8)])
def test_multipath_uses_exactly_delta_colors(mult, colors):
    mc = Multicycle(mult)
    coloring = multipath_coloring(mc)
    assert verify_multicycle_coloring(mc, coloring, expected_colors=colors).ok
    assert colors == mc.delta


def test_multipath_requires_an_empty_slot():
    with pytest.raises(ValueError):
        multipath_coloring(Multicycle((1, 1, 1, 1, 1)))


@pytest.mark.parametrize("m,a,colors", [(9, 9, 21), (5, 1, 3), (7, 3, 7)])
def test_regular_coloring_count(m, a, colors):
    coloring = regular_coloring(m, a)
    mc = Multicycle((a,) * m)
    assert verify_multicycle_coloring(mc, coloring, expected_colors=colors).ok
    assert regular_color_count(m, a) == colors


def test_regular_coloring_is_optimal():
    for m in (5, 7, 9):
        for a in range(1, 6):
            exact, _ = exhaustive_chromatic_index(Multicycle((a,) * m), cap=60)
            assert exact == regular_color_count(m, a)


def test_regular_coloring_rejects_bad_input():
    with pytest.raises(ValueError):
        regular_coloring(4, 2)
    with pytest.raises(ValueError):
        regular_coloring(5, 0)


def test_kernel_residual_regular_input_matches_regular_count():
    mc = Multicycle((3,) * 5)
    coloring, bound = kernel_residual_coloring(mc)
    assert verify_multicycle_coloring(mc, coloring).ok
    assert coloring.color_count == bound == regular_color_count(5, 3)


def test_kernel_residual_bound_on_derived_multicycle():
    mc = derive(5, 11).multicycle
    coloring, bound = kernel_residual_coloring(mc)
    assert verify_multicycle_coloring(mc, coloring).ok
    assert coloring.color_count <= bound <= 10


def test_kernel_residual_improvement_beats_base_bound():
    mc = Multicycle((1, 1, 1, 1, 2))
    coloring, bound = kernel_residual_coloring(mc)
    assert verify_multicycle_coloring(mc, coloring).ok
    assert bound <= 4
    assert chromatic_index(mc).value == 3


def test_recombination_produces_proper_coloring():
    for mult in ((1, 1, 1, 1, 2), (2, 3, 2, 2, 4), (1, 2, 1, 2, 1, 2, 3)):
        mc = Multicycle(mult)
        coloring, count = recombination_coloring(mc)
        assert verify_multicycle_coloring(mc, coloring, expected_colors=count).ok


def test_greedy_cyclic():
    c5 = Multicycle((1, 1, 1, 1, 1))
    assert greedy_cyclic(c5, 3) is not None
    assert greedy_cyclic(c5, 2) is None
    mc = derive(5, 11).multicycle
    coloring = greedy_cyclic(mc, 10)
    assert coloring is not None
    assert verify_multicycle_coloring(mc, coloring, expected_colors=10).ok
    with pytest.raises(ValueError):
        greedy_cyclic(c5, 0)


# --- composite solver ---------------------------------------------------------------


def test_chromatic_index_examples():
    result = chromatic_index(derive(5, 11).multicycle)
    assert result.exact and result.value == 10
    assert chromatic_index(Multicycle((0, 0, 0, 1, 2))).value == 3
    assert chromatic_index(Multicycle((1, 1, 1, 1, 2))).value == 3
    c99 = chromatic_index(Multicycle((9,) * 9))
    assert c99.method == "regular" and c99.value == 21


def test_chromatic_index_agrees_with_oracle_on_small_instances():
    for mult in ((1, 0, 2, 3, 1), (2, 2, 2, 1, 1), (0, 5, 1, 4, 2),
                 (1, 1, 2, 2, 1, 1, 2), (3, 1, 0, 2, 0, 1, 3)):
        mc = Multicycle(mult)
        result = chromatic_index(mc)
        exact, _ = exhaustive_chromatic_index(mc)
        assert result.exact and result.value == exact


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple))
def test_chromatic_index_invariants(mult):
    mc = Multicycle(mult)
    result = chromatic_index(mc)
    assert result.lower == mc.lower_bound <= result.upper
    assert verify_multicycle_coloring(mc, result.coloring,
                                      expected_colors=result.upper).ok
    # The arc stage always lands on the lower bound in practice.
    assert result.exact


def test_chi_result_bracket_refuses_value():
    result = chromatic_index(derive(5, 11).multicycle)
    assert result.value == result.upper
    from dataclasses import replace

    with pytest.raises(ValueError):
        replace(result, lower=result.upper - 1).value


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
    monkeypatch.setattr(multicycle, "canonical_bishop_coloring",
                        lambda m, n: EdgeColoring({(0, 20): 8}, 8))
    with pytest.raises(CertificateError):
        derive(5, 5)


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
