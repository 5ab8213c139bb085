"""Tests for the reference table: internal arithmetic and comparison helpers."""

import pytest

from sumcol import (
    BoundParams,
    ReferenceRow,
    choose_s_lower,
    compare_report,
    compute_bounds_pipeline,
    get_row,
    lb_chi,
    lbm_sigma,
    myciel_graph,
    rows_in_tier,
    sigma_m,
    sigma_m0,
)
from sumcol.fixtures import ROWS_BY_NAME, TABLE

ALL_ROWS = rows_in_tier("desk", "heavy", "long")


class TestTableArithmetic:
    """Every bound column of every row follows from (n, alpha, m, chi_lb)."""

    @pytest.mark.parametrize("row", ALL_ROWS, ids=lambda r: r.name)
    def test_bound_columns_reproduce_from_closed_forms(self, row):
        s_lower, _ = choose_s_lower(row.n, row.alpha, row.chi_lb)
        assert lb_chi(row.n, row.alpha, row.m) == row.lb_chi
        assert lbm_sigma(row.n, row.alpha, s_lower) == row.lbm_sigma
        assert sigma_m0(row.n, row.alpha, row.m)[0] == row.sigma_m0
        assert sigma_m(BoundParams(row.n, row.alpha, s_lower, row.m))[0] == row.sigma_m

    @pytest.mark.parametrize("row", ALL_ROWS, ids=lambda r: r.name)
    def test_row_internal_consistency(self, row):
        assert 1 <= row.alpha <= row.n
        assert 1 <= row.m <= row.n // row.alpha
        assert row.chi_lb <= row.chi_ub
        assert row.lb_chi <= row.chi_lb
        assert row.lbm_sigma <= row.sigma_m
        assert row.sigma_m0 <= row.sigma_m
        if row.sigma is not None:
            assert row.sigma_m <= row.sigma

    def test_table_covers_the_expected_instances(self):
        assert len(TABLE) == 37
        assert len(ROWS_BY_NAME) == 37
        names = {row.name for row in TABLE}
        assert {"myciel3", "queen16_16", "DSJC1000.9", "flat1000_76_0"} <= names


class TestDefectAnnotations:
    def test_exactly_three_defective_cells(self):
        defective = {row.name: dict(row.defects) for row in TABLE if row.defects}
        assert set(defective) == {"myciel3", "myciel4", "queen8_12"}
        assert all(set(d) == {"num_is"} for d in defective.values())

    def test_corrections_shadow_published_counts(self):
        assert get_row("myciel3").num_is == 2
        assert get_row("myciel3").expected_num_is == 1
        assert get_row("myciel4").expected_num_is == 1
        assert get_row("queen8_12").num_is == 195271
        assert get_row("queen8_12").expected_num_is == 195270

    def test_clean_rows_expect_the_published_count(self):
        row = get_row("queen7_7")
        assert not row.defects
        assert row.expected_num_is == row.num_is == 40


class TestTiers:
    def test_tiers_partition_the_table(self):
        desk = rows_in_tier("desk")
        heavy = rows_in_tier("heavy")
        long_rows = rows_in_tier("long")
        assert len(desk) + len(heavy) + len(long_rows) == len(TABLE)
        assert {r.name for r in heavy} == {"queen10_10"}
        assert all(r.tier == "desk" for r in desk)

    def test_union_preserves_table_order(self):
        assert rows_in_tier("desk", "heavy", "long") == TABLE

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            rows_in_tier("desk", "weekend")


class TestLookup:
    def test_get_row(self):
        assert get_row("queen8_8").sigma == 291
        assert get_row("myciel5").sigma is None

    def test_get_row_unknown_name(self):
        with pytest.raises(KeyError):
            get_row("queen99_99")

    def test_generator_availability_flags(self):
        assert get_row("queen12_12").generator_available
        assert not get_row("DSJC125.1").generator_available

    def test_m_source_tags(self):
        assert get_row("queen8_8").m_source == "alpha-tilde"
        assert get_row("queen8_12").m_source == "cap-fallback"
        assert get_row("queen16_16").m_source == "cap-fallback"


class TestCompareReport:
    def test_published_and_corrected_views_of_a_defective_row(self):
        row = get_row("myciel3")
        report = compute_bounds_pipeline(myciel_graph(3), known_chi_lb=row.chi_lb)
        against_published = compare_report(report, row)
        assert against_published == [("num_is", 2, 1)]
        assert compare_report(report, row, corrected_num_is=True) == []

    def test_reports_every_disagreeing_cell(self):
        row = ReferenceRow("tiny", 3, 1.0, 1, 3, 3, 3, 3, 3, 6, 6, 6)
        from sumcol import Graph

        report = compute_bounds_pipeline(
            Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], name="tiny")
        )
        assert compare_report(report, row) == []
        skewed = ReferenceRow("tiny", 3, 1.0, 1, 4, 3, 3, 3, 3, 6, 6, 7)
        diffs = compare_report(report, skewed)
        assert ("num_is", 4, 3) in diffs
        assert ("sigma_m", 7, 6) in diffs
        assert len(diffs) == 2
