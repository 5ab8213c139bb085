"""Tests for the closed-form bounds and the staged pipeline."""

import dataclasses
import random
import tracemalloc

import pytest

from sumcol import bounds
from sumcol import (
    BoundParams,
    BoundReport,
    Graph,
    InfeasibleParamsError,
    PipelineConfig,
    choose_s_lower,
    compute_bounds_pipeline,
    cost,
    enumerate_admissible,
    is_admissible,
    lb_chi,
    lbm_sigma,
    oracle_min,
    queen_graph,
    sigma_m,
    sigma_m0,
)

from bruteforce import random_graph


def matching(k: int) -> Graph:
    """k disjoint edges: alpha = k with 2^k maximum independent sets."""
    return Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)], name="matching")


class TestSigmaM0:
    def test_hand_worked_value(self):
        value, witness = sigma_m0(36, 6, 4)
        assert value == 129
        assert witness.parts == (6, 6, 6, 6, 5, 5, 2)

    def test_zero_squares(self):
        value, witness = sigma_m0(0, 5, 3)
        assert value == 0
        assert witness.parts == ()

    def test_unit_cap_forces_column(self):
        value, witness = sigma_m0(6, 1, 6)
        assert value == 21
        assert witness.parts == (1, 1, 1, 1, 1, 1)

    def test_m_zero_uses_only_smaller_parts(self):
        value, witness = sigma_m0(10, 4, 0)
        assert witness.parts == (3, 3, 3, 1)
        assert value == 1 * 3 + 2 * 3 + 3 * 3 + 4 * 1

    def test_m_is_clamped_to_floor(self):
        assert sigma_m0(10, 3, 99) == sigma_m0(10, 3, 3)

    def test_matches_exhaustive_minimum_when_unconstrained_by_s(self):
        for n in range(1, 11):
            for alpha_bar in range(1, n + 1):
                for m in range(0, n + 1):
                    params = BoundParams(n, alpha_bar, 1, m)
                    if not params.is_feasible():
                        continue
                    best, best_cost = oracle_min(params)
                    value, witness = sigma_m0(n, alpha_bar, m)
                    assert value == best_cost, (n, alpha_bar, m)
                    assert witness == best, (n, alpha_bar, m)
                    assert cost(witness) == value
                    assert is_admissible(witness, params)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_m0(-1, 2, 1)
        with pytest.raises(ValueError):
            sigma_m0(5, 0, 1)
        with pytest.raises(ValueError):
            sigma_m0(5, 2, -1)


class TestSigmaM:
    def test_unconstrained_shape_already_tall_enough(self):
        value, witness = sigma_m(BoundParams(64, 8, 9, 6))
        assert value == 291
        assert witness.parts == (8, 8, 8, 8, 8, 8, 7, 7, 2)

    def test_reserved_column_branch(self):
        base_value, base_witness = sigma_m0(47, 23, 1)
        assert base_value == 73
        assert len(base_witness.parts) == 3
        value, witness = sigma_m(BoundParams(47, 23, 6, 1))
        assert value == 81
        assert witness.parts == (23, 20, 1, 1, 1, 1)

    def test_witness_is_admissible_at_stated_cost(self):
        for n in range(1, 12):
            for alpha_bar in range(1, n + 1):
                for s_lower in range(1, n + 1):
                    for m in (0, 1, n // alpha_bar):
                        params = BoundParams(n, alpha_bar, s_lower, m)
                        if not params.is_feasible():
                            continue
                        value, witness = sigma_m(params)
                        assert is_admissible(witness, params)
                        assert cost(witness) == value

    def test_unit_cap_column(self):
        value, witness = sigma_m(BoundParams(4, 1, 2, 4))
        assert value == 10
        assert witness.parts == (1, 1, 1, 1)

    def test_infeasible_parameters_raise(self):
        with pytest.raises(InfeasibleParamsError):
            sigma_m(BoundParams(5, 1, 3, 2))
        with pytest.raises(InfeasibleParamsError):
            sigma_m(BoundParams(3, 2, 5, 1))


class TestLbmSigma:
    def test_equals_sigma_m_at_the_floor(self):
        for n in range(1, 13):
            for alpha_bar in range(1, n + 1):
                s_lower, _ = choose_s_lower(n, alpha_bar)
                value, _ = sigma_m(BoundParams(n, alpha_bar, s_lower, n // alpha_bar))
                assert lbm_sigma(n, alpha_bar, s_lower) == value

    def test_never_exceeds_sigma_m_for_tighter_m(self):
        for n in range(1, 13):
            for alpha_bar in range(2, n + 1):
                s_lower, _ = choose_s_lower(n, alpha_bar)
                for m in range(0, n // alpha_bar + 1):
                    params = BoundParams(n, alpha_bar, s_lower, m)
                    if not params.is_feasible():
                        continue
                    assert lbm_sigma(n, alpha_bar, s_lower) <= sigma_m(params)[0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lbm_sigma(5, 0, 1)
        with pytest.raises(ValueError):
            lbm_sigma(5, 6, 1)


class TestLbChi:
    def test_hand_worked_values(self):
        assert lb_chi(11, 5, 1) == 3
        assert lb_chi(64, 8, 6) == 9
        assert lb_chi(47, 23, 1) == 3

    def test_unit_cap(self):
        assert lb_chi(7, 1, 7) == 7
        assert lb_chi(7, 1, 0) == 7

    def test_counts_parts_of_the_optimal_shape(self):
        for n in range(1, 14):
            for alpha_bar in range(1, n + 1):
                for m in range(0, n + 1):
                    _, witness = sigma_m0(n, alpha_bar, m)
                    assert lb_chi(n, alpha_bar, m) == len(witness.parts)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lb_chi(0, 1, 1)
        with pytest.raises(ValueError):
            lb_chi(5, 6, 1)
        with pytest.raises(ValueError):
            lb_chi(5, 2, -1)


class TestChooseSLower:
    def test_ceiling_default(self):
        assert choose_s_lower(47, 23) == (3, "ceil-n-over-alpha")
        assert choose_s_lower(10, 5) == (2, "ceil-n-over-alpha")

    def test_known_bound_wins_when_stronger(self):
        assert choose_s_lower(47, 23, 6) == (6, "known-chi-lb")

    def test_tie_keeps_known_tag(self):
        assert choose_s_lower(10, 5, 2) == (2, "known-chi-lb")

    def test_weaker_known_bound_is_ignored(self):
        assert choose_s_lower(47, 23, 2) == (3, "ceil-n-over-alpha")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_s_lower(5, 0)
        with pytest.raises(ValueError):
            choose_s_lower(5, 2, 0)


class TestPipeline:
    def test_triangle_end_to_end(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], name="k3")
        report = compute_bounds_pipeline(g)
        assert report.alpha_bar == 1
        assert report.alpha_exact
        assert report.num_is == 3
        assert not report.num_is_truncated
        assert report.alpha_tilde == 3
        assert report.alpha_tilde_exact
        assert report.m == 3
        assert report.s_lower == 3
        assert report.s_lower_source == "ceil-n-over-alpha"
        assert report.lb_chi == 3
        assert report.sigma_m0 == 6
        assert report.sigma_m == 6
        assert report.lbm_sigma == 6
        assert report.witness == (1, 1, 1)
        assert not report.cached

    def test_path_on_four_vertices(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], name="p4")
        report = compute_bounds_pipeline(g)
        assert report.alpha_bar == 2
        assert report.num_is == 3
        assert report.alpha_tilde == 2
        assert report.m == 2
        assert report.q == 0 and report.r == 0
        assert report.lb_chi == 2
        assert report.sigma_m == 6

    def test_remainder_fields_on_queen_shape(self):
        report = compute_bounds_pipeline(queen_graph(8, 8))
        assert (report.alpha_bar, report.m) == (8, 6)
        assert (report.q, report.r) == (2, 2)
        assert report.sigma_m == 291

    def test_alpha_override_skips_solving(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], name="k3")
        report = compute_bounds_pipeline(g, PipelineConfig(alpha_override=1))
        assert report.alpha_method == "provided"
        assert report.alpha_exact
        assert report.timings["alpha"] == 0.0
        assert report.sigma_m == 6
        with pytest.raises(ValueError):
            compute_bounds_pipeline(g, PipelineConfig(alpha_override=4))

    def test_alpha_override_above_alpha_is_named(self):
        # queen5_5 has alpha 5: no set of 6 exists, and the error says why
        # before the intersection-graph stage could see an empty family
        with pytest.raises(ValueError, match=r"alpha override 6 is above alpha\(G\)"):
            compute_bounds_pipeline(queen_graph(5, 5), PipelineConfig(alpha_override=6))

    def test_inexact_alpha_skips_later_stages(self):
        rng = random.Random(3)
        g = random_graph(130, 0.15, rng, name="hard")
        report = compute_bounds_pipeline(g, PipelineConfig(alpha_time_limit=1e-4))
        assert not report.alpha_exact
        assert report.alpha_method == "bnb-bound"
        assert report.num_is is None
        assert report.enum_skipped == "alpha-inexact"
        assert report.alpha_tilde is None
        assert report.alpha_tilde_skipped == "enumeration-skipped"
        assert report.m == g.n // report.alpha_bar

    def test_truncated_enumeration_skips_intersection_stage(self):
        report = compute_bounds_pipeline(matching(3), PipelineConfig(count_cap=7))
        assert report.num_is == 7
        assert report.num_is_truncated
        assert report.alpha_tilde is None
        assert report.alpha_tilde_skipped == "enumeration-truncated"
        assert report.m == 2

    def test_set_count_over_cap_skips_intersection_stage(self, monkeypatch):
        monkeypatch.setattr(bounds, "MIS_GRAPH_CAP", 7)
        report = compute_bounds_pipeline(matching(3))
        assert report.num_is == 8
        assert not report.num_is_truncated
        assert report.alpha_tilde is None
        assert report.alpha_tilde_skipped == "num-is-over-cap"
        assert report.m == 2

    def test_sets_over_cap_are_counted_not_held(self):
        # the table row's count cap; the parent listed all 195270 sets (22 MiB)
        cfg = PipelineConfig(count_cap=195272)
        tracemalloc.start()
        try:
            report = compute_bounds_pipeline(queen_graph(8, 12), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_is == 195270
        assert not report.num_is_truncated
        assert report.alpha_tilde_skipped == "num-is-over-cap"
        assert peak < 2 * 2**20

    def test_full_chain_on_matching(self):
        report = compute_bounds_pipeline(matching(3))
        assert report.num_is == 8
        assert report.alpha_tilde == 2
        assert report.m == 2
        assert report.sigma_m == 3 * 3
        assert set(report.timings) == {"alpha", "enumeration", "alpha_tilde", "formulas"}

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            compute_bounds_pipeline(Graph(0, (), name="empty"))


class TestReportSerialization:
    def test_json_dict_carries_schema_and_fields(self):
        report = compute_bounds_pipeline(matching(2))
        d = report.to_json_dict()
        assert d["schema"] == "sumcol-report-v1"
        assert d["instance"] == "matching"
        assert d["witness"] == list(report.witness)
        assert d["m"] == report.m

    def test_json_keys_are_the_schema_then_every_field(self):
        report = compute_bounds_pipeline(matching(2))
        d = report.to_json_dict()
        assert list(d) == ["schema"] + [f.name for f in dataclasses.fields(BoundReport)]
        assert d["density"] == round(report.density, 6) != report.density
        assert d["timings"] == {k: round(v, 6) for k, v in report.timings.items()}

    def test_csv_row_matches_header_width(self):
        report = compute_bounds_pipeline(matching(2))
        header_fields = BoundReport.CSV_HEADER.split(",")
        row_fields = report.to_csv_row().split(",")
        assert len(row_fields) == len(header_fields)
        assert row_fields[0] == "matching"

    def test_csv_blanks_out_skipped_stages(self):
        rng = random.Random(3)
        g = random_graph(130, 0.15, rng, name="hard")
        report = compute_bounds_pipeline(g, PipelineConfig(alpha_time_limit=1e-4))
        fields = report.to_csv_row().split(",")
        header = BoundReport.CSV_HEADER.split(",")
        assert fields[header.index("num_is")] == ""
        assert fields[header.index("alpha_tilde")] == ""


class TestBoundOrdering:
    def test_chain_over_random_parameters(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 30)
            alpha_bar = rng.randint(1, n)
            s_lower, _ = choose_s_lower(n, alpha_bar)
            m = rng.randint(0, n // alpha_bar)
            params = BoundParams(n, alpha_bar, s_lower, m)
            if not params.is_feasible():
                continue
            sm0 = sigma_m0(n, alpha_bar, m)[0]
            sm = sigma_m(params)[0]
            assert sm0 <= sm
            assert lbm_sigma(n, alpha_bar, s_lower) <= sm

    def test_every_admissible_partition_costs_at_least_sigma_m(self):
        params = BoundParams(9, 4, 3, 2)
        floor_value = sigma_m(params)[0]
        for part in enumerate_admissible(params, limit=40):
            assert cost(part) >= floor_value
