"""Acceptance suite: every criterion the package promises, one test family each.

Criterion numbering matches the summary block printed at the end of the
run (see conftest.py). Reference rows whose published cells are known to
be defective are asserted twice: a strict expected-failure against the
published value, and a passing reproduction of the defect-corrected value
backed by an independent brute-force proof.
"""

import os
import random
import time
from pathlib import Path

import pytest

from conftest import note

from sumcol import (
    BoundParams,
    Budget,
    InfeasibleParamsError,
    IntegerPartition,
    PipelineConfig,
    change,
    compare_report,
    compute_bounds_pipeline,
    cost,
    enumerate_admissible,
    enumerate_maximum_independent_sets,
    generate,
    get_row,
    is_admissible,
    max_independent_set,
    oracle_min,
    predecessors,
    read_dimacs,
    rows_in_tier,
    sigma_m,
    successors,
)

from bruteforce import (
    brute_alpha_and_sets,
    count_independent_combinations,
    queens_row_by_row_count,
    random_graph,
)

DESK_ROWS = rows_in_tier("desk")
GENERATED_DESK = [row for row in DESK_ROWS if row.generator_available]
FILE_DESK = [row for row in DESK_ROWS if not row.generator_available]
DEFECTIVE_DESK = [row for row in GENERATED_DESK if row.defects]
QUEEN_DESK = [row for row in GENERATED_DESK if row.name.startswith("queen")]
LONG_FILE_ROWS = [row for row in rows_in_tier("long") if not row.generator_available]

ROW_IDS = {"ids": lambda row: row.name}


def instance_file(name: str) -> Path | None:
    """Locate a .col file for a row with no generator, if one was supplied."""
    candidates = []
    env = os.environ.get("SUMCOL_INSTANCES_DIR")
    if env:
        candidates.append(Path(env) / f"{name}.col")
    candidates.append(Path(__file__).parent / "instances" / f"{name}.col")
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def run_reference_row(row, graph=None, **overrides):
    """Compute a row the way the published table was produced."""
    cap = overrides.pop("count_cap", None)
    if cap is None:
        cap = 5000
        if row.num_is > cap:
            cap = row.num_is + 1
    cfg = PipelineConfig(count_cap=cap, known_chi_lb=row.chi_lb, **overrides)
    return compute_bounds_pipeline(graph if graph is not None else generate(row.name), cfg)


@pytest.fixture(scope="session")
def desk_runs():
    """Reports for every constructible desk row, plus the batch wall time."""
    reports = {}
    t0 = time.monotonic()
    for row in GENERATED_DESK:
        reports[row.name] = run_reference_row(row)
    return reports, time.monotonic() - t0


@pytest.fixture(scope="session")
def queen10_report():
    return run_reference_row(get_row("queen10_10"))


class TestCriterion1:
    """Desk-scale reference rows reproduce cell for cell."""

    @pytest.mark.parametrize("row", GENERATED_DESK, **ROW_IDS)
    def test_c1_generated_row_reproduces(self, row, desk_runs):
        report = desk_runs[0][row.name]
        assert compare_report(report, row, corrected_num_is=True) == []

    @pytest.mark.parametrize("row", FILE_DESK, **ROW_IDS)
    def test_c1_file_row_reproduces(self, row):
        path = instance_file(row.name)
        if path is None:
            pytest.skip(
                f"{row.name}: fixed published instance, no .col file supplied "
                "(set SUMCOL_INSTANCES_DIR or add tests/instances/)"
            )
        report = run_reference_row(row, graph=read_dimacs(path))
        assert compare_report(report, row, corrected_num_is=True) == []

    @pytest.mark.parametrize("row", DEFECTIVE_DESK, **ROW_IDS)
    @pytest.mark.xfail(
        strict=True,
        reason="published set count is defective; exhaustive enumeration disagrees",
    )
    def test_c1_published_count_cell(self, row, desk_runs):
        assert desk_runs[0][row.name].num_is == row.num_is

    def test_c1_myciel3_count_defect_proof(self, desk_runs):
        alpha, sets = brute_alpha_and_sets(generate("myciel3"))
        assert alpha == 5
        assert len(sets) == 1
        assert desk_runs[0]["myciel3"].num_is == 1

    def test_c1_myciel4_count_defect_proof(self, desk_runs):
        g = generate("myciel4")
        assert count_independent_combinations(g, 11) == 1
        assert count_independent_combinations(g, 12) == 0
        assert desk_runs[0]["myciel4"].num_is == 1

    def test_c1_queen8_12_count_defect_proof(self, desk_runs):
        assert queens_row_by_row_count(8, 12) == 195270
        assert desk_runs[0]["queen8_12"].num_is == 195270

    def test_c1_desk_batch_under_two_minutes(self, desk_runs):
        reports, elapsed = desk_runs
        assert elapsed < 120.0
        note(
            "criterion 1 timing",
            f"{len(reports)} constructible desk rows solved fresh in {elapsed:.1f}s",
        )


class TestCriterion2:
    """Rows whose chromatic sum is proven optimal are matched exactly."""

    def test_c2_queen8_8_bound_reaches_the_proven_optimum(self, desk_runs):
        row = get_row("queen8_8")
        assert row.sigma == 291
        assert desk_runs[0]["queen8_8"].sigma_m == 291

    def test_c2_queen10_10_bound_reaches_the_proven_optimum(self, queen10_report):
        row = get_row("queen10_10")
        assert row.sigma == 553
        assert queen10_report.sigma_m == 553
        assert compare_report(queen10_report, row, corrected_num_is=True) == []


class TestCriterion3:
    """The chromatic-number bound is tight on every queen instance computed."""

    @pytest.mark.parametrize("row", QUEEN_DESK, **ROW_IDS)
    def test_c3_queen_bound_equals_chromatic_number(self, row, desk_runs):
        assert row.chi_lb == row.chi_ub
        assert desk_runs[0][row.name].lb_chi == row.chi_lb

    def test_c3_queen10_10_bound_equals_chromatic_number(self, queen10_report):
        row = get_row("queen10_10")
        assert (row.chi_lb, row.chi_ub) == (11, 11)
        assert queen10_report.lb_chi == 11


class TestCriterion4:
    """The closed form equals the brute-force oracle on the whole grid."""

    def test_c4_closed_form_matches_oracle_on_the_full_grid(self):
        t0 = time.monotonic()
        feasible = infeasible = 0
        for n in range(1, 15):
            for alpha_bar in range(1, n + 1):
                for s_lower in range(1, n + 1):
                    for m in range(0, n // alpha_bar + 2):
                        params = BoundParams(n, alpha_bar, s_lower, m)
                        if params.is_feasible():
                            value, witness = sigma_m(params)
                            _, oracle_cost = oracle_min(params)
                            assert value == oracle_cost, params
                            assert is_admissible(witness, params)
                            assert cost(witness) == value
                            feasible += 1
                        else:
                            with pytest.raises(InfeasibleParamsError):
                                sigma_m(params)
                            with pytest.raises(InfeasibleParamsError):
                                oracle_min(params)
                            infeasible += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        note(
            "criterion 4 grid",
            f"{feasible} feasible and {infeasible} infeasible parameter sets "
            f"agreed with the oracle in {elapsed:.1f}s",
        )


PARTITIONS_BY_N = {
    n: tuple(enumerate_admissible(BoundParams(n, n, 1, n))) for n in range(1, 13)
}


def feasible_param_grid():
    for n in range(1, 13):
        for alpha_bar in range(1, n + 1):
            for s_lower in range(1, n + 1):
                for m in range(0, n // alpha_bar + 1):
                    params = BoundParams(n, alpha_bar, s_lower, m)
                    if params.is_feasible():
                        yield params


class TestCriterion5:
    """Order-theoretic properties of the move relation, all partitions n <= 12."""

    def test_c5_move_cost_delta_is_the_line_distance(self):
        checked = 0
        for n, partitions in PARTITIONS_BY_N.items():
            for a in partitions:
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        try:
                            b = change(a, i, j)
                        except ValueError:
                            continue
                        assert cost(b) == cost(a) + (j - i), (a, i, j)
                        checked += 1
        assert checked > 0

    def test_c5_column_is_the_unique_terminal_partition(self):
        for n, partitions in PARTITIONS_BY_N.items():
            column = IntegerPartition((1,) * n)
            for a in partitions:
                assert (not successors(a)) == (a == column), a

    def test_c5_moves_never_leave_the_admissible_set(self):
        for params in feasible_param_grid():
            omega = set(enumerate_admissible(params))
            for a in omega:
                for b in successors(a):
                    assert b in omega, (params, a, b)
                for variant in (False, True):
                    for b in predecessors(a, params, target_line_test=variant):
                        assert b in omega, (params, a, b, variant)

    def test_c5_every_partition_reaches_the_column(self):
        succ_cache = {
            a: successors(a) for parts in PARTITIONS_BY_N.values() for a in parts
        }
        for params in feasible_param_grid():
            column = IntegerPartition((1,) * params.n)
            for a in enumerate_admissible(params):
                current, steps = a, 0
                while succ_cache[current]:
                    current = next(iter(succ_cache[current]))
                    steps += 1
                    assert steps <= params.n * params.n
                assert current == column, (params, a)

    def test_c5_predecessor_free_nodes_attain_the_oracle_minimum(self):
        total = multi = 0
        spurious = {False: 0, True: 0}
        examples = {False: [], True: []}
        for params in feasible_param_grid():
            omega = list(enumerate_admissible(params))
            column = IntegerPartition((1,) * params.n)
            opt_part, opt_cost = oracle_min(params)
            total += 1
            seen_multi = False
            for variant in (False, True):
                pf = [
                    a for a in omega
                    if not predecessors(a, params, target_line_test=variant)
                ]
                assert opt_part in pf, (params, variant)
                assert min(cost(a) for a in pf) == opt_cost, (params, variant)
                if len(pf) > 1:
                    seen_multi = True
                extra = [a for a in pf if a != opt_part and a != column]
                if extra:
                    spurious[variant] += 1
                    if len(examples[variant]) < 3:
                        examples[variant].append(f"{extra[0]} under {params}")
            if seen_multi:
                multi += 1
        note(
            "criterion 5 uniqueness",
            f"optimum contained in the predecessor-free set in all {total} "
            "parameter sets (both move-rule variants)",
        )
        note(
            "criterion 5 uniqueness",
            f"uniqueness fails in {multi}/{total} sets: the all-ones column is "
            "always predecessor-free (the move scan stops above the last line)",
        )
        note(
            "criterion 5 uniqueness",
            f"default move rule also leaves non-column terminal nodes in "
            f"{spurious[False]} sets, e.g. " + "; ".join(examples[False]),
        )
        note(
            "criterion 5 uniqueness",
            f"target-line move rule leaves {spurious[True]} such nodes",
        )


class TestCriterion6:
    """The bound chain holds on published values and on computed reports."""

    def test_c6_published_chain_on_every_row(self):
        rows = rows_in_tier("desk", "heavy", "long")
        assert len(rows) == 37
        for row in rows:
            assert row.lbm_sigma <= row.sigma_m, row.name
            if row.sigma is not None:
                assert row.sigma_m <= row.sigma, row.name

    def test_c6_computed_chain_on_every_solved_instance(
        self, desk_runs, queen10_report
    ):
        reports = list(desk_runs[0].values()) + [queen10_report]
        for report in reports:
            assert report.sigma_m0 <= report.sigma_m, report.instance
            assert report.lbm_sigma <= report.sigma_m, report.instance
            sigma = get_row(report.instance).sigma
            if sigma is not None:
                assert report.sigma_m <= sigma, report.instance


class TestCriterion7:
    """The exact solvers agree with independent brute force."""

    def test_c7_alpha_matches_brute_force_on_200_random_graphs(self):
        rng = random.Random(20260817)
        for k in range(200):
            n = rng.randint(4, 18)
            p = rng.uniform(0.05, 0.95)
            g = random_graph(n, p, rng, name=f"r{k}")
            alpha, _ = brute_alpha_and_sets(g)
            result = max_independent_set(g, 30.0)
            assert result.exact, (k, n, p)
            assert result.value == alpha, (k, n, p)

    def test_c7_enumeration_matches_brute_force_sets(self):
        rng = random.Random(20260817)
        compared = 0
        for k in range(200):
            n = rng.randint(4, 18)
            p = rng.uniform(0.05, 0.95)
            g = random_graph(n, p, rng, name=f"r{k}")
            if n > 14:
                continue
            alpha, sets = brute_alpha_and_sets(g)
            enum = enumerate_maximum_independent_sets(g, alpha, Budget(time_limit=30.0))
            assert not enum.truncated, (k, n, p)
            assert enum.count == len(sets), (k, n, p)
            assert list(enum.sets) == sets, (k, n, p)
            compared += 1
        assert compared >= 100


class TestCriterion8:
    """Long-tier rows are reproducible on demand and skippable by default."""

    def test_c8_long_rows_are_gated_behind_an_environment_flag(self):
        assert rows_in_tier("long")
        for func in (
            TestCriterion8.test_c8_queen11_11_full_row,
            TestCriterion8.test_c8_queen12_12_full_row,
            TestCriterion8.test_c8_file_row_chromatic_sum_bound,
        ):
            assert "long" in [mark.name for mark in func.pytestmark]

    @pytest.mark.long
    def test_c8_queen11_11_full_row(self):
        row = get_row("queen11_11")
        report = run_reference_row(
            row,
            alpha_time_limit=300.0,
            enum_time_limit=300.0,
            alpha_tilde_time_limit=10.0,
        )
        assert compare_report(report, row, corrected_num_is=True) == []
        if not report.alpha_tilde_exact:
            assert report.alpha_tilde >= row.m
            note(
                "criterion 8 long rows",
                "queen11_11: intersection-graph stage unsolved within budget; "
                f"its upper bound {report.alpha_tilde} cannot drag m below "
                f"n // alpha = {row.m}, so the row still reproduces",
            )

    @pytest.mark.long
    def test_c8_queen12_12_full_row(self):
        row = get_row("queen12_12")
        report = run_reference_row(
            row, alpha_time_limit=300.0, enum_time_limit=300.0
        )
        assert compare_report(report, row, corrected_num_is=True) == []
        assert report.alpha_tilde_skipped == "num-is-over-cap"

    @pytest.mark.long
    @pytest.mark.parametrize("row", LONG_FILE_ROWS, **ROW_IDS)
    def test_c8_file_row_chromatic_sum_bound(self, row):
        path = instance_file(row.name)
        if path is None:
            pytest.skip(
                f"{row.name}: fixed published instance, no .col file supplied"
            )
        report = run_reference_row(
            row,
            graph=read_dimacs(path),
            alpha_time_limit=600.0,
            enum_time_limit=600.0,
            alpha_tilde_time_limit=600.0,
        )
        assert report.sigma_m == row.sigma_m
