"""Intersection graph over independent sets and the m parameter chain."""

import gc
import random

import pytest

from bruteforce import (
    brute_alpha_and_sets,
    brute_alpha_tilde,
    degree_rule_alpha_bar,
    graph_with_automorphism,
    random_graph,
)
from sumcol import PipelineConfig, compute_bounds_pipeline, compare_report, get_row
from sumcol.bounds import compute_m
from sumcol.instances import board_symmetries, queen_graph
from sumcol.misgraph import MisGraph, _member_maps, alpha_tilde, build_mis_graph
from sumcol.stable import (
    enumerate_maximum_independent_sets,
    is_automorphism,
    max_independent_set,
)


def random_family(rng, count, universe, sizes):
    """Up to `count` distinct random sets over range(universe), sizes drawn from `sizes`."""
    family = set()
    for _ in range(count):
        family.add(tuple(sorted(rng.sample(range(universe), rng.choice(sizes)))))
    return sorted(family)


def planted_family(rng, blocks, size, extra):
    """A tiling of blocks * size vertices by `blocks` sets, plus `extra` decoys of the same size."""
    universe = blocks * size
    order = rng.sample(range(universe), universe)
    tiling = {tuple(sorted(order[b * size:(b + 1) * size])) for b in range(blocks)}
    family = tiling | set(random_family(rng, extra, universe, [size]))
    return rng.sample(sorted(family), len(family))


def queen_sets(side):
    g = queen_graph(side, side)
    return enumerate_maximum_independent_sets(g, side).sets


class TestBuildMisGraph:
    def test_adjacency_is_set_intersection(self):
        mg = build_mis_graph([(0, 1), (1, 2), (3, 4)])
        assert mg.n == 3
        g = mg.to_graph()
        assert g.has_edge(0, 1)  # share vertex 1
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_members_are_sorted_tuples(self):
        mg = build_mis_graph([[5, 2, 9]])
        assert mg.members == ((2, 5, 9),)

    def test_adjacency_equals_pairwise_intersection(self):
        rng = random.Random(20261018)
        for trial in range(60):
            family = random_family(rng, rng.randint(1, 40), rng.randint(7, 90), range(1, 8))
            mg = build_mis_graph(family)
            masks = [sum(1 << v for v in s) for s in mg.members]
            for i in range(mg.n):
                expected = sum(1 << j for j in range(mg.n)
                               if j != i and masks[i] & masks[j])
                assert mg.adj[i] == expected, (trial, i)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one"):
            build_mis_graph([])
        with pytest.raises(ValueError, match="nonempty"):
            build_mis_graph([()])
        with pytest.raises(ValueError, match="duplicate"):
            build_mis_graph([(1, 2), (2, 1)])


class TestAlphaTilde:
    def test_pairwise_disjoint_sets(self):
        mg = build_mis_graph([(0, 1), (2, 3), (4, 5)])
        res = alpha_tilde(mg)
        assert res.exact and res.value == 3

    def test_pairwise_intersecting_sets(self):
        mg = build_mis_graph([(0, 1), (0, 2), (0, 3)])
        res = alpha_tilde(mg)
        assert res.exact and res.value == 1

    def test_mixed(self):
        # {0,1} and {2,3} are disjoint; {1,2} blocks both
        mg = build_mis_graph([(0, 1), (1, 2), (2, 3)])
        res = alpha_tilde(mg)
        assert res.value == 2


class TestAlphaTildeAgainstBruteForce:
    """The stage (exact cover, then the capped clique search) against brute_alpha_tilde."""

    def check(self, family):
        res = alpha_tilde(build_mis_graph(family), 30.0)
        assert res.exact, family
        assert res.value == brute_alpha_tilde(family), family
        return res

    def test_uniform_families_with_a_planted_tiling(self):
        rng = random.Random(1)
        for _ in range(40):
            blocks, size = rng.randint(1, 6), rng.randint(1, 4)
            family = planted_family(rng, blocks, size, rng.randint(0, 12))
            res = self.check(family)
            assert (res.value, res.method) == (blocks, "exact-cover")

    def test_uniform_families_without_a_planted_tiling(self):
        rng = random.Random(2)
        covered = disproved = 0
        for _ in range(80):
            size = rng.randint(2, 4)
            family = random_family(rng, rng.randint(1, 16), size * rng.randint(2, 5), [size])
            union = len(set().union(*family))
            tileable = min(len(family), union // size) * size == union
            method = self.check(family).method
            covered += method == "exact-cover"
            disproved += tileable and method == "exact-bnb"
        # both outcomes of the cover step occur: a cover, and a disproof
        # followed by the clique search below the cap
        assert covered >= 10 and disproved >= 10

    def test_mixed_size_families_skip_the_cover_step(self):
        rng = random.Random(3)
        compared = 0
        for _ in range(60):
            family = random_family(rng, rng.randint(2, 16), rng.randint(4, 16), [1, 2, 3, 4])
            if len({len(s) for s in family}) == 1:
                continue
            assert self.check(family).method == "exact-bnb"
            compared += 1
        assert compared >= 40

    def test_maximum_set_families_of_random_graphs(self):
        rng = random.Random(4)
        compared = 0
        for _ in range(150):
            g = random_graph(rng.randint(4, 13), rng.uniform(0.1, 0.8), rng)
            _, sets = brute_alpha_and_sets(g)
            if len(sets) > 18:
                continue
            self.check(sets)
            compared += 1
        assert compared >= 100

    def test_maximum_set_families_under_planted_automorphisms(self):
        # random graphs with a planted automorphism, their maximum sets, and
        # the automorphism passed on: the same alpha~ as without it
        rng = random.Random(5)
        searched = 0
        for _ in range(300):
            g, sigma = graph_with_automorphism(
                rng.randint(4, 12), rng.uniform(0.1, 0.7), rng, rng.random() < 0.5
            )
            _, sets = brute_alpha_and_sets(g)
            if len(sets) > 18:
                continue
            mg = build_mis_graph(sets)
            res, plain = alpha_tilde(mg, 30.0, [sigma]), alpha_tilde(mg, 30.0)
            assert res.exact and res.value == brute_alpha_tilde(sets)
            assert (res.value, res.method) == (plain.value, plain.method)
            searched += res.method == "exact-bnb"
        assert searched >= 50

    def test_a_map_that_moves_a_set_out_of_the_family_raises(self):
        # mixed sizes: no exact cover, so the maps reach the clique search
        mg = build_mis_graph([(0, 1), (1, 2), (2, 3, 4)])
        for bad in ([1, 0, 2, 3, 4], [0, 1, 2]):
            with pytest.raises(ValueError, match="symmetry 1 does not map the sets onto themselves"):
                alpha_tilde(mg, 30.0, [[0, 1, 2, 3, 4], bad])

    def test_a_map_that_merges_two_vertices_raises(self):
        # every member goes onto a member, but 0 and 2 share an image, as do
        # 1 and 3, so (0, 1), (2, 3) and (0, 3) would all go to (0, 1)
        mg = build_mis_graph([(0, 1), (2, 3), (0, 3), (4, 5, 6)])
        merge = [0, 1, 0, 1, 4, 5, 6]
        with pytest.raises(ValueError, match="symmetry 1 does not map the sets onto themselves"):
            alpha_tilde(mg, 30.0, [list(range(7)), merge])

    def test_member_maps_are_automorphisms_by_construction(self):
        # the kernel takes the member maps without checking them again
        rng = random.Random(6)
        checked = 0
        for _ in range(200):
            g, sigma = graph_with_automorphism(
                rng.randint(4, 12), rng.uniform(0.1, 0.7), rng, rng.random() < 0.5
            )
            mg = build_mis_graph(brute_alpha_and_sets(g)[1])
            for perm in _member_maps(mg, [sigma]):
                assert sorted(perm) == list(range(mg.n))
                assert is_automorphism(mg.adj, perm)
                assert is_automorphism(mg.to_graph().complement().adj, perm)
                checked += perm != tuple(range(mg.n))
        for side in (5, 6, 7, 8):
            g = queen_graph(side, side)
            mg = build_mis_graph(queen_sets(side))
            for perm in _member_maps(mg, board_symmetries(g)):
                assert is_automorphism(mg.adj, perm)
                checked += 1
        assert checked >= 60

    def test_queen_rows_keep_alpha_tilde_under_the_board_maps(self):
        for side in (5, 6, 7, 8, 9):
            g = queen_graph(side, side)
            mg = build_mis_graph(queen_sets(side))
            res = alpha_tilde(mg, 60.0, board_symmetries(g))
            assert res.exact and res.value == get_row(f"queen{side}_{side}").m

    @pytest.mark.parametrize("side", [5, 6, 7, 8, 9])
    def test_queens_match_the_clique_kernel(self, side):
        mg = build_mis_graph(queen_sets(side))
        kernel = max_independent_set(mg.to_graph())
        res = self.check(mg.members) if mg.n <= 20 else alpha_tilde(mg)
        assert res.exact and kernel.exact
        # every queen row through queen9_9 has m = alpha~
        assert res.value == kernel.value == get_row(f"queen{side}_{side}").m


class TestAlphaTildeStops:
    def test_tiling_reaches_the_cap_within_a_short_budget(self):
        mg = build_mis_graph(queen_sets(11))
        res = alpha_tilde(mg, 2.0)
        assert (res.value, res.exact, res.method) == (11, True, "exact-cover")
        chosen = [set(mg.members[i]) for i in res.witness]
        assert len(chosen) == 11 and len(set().union(*chosen)) == 121

    @pytest.mark.parametrize("avoid,cap", [(None, 10), (0, 9)])
    def test_timeout_reports_the_cap_not_the_degree_rule(self, avoid, cap):
        # all 724 sets: cap = 100 // 10 and the cover step times out; the
        # sets avoiding vertex 0 cover 99 vertices, cannot tile, and the
        # clique kernel times out below cap = 99 // 10
        sets = [s for s in queen_sets(10) if avoid not in s]
        mg = build_mis_graph(sets)
        assert mg.n == 724 if avoid is None else mg.n < 724
        res = alpha_tilde(mg, 1e-3)
        assert not res.exact
        assert (res.value, res.method) == (cap, "cap")
        assert res.value < degree_rule_alpha_bar(mg.to_graph())

    @pytest.mark.parametrize("side,seconds", [(5, 60.0), (10, 1e-3)])
    def test_cover_step_leaves_no_reference_cycle(self, side, seconds):
        # a cycle would keep the sets' masks and the adjacency alive until
        # the next full collection; queen5_5's sets tile, queen10_10's time out
        mg = build_mis_graph(queen_sets(side))
        gc.collect()
        gc.disable()
        try:
            alpha_tilde(mg, seconds)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_queen11_11_row_reaches_an_exact_alpha_tilde(self):
        row = get_row("queen11_11")
        report = compute_bounds_pipeline(
            queen_graph(11, 11), PipelineConfig(alpha_tilde_time_limit=2.0)
        )
        assert (report.alpha_tilde, report.alpha_tilde_exact) == (11, True)
        assert compare_report(report, row, corrected_num_is=True) == []


class TestComputeM:
    def test_floor_term_alone(self):
        assert compute_m(10, 3) == 3
        assert compute_m(10, 10) == 1
        assert compute_m(7, 1) == 7

    def test_optional_terms_tighten(self):
        assert compute_m(10, 3, num_is=2) == 2
        assert compute_m(10, 3, alpha_tilde_value=1) == 1
        assert compute_m(10, 3, num_is=5, alpha_tilde_value=2) == 2
        # they can only tighten, never loosen
        assert compute_m(10, 3, num_is=50, alpha_tilde_value=40) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_m(0, 1)
        with pytest.raises(ValueError):
            compute_m(5, 6)
        with pytest.raises(ValueError):
            compute_m(5, 2, num_is=0)
