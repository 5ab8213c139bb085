"""Tests for the constructible benchmark families."""

import pytest

from sumcol import (
    Budget,
    can_generate,
    enumerate_maximum_independent_sets,
    generate,
    insertions_graph,
    max_independent_set,
    myciel_graph,
    mycielskian,
    queen_graph,
    rows_in_tier,
)

from bruteforce import brute_alpha_and_sets

SIZES = {
    row.name: (row.n, row.edge_count)
    for row in rows_in_tier("desk", "heavy", "long")
    if row.generator_available and row.edge_count is not None
}


class TestSizes:
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_vertex_and_edge_counts(self, name):
        g = generate(name)
        assert g.name == name
        assert (g.n, g.edge_count) == SIZES[name]


class TestMycielskian:
    def test_two_rounds_from_an_edge_is_the_five_cycle(self):
        g = myciel_graph(2)
        assert (g.n, g.edge_count) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(g.n))

    def test_iterated_sizes(self):
        sizes = [(myciel_graph(k).n, myciel_graph(k).edge_count) for k in (3, 4, 5)]
        assert sizes == [(11, 20), (23, 71), (47, 236)]

    def test_stays_triangle_free(self):
        g = myciel_graph(4)
        for u, v in g.edges():
            assert g.adj[u] & g.adj[v] == 0

    def test_apex_sees_exactly_the_top_level(self):
        base = myciel_graph(3)
        g = mycielskian(base, 2)
        apex = 2 * base.n
        assert g.degree(apex) == base.n

    def test_rejects_fewer_than_two_levels(self):
        with pytest.raises(ValueError):
            mycielskian(myciel_graph(3), 1)
        with pytest.raises(ValueError):
            myciel_graph(1)
        with pytest.raises(ValueError):
            insertions_graph(0, 3)
        with pytest.raises(ValueError):
            insertions_graph(2, 1)


class TestQueens:
    def test_rejects_degenerate_boards(self):
        with pytest.raises(ValueError):
            queen_graph(0, 5)
        with pytest.raises(ValueError):
            queen_graph(5, 0)

    def test_one_by_one_board(self):
        g = queen_graph(1, 1)
        assert (g.n, g.edge_count) == (1, 0)

    def test_four_by_four_has_the_two_classic_placements(self):
        alpha, sets = brute_alpha_and_sets(queen_graph(4, 4))
        assert alpha == 4
        assert sets == [(1, 7, 8, 14), (2, 4, 11, 13)]

    def test_rectangular_board_transposes(self):
        a = queen_graph(3, 5)
        b = queen_graph(5, 3)
        assert (a.n, a.edge_count) == (b.n, b.edge_count)


class TestLookup:
    def test_known_names_are_generatable(self):
        for name in ("myciel6", "queen8_12", "2-Insertions_3", "3-Insertions_3"):
            assert can_generate(name)

    def test_fixed_published_families_are_not(self):
        for name in ("DSJC125.1", "DSJR500.1", "flat300_20_0", "nonsense"):
            assert not can_generate(name)

    def test_generate_dispatches_by_name(self):
        assert generate("queen6_6").n == 36
        assert generate("3-Insertions_3").n == 56

    def test_generate_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            generate("flat300_20_0")


class TestSmallStability:
    def test_myciel3_has_a_unique_maximum_independent_set(self):
        alpha, sets = brute_alpha_and_sets(myciel_graph(3))
        assert alpha == 5
        assert len(sets) == 1
        assert sets[0] == (5, 6, 7, 8, 9)

    def test_insertions_shadow_levels_dominate(self):
        g = insertions_graph(2, 3)
        assert g.n == 37
        res = max_independent_set(g, 30.0)
        assert res.exact
        assert res.value == 18
        enum = enumerate_maximum_independent_sets(g, res.value, Budget(time_limit=30.0))
        assert enum.count == 1 and not enum.truncated
