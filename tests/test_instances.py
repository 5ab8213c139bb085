"""Tests for the constructible benchmark families."""

import random

import pytest

from sumcol import (
    Budget,
    board_symmetries,
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

from bruteforce import brute_alpha_and_sets, maps_edges_onto_edges
from sumcol.graph import Graph

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


class TestBoardSymmetries:
    def test_square_boards_have_seven_maps_and_others_three(self):
        for rows in range(2, 8):
            for cols in range(2, 8):
                g = queen_graph(rows, cols)
                symmetries = board_symmetries(g)
                assert len(symmetries) == (7 if rows == cols else 3), (rows, cols)
                assert all(maps_edges_onto_edges(g, perm) for perm in symmetries)

    def test_the_maps_are_the_boards_flips_and_turns(self):
        # cell (i, j) of the 3 x 3 board is vertex 3 * i + j
        turn = (6, 3, 0, 7, 4, 1, 8, 5, 2)
        flip = (6, 7, 8, 3, 4, 5, 0, 1, 2)
        group = {tuple(range(9))}
        while True:
            grown = group | {tuple(a[v] for v in b) for a in group for b in (turn, flip)}
            if grown == group:
                break
            group = grown
        assert len(group) == 8
        assert set(board_symmetries(queen_graph(3, 3))) == group - {tuple(range(9))}

    def test_every_map_found_on_a_relabelled_queen_graph_is_an_automorphism(self):
        rng = random.Random(19)
        found = 0
        for _ in range(30):
            board = queen_graph(rng.randint(2, 6), rng.randint(2, 6))
            label = rng.sample(range(board.n), board.n)
            g = Graph.from_edges(board.n, [(label[u], label[v]) for u, v in board.edges()])
            symmetries = board_symmetries(g)
            assert all(maps_edges_onto_edges(g, perm) for perm in symmetries)
            found += len(symmetries)
        # most relabellings leave no board map an automorphism, a few do
        assert found > 0

    def test_no_board_no_maps(self):
        assert board_symmetries(queen_graph(1, 1)) == ()
        assert board_symmetries(myciel_graph(4)) == ()  # 23 vertices: no board
        assert board_symmetries(myciel_graph(6)) == ()  # 95 = 5 * 19, no symmetry
