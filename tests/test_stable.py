"""Stability number solver and maximum independent set enumeration."""

import random

import pytest

from bruteforce import (
    brute_alpha_and_sets,
    count_sets_of_size,
    degree_rule_alpha_bar,
    greedy_coloring_alpha_bar,
    random_graph,
    reference_clique_search,
)
from sumcol import queen_graph, stable
from sumcol.graph import Graph
from sumcol.misgraph import alpha_tilde, build_mis_graph
from sumcol.stable import (
    Budget,
    _CliqueSearch,
    _Timeout,
    enumerate_maximum_independent_sets,
    max_independent_set,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def is_independent(g, vertices):
    return not any(g.has_edge(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(count_cap=0)

    def test_every_search_rejects_a_bad_time_limit(self):
        # time.monotonic() > nan is always false: the search would never stop
        g = path_graph(4)
        tiling = build_mis_graph([(0, 1), (2, 3)])  # one size: exact cover first
        mixed = build_mis_graph([(0, 1), (1, 2, 3)])  # mixed sizes: kernel only
        for seconds in (0, -1.0, float("nan")):
            searches = (
                lambda: max_independent_set(g, seconds),
                lambda: enumerate_maximum_independent_sets(g, 2, Budget(time_limit=seconds)),
                lambda: alpha_tilde(tiling, seconds),
                lambda: alpha_tilde(mixed, seconds),
            )
            for search in searches:
                with pytest.raises(ValueError, match="time_limit must be positive"):
                    search()


class TestUpperBoundRules:
    def test_rules_never_undershoot_alpha(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
            alpha, _ = brute_alpha_and_sets(g)
            assert degree_rule_alpha_bar(g) >= alpha
            assert greedy_coloring_alpha_bar(g) >= alpha

    def test_known_graphs(self):
        assert degree_rule_alpha_bar(complete_graph(5)) >= 1
        assert greedy_coloring_alpha_bar(complete_graph(5)) == 1
        assert greedy_coloring_alpha_bar(Graph.from_edges(4, [])) == 4


class TestMaxIndependentSet:
    @pytest.mark.parametrize(
        "g,alpha",
        [
            (complete_graph(1), 1),
            (complete_graph(6), 1),
            (path_graph(7), 4),
            (cycle_graph(5), 2),
            (cycle_graph(11), 5),
            (petersen(), 4),
            (Graph.from_edges(8, []), 8),
        ],
    )
    def test_classic_graphs(self, g, alpha):
        res = max_independent_set(g)
        assert res.value == alpha
        assert res.exact
        assert res.method == "exact-bnb"

    def test_witness_is_an_independent_set_of_that_size(self):
        g = petersen()
        res = max_independent_set(g)
        assert res.witness is not None
        assert len(res.witness) == res.value
        for u in res.witness:
            for v in res.witness:
                if u != v:
                    assert not g.has_edge(u, v)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.95), rng)
            alpha, _ = brute_alpha_and_sets(g)
            res = max_independent_set(g)
            assert res.exact
            assert res.value == alpha

    def test_stop_at_a_proven_bound_ends_with_an_optimum(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.95), rng)
            alpha, sets = brute_alpha_and_sets(g)
            for stop in (alpha, alpha + 1):
                res = max_independent_set(g, stop=stop)
                assert res.exact and res.value == alpha
                assert res.witness in sets

    def test_timeout_falls_back_to_the_smaller_upper_bound(self):
        rng = random.Random(3)
        g = random_graph(130, 0.15, rng)
        res = max_independent_set(g, 1e-4)
        assert not res.exact
        assert res.method == "bnb-bound"
        assert res.value <= greedy_coloring_alpha_bar(g) < degree_rule_alpha_bar(g)
        assert res.witness is None


class _StopAt:
    """A deadline that passes at its `stop`-th check, counting every check."""

    def __init__(self, stop=None):
        self.stop = stop
        self.ticks = 0

    def check(self):
        self.ticks += 1
        if self.ticks == self.stop:
            raise _Timeout


class TestStoppedSearchBound:
    def test_every_stop_holds_a_bound_between_alpha_and_the_greedy_bound(
        self, monkeypatch
    ):
        rng = random.Random(11)
        stops = below_greedy = 0
        for _ in range(150):
            g = random_graph(rng.randint(8, 18), rng.uniform(0.1, 0.9), rng)
            counter = _StopAt()
            monkeypatch.setattr(stable, "_Deadline", lambda seconds: counter)
            exact = max_independent_set(g).value
            alpha, _ = brute_alpha_and_sets(g)
            greedy, degree = greedy_coloring_alpha_bar(g), degree_rule_alpha_bar(g)
            assert exact == alpha and greedy <= degree
            # the first check is the root's, made before it colors its pool
            for stop in range(2, counter.ticks + 1):
                monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                res = max_independent_set(g)
                assert (res.exact, res.method) == (False, "bnb-bound")
                assert alpha <= res.value <= greedy <= degree
                stops += 1
                below_greedy += res.value < greedy
        assert stops > 150
        assert below_greedy > 0


class TestStoppedCollect:
    def test_every_stop_lists_a_part_of_the_full_listing(self, monkeypatch):
        rng = random.Random(12)
        stops = 0
        for _ in range(60):
            g = random_graph(rng.randint(8, 18), rng.uniform(0.1, 0.9), rng)
            alpha, _ = brute_alpha_and_sets(g)
            for size in {alpha, max(alpha - 1, 1)}:
                counter = _StopAt()
                monkeypatch.setattr(stable, "_Deadline", lambda seconds: counter)
                full = enumerate_maximum_independent_sets(g, size)
                assert not full.truncated and full.count == count_sets_of_size(g, size)
                for stop in range(1, counter.ticks + 1):
                    monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                    res = enumerate_maximum_independent_sets(g, size)
                    assert res.truncated
                    assert len(res.sets) == res.count <= full.count
                    assert set(res.sets) <= set(full.sets)
                    assert all(len(c) == size and is_independent(g, c) for c in res.sets)
                    stops += 1
        assert stops > 300


class TestSameTreeAsTheReference:
    """The kernel against tests/bruteforce.py's plain kernel, which colors
    the same way but records every vertex: same results, same node counts."""

    def test_maximise_and_collect_match_node_for_node(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng.randint(8, 40), rng.uniform(0.1, 0.9), rng)
            adj = g.complement().adj
            omega = len(reference_clique_search(adj)[0])
            for stop in (None, omega, omega - 1):
                search = _CliqueSearch(adj, 60.0)
                got = search.maximise(stop)
                assert (got, search.deadline.ticks) == reference_clique_search(adj, stop=stop)
            for target in {omega, max(omega - 1, 1)}:
                (_, count, _), _ = reference_clique_search(adj, target)
                for cap, keep in [
                    (5000, None), (5000, count - 1), (5000, count + 1),
                    (max(count // 2, 1), None), (max(count // 2, 1), 0),
                ]:
                    search = _CliqueSearch(adj, 60.0)
                    got = search.collect(target, cap, keep)
                    expected = reference_clique_search(adj, target, cap=cap, keep=keep)
                    assert (got, search.deadline.ticks) == expected, (target, cap, keep)


class TestEnumeration:
    def test_counts_match_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
            alpha, sets = brute_alpha_and_sets(g)
            res = enumerate_maximum_independent_sets(g, alpha)
            assert not res.truncated
            assert res.count == len(sets)
            assert list(res.sets) == sets  # canonical ascending order

    def test_any_target_size_not_just_alpha(self):
        g = cycle_graph(7)
        for size in range(1, 4):
            res = enumerate_maximum_independent_sets(g, size)
            assert res.count == count_sets_of_size(g, size)

    def test_sets_are_independent_and_distinct(self):
        g = petersen()
        res = enumerate_maximum_independent_sets(g, 4)
        assert len(set(res.sets)) == res.count
        for s in res.sets:
            for i, u in enumerate(s):
                for v in s[i + 1:]:
                    assert not g.has_edge(u, v)

    def test_count_cap_boundary(self):
        g = Graph.from_edges(6, [])  # 15 independent pairs
        exact = enumerate_maximum_independent_sets(g, 2, Budget(count_cap=15))
        assert (exact.count, exact.truncated) == (15, False)
        clipped = enumerate_maximum_independent_sets(g, 2, Budget(count_cap=14))
        assert (clipped.count, clipped.truncated) == (14, True)

    def test_target_size_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            enumerate_maximum_independent_sets(g, 0)
        with pytest.raises(ValueError):
            enumerate_maximum_independent_sets(g, 4)

    def test_sparse_and_dense_policies_agree(self):
        # sparse g gives a dense search graph, dense g a sparse one; the one
        # kernel must list every maximum set on both
        rng = random.Random(5)
        for p in (0.08, 0.5):
            for _ in range(10):
                g = random_graph(13, p, rng)
                alpha, sets = brute_alpha_and_sets(g)
                res = enumerate_maximum_independent_sets(g, alpha)
                assert res.count == len(sets)

    def test_every_target_size_matches_the_oracle(self):
        rng = random.Random(11)
        for p in (0.05, 0.15, 0.3, 0.6):
            for _ in range(8):
                g = random_graph(rng.randint(2, 13), p, rng)
                alpha, _ = brute_alpha_and_sets(g)
                for size in range(1, alpha + 1):
                    res = enumerate_maximum_independent_sets(g, size)
                    assert not res.truncated
                    assert res.count == count_sets_of_size(g, size), (p, size)
                    assert list(res.sets) == sorted(set(res.sets))
                    assert all(len(s) == size and is_independent(g, s) for s in res.sets)

    def test_count_cap_keeps_exactly_cap_distinct_sets(self):
        rng = random.Random(12)
        for p in (0.1, 0.5):
            for _ in range(6):
                g = random_graph(12, p, rng)
                alpha, _ = brute_alpha_and_sets(g)
                for size in range(1, alpha + 1):
                    total = count_sets_of_size(g, size)
                    for cap in {c for c in (1, total // 2, total - 1) if 0 < c < total}:
                        res = enumerate_maximum_independent_sets(g, size, Budget(count_cap=cap))
                        assert (res.count, res.truncated) == (cap, True)
                        assert len(set(res.sets)) == cap
                        assert list(res.sets) == sorted(res.sets)
                        assert all(len(s) == size and is_independent(g, s) for s in res.sets)


class TestCountOnlyTail:
    def test_keep_bounds_the_sets_but_never_the_count(self):
        rng = random.Random(21)
        for p in (0.05, 0.15, 0.3, 0.6):
            for _ in range(6):
                g = random_graph(rng.randint(2, 13), p, rng)
                alpha, _ = brute_alpha_and_sets(g)
                for size in range(1, alpha + 1):
                    total = count_sets_of_size(g, size)
                    listed = enumerate_maximum_independent_sets(g, size).sets
                    for keep in (0, 1, total - 1, total, total + 1, None):
                        res = enumerate_maximum_independent_sets(g, size, keep=keep)
                        assert (res.count, res.truncated) == (total, False), (p, size, keep)
                        if keep is not None and total > keep:
                            assert res.sets == ()
                        else:
                            assert res.sets == listed

    def test_count_cap_past_keep_stops_the_count(self):
        rng = random.Random(22)
        for p in (0.1, 0.4):
            for _ in range(6):
                g = random_graph(12, p, rng)
                alpha, _ = brute_alpha_and_sets(g)
                for size in range(1, alpha + 1):
                    total = count_sets_of_size(g, size)
                    for keep in {k for k in (0, 1, total // 3) if k + 1 < total}:
                        for cap in {keep + 1, (keep + total) // 2, total - 1}:
                            res = enumerate_maximum_independent_sets(
                                g, size, Budget(count_cap=cap), keep=keep
                            )
                            assert (res.sets, res.count, res.truncated) == ((), cap, True)

    def test_keep_at_the_count_cap_keeps_the_capped_prefix(self):
        g = Graph.from_edges(6, [])  # 15 independent pairs
        full = enumerate_maximum_independent_sets(g, 2, Budget(count_cap=14))
        for keep in (14, 15, None):
            res = enumerate_maximum_independent_sets(g, 2, Budget(count_cap=14), keep=keep)
            assert (res.sets, res.count, res.truncated) == (full.sets, 14, True)

    def test_time_limit_in_the_tail_marks_the_count_truncated(self):
        g = queen_graph(8, 12)  # 195270 maximum independent sets of size 8
        res = enumerate_maximum_independent_sets(g, 8, Budget(time_limit=1e-4), keep=0)
        assert res.truncated
        assert res.sets == ()
        assert 0 < res.count < 195270


def per_bit_relabel(adj, order):
    """Rows of adj with vertex order[p] renamed p, one bit at a time."""
    pos = {v: p for p, v in enumerate(order)}
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                rows[pos[v]] |= 1 << pos[u]
    return rows


class TestRelabel:
    def test_rows_match_a_per_bit_relabel(self):
        rng = random.Random(23)
        for n in [1, 2, 2, 3] + [rng.randint(1, 70) for _ in range(30)]:
            g = random_graph(n, rng.uniform(0.05, 0.95), rng)
            search = _CliqueSearch(list(g.adj), 1.0)
            assert sorted(search.order) == list(range(n))
            assert search.adj == per_bit_relabel(g.adj, search.order)


def gnp90_complement():
    return random_graph(90, 0.3, random.Random(2024)).complement().adj


def queen8_8_complement():
    return queen_graph(8, 8).complement().adj


def queen_disjointness(k):
    """The graph alpha~'s clique search runs on for queen k_k: its maximum
    independent sets, adjacent when disjoint."""
    sets = enumerate_maximum_independent_sets(queen_graph(k, k), k).sets
    return build_mis_graph(sets).to_graph().complement().adj


def queen9_9_disjointness():
    return queen_disjointness(9)


def queen10_10_disjointness():
    return queen_disjointness(10)


class TestSearchTreePins:
    """The kernel's node counts on fixed inputs.

    `deadline.ticks` counts the nodes a search expanded, so these pins show
    that a change meant to make each node cheaper leaves the search tree as
    it was. A change to the kernel's order or pruning moves them; record
    each change of a pin, with its reason, in CHANGES.md.
    """

    # target None runs maximise, whose result is the clique size; otherwise
    # collect, whose result is the count of cliques of that size
    @pytest.mark.parametrize("adj, target, nodes, result", [
        (queen9_9_disjointness, None, 24052, 7),
        (queen8_8_complement, 8, 1137, 92),
        (gnp90_complement, None, 735, 15),
        (gnp90_complement, 15, 1100, 3),
        pytest.param(queen10_10_disjointness, None, 432144, 8, marks=pytest.mark.long),
    ], ids=[
        "queen9_9-alpha-tilde", "queen8_8-collect", "gnp90-maximise", "gnp90-collect",
        "queen10_10-alpha-tilde",
    ])
    def test_node_count(self, adj, target, nodes, result):
        search = _CliqueSearch(adj(), 60.0)
        if target is None:
            assert len(search.maximise()) == result
        else:
            assert search.collect(target, 5000)[1:] == (result, False)
        assert search.deadline.ticks == nodes
