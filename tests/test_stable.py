"""Stability number solver and maximum independent set enumeration."""

import os
import pickle
import random
import signal
import threading

import pytest

from bruteforce import (
    brute_alpha_and_sets,
    count_sets_of_size,
    degeneracy,
    degree_rule_alpha_bar,
    graph_with_automorphism,
    greedy_coloring_alpha_bar,
    maps_edges_onto_edges,
    random_graph,
    reference_clique_search,
    smallest_last_order,
)
from sumcol import board_symmetries, insertions_graph, queen_graph, stable
from sumcol.graph import Graph
from sumcol.misgraph import _member_maps, alpha_tilde, build_mis_graph
from sumcol.stable import (
    Budget,
    _CliqueSearch,
    _smallest_last,
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

    def test_stop_below_one_is_rejected(self):
        # a stop of 0 would end the search at its greedy start with exact=True
        g = queen_graph(8, 8)
        for stop in (0, -1):
            with pytest.raises(ValueError, match="stop must be at least 1"):
                max_independent_set(g, stop=stop)
        assert max_independent_set(complete_graph(4), stop=1).value == 1

    def test_timeout_falls_back_to_the_smaller_upper_bound(self):
        rng = random.Random(3)
        g = random_graph(130, 0.15, rng)
        res = max_independent_set(g, 1e-4)
        assert not res.exact
        assert res.method == "bnb-bound"
        assert res.value <= greedy_coloring_alpha_bar(g) < degree_rule_alpha_bar(g)
        assert res.witness is None


@pytest.fixture
def one_worker(monkeypatch):
    """Search the root of maximise and collect in one process. A split
    search counts its nodes in each process, so a test that counts the
    nodes of a stopped search, or stops a stub deadline at each of them,
    runs at one worker."""
    monkeypatch.setattr(stable, "_workers", lambda: 1)


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
    @pytest.mark.usefixtures("one_worker")
    def test_every_stop_holds_a_bound_between_alpha_and_the_greedy_bound(
        self, monkeypatch
    ):
        rng = random.Random(11)
        stops = below_greedy = 0
        for _ in range(300):
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


def powers(sigma):
    """sigma, sigma^2, ... up to the identity, which is left out."""
    out, p = [], list(sigma)
    while p != sorted(p):
        out.append(p)
        p = [sigma[v] for v in p]
    return out


def some_powers(rng, sigma):
    """[sigma] or, half the time, all its powers while it has at most 12:
    collect closes its listing under every map given, so a random
    permutation of order in the hundreds would only slow the test."""
    out = powers(sigma)
    return out if rng.random() < 0.5 and len(out) <= 12 else [sigma]


class TestOrbitPruning:
    """maximise given verified automorphisms, on random graphs with one
    planted: the plain search's and the brute force's alpha, never more
    nodes than the plain search, and a stopped search's bound still holds."""

    @staticmethod
    def planted(rng, smallest=2, density=(0.1, 0.9)):
        n = rng.randint(smallest, 12)
        g, sigma = graph_with_automorphism(n, rng.uniform(*density), rng, rng.random() < 0.5)
        return g, powers(sigma) if rng.random() < 0.5 else [sigma]

    def test_same_alpha_and_no_more_nodes(self):
        rng = random.Random(41)
        fewer = 0
        for _ in range(400):
            # most small graphs are settled at the root; these branch more often
            g, symmetries = self.planted(rng, 8, (0.2, 0.6))
            alpha, _ = brute_alpha_and_sets(g)
            adj = g.complement().adj
            plain, pruned = _CliqueSearch(adj, 60.0), _CliqueSearch(adj, 60.0)
            assert len(plain.maximise()) == alpha
            witness = pruned.maximise(symmetries=symmetries)
            assert len(witness) == alpha and is_independent(g, witness)
            assert pruned.deadline.ticks <= plain.deadline.ticks
            fewer += pruned.deadline.ticks < plain.deadline.ticks
            res = max_independent_set(g, symmetries=symmetries)
            assert (res.value, res.exact, res.method) == (alpha, True, "exact-bnb")
        assert fewer >= 10

    def test_a_map_that_is_no_automorphism_raises(self):
        rng = random.Random(42)
        rejected = 0
        for _ in range(100):
            g, symmetries = self.planted(rng)
            other = rng.sample(range(g.n), g.n)
            if not maps_edges_onto_edges(g, other):
                with pytest.raises(ValueError, match="symmetry 1 is not an automorphism"):
                    max_independent_set(g, symmetries=[symmetries[0], other])
                rejected += 1
            for bad in ([0] * g.n, list(range(g.n + 1)), list(range(-1, g.n - 1))):
                with pytest.raises(ValueError, match="symmetry 0 is not a permutation"):
                    max_independent_set(g, symmetries=[bad])
        assert rejected > 30

    @pytest.mark.usefixtures("one_worker")
    def test_every_stop_holds_a_bound_at_least_alpha(self, monkeypatch):
        rng = random.Random(43)
        stops = 0
        while stops < 300:
            g, symmetries = self.planted(rng)
            alpha, _ = brute_alpha_and_sets(g)
            counter = _StopAt()
            monkeypatch.setattr(stable, "_Deadline", lambda seconds: counter)
            assert max_independent_set(g, symmetries=symmetries).value == alpha
            for stop in range(2, counter.ticks + 1):
                monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                res = max_independent_set(g, symmetries=symmetries)
                assert (res.exact, res.method) == (False, "bnb-bound")
                assert alpha <= res.value <= greedy_coloring_alpha_bar(g)
                stops += 1


class TestOrbitListing:
    """collect given verified automorphisms, on random graphs (n <= 14)
    with one planted: the plain listing, count and truncation flag, with
    and without a count cap or a `keep` below the count."""

    @staticmethod
    def planted(rng):
        n = rng.randint(3, 14)
        g, sigma = graph_with_automorphism(n, rng.uniform(0.1, 0.8), rng, rng.random() < 0.5)
        return g, some_powers(rng, sigma)

    def test_same_listing_as_the_plain_search_and_the_brute_force(self):
        rng = random.Random(51)
        fewer = 0
        for _ in range(300):
            g, symmetries = self.planted(rng)
            alpha, sets = brute_alpha_and_sets(g)
            for size in {alpha, max(alpha - 1, 1)}:
                plain = enumerate_maximum_independent_sets(g, size)
                res = enumerate_maximum_independent_sets(g, size, symmetries=symmetries)
                assert res == plain
                assert res.count == count_sets_of_size(g, size) and not res.truncated
                if size == alpha:
                    assert list(res.sets) == sets
            adj = g.complement().adj
            plain, pruned = _CliqueSearch(adj, 60.0), _CliqueSearch(adj, 60.0)
            assert plain.collect(alpha, 5000) == pruned.collect(alpha, 5000, None, symmetries)
            assert pruned.deadline.ticks <= plain.deadline.ticks
            fewer += pruned.deadline.ticks < plain.deadline.ticks
        assert fewer >= 30

    def test_a_listing_past_the_cap_or_keep_is_the_plain_result(self):
        rng = random.Random(52)
        fell_back = 0
        for _ in range(200):
            g, symmetries = self.planted(rng)
            alpha, _ = brute_alpha_and_sets(g)
            size = max(alpha - 1, 1)
            total = count_sets_of_size(g, size)
            for cap in {total - 1, total, max(total // 2, 1), 5000} - {0}:
                for keep in {None, 0, total - 1, total, cap // 2}:
                    plain = enumerate_maximum_independent_sets(g, size, Budget(count_cap=cap), keep)
                    res = enumerate_maximum_independent_sets(
                        g, size, Budget(count_cap=cap), keep, symmetries
                    )
                    assert res == plain, (cap, keep)
                    limit = cap if keep is None else min(cap, keep)
                    fell_back += size > 2 and total > limit
        assert fell_back > 100

    @pytest.mark.usefixtures("one_worker")
    def test_every_stop_lists_a_part_of_the_full_listing(self, monkeypatch):
        rng = random.Random(53)
        stops = 0
        while stops < 400:
            g, symmetries = self.planted(rng)
            alpha, sets = brute_alpha_and_sets(g)
            full, total = set(sets), len(sets)
            for cap in {5000, max(total // 2, 1)}:
                counter = _StopAt()
                monkeypatch.setattr(stable, "_Deadline", lambda seconds: counter)
                enumerate_maximum_independent_sets(
                    g, alpha, Budget(count_cap=cap), symmetries=symmetries
                )
                for stop in range(1, counter.ticks + 1):
                    monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                    res = enumerate_maximum_independent_sets(
                        g, alpha, Budget(count_cap=cap), symmetries=symmetries
                    )
                    assert res.truncated
                    assert len(res.sets) == res.count <= min(cap, total)
                    assert set(res.sets) <= full
                    assert list(res.sets) == sorted(res.sets)
                    stops += 1

    def test_each_board_map_alone_gives_the_queen_listing(self):
        # a quarter turn alone reaches its square and cube only through the worklist
        for side in (5, 6, 7, 8):
            g = queen_graph(side, side)
            plain = enumerate_maximum_independent_sets(g, side)
            for sigma in board_symmetries(g):
                assert enumerate_maximum_independent_sets(g, side, symmetries=[sigma]) == plain

    def test_a_map_that_is_no_automorphism_raises(self):
        rng = random.Random(54)
        rejected = 0
        for _ in range(100):
            g, symmetries = self.planted(rng)
            alpha, _ = brute_alpha_and_sets(g)
            other = rng.sample(range(g.n), g.n)
            # checked whatever the target size, branching root or not
            for size in {1, alpha}:
                if not maps_edges_onto_edges(g, other):
                    with pytest.raises(ValueError, match="symmetry 1 is not an automorphism"):
                        enumerate_maximum_independent_sets(
                            g, size, symmetries=[symmetries[0], other]
                        )
                    rejected += 1
                with pytest.raises(ValueError, match="symmetry 0 is not a permutation"):
                    enumerate_maximum_independent_sets(g, size, symmetries=[[0] * g.n])
        assert rejected > 30


class TestStoppedCollect:
    @pytest.mark.usefixtures("one_worker")
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

    @pytest.mark.usefixtures("one_worker")
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

    def test_orbit_pruned_maximise_matches_node_for_node(self):
        rng = random.Random(14)
        pruned = 0
        for _ in range(200):
            n = rng.randint(8, 40)
            g, sigma = graph_with_automorphism(n, rng.uniform(0.1, 0.9), rng, rng.random() < 0.5)
            adj = g.complement().adj
            symmetries = powers(sigma) if rng.random() < 0.5 else [sigma]
            search = _CliqueSearch(adj, 60.0)
            got = search.maximise(symmetries=symmetries)
            expected = reference_clique_search(adj, symmetries=symmetries)
            assert (got, search.deadline.ticks) == expected
            pruned += expected[1] < reference_clique_search(adj)[1]
        assert pruned >= 30

    @pytest.mark.usefixtures("one_worker")
    def test_orbit_pruned_collect_matches_node_for_node(self):
        rng = random.Random(15)
        pruned = fell_back = 0
        for _ in range(200):
            n = rng.randint(8, 40)
            g, sigma = graph_with_automorphism(n, rng.uniform(0.1, 0.9), rng, rng.random() < 0.5)
            adj = g.complement().adj
            symmetries = some_powers(rng, sigma)
            omega = len(reference_clique_search(adj)[0])
            for target in {omega, max(omega - 1, 1)}:
                (_, count, _), plain_nodes = reference_clique_search(adj, target)
                for cap, keep in [(5000, None), (5000, count - 1), (max(count // 2, 1), None)]:
                    search = _CliqueSearch(adj, 60.0)
                    got = search.collect(target, cap, keep, symmetries)
                    expected = reference_clique_search(
                        adj, target, cap=cap, keep=keep, symmetries=symmetries
                    )
                    assert (got, search.deadline.ticks) == expected, (target, cap, keep)
                    pruned += expected[1] < plain_nodes
                    fell_back += expected[1] > plain_nodes
        assert pruned >= 30 and fell_back >= 30


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestSplitRoot:
    """The root split across processes, with _workers patched to 2 and 3
    and the work gate to 0, so that small searches split too: collect's and
    maximise's one-worker results on the graphs of the node-for-node,
    orbit and queen tests, the one-worker node count whenever the search
    did not stop, and no worker left behind."""

    @pytest.fixture(autouse=True)
    def no_gate(self, monkeypatch):
        monkeypatch.setattr(stable, "_GATE", 0)

    @pytest.fixture
    def splits(self, monkeypatch):
        """The number of roots split so far, as a one-item list."""
        calls = [0]
        split = _CliqueSearch._split

        def counted(search, branches, k):
            calls[0] += 1
            return split(search, branches, k)

        monkeypatch.setattr(_CliqueSearch, "_split", counted)
        return calls

    @staticmethod
    def at_each_worker_count(monkeypatch, adj, run):
        """run(search) and the search's node count at 1, 2 and 3 workers."""
        results = []
        for k in (1, 2, 3):
            monkeypatch.setattr(stable, "_workers", lambda k=k: k)
            search = _CliqueSearch(adj, 60.0)
            results.append((run(search), search.deadline.ticks))
        return results

    # each split costs a fork, a few ms: these take the first 60 and 100
    # graphs of the tests they follow, which still split over 1000 roots

    def test_reference_graphs_give_the_one_worker_result(self, monkeypatch, splits):
        # the graphs and (cap, keep) cases of test_maximise_and_collect_match_node_for_node
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng.randint(8, 40), rng.uniform(0.1, 0.9), rng)
            adj = g.complement().adj
            omega = len(_CliqueSearch(adj, 60.0).maximise())
            for target in {omega, max(omega - 1, 1)}:
                count = _CliqueSearch(adj, 60.0).collect(target, 5000)[1]
                for cap, keep in [
                    (5000, None), (5000, count - 1), (5000, count + 1),
                    (max(count // 2, 1), None), (max(count // 2, 1), 0),
                ]:
                    one, *split = self.at_each_worker_count(
                        monkeypatch, adj, lambda s: s.collect(target, cap, keep)
                    )
                    for got in split:
                        assert got[0] == one[0], (target, cap, keep)
                        stopped = one[0][2]
                        assert stopped or got[1] == one[1], (target, cap, keep)
        assert splits[0] > 1000

    def test_orbit_listing_graphs_give_the_one_worker_result(self, monkeypatch, splits):
        # the graphs of test_same_listing_as_the_plain_search_and_the_brute_force
        rng = random.Random(51)
        for _ in range(100):
            g, symmetries = TestOrbitListing.planted(rng)
            alpha, _ = brute_alpha_and_sets(g)
            adj = g.complement().adj
            for size in {alpha, max(alpha - 1, 1)}:
                total = count_sets_of_size(g, size)
                for cap, keep in [(5000, None), (total, total - 1), (max(total // 2, 1), None)]:
                    for maps in ((), symmetries):
                        one, *split = self.at_each_worker_count(
                            monkeypatch, adj, lambda s: s.collect(size, cap, keep, maps)
                        )
                        for got in split:
                            assert got[0] == one[0], (size, cap, keep, maps)
                        # the orbit search may stop at the limit and fall back
                        if (cap, keep) == (5000, None):
                            assert all(got[1] == one[1] for got in split)
        assert splits[0] > 1000

    @pytest.mark.parametrize("side", [8, 9, 10, 11])
    def test_queen_boards_give_the_one_worker_result(self, monkeypatch, splits, side):
        g = queen_graph(side, side)
        adj, maps = g.complement().adj, board_symmetries(g)
        # the pipeline's call (the board maps, keep 5000), the plain listing,
        # a count cap inside the listing, and a count past keep
        for cap, keep, symmetries in [
            (5000, 5000, maps), (5000, None, ()), (side * 10, None, ()), (5000, 10, ()),
        ]:
            one, *split = self.at_each_worker_count(
                monkeypatch, adj, lambda s: s.collect(side, cap, keep, symmetries)
            )
            for got in split:
                assert got[0] == one[0]
                assert one[0][2] or got[1] == one[1]
        assert splits[0] >= 8

    def test_a_stub_deadline_that_stops_every_process_lists_a_subset(self, monkeypatch, splits):
        rng = random.Random(12)
        stops = truncated = 0
        while stops < 800:
            g = random_graph(rng.randint(8, 18), rng.uniform(0.1, 0.9), rng)
            alpha, sets = brute_alpha_and_sets(g)
            if alpha < 3:
                continue  # collect's root branches only for targets of 3 or more
            full = set(sets)
            for k in (2, 3):
                monkeypatch.setattr(stable, "_workers", lambda k=k: k)
                for stop in range(2, 12):
                    # each process counts checks on its own copy: the root's
                    # is the first, so the second is each process's first node
                    monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                    res = enumerate_maximum_independent_sets(g, alpha)
                    assert len(res.sets) == res.count <= len(full)
                    assert set(res.sets) <= full and list(res.sets) == sorted(res.sets)
                    assert res.truncated or res.count == len(full)
                    assert res.truncated or stop > 2
                    stops += 1
                    truncated += res.truncated
        assert splits[0] > 200 and truncated > 200

    @pytest.fixture
    def resplits(self, monkeypatch):
        """The number of split maximise searches so far that went on at a
        raised floor (the merge returned the branches after the raise),
        as a one-item list."""
        calls = [0]
        merge = _CliqueSearch._merge_floor

        def counted(search, *args):
            rest = merge(search, *args)
            calls[0] += bool(rest)
            return rest

        monkeypatch.setattr(_CliqueSearch, "_merge_floor", counted)
        return calls

    @staticmethod
    def maximise_at_each_worker_count(monkeypatch, adj, **kwargs):
        """Check that maximise(**kwargs) gives one worker's witness and node
        count at 2 and 3 workers."""
        for k in (1, 2, 3):
            monkeypatch.setattr(stable, "_workers", lambda k=k: k)
            search = _CliqueSearch(adj, 60.0)
            got = search.maximise(**kwargs), search.deadline.ticks
            if k == 1:
                one = got
            assert got == one, (k, kwargs)

    def test_maximise_on_the_reference_graphs_gives_the_one_worker_result(
        self, monkeypatch, splits, resplits
    ):
        # the graphs and stops of test_maximise_and_collect_match_node_for_node
        rng = random.Random(13)
        resplit = 0
        for _ in range(200):
            g = random_graph(rng.randint(8, 40), rng.uniform(0.1, 0.9), rng)
            adj = g.complement().adj
            omega = len(_CliqueSearch(adj, 60.0).maximise())
            before = resplits[0]
            for stop in (None, omega, omega - 1):
                self.maximise_at_each_worker_count(monkeypatch, adj, stop=stop)
            resplit += resplits[0] > before
        assert splits[0] > 500 and resplit >= 20

    def test_maximise_on_the_planted_graphs_gives_the_one_worker_result(
        self, monkeypatch, splits, resplits
    ):
        # the graphs of TestOrbitPruning.test_same_alpha_and_no_more_nodes,
        # then those of test_orbit_pruned_maximise_matches_node_for_node
        rng = random.Random(41)
        graphs = [TestOrbitPruning.planted(rng, 8, (0.2, 0.6)) for _ in range(400)]
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(8, 40)
            g, sigma = graph_with_automorphism(n, rng.uniform(0.1, 0.9), rng, rng.random() < 0.5)
            graphs.append((g, powers(sigma) if rng.random() < 0.5 else [sigma]))
        resplit = 0
        for g, symmetries in graphs:
            before = resplits[0]
            for maps in ((), symmetries):
                self.maximise_at_each_worker_count(
                    monkeypatch, g.complement().adj, symmetries=maps
                )
            resplit += resplits[0] > before
        assert splits[0] > 200 and resplit >= 20

    def test_queen9_9_alpha_tilde_gives_the_one_worker_result(self, monkeypatch, splits):
        adj, symmetries = queen_orbits(9)
        # alpha~ is 7: a stop at it, below it, and none
        for stop in (None, 7, 6):
            self.maximise_at_each_worker_count(monkeypatch, adj, stop=stop, symmetries=symmetries)
        search = _CliqueSearch(adj, 60.0)
        assert len(search.maximise(symmetries=symmetries)) == 7
        assert search.deadline.ticks == 2776 and splits[0] >= 6

    def test_a_walked_prefix_then_a_split_gives_the_one_worker_result(self, monkeypatch, splits):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng.randint(20, 40), rng.uniform(0.2, 0.8), rng)
            adj = g.complement().adj
            omega = len(_CliqueSearch(adj, 60.0).maximise())
            for run in (
                lambda s: s.maximise(),
                lambda s: s.collect(omega, 5000),
                lambda s: s.collect(max(omega - 1, 1), 5000, 3),
                lambda s: s.collect(max(omega - 1, 1), 7),
            ):
                monkeypatch.setattr(stable, "_workers", lambda: 1)
                search = _CliqueSearch(adj, 60.0)
                one = run(search), search.deadline.ticks
                # the gate halfway through the search: the branches walked
                # before it are merged first
                monkeypatch.setattr(stable, "_GATE", one[1] // 2)
                for got in self.at_each_worker_count(monkeypatch, adj, run)[1:]:
                    assert got[0] == one[0]
                    # a collect stopped at its cap may count other nodes
                    assert isinstance(one[0], tuple) and one[0][2] or got[1] == one[1]
        assert splits[0] > 100

    def test_a_stub_deadline_that_stops_every_process_holds_a_bound(self, monkeypatch, splits):
        rng = random.Random(18)
        stops = stopped = 0
        while stops < 600:
            g = random_graph(rng.randint(20, 40), rng.uniform(0.2, 0.8), rng)
            alpha = len(reference_clique_search(g.complement().adj)[0])
            greedy = greedy_coloring_alpha_bar(g)
            for k in (2, 3):
                monkeypatch.setattr(stable, "_workers", lambda k=k: k)
                for stop in range(2, 12):
                    # each process counts checks on its own copy: the root's
                    # is the first, so the second is each process's first node
                    monkeypatch.setattr(stable, "_Deadline", lambda seconds: _StopAt(stop))
                    res = max_independent_set(g)
                    assert alpha <= res.value <= greedy
                    assert res.exact or res.method == "bnb-bound"
                    stops += 1
                    stopped += not res.exact
        assert splits[0] > 200 and stopped > 200

    def test_no_worker_outlives_a_call(self, monkeypatch, splits):
        monkeypatch.setattr(stable, "_workers", lambda: 2)
        g = queen_graph(9, 9)
        full = enumerate_maximum_independent_sets(g, 9)
        assert (full.count, full.truncated) == (352, False) and no_child_left()
        capped = enumerate_maximum_independent_sets(g, 9, Budget(count_cap=100))
        assert (capped.count, capped.truncated, len(capped.sets)) == (100, True, 100)
        assert no_child_left()
        stopped = enumerate_maximum_independent_sets(
            queen_graph(8, 12), 8, Budget(time_limit=1e-3), keep=0
        )
        assert stopped.truncated and 0 < stopped.count < 195270
        assert no_child_left()
        assert splits[0] == 3

    def test_a_killed_worker_leaves_its_branches_to_the_caller(self, monkeypatch, splits):
        parent = os.getpid()
        run, dump = _CliqueSearch._run, pickle.dump
        shares_here = []  # the branch lists this process searched

        def counted(search, branches, floor):
            if os.getpid() == parent:
                shares_here.append(branches)
            return run(search, branches, floor)

        def killed_before_searching(search, branches, floor):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return counted(search, branches, floor)

        sent = []  # each worker's own copy starts empty

        def killed_after_one_record(record, pipe, *args):
            if sent:
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(record)
            dump(record, pipe, *args)
            pipe.flush()

        g = queen_graph(9, 9)
        monkeypatch.setattr(stable, "_workers", lambda: 1)
        one = enumerate_maximum_independent_sets(g, 9)
        for k in (2, 3):
            monkeypatch.setattr(stable, "_workers", lambda k=k: k)
            for run_as, dump_as in ((killed_before_searching, dump), (counted, killed_after_one_record)):
                shares_here.clear()
                with monkeypatch.context() as m:
                    m.setattr(_CliqueSearch, "_run", run_as)
                    m.setattr(stable.pickle, "dump", dump_as)
                    assert enumerate_maximum_independent_sets(g, 9) == one
                # its own share, then what each of the k - 1 dead workers left
                assert len(shares_here) == k
                assert no_child_left()
        assert splits[0] == 4

    def test_a_failed_fork_leaves_its_branches_to_the_caller(self, monkeypatch, splits):
        g = queen_graph(9, 9)
        monkeypatch.setattr(stable, "_workers", lambda: 1)
        one = enumerate_maximum_independent_sets(g, 9)
        fork = os.fork
        forks = [0]

        def second_fails():
            forks[0] += 1
            if forks[0] == 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(stable.os, "fork", second_fails)
        monkeypatch.setattr(stable, "_workers", lambda: 3)
        assert enumerate_maximum_independent_sets(g, 9) == one
        assert forks[0] == 2 and splits[0] == 1
        assert no_child_left()

    def test_no_worker_outlives_a_maximise(self, monkeypatch, splits):
        monkeypatch.setattr(stable, "_workers", lambda: 2)
        adj, symmetries = queen_orbits(9)
        assert len(_CliqueSearch(adj, 60.0).maximise(symmetries=symmetries)) == 7
        assert no_child_left()
        # ends at `stop`, inside the split
        assert len(_CliqueSearch(adj, 60.0).maximise(7, symmetries)) == 7
        assert no_child_left()
        search = _CliqueSearch(adj, 1e-3)
        with pytest.raises(_Timeout):
            search.maximise()
        assert search.bound >= 7 and no_child_left()
        assert splits[0] >= 3

    def test_a_killed_worker_leaves_its_maximise_branches_to_the_caller(
        self, monkeypatch, splits
    ):
        parent = os.getpid()
        run, dump = _CliqueSearch._run, pickle.dump

        def killed_before_searching(search, branches, floor):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(search, branches, floor)

        sent = []  # each worker's own copy starts empty

        def killed_after_one_record(record, pipe, *args):
            if sent:
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(record)
            dump(record, pipe, *args)
            pipe.flush()

        adj, symmetries = queen_orbits(9)
        monkeypatch.setattr(stable, "_workers", lambda: 1)
        search = _CliqueSearch(adj, 60.0)
        one = search.maximise(symmetries=symmetries), search.deadline.ticks
        for k in (2, 3):
            monkeypatch.setattr(stable, "_workers", lambda k=k: k)
            for run_as, dump_as in ((killed_before_searching, dump), (run, killed_after_one_record)):
                with monkeypatch.context() as m:
                    m.setattr(_CliqueSearch, "_run", run_as)
                    m.setattr(stable.pickle, "dump", dump_as)
                    search = _CliqueSearch(adj, 60.0)
                    assert (search.maximise(symmetries=symmetries), search.deadline.ticks) == one
                assert no_child_left()
        assert splits[0] >= 4

    def test_a_failed_fork_leaves_its_maximise_branches_to_the_caller(self, monkeypatch, splits):
        adj, symmetries = queen_orbits(9)
        monkeypatch.setattr(stable, "_workers", lambda: 1)
        search = _CliqueSearch(adj, 60.0)
        one = search.maximise(symmetries=symmetries), search.deadline.ticks
        fork = os.fork
        forks = [0]

        def second_fails():
            forks[0] += 1
            if forks[0] == 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(stable.os, "fork", second_fails)
        monkeypatch.setattr(stable, "_workers", lambda: 3)
        search = _CliqueSearch(adj, 60.0)
        assert (search.maximise(symmetries=symmetries), search.deadline.ticks) == one
        assert forks[0] >= 2 and splits[0] >= 1
        assert no_child_left()

    def test_one_worker_while_a_thread_is_alive(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert stable._workers() == 1
        finally:
            done.set()
            thread.join()
        assert stable._workers() == len(os.sched_getaffinity(0))


class TestWorkGate:
    """The root forks only once the search has spent stable._GATE nodes."""

    def test_a_search_under_the_gate_never_forks(self, monkeypatch):
        forks = [0]

        def no_fork():
            forks[0] += 1
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(stable.os, "fork", no_fork)
        monkeypatch.setattr(stable, "_workers", lambda: 2)
        rng = random.Random(19)
        for _ in range(200):
            g = random_graph(rng.randint(8, 16), rng.uniform(0.1, 0.9), rng)
            alpha, sets = brute_alpha_and_sets(g)
            adj = g.complement().adj
            search = _CliqueSearch(adj, 60.0)
            assert len(search.maximise()) == alpha
            listing = _CliqueSearch(adj, 60.0)
            assert listing.collect(alpha, 5000) == (sets, len(sets), False)
            assert max(search.deadline.ticks, listing.deadline.ticks) < stable._GATE
        assert forks[0] == 0
        # a search past the gate does try to fork, and the failed fork
        # leaves its branches to the caller
        assert enumerate_maximum_independent_sets(queen_graph(9, 9), 9).count == 352
        assert forks[0] == 1


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


class TestSmallestLastOrder:
    def test_bucket_peel_matches_the_plain_peel(self):
        rng = random.Random(31)
        edge_cases = [
            complete_graph(1), Graph.from_edges(7, []),
            complete_graph(9), Graph.from_edges(8, [(1, 4), (4, 6), (1, 6)]),
            Graph.from_edges(10, [(0, 9)]),
        ]
        graphs = edge_cases + [
            random_graph(rng.randint(1, 60), rng.uniform(0.02, 0.98), rng)
            for _ in range(150)
        ]
        for g in graphs:
            adj = list(g.adj)
            assert _smallest_last(adj) == smallest_last_order(adj), adj

    def test_no_vertex_has_more_than_degeneracy_neighbours_before_it(self):
        rng = random.Random(32)
        for _ in range(60):
            adj = random_graph(rng.randint(1, 12), rng.uniform(0.05, 0.95), rng).adj
            order = _smallest_last(adj)
            d = degeneracy(adj)
            before = 0
            for v in order:
                assert (adj[v] & before).bit_count() <= d
                before |= 1 << v


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


def insertions4_3_complement():
    return insertions_graph(4, 3).complement().adj


def queen_disjointness(k):
    """The graph alpha~'s clique search runs on for queen k_k: its maximum
    independent sets, adjacent when disjoint."""
    sets = enumerate_maximum_independent_sets(queen_graph(k, k), k).sets
    return build_mis_graph(sets).to_graph().complement().adj


def queen9_9_disjointness():
    return queen_disjointness(9)


def queen10_10_disjointness():
    return queen_disjointness(10)


def queen_orbits(k):
    """queen_disjointness(k) with the queen board's symmetries as
    permutations of its vertices, the maximum independent sets."""
    g = queen_graph(k, k)
    mg = build_mis_graph(enumerate_maximum_independent_sets(g, k).sets)
    return mg.to_graph().complement().adj, _member_maps(mg, board_symmetries(g))


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
        (queen9_9_disjointness, None, 19007, 7),
        (queen8_8_complement, 8, 1199, 92),
        (gnp90_complement, None, 761, 15),
        (gnp90_complement, 15, 970, 3),
        (insertions4_3_complement, None, 187, 39),
        pytest.param(queen10_10_disjointness, None, 338967, 8, marks=pytest.mark.long),
    ], ids=[
        "queen9_9-alpha-tilde", "queen8_8-collect", "gnp90-maximise", "gnp90-collect",
        "4-Insertions_3-maximise", "queen10_10-alpha-tilde",
    ])
    def test_node_count(self, adj, target, nodes, result):
        search = _CliqueSearch(adj(), 60.0)
        if target is None:
            assert len(search.maximise()) == result
        else:
            assert search.collect(target, 5000)[1:] == (result, False)
        assert search.deadline.ticks == nodes

    # root-level orbit pruning under the board's 8 symmetries
    @pytest.mark.parametrize("side, nodes, result", [
        (9, 2776, 7),
        pytest.param(10, 44139, 8, marks=pytest.mark.long),
    ], ids=["queen9_9-alpha-tilde-orbits", "queen10_10-alpha-tilde-orbits"])
    def test_node_count_with_orbits(self, side, nodes, result):
        adj, symmetries = queen_orbits(side)
        search = _CliqueSearch(adj, 60.0)
        assert len(search.maximise(symmetries=symmetries)) == result
        assert search.deadline.ticks == nodes

    # alpha and the enumeration on the queen graph itself, pruned by its board maps
    @pytest.mark.parametrize("side, target, nodes, result", [
        (8, 8, 275, 92),
        (9, 9, 1217, 352),
        (11, None, 5686, 11),
    ], ids=["queen8_8-collect-orbits", "queen9_9-collect-orbits", "queen11_11-alpha-orbits"])
    def test_node_count_on_the_board_with_orbits(self, side, target, nodes, result):
        g = queen_graph(side, side)
        search = _CliqueSearch(g.complement().adj, 60.0)
        symmetries = board_symmetries(g)
        if target is None:
            assert len(search.maximise(symmetries=symmetries)) == result
        else:
            assert search.collect(target, 5000, None, symmetries)[1:] == (result, False)
        assert search.deadline.ticks == nodes
