"""Partition arithmetic, the move operators, and the brute-force oracle."""

import pytest

from sumcol.partitions import (
    BoundParams,
    InfeasibleParamsError,
    IntegerPartition,
    change,
    cost,
    enumerate_admissible,
    is_admissible,
    lattice_dag,
    oracle_min,
    predecessors,
    successors,
)

P = IntegerPartition

# number of unrestricted partitions of 1..10
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def all_partitions(n: int):
    """Every partition of n, via the unconstrained parameter block."""
    return list(enumerate_admissible(BoundParams(n, n, 1, n)))


class TestIntegerPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            P((3, 0))
        with pytest.raises(ValueError, match="non-increasing"):
            P((2, 3))

    def test_accessors(self):
        a = P((4, 2, 1))
        assert a.n == 7
        assert [a.line(i) for i in range(1, 6)] == [4, 2, 1, 0, 0]
        assert str(a) == "(4,2,1)"
        assert a.young() == "####\n##\n#"
        with pytest.raises(ValueError):
            a.line(0)

    def test_empty(self):
        assert P(()).n == 0
        assert cost(P(())) == 0

    def test_cost_bills_squares_by_line(self):
        assert cost(P((6, 2, 1))) == 6 + 2 * 2 + 3 * 1
        assert cost(P((1, 1, 1, 1))) == 10


class TestChange:
    def test_moves_one_square(self):
        assert change(P((3, 2, 1)), 1, 3) == P((2, 2, 2))
        assert change(P((2, 2, 2)), 3, 1) == P((3, 2, 1))

    def test_can_open_a_new_line(self):
        assert change(P((2, 2)), 2, 3) == P((2, 1, 1))

    def test_drops_emptied_trailing_line(self):
        assert change(P((2, 1)), 2, 1) == P((3,))

    def test_rejects_bad_moves(self):
        with pytest.raises(ValueError, match="differ"):
            change(P((2, 1)), 1, 1)
        with pytest.raises(ValueError, match="no square"):
            change(P((2, 1)), 3, 4)
        with pytest.raises(ValueError, match="non-increasing"):
            change(P((2, 2)), 1, 2)
        with pytest.raises(ValueError, match="1-based"):
            change(P((2, 1)), 0, 1)


class TestSuccessors:
    def test_documented_example(self):
        assert successors(P((4, 4, 2, 1))) == {P((4, 3, 3, 1)), P((4, 4, 1, 1, 1))}

    def test_square_skips_to_first_shorter_line(self):
        # moving from line 1 must skip line 2 (equal height after the move)
        assert successors(P((3, 2, 1))) == {P((2, 2, 2)), P((3, 1, 1, 1))}

    def test_column_is_the_unique_fixed_point(self):
        for n in range(1, 11):
            for a in all_partitions(n):
                succ = successors(a)
                if a.parts == (1,) * n:
                    assert succ == set()
                else:
                    assert succ

    def test_cost_delta_is_line_distance(self):
        # every successor move costs exactly the number of lines the square drops
        for n in range(1, 9):
            for a in all_partitions(n):
                for b in successors(a):
                    drop = [i for i in range(1, n + 1) if b.line(i) < a.line(i)]
                    gain = [i for i in range(1, n + 2) if b.line(i) > a.line(i)]
                    assert len(drop) == 1 and len(gain) == 1
                    assert cost(b) - cost(a) == gain[0] - drop[0] > 0


class TestAdmissibility:
    def test_checks_each_constraint(self):
        p = BoundParams(9, 6, 3, 1)
        assert is_admissible(P((6, 2, 1)), p)
        assert not is_admissible(P((6, 2, 2)), p)  # wrong total
        assert not is_admissible(P((7, 1, 1)), p)  # part above cap
        assert not is_admissible(P((6, 6, 6)), BoundParams(18, 6, 3, 2))  # cap count
        assert not is_admissible(P((6, 3)), p)  # too few lines

    def test_m_zero_forbids_full_lines(self):
        p = BoundParams(6, 3, 1, 0)
        assert not is_admissible(P((3, 2, 1)), p)
        assert is_admissible(P((2, 2, 2)), p)


class TestPredecessors:
    def test_documented_example(self):
        p = BoundParams(11, 5, 4, 1)
        assert predecessors(P((4, 4, 2, 1)), p) == {P((5, 3, 2, 1))}

    def test_requires_admissible_input(self):
        with pytest.raises(ValueError, match="not admissible"):
            predecessors(P((5, 4)), BoundParams(9, 6, 3, 1))

    def test_respects_part_cap_headroom(self):
        # with m = 0 no line may reach alpha_bar = 3
        p = BoundParams(6, 3, 2, 0)
        assert predecessors(P((2, 2, 2)), p) == set()
        # with m = 1 the same move becomes legal
        p1 = BoundParams(6, 3, 2, 1)
        assert predecessors(P((2, 2, 2)), p1, target_line_test=True) == {P((3, 2, 1))}

    def test_mandatory_square_pins_line_s_lower(self):
        # the single square on line 3 = s_lower may not move up
        p = BoundParams(5, 3, 3, 1)
        assert predecessors(P((3, 1, 1)), p) == set()

    def test_column_never_has_predecessors(self):
        for n in range(2, 9):
            p = BoundParams(n, n, 1, n)
            assert predecessors(P((1,) * n), p) == set()

    def test_target_line_variant_is_a_superset(self):
        for n in range(1, 10):
            for alpha_bar in range(1, n + 1):
                for m in (0, 1, 2, n):
                    p = BoundParams(n, alpha_bar, 1, m)
                    for a in enumerate_admissible(p):
                        narrow = predecessors(a, p)
                        wide = predecessors(a, p, target_line_test=True)
                        assert narrow <= wide

    def test_moves_are_inverse_successor_moves(self):
        # every claimed predecessor b really has a as one of its successors
        for n in range(1, 10):
            p = BoundParams(n, max(2, n - 2), 1, 2)
            for a in enumerate_admissible(p):
                for b in predecessors(a, p):
                    assert a in successors(b)
                    assert cost(b) < cost(a)


class TestEnumerationAndOracle:
    def test_unconstrained_counts_match_partition_numbers(self):
        for n, expected in enumerate(PARTITION_COUNTS, start=1):
            assert len(all_partitions(n)) == expected

    def test_yields_largest_first_without_duplicates(self):
        got = list(enumerate_admissible(BoundParams(6, 4, 2, 1)))
        assert len(set(got)) == len(got)
        assert got[0] == P((4, 2))
        assert got == sorted(got, key=lambda a: a.parts, reverse=True)

    def test_respects_all_constraints(self):
        p = BoundParams(10, 4, 3, 2)
        for a in enumerate_admissible(p):
            assert is_admissible(a, p)

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            list(enumerate_admissible(BoundParams(50, 5, 1, 10)))

    def test_documented_oracle_example(self):
        best, best_cost = oracle_min(BoundParams(9, 6, 3, 1))
        assert best == P((6, 2, 1))
        assert best_cost == 13

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParamsError):
            oracle_min(BoundParams(4, 2, 5, 2))  # s_lower > n
        with pytest.raises(InfeasibleParamsError):
            oracle_min(BoundParams(4, 1, 1, 3))  # all-ones blocked by m

    def test_all_ones_needs_m_at_least_n(self):
        best, best_cost = oracle_min(BoundParams(4, 1, 1, 4))
        assert best == P((1, 1, 1, 1))
        assert best_cost == 10


class TestLatticeDag:
    def test_documented_nine_vertex_example(self):
        dag = lattice_dag(BoundParams(9, 6, 3, 1))
        assert dag.nodes[dag.optimum] == P((6, 2, 1))
        assert dag.costs[dag.optimum] == 13
        assert dag.optimum in dag.predecessor_free
        # every arc is a genuine successor move with the right cost delta
        for src, dst, delta in dag.arcs:
            assert dag.nodes[dst] in successors(dag.nodes[src])
            assert delta == dag.costs[dst] - dag.costs[src] > 0

    def test_text_and_dot_outputs(self):
        dag = lattice_dag(BoundParams(6, 3, 2, 1))
        text = dag.to_text()
        assert "optimum" in text and "successors:" in text
        dot = dag.to_dot()
        assert dot.startswith("digraph")
        assert 'peripheries="2"' in dot
        assert dot.count("->") == len(dag.arcs)

    def test_infeasible_params_raise(self):
        with pytest.raises(InfeasibleParamsError):
            lattice_dag(BoundParams(3, 1, 1, 0))

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            lattice_dag(BoundParams(40, 6, 3, 1))
