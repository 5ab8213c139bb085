"""Intersection structure of the maximum independent sets.

Once the maximum independent sets of a graph are enumerated, they become
vertices of a new graph where two sets are adjacent iff they share a
vertex. The stability number of that intersection graph, alpha~, says how
many color classes of maximum size can coexist, which caps the m parameter
of the bound formulas.

alpha~ never exceeds its cap, min(#sets, |union| // smallest set size).
When equal-size sets can tile their union at that cap, reaching it is an
exact-cover problem, which Knuth's Algorithm X settles (arXiv cs/0011047)
long before a clique search would; the clique search runs otherwise, and
ends as soon as it reaches the cap. Automorphisms of the graph the sets
came from (the board maps of instances.board_symmetries) permute the
maximum sets; the clique search takes them as permutations of the
members and prunes its root by their orbits.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from . import stable
from .graph import Graph
from .stable import AlphaResult, _allow_depth, _Deadline, _Timeout


@dataclass(frozen=True)
class MisGraph:
    """Intersection graph over independent sets; members keep 0-based ids."""

    members: tuple[tuple[int, ...], ...]
    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.members)

    def to_graph(self) -> Graph:
        return Graph(self.n, self.adj, name="mis-graph")


def _holders(members) -> dict[int, int]:
    """Bitmask over member indices of the members holding each vertex."""
    holders: dict[int, int] = {}
    for i, member in enumerate(members):
        bit = 1 << i
        for v in member:
            holders[v] = holders.get(v, 0) | bit
    return holders


def build_mis_graph(sets) -> MisGraph:
    """Wire up the intersection graph of the given vertex sets.

    Row i is the union of the holder masks of the vertices in set i, less
    set i itself: O(#sets * set size) big-int ORs rather than a test per pair.
    Raises on an empty collection, an empty member set, or duplicate sets.
    """
    members = []
    seen = set()
    for s in sets:
        member = tuple(sorted(s))
        if not member:
            raise ValueError("member sets must be nonempty")
        if member in seen:
            raise ValueError(f"duplicate set {member}")
        seen.add(member)
        members.append(member)
    if not members:
        raise ValueError("need at least one set")
    holders = _holders(members)
    adj = []
    for i, member in enumerate(members):
        row = 0
        for v in member:
            row |= holders[v]
        adj.append(row ^ (1 << i))
    return MisGraph(tuple(members), tuple(adj))


def _exact_cover(mg: MisGraph, deadline: _Deadline) -> tuple[int, ...] | None:
    """Member indices that partition the members' union, or None if none do.

    Algorithm X over bitmasks: branch on the uncovered vertex held by the
    fewest members still disjoint from the chosen ones. Raises _Timeout once
    the deadline passes.
    """
    holders = _holders(mg.members)
    masks = [sum(1 << v for v in member) for member in mg.members]
    adj = mg.adj
    chosen: list[int] = []

    def cover(uncovered: int, alive: int) -> bool:
        deadline.check()
        if not uncovered:
            return True
        options, fewest = 0, None
        rest = uncovered
        while rest:
            b = rest & -rest
            rest ^= b
            held = holders[b.bit_length() - 1] & alive
            count = held.bit_count()
            if fewest is None or count < fewest:
                options, fewest = held, count
                if count <= 1:
                    break
        while options:
            b = options & -options
            options ^= b
            i = b.bit_length() - 1
            chosen.append(i)
            if cover(uncovered & ~masks[i], alive & ~adj[i] & ~b):
                return True
            chosen.pop()
        return False

    _allow_depth(mg.n)
    union = 0
    for mask in masks:
        union |= mask
    try:
        found = cover(union, (1 << mg.n) - 1)
    finally:
        # cover's closure holds cover itself: break that cycle, so masks,
        # holders and the adjacency are freed now, not at a later full GC
        cover = None
    return tuple(sorted(chosen)) if found else None


def _member_maps(
    mg: MisGraph, symmetries: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Each map of the sets' vertices (`sigma[v]` is v's image) as a
    permutation of the member indices: member i goes to its image set.

    Raises ValueError unless the map is one-to-one on the sets' union and
    takes every member onto a member. Such a map permutes the members and
    keeps which of them meet, so each permutation returned is an
    automorphism of the intersection graph, and of its complement, by
    construction: the clique search need not check it again.
    """
    index = {member: i for i, member in enumerate(mg.members)}
    union = set().union(*mg.members)
    maps = []
    for k, sigma in enumerate(symmetries):
        try:
            one_to_one = len({sigma[v] for v in union}) == len(union)
            images = tuple(index.get(tuple(sorted(sigma[v] for v in m))) for m in mg.members)
        except IndexError:
            one_to_one = False
        if not one_to_one or None in images:
            raise ValueError(f"symmetry {k} does not map the sets onto themselves")
        maps.append(images)
    return maps


def max_independent_set(
    mg: MisGraph, time_limit: float = 60.0, symmetries: Sequence[Sequence[int]] = ()
) -> AlphaResult:
    """alpha~ of the intersection graph, searched no further than its cap.

    cap = min(#sets, |union| // smallest set size) bounds alpha~ from above.
    When every set has one size and cap sets of it would exactly cover the
    union, an exact-cover search runs first: a cover makes alpha~ = cap
    ("exact-cover"), and a proof that none exists lowers the cap by one. The
    clique search then runs on the time left and stops at the cap. A search
    stopped by the time limit reports min(the bound it held, cap),
    exact=False (method "cap" when the cap is the smaller).

    `symmetries` are automorphisms of the graph the sets came from, as
    permutations of its vertices, that map the family of sets onto itself
    (those of `instances.board_symmetries`, on the family of all maximum
    independent sets). Once exact cover has not settled the stage, each
    becomes a permutation of the members, an automorphism of the
    intersection graph by construction (_member_maps), and the clique
    search prunes its root by their orbits (see stable.max_independent_set).
    """
    deadline = _Deadline(time_limit, stride=16)
    sizes = {len(member) for member in mg.members}
    smallest = min(sizes)
    union = len(set().union(*mg.members))
    cap = min(mg.n, union // smallest)
    if len(sizes) == 1 and cap * smallest == union:
        try:
            tiling = _exact_cover(mg, deadline)
        except _Timeout:
            return AlphaResult(cap, False, "cap")
        if tiling is not None:
            return AlphaResult(cap, True, "exact-cover", tiling)
        cap -= 1
    maps = _member_maps(mg, symmetries)
    left = deadline.limit - time.monotonic()
    if left > 0:
        res = stable._max_independent_set(mg.to_graph(), left, cap, maps, verify=False)
        if res.exact or res.value <= cap:
            return res
    return AlphaResult(cap, False, "cap")


def alpha_tilde(
    mg: MisGraph, time_limit: float = 60.0, symmetries: Sequence[Sequence[int]] = ()
) -> AlphaResult:
    """Stability number of the intersection graph (exact, or upper bound on timeout).

    The pipeline's alpha~ stage; the whole search runs in max_independent_set.
    It stays a function of its own because the benchmark tracer
    (perfbench/spans.py) wraps both names and nests the search's span in it.
    """
    return max_independent_set(mg, time_limit, symmetries)
