"""Maximum independent set: exact search, or the upper bound a stopped
search holds, and enumeration.

An independent set of g is a clique of complement(g), so both the exact
search and the enumeration run one branch and bound clique kernel
(greedy coloring bound, Tomita-style) over complement adjacency bitmasks.
A node colors its pool with one AND per vertex, against non-neighbour rows
computed once, and records as a branch candidate only a vertex whose color
can still beat the floor (the color bound of Tomita et al.'s MCS, 2010).
It has two modes that differ only in the size a branch must be able to
beat: "maximise" raises that floor with each incumbent, "collect" fixes it
one below the target size and lists every clique of that size. Past a
given number of cliques, collect drops its list and only counts the rest,
by popcounts over its last two levels, so a count needs no memory per set.
A maximise search stopped by its time limit still reports the upper bound
on alpha that its root coloring held (see _CliqueSearch).

Everything is single threaded and deterministic: vertices are relabeled
by descending complement degree (index ascending on ties) and each node
branches in descending color, so identical inputs and limits produce
identical results. Time limits are soft; they are checked between branch
steps and only flip results to inexact/truncated, never change exact
outputs.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .graph import Graph


@dataclass(frozen=True)
class Budget:
    """The enumeration's soft limits: a time limit and a count cap."""

    time_limit: float = 60.0
    count_cap: int = 5000

    def __post_init__(self):
        if self.count_cap <= 0:
            raise ValueError("count_cap must be positive")


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of a stability number computation.

    value is alpha(g) when exact, otherwise an upper bound alpha_bar >= alpha(g).
    method is one of "exact-bnb", "bnb-bound" (the bound a search stopped by
    its time limit held), "provided", or, for alpha~ on an intersection
    graph, "exact-cover" (an exact cover of the sets' union reached the cap)
    and "cap" (the cap bounds a stopped search). It holds what the search
    found, not how long it took: the pipeline times its stages itself.
    """

    value: int
    exact: bool
    method: str
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EnumerationResult:
    """All independent sets of a given size, or a truncated prefix of them.

    sets holds 0-based sorted vertex tuples, canonically sorted, or is
    empty when count passed the caller's `keep` and the sets were only
    counted. When truncated is True the count cap or time limit was hit and
    sets/count cover only what was found. The size is the caller's, and
    like AlphaResult it holds no timing.
    """

    sets: tuple[tuple[int, ...], ...]
    count: int
    truncated: bool


class _Timeout(Exception):
    """A search ran past its deadline."""


class _Done(Exception):
    """A search has what it was asked for: the `stop` size, or a full count cap."""


class _Deadline:
    """Cheap soft deadline: probes the clock every `stride` checks."""

    __slots__ = ("limit", "ticks", "stride")

    def __init__(self, seconds: float, stride: int = 2048):
        if not seconds > 0:  # NaN too: no clock ever passes a NaN deadline
            raise ValueError("time_limit must be positive")
        self.limit = time.monotonic() + seconds
        self.ticks = 0
        self.stride = stride

    def check(self) -> None:
        """Raise _Timeout once the deadline has passed."""
        self.ticks += 1
        if not self.ticks % self.stride and time.monotonic() > self.limit:
            raise _Timeout


def _allow_depth(depth: int) -> None:
    """Raise the recursion limit so a search `depth` levels deep fits."""
    needed = depth + 64
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


class _CliqueSearch:
    """Branch and bound over clique adjacency bitmasks (Tomita and Kameda).

    Vertices are relabeled once into descending-degree order (index
    ascending on ties). Each node colors its candidates greedily and
    expands them in descending color, pruning once size + color <= floor:
    a clique takes at most one vertex per color class. A vertex colored at
    most floor - size still takes its place in its class, so later colors
    do not change, but it is not recorded: the floor only rises, so it
    would be pruned before it could branch. Coloring masks the candidates
    left for a class with each member's non-neighbour row, `non`, which
    excludes the member itself. The modes differ only in the floor:

    - maximise: the floor is the incumbent's size, seeded greedily and
      raised with each larger clique; the search ends once it reaches `stop`.
    - collect: the floor stays at target - 1, so every clique of size
      target is found, each once; the search ends past `cap` of them. Its
      last two levels are counted by popcount without coloring, where a
      color bound can no longer prune, and listed only while the result
      may still hold at most `keep` cliques.

    Past its deadline, maximise raises _Timeout and leaves in `bound` the
    clique number bound it held, and collect returns what it found, marked
    truncated. The root expands its candidates in descending color, so
    every clique not yet searched when the search stops while expanding
    root candidate i lies among order[:i + 1] and the unrecorded vertices,
    whose colors are all at most colors[i]; the bound is the larger of
    that and the incumbent's size.
    """

    def __init__(self, adj: Sequence[int], seconds: float):
        self.deadline = _Deadline(seconds)
        n = len(adj)
        order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
        # relabel a row by permuting its binary string: new bit p is old bit
        # order[p], and the string lists bit n - 1 first
        bits, permute = f"0{n}b", itemgetter(*[n - 1 - v for v in reversed(order)])
        self.n = n
        self.adj = [int("".join(permute(format(adj[v], bits))), 2) for v in order]
        # non[v] keeps what may share v's color class: neither v nor a
        # neighbour; the n-bit form ANDs faster than the negative ~(row | 1 << v)
        full = (1 << n) - 1
        self.non = [full ^ (row | 1 << v) for v, row in enumerate(self.adj)]
        self.order = order
        _allow_depth(n)
        self.stack: list[int] = []
        self.floor = 0
        # the trivial bound holds until the root has colored its pool; the
        # clock is first probed at the stride-th check, below the root
        self.bound = n
        self.leaf_size = n
        self.stop = 0
        self.best: list[int] = []
        self.cap = 0
        self.keep = 0
        self.count = 0
        self.found: list[tuple[int, ...]] | None = []

    def maximise(self, stop: int | None = None) -> list[int]:
        """A maximum clique, sorted, in the original labels.

        `stop`, a proven upper bound on the clique number, ends the search
        as soon as a clique of that size is found.
        """
        self.stop = self.n if stop is None else stop
        pool = (1 << self.n) - 1
        while pool:
            v = (pool & -pool).bit_length() - 1
            self.best.append(v)
            pool &= self.adj[v]
        self.floor = len(self.best)
        if self.floor < self.stop:
            try:
                self._expand(0, (1 << self.n) - 1)
            except _Done:
                pass
        return sorted(self.order[v] for v in self.best)

    def collect(
        self, target: int, cap: int, keep: int | None = None
    ) -> tuple[list[tuple[int, ...]] | None, int, bool]:
        """Every clique of size target, canonically sorted, their count, and
        whether the count cap or the deadline cut the search short.

        When the result would hold more than `keep` cliques (None: no limit),
        the list is dropped as soon as that is known and None is returned in
        its place; the count goes on.
        """
        self.floor = target - 1
        self.leaf_size = target - 2
        self.cap = cap
        self.keep = cap if keep is None else keep
        truncated = False
        try:
            self._expand(0, (1 << self.n) - 1)
        except (_Done, _Timeout):
            truncated = True
        found = self.found
        if found is not None:
            # back to the original labels in place, so only one copy is ever held
            label = self.order.__getitem__
            for i, c in enumerate(found):
                found[i] = tuple(sorted(map(label, c)))
            found.sort()
        return found, self.count, truncated

    def _expand(self, size: int, pool: int) -> None:
        self.deadline.check()
        if size >= self.leaf_size:
            self._leaves(pool)
            return
        adj, non = self.adj, self.non
        order: list[int] = []
        colors: list[int] = []
        color = 0
        # a vertex colored at most floor - size is pruned before it could
        # branch, and the floor only rises: color it, but do not record it
        skip = self.floor - size
        rest = pool
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                if color > skip:
                    order.append(v)
                    colors.append(color)
                avail &= non[v]
                rest ^= b
        stack = self.stack
        try:
            for i in range(len(order) - 1, -1, -1):
                if size + colors[i] <= self.floor:
                    return
                v = order[i]
                stack.append(v)
                child = pool & adj[v]
                if child:
                    self._expand(size + 1, child)
                elif size + 1 > self.floor:
                    # only maximise gets here: collect lists its leaves in _leaves
                    self.floor = size + 1
                    self.best = stack.copy()
                    if self.floor >= self.stop:
                        raise _Done
                stack.pop()
                pool ^= 1 << v
        except _Timeout:
            # runs only on the way out of a stop, so no node pays for the bound
            if not size:
                self.bound = max(self.floor, colors[i])
            raise

    def _leaves(self, pool: int) -> None:
        """Collect mode, one or two vertices short of the target: count the
        cliques by popcount, and list them while the result may keep them."""
        adj = self.adj
        one_short = len(self.stack) == self.floor
        if one_short:
            new = pool.bit_count()
        else:
            new, heads = 0, pool
            while heads:
                b = heads & -heads
                heads ^= b
                new += (heads & adj[b.bit_length() - 1]).bit_count()
        self.count += new
        if self.found is not None:
            if min(self.count, self.cap) > self.keep:
                self.found = None  # the result will hold no sets: count only from here
            else:
                self._list(pool, one_short)
        if self.count > self.cap:
            self.count = self.cap
            raise _Done

    def _list(self, pool: int, one_short: bool) -> None:
        """Append the cliques _leaves counted, at most up to the count cap."""
        base = tuple(self.stack)
        found, cap, adj = self.found, self.cap, self.adj
        while pool and len(found) < cap:
            b = pool & -pool
            pool ^= b
            head = base + (b.bit_length() - 1,)
            if one_short:
                found.append(head)
            else:
                rest = pool & adj[head[-1]]
                while rest:
                    c = rest & -rest
                    rest ^= c
                    found.append(head + (c.bit_length() - 1,))
        del found[cap:]


def max_independent_set(
    g: Graph, time_limit: float = 60.0, stop: int | None = None
) -> AlphaResult:
    """Exact alpha(g) by branch and bound, or a safe upper bound on timeout.

    Past `time_limit` seconds the result carries exact=False and the bound
    the stopped search held (method "bnb-bound"), never above the color
    count of its root's greedy coloring, so value >= alpha(g) always holds.
    `stop`, a proven upper bound on alpha(g), ends the search as soon as an
    independent set of that size is found.
    """
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    search = _CliqueSearch(g.complement().adj, time_limit)
    try:
        witness = search.maximise(stop)
    except _Timeout:
        return AlphaResult(search.bound, False, "bnb-bound")
    return AlphaResult(
        value=len(witness),
        exact=True,
        method="exact-bnb",
        witness=tuple(witness),
    )


def enumerate_maximum_independent_sets(
    g: Graph, target_size: int, budget: Budget | None = None, keep: int | None = None
) -> EnumerationResult:
    """Every independent set of g with exactly target_size vertices.

    With target_size == alpha(g) this lists the maximum independent sets.
    Results are canonically sorted; hitting the count cap or the time limit
    marks the result truncated and returns the sets found so far. When the
    count exceeds `keep` (None: no limit) the sets are counted, not held:
    the result has sets == (), and a count and truncation flag that equal
    a full listing's unless the time limit stopped it.
    """
    if not 1 <= target_size <= g.n:
        raise ValueError(f"target size {target_size} out of range 1..{g.n}")
    budget = budget or Budget()
    search = _CliqueSearch(g.complement().adj, budget.time_limit)
    sets, count, truncated = search.collect(target_size, budget.count_cap, keep)
    return EnumerationResult(
        sets=() if sets is None else tuple(sets),
        count=count,
        truncated=truncated,
    )
