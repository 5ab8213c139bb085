"""Maximum independent set: exact search, safe upper bounds, enumeration.

An independent set of g is a clique of complement(g), so the exact search
runs a branch and bound maximum clique algorithm (greedy coloring bound,
Tomita-style) over complement adjacency bitmasks. Enumeration reuses the
same machinery in a "collect every clique at depth == target" mode.

Everything is single threaded and deterministic: branching order is fixed
(descending complement degree, index ascending), so identical inputs and
budgets produce identical results. Time limits are soft; they are checked
between branch steps and only flip results to inexact/truncated, never
change exact outputs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class Budget:
    """Soft limits for one solver stage."""

    time_limit: float = 60.0
    count_cap: int = 5000

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.count_cap <= 0:
            raise ValueError("count_cap must be positive")


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of a stability number computation.

    value is alpha(g) when exact, otherwise an upper bound alpha_bar >= alpha(g).
    method is one of "exact-bnb", "degree-rule", "greedy-coloring", "provided",
    or, for alpha~ on an intersection graph, "exact-cover" (an exact cover of
    the sets' union reached the cap) and "cap" (the cap bounds a stopped search).
    """

    value: int
    exact: bool
    elapsed: float
    method: str
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EnumerationResult:
    """All independent sets of a given size, or a truncated prefix of them.

    sets holds 0-based sorted vertex tuples, canonically sorted. When
    truncated is True the count cap or time limit was hit and sets/count
    cover only what was found.
    """

    target_size: int
    sets: tuple[tuple[int, ...], ...]
    count: int
    truncated: bool
    elapsed: float


class _Deadline:
    """Cheap soft deadline: probes the clock every `stride` ticks."""

    __slots__ = ("limit", "ticks", "stride")

    def __init__(self, seconds: float, stride: int = 2048):
        self.limit = time.monotonic() + seconds
        self.ticks = 0
        self.stride = stride

    def expired(self) -> bool:
        self.ticks += 1
        if self.ticks % self.stride:
            return False
        return time.monotonic() > self.limit


class _Timeout(Exception):
    pass


class _Reached(Exception):
    pass


def _complement_rows(g: Graph) -> list[int]:
    full = (1 << g.n) - 1
    return [full ^ row ^ (1 << v) for v, row in enumerate(g.adj)]


def degree_rule_alpha_bar(g: Graph) -> int:
    """Degree-sequence upper bound on alpha(g).

    alpha(g) = omega(complement), and a k-clique needs k vertices of
    complement degree >= k-1; this returns the largest k such that at least
    k vertices have complement degree >= k - 1, floored at 1 for nonempty
    graphs.
    """
    if g.n == 0:
        return 0
    degs = sorted((g.n - 1 - g.degree(v) for v in range(g.n)), reverse=True)
    k = 0
    for i, d in enumerate(degs):
        if d >= i:
            k = i + 1
    return max(k, 1)


def _color_count(adj: list[int], pool: int) -> int:
    """Number of classes a greedy coloring uses on the subgraph induced by pool."""
    colors = 0
    rest = pool
    while rest:
        colors += 1
        avail = rest
        while avail:
            b = avail & -avail
            avail &= ~adj[b.bit_length() - 1]
            avail ^= b
            rest ^= b
    return colors


def greedy_coloring_alpha_bar(g: Graph) -> int:
    """Upper bound on alpha(g) by greedy coloring of complement(g).

    Vertices are colored in largest-complement-degree-first order (index
    ascending on ties) with the smallest feasible color; the class count
    bounds omega(complement) = alpha(g) from above.
    """
    if g.n == 0:
        return 0
    comp = _complement_rows(g)
    order = sorted(range(g.n), key=lambda v: (-comp[v].bit_count(), v))
    class_masks: list[int] = []
    for v in order:
        for i, mask in enumerate(class_masks):
            if not mask & comp[v]:
                class_masks[i] |= 1 << v
                break
        else:
            class_masks.append(1 << v)
    return max(len(class_masks), 1)


class _MaxCliqueSearch:
    """Branch and bound maximum clique over bitmask adjacency.

    Vertices are relabeled into descending-degree order up front; the greedy
    coloring bound is recomputed per node (Tomita's scheme: children are
    expanded in descending color, pruning once size + color <= incumbent).
    The search ends early once the incumbent reaches `stop`, a known upper
    bound on the clique number.
    """

    def __init__(self, adj: list[int], deadline: _Deadline, stop: int | None = None):
        n = len(adj)
        order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        rows = [0] * n
        for v in range(n):
            row = adj[v]
            new = 0
            while row:
                b = row & -row
                new |= 1 << pos[b.bit_length() - 1]
                row ^= b
            rows[pos[v]] = new
        self.n = n
        self.adj = rows
        self.order = order
        self.deadline = deadline
        self.stop = n if stop is None else stop
        self.best = 0
        self.best_clique: list[int] = []
        self.stack: list[int] = []

    def _greedy_seed(self):
        taken: list[int] = []
        pool = (1 << self.n) - 1
        while pool:
            v = (pool & -pool).bit_length() - 1
            taken.append(v)
            pool &= self.adj[v]
        self.best = len(taken)
        self.best_clique = taken

    def _expand(self, size: int, pool: int):
        if self.deadline.expired():
            raise _Timeout
        adj = self.adj
        order: list[int] = []
        colors: list[int] = []
        color = 0
        rest = pool
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                colors.append(color)
                avail &= ~adj[v]
                avail ^= b
                rest ^= b
        stack = self.stack
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= self.best:
                return
            v = order[i]
            stack.append(v)
            child = pool & adj[v]
            if child:
                self._expand(size + 1, child)
            elif size + 1 > self.best:
                self.best = size + 1
                self.best_clique = stack.copy()
                if self.best >= self.stop:
                    raise _Reached
            stack.pop()
            pool ^= 1 << v

    def run(self) -> tuple[int, list[int]]:
        if self.n == 0:
            return 0, []
        self._greedy_seed()
        if self.best < self.stop:
            try:
                self._expand(0, (1 << self.n) - 1)
            except _Reached:
                pass
        return self.best, sorted(self.order[v] for v in self.best_clique)


def max_independent_set(
    g: Graph, budget: Budget | None = None, stop: int | None = None
) -> AlphaResult:
    """Exact alpha(g) by branch and bound, or a safe upper bound on timeout.

    On budget exhaustion the result carries exact=False and falls back to
    degree_rule_alpha_bar, so value >= alpha(g) always holds. `stop`, a
    proven upper bound on alpha(g), ends the search as soon as an
    independent set of that size is found.
    """
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    budget = budget or Budget()
    start = time.monotonic()
    comp = _complement_rows(g)
    needed = g.n + 64
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)
    search = _MaxCliqueSearch(comp, _Deadline(budget.time_limit), stop)
    try:
        value, witness = search.run()
    except _Timeout:
        return AlphaResult(
            value=degree_rule_alpha_bar(g),
            exact=False,
            elapsed=time.monotonic() - start,
            method="degree-rule",
        )
    return AlphaResult(
        value=value,
        exact=True,
        elapsed=time.monotonic() - start,
        method="exact-bnb",
        witness=tuple(witness),
    )


class _EnumStop(Exception):
    pass


class _Enumerator:
    """Collects every clique of size exactly `target` over bitmask adjacency.

    Candidates are consumed in ascending index order (each clique is visited
    once, at its sorted vertex sequence). Two admissible prunes: remaining
    candidate count, and the number of still-populated greedy color classes
    (classes are independent sets of the search graph, so a clique takes at
    most one vertex from each). Dense search graphs (sparse g) get a full
    per-node recoloring instead, which is slower per node but keeps the tree
    tiny when the class structure is fine-grained.
    """

    def __init__(self, adj: list[int], target: int, cap: int, deadline: _Deadline, recolor: bool):
        self.adj = adj
        self.n = len(adj)
        self.target = target
        self.cap = cap
        self.deadline = deadline
        self.recolor = recolor
        self.found: list[tuple[int, ...]] = []
        self.truncated = False
        self.stack: list[int] = []
        if not recolor:
            self.classes = self._static_classes()

    def _static_classes(self) -> list[int]:
        adj = self.adj
        masks: list[int] = []
        for v in range(self.n):
            bit = 1 << v
            for i, mask in enumerate(masks):
                if not mask & adj[v]:
                    masks[i] |= bit
                    break
            else:
                masks.append(bit)
        return masks

    def _bound(self, pool: int, needed: int) -> bool:
        """True when pool can still supply `needed` pairwise adjacent vertices."""
        if pool.bit_count() < needed:
            return False
        if self.recolor:
            return _color_count(self.adj, pool) >= needed
        hit = 0
        for mask in self.classes:
            if mask & pool:
                hit += 1
                if hit >= needed:
                    return True
        return False

    def _walk(self, pool: int):
        if self.deadline.expired():
            raise _Timeout
        stack = self.stack
        needed = self.target - len(stack)
        if not self._bound(pool, needed):
            return
        adj = self.adj
        if needed == 1:
            rest = pool
            while rest:
                b = rest & -rest
                stack.append(b.bit_length() - 1)
                self._record()
                stack.pop()
                rest ^= b
            return
        rest = pool
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            stack.append(v)
            self._walk(rest & adj[v])
            stack.pop()

    def _record(self):
        if len(self.found) >= self.cap:
            self.truncated = True
            raise _EnumStop
        self.found.append(tuple(self.stack))

    def run(self):
        try:
            self._walk((1 << self.n) - 1)
        except _Timeout:
            self.truncated = True
        except _EnumStop:
            pass


def enumerate_maximum_independent_sets(
    g: Graph, target_size: int, budget: Budget | None = None
) -> EnumerationResult:
    """Every independent set of g with exactly target_size vertices.

    With target_size == alpha(g) this lists the maximum independent sets.
    Results are canonically sorted; hitting the count cap or the time limit
    marks the result truncated and returns the sets found so far.
    """
    if not 1 <= target_size <= g.n:
        raise ValueError(f"target size {target_size} out of range 1..{g.n}")
    budget = budget or Budget()
    start = time.monotonic()
    comp = _complement_rows(g)
    needed = g.n + 64
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)
    # sparse g means a dense search graph whose static classes are near-pairs;
    # recoloring per node is what keeps those trees from exploding
    recolor = g.density() < 0.2
    enum = _Enumerator(comp, target_size, budget.count_cap, _Deadline(budget.time_limit), recolor)
    enum.run()
    return EnumerationResult(
        target_size=target_size,
        sets=tuple(sorted(enum.found)),
        count=len(enum.found),
        truncated=enum.truncated,
        elapsed=time.monotonic() - start,
    )
