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
on alpha that its root coloring held (see _CliqueSearch). Given
automorphisms of the graph, each checked first (is_automorphism), both
modes prune their root by orbits: once the cliques through a root
candidate are searched, the candidate's images leave the root's pool too.
Collect then closes the cliques it found under the maps, which gives back
the whole listing, and runs the plain search instead once that listing
would pass its count cap or the number of cliques it keeps. Only the root
prunes this way; the nodes below it do no extra work.

Every search is deterministic: vertices are relabeled into the
smallest-last order of the clique graph (Matula and Beck, 1983, the
initial order of MCS) and each node branches in descending color, so
identical inputs and limits produce identical results. Once a search has
spent about a fork's worth of nodes, the root's remaining branches run on
the CPUs the process may run on (os.sched_getaffinity), as the
top-of-tree split of McCreesh and Prosser's parallel clique search
(Algorithms, 2013) does: forked workers each take every k-th branch and
the caller merges their results in branch order, which gives exactly the
one-process result. Collect's branches are independent (a count is their
sum, a listing their union). A maximise branch's outcome depends only on
the floor it starts from, so every process searches from the floor of the
split, and the merge accepts the results in order up to the first branch
that raised it, then splits the branches after it again at the new floor:
a shared incumbent would make the result depend on timing (McCreesh and
Prosser, ACM TOPC, 2015). No thread is started, and where a thread is
alive or the affinity mask is unknown it stays in one process. Time
limits are soft; they are checked between branch steps and only flip
results to inexact/truncated, never change exact outputs. Only such a
stop can depend on the split: collect lists some subset of the full
listing, and maximise reports another bound at least alpha, as a
one-process stop may.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import BinaryIO, NoReturn

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


def _workers() -> int:
    """How many processes a root may search on: the CPUs this process may
    run on, or 1 where that is unknown or a thread is alive (a fork copies
    only the thread that calls it)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


# The root searches its branches in this process until the search has spent
# _GATE nodes, and splits only the branches left after that. A split costs
# one fork, pipe and reap per worker: 2.4 ms from a 22 MiB process and 3.8 ms
# from a 100 MiB one on a 2-core x86-64 VM (CPython 3.11), while a node costs
# 4-13 us there (about 5 us on random graphs of 20-120 vertices, 7.5 us on
# queen10_10's 724-vertex disjointness graph, 13 us on a G(125, 0.1)
# complement). Walking until the nodes spent cost about one fork before
# paying for one is the ski-rental rule: a search that ends sooner never
# forks, and one that goes on spends at most about twice what the better
# choice in hindsight would. 2.5 ms / 5 us = 500 nodes.
_GATE = 500

# a root branch: (color, vertex, pool below it)
_Branch = tuple[int, int, int]

# one root branch's result in a split search (_CliqueSearch._run): for
# collect, the cliques counted and those listed (None once the list was
# dropped); for maximise, the floor after the branch and the clique that
# raised it (None if none). Then the nodes, and "done" (the count cap or
# `stop`), "time" or None for how the process's run stopped there
_Record = tuple[int, list | None, int, str | None]


def _allow_depth(depth: int) -> None:
    """Raise the recursion limit so a search `depth` levels deep fits."""
    needed = depth + 64
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def _renamer(order: Sequence[int]) -> Callable[[int], int]:
    """The map that renames bit order[p] of an n-bit row to bit p."""
    # permute the row's binary string: new bit p is old bit order[p], and
    # the string lists bit n - 1 first
    n = len(order)
    bits, permute = f"0{n}b", itemgetter(*[n - 1 - v for v in reversed(order)])
    return lambda row: int("".join(permute(format(row, bits))), 2)


def _relabel(adj: Sequence[int], order: Sequence[int]) -> list[int]:
    """The rows of adj with vertex order[p] renamed p."""
    rename = _renamer(order)
    return [rename(adj[v]) for v in order]


def is_automorphism(adj: Sequence[int], perm: Sequence[int]) -> bool:
    """True when perm, a permutation of the vertices of the graph with rows
    adj, maps it onto itself: u and v are adjacent iff perm[u] and perm[v]
    are. Rows are compared one at a time; the first that differs ends it."""
    # relabelling by perm gives row v the vertices u with perm[u] adjacent
    # to perm[v]: an automorphism leaves every row as it was
    rename = _renamer(perm)
    return all(rename(adj[u]) == row for u, row in zip(perm, adj))


def _smallest_last(adj: Sequence[int]) -> list[int]:
    """The vertices in smallest-last order (Matula and Beck, 1983).

    The peel removes a vertex of least degree among those left and places
    it last; ties go to the lower degree in the whole graph, then to the
    higher index. Each vertex then has at most degeneracy(G) neighbours
    before it. Vertices are ranked by (-degree, index) and each degree
    bucket is a bitmask over ranks, so the tie rule takes the bucket's
    highest bit, and the peel costs O(n + m) big-int operations. The rows
    keep their labels (`rank_bit` maps a vertex to its bucket bit), so the
    search renames each row once, by the final order.
    """
    n = len(adj)
    by_rank = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    rank_bit = [0] * n
    for r, v in enumerate(by_rank):
        rank_bit[v] = 1 << r
    degree = [row.bit_count() for row in adj]
    buckets = [0] * n
    for v, d in enumerate(degree):
        buckets[d] |= rank_bit[v]
    left = (1 << n) - 1
    peeled: list[int] = []
    d = 0
    for _ in range(n):
        while not buckets[d]:
            d += 1
        r = buckets[d].bit_length() - 1
        buckets[d] ^= 1 << r
        v = by_rank[r]
        left ^= 1 << v
        peeled.append(v)
        # each neighbour left moves one bucket down, so the least degree
        # left is at least d - 1
        nbrs = adj[v] & left
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            u = b.bit_length() - 1
            du = degree[u]
            b = rank_bit[u]
            buckets[du] ^= b
            buckets[du - 1] |= b
            degree[u] = du - 1
        d = max(d - 1, 0)
    peeled.reverse()
    return peeled


class _CliqueSearch:
    """Branch and bound over clique adjacency bitmasks (Tomita and Kameda).

    Vertices are relabeled once into smallest-last order (_smallest_last),
    so the root's greedy coloring, which takes them in that order, uses at
    most degeneracy + 1 colors. Each node colors its candidates greedily and
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

    The root of both (_root) drops each candidate's images under the given
    automorphisms from its pool once the candidate is searched; collect
    then closes what it found under them (_orbit_listing). Past the work
    gate (_GATE nodes), the root searches its remaining branches on several
    processes when it may (_split) and merges their results in branch
    order: collect's as they are, maximise's up to the first branch that
    raised the floor, after which it splits the rest again.

    Past its deadline, maximise raises _Timeout and leaves in `bound` the
    clique number bound it held, and collect returns what it found, marked
    truncated. The root expands its candidates in descending color, so
    every clique not yet searched when the search stops while expanding
    root candidate v lies among v, the candidates after it and the
    unrecorded vertices, whose colors are all at most v's, or holds a
    vertex the root dropped as an image, and is then no larger than the
    incumbent; the bound is the larger of v's color and the incumbent's
    size. A split search stops in the first branch, in order, that has no
    finished record: every branch before it ended at the incumbent's size
    and every clique not searched lies in it or after it, so the same
    bound holds with v that branch's candidate.
    """

    def __init__(self, adj: Sequence[int], seconds: float):
        self.deadline = _Deadline(seconds)
        n = len(adj)
        order = _smallest_last(adj)
        self.n = n
        self.adj = _relabel(adj, order)
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
        self.collecting = False

    def maximise(
        self,
        stop: int | None = None,
        symmetries: Sequence[Sequence[int]] = (),
        verify: bool = True,
    ) -> list[int]:
        """A maximum clique, sorted, in the original labels.

        `stop`, a proven upper bound on the clique number, ends the search
        as soon as a clique of that size is found. `symmetries` are
        automorphisms of the graph, each a permutation of its vertices
        (ValueError if one is not): once the root has searched the cliques
        through v, it drops v's images under them too (see _root). With
        `verify` False they are trusted as given, for a caller that has
        proven them automorphisms by construction.

        Past the work gate the root's branches run on up to _workers()
        processes (_split), and the result is the one a single process
        gives: the same clique and, unless the deadline stopped the search,
        the same node count in `deadline.ticks`. A deadline stop may leave
        another bound in `bound`, still at least the clique number.
        """
        self.stop = self.n if stop is None else stop
        images = self._orbits(symmetries, verify)
        pool = (1 << self.n) - 1
        while pool:
            v = (pool & -pool).bit_length() - 1
            self.best.append(v)
            pool &= self.adj[v]
        self.floor = len(self.best)
        if self.floor < self.stop:
            try:
                self._root(images)
            except _Done:
                pass
        return sorted(self.order[v] for v in self.best)

    def collect(
        self,
        target: int,
        cap: int,
        keep: int | None = None,
        symmetries: Sequence[Sequence[int]] = (),
    ) -> tuple[list[tuple[int, ...]] | None, int, bool]:
        """Every clique of size target, canonically sorted, their count, and
        whether the count cap or the deadline cut the search short.

        When the result would hold more than `keep` cliques (None: no limit),
        the list is dropped as soon as that is known and None is returned in
        its place; the count goes on. `symmetries`, automorphisms as in
        maximise, prune the root by orbits and the cliques found are closed
        under them (_orbit_listing). That listing answers only while it holds
        at most min(cap, keep) cliques; past that the plain search runs on
        the time left, so a capped or count-only result is the plain one.

        Past the work gate the root's branches run on up to _workers()
        processes (_split), and the result is the one a single process
        gives: the same cliques, count and flag, and, unless the search
        stopped, the same node count in `deadline.ticks`. Only a deadline
        stop may find another subset.
        """
        self.collecting = True
        self.floor = target - 1
        self.leaf_size = target - 2
        keep = cap if keep is None else keep
        images = self._orbits(symmetries)
        if symmetries and self.leaf_size > 0:
            listing = self._orbit_listing(min(cap, keep), images, symmetries)
            if listing is not None:
                return listing
        truncated = False
        try:
            self._search(cap, keep, [1 << p for p in range(self.n)])
        except (_Done, _Timeout):
            truncated = True
        return self._labelled(), self.count, truncated

    def _search(self, cap: int, keep: int, images: list[int]) -> None:
        """Run collect's search from an empty count and list: from _root,
        which may split it across processes, when the root branches, else
        straight to the root's leaves."""
        self.cap, self.keep = cap, keep
        self.count, self.found = 0, []
        self.stack.clear()
        if self.leaf_size > 0:
            self._root(images)
        else:
            self._expand(0, (1 << self.n) - 1)

    def _orbit_listing(
        self, limit: int, images: list[int], symmetries: Sequence[Sequence[int]]
    ) -> tuple[list[tuple[int, ...]], int, bool] | None:
        """collect by orbits: the cliques the root-pruned search finds,
        closed under the symmetries, or None once more than `limit` cliques
        are known to exist.

        Every clique is the image of a searched one under a product of the
        maps (see _root), and a finite group is closed under its
        generators, so the closure is the whole listing. A search stopped
        by its deadline returns the closure of what it found, at most
        `limit` cliques of it, marked truncated.
        """
        truncated = False
        try:
            self._search(limit, limit, images)
        except _Done:
            return None
        except _Timeout:
            truncated = True
        found = set(self._labelled())
        todo = list(found)
        while todo and len(found) <= limit:
            clique = todo.pop()
            for sigma in symmetries:
                image = tuple(sorted(map(sigma.__getitem__, clique)))
                if image not in found:
                    found.add(image)
                    todo.append(image)
        if len(found) > limit and not truncated:
            return None
        listing = sorted(found)[:limit]
        return listing, len(listing), truncated

    def _labelled(self) -> list[tuple[int, ...]] | None:
        """The cliques found, sorted, each back in the original labels and
        sorted, or None when they were only counted."""
        found = self.found
        if found is not None:
            # in place, so only one copy is ever held
            label = self.order.__getitem__
            for i, c in enumerate(found):
                found[i] = tuple(sorted(map(label, c)))
            found.sort()
        return found

    def _orbits(self, symmetries: Sequence[Sequence[int]], verify: bool = True) -> list[int]:
        """For each vertex in the search's labels, the mask of it and its
        images under the symmetries, each checked as an automorphism unless
        `verify` is False."""
        n, order = self.n, self.order
        position = [0] * n
        for p, v in enumerate(order):
            position[v] = p
        images = [1 << p for p in range(n)]
        for k, sigma in enumerate(symmetries):
            if verify and sorted(sigma) != list(range(n)):
                raise ValueError(f"symmetry {k} is not a permutation of the {n} vertices")
            sigma = [position[sigma[v]] for v in order]
            if verify and not is_automorphism(self.adj, sigma):
                raise ValueError(f"symmetry {k} is not an automorphism of the graph")
            for p, q in enumerate(sigma):
                images[p] |= 1 << q
        return images

    def _color(self, pool: int, skip: int) -> list[tuple[int, int]]:
        """The greedy coloring of pool: each class above skip as (color,
        mask), in ascending color. The classes at or below skip are colored
        first, so the later colors stay the same, but not recorded."""
        non = self.non
        classes: list[tuple[int, int]] = []
        color = 0
        while pool:
            color += 1
            avail = rest = pool
            while avail:
                b = avail & -avail
                avail &= non[b.bit_length() - 1]
                rest ^= b
            if color > skip:
                classes.append((color, pool ^ rest))
            pool = rest
        return classes

    def _branches(self, images: list[int]) -> Iterator[_Branch]:
        """The root's branches in the order it searches them, as (color,
        vertex, pool below it): classes from the highest color down, each
        class from its highest vertex down, as _expand walks them. Once a
        candidate is yielded, it and its images (`images[v]`, v's bit
        included) leave the pool, so an image later in the order is skipped.
        A candidate with an empty pool below it is no branch: maximise's
        greedy seed makes the floor at least 1, and collect's is target - 1
        >= 2, so it cannot raise the floor or make a clique of the target."""
        pool = (1 << self.n) - 1
        adj = self.adj
        for color, cls in reversed(self._color(pool, self.floor)):
            while cls:
                v = cls.bit_length() - 1
                cls ^= 1 << v
                if pool >> v & 1:
                    child = pool & adj[v]
                    if child:
                        yield color, v, child
                    pool &= ~images[v]

    def _root(self, images: list[int]) -> None:
        """The root of both modes: branch on each candidate as _expand does,
        then drop it and its images from the pool (_branches). With no maps
        (`images[v]` is v's bit alone) it is _expand's root; collect comes
        here only when its root branches. The branches are searched in this
        process until the search has spent _GATE nodes, and those left then
        run on several processes when there are CPUs to spare (_split).

        Dropping an image is safe: if an automorphism maps v to w, its
        inverse maps each clique through w onto one of the same size through
        v, and the cliques through v are already searched, or hold a vertex
        dropped before, which is covered the same way. So every clique is the
        image of a searched one under a product of the maps. A root candidate
        dropped before its turn is skipped. A vertex the root coloring did not
        record cannot beat the floor, and a clique the search never reaches
        because it holds a dropped vertex is no larger than the floor, so the
        stopped search's bound holds as it is.
        """
        self.deadline.check()
        branches = list(self._branches(images))
        while branches:
            branches = self._walk(branches, _GATE)
            k = min(_workers(), len(branches))
            if k < 2:
                self._walk(branches)
                return
            branches = self._split(branches, k)

    def _walk(self, branches: list[_Branch], gate: float = math.inf) -> list[_Branch]:
        """Search the root's branches in turn in this process while the
        search has spent fewer than `gate` nodes, and return those left that
        can still beat the floor (in descending color, a prefix of them)."""
        stack = self.stack
        for i, (color, v, child) in enumerate(branches):
            if color <= self.floor:
                break
            if self.deadline.ticks >= gate:
                return [b for b in branches[i:] if b[0] > self.floor]
            stack.append(v)
            try:
                self._expand(1, child)
            except _Timeout:
                # runs only on the way out of a stop, so no node pays for the bound
                self.bound = max(self.floor, color)
                raise
            stack.pop()
        return []

    def _split(self, branches: list[_Branch], k: int) -> list[_Branch]:
        """The given root branches on k processes, with the result of one;
        for maximise, the branches still to search once a branch raised the
        floor (the search goes on from there at the new floor), else [].

        Worker w (1 <= w < k), a fork, searches branches[w::k] and this
        process branches[::k] (_run), each branch from the floor the split
        started at. A worker sends one record per branch down its pipe, and
        the caller reads them in branch order: _merge for collect, whose
        branches are independent, and _merge_floor for maximise, whose
        records hold only until a branch raises the floor. SIGINT is held
        while a worker is forked, so every worker forked is in `pids`, and
        every one is killed and reaped on the way out, whatever the way out.
        """
        base, floor = self.deadline.ticks, self.floor
        walked = self.count, self.found
        pids: list[int] = []
        pipes: list[BinaryIO] = []
        try:
            for w in range(1, k):
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    read, write = os.pipe()
                    try:
                        pid = os.fork()
                    except OSError:
                        os.close(read)
                        os.close(write)
                        raise
                    if not pid:
                        # the worker leaves SIGINT held: this process ends it
                        self._serve(branches[w::k], floor, write, [read] + [p.fileno() for p in pipes])
                    pids.append(pid)
                    os.close(write)
                    pipes.append(os.fdopen(read, "rb"))
                except OSError:
                    break  # no process or pipe to spare: this process searches the rest
                finally:
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            # maximise searches its own share one branch per merge step, so
            # a worker's raise of the floor is seen before the share goes on
            # at a stale floor; collect's branches are independent, so it
            # searches its whole share while the workers search theirs
            own = self._run(branches[::k], floor)
            streams = [iter(list(own)) if self.collecting else own]
            for w in range(1, k):
                pipe = pipes[w - 1] if w <= len(pipes) else None
                streams.append(self._replies(pipe, branches[w::k], floor))
            if self.collecting:
                self._merge(streams, len(branches), base, walked)
                return []
            return self._merge_floor(streams, branches, base, floor)
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)

    def _serve(self, branches: list[_Branch], floor: int, write: int, unused: list[int]) -> NoReturn:
        """A worker's whole life: close the parent's pipe ends it inherited,
        search its branches, write their records to the pipe as plain
        pickled tuples, and leave by os._exit, so no exception, buffer or
        exit handler of the parent's runs here. A maximise record is sent
        as soon as its branch is searched, since the merge waits for it; a
        collect worker searches its whole share first, so a full pipe never
        holds its search up."""
        code = 1
        try:
            for fd in unused:
                os.close(fd)
            records = self._run(branches, floor)
            if self.collecting:
                records = list(records)
            with os.fdopen(write, "wb") as pipe:
                for record in records:
                    pickle.dump(record, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)

    def _run(self, branches: Sequence[_Branch], floor: int) -> Iterator[_Record]:
        """Search branches in turn, each from `floor`, and yield each one's
        record (_Record) once it is searched. Collect keeps one running
        count and list over the run, as one process does over the whole
        root, so it stops once its count passes the cap. The run ends at a
        branch that stopped ("done" or "time") or, in maximise, raised the
        floor: the branches after it would start from a stale floor.

        Each branch starts from `floor`, an empty stack and the run's own
        count and list, so two runs of this process may take turns."""
        count, found = 0, []
        stack = self.stack
        for branch in branches:
            self.floor, self.count, self.found = floor, count, found
            size = 0 if found is None else len(found)
            ticks = self.deadline.ticks
            stop = None
            try:
                self._walk([branch])
            except _Done:
                stop = "done"
            except _Timeout:
                stop = "time"
            stack.clear()
            nodes = self.deadline.ticks - ticks
            if self.collecting:
                new, count, found = self.count - count, self.count, self.found
                yield new, None if found is None else found[size:], nodes, stop
            else:
                yield self.floor, self.best if self.floor > floor else None, nodes, stop
            if stop or self.floor > floor:
                return

    def _replies(
        self, pipe: BinaryIO | None, branches: list[_Branch], floor: int
    ) -> Iterator[_Record]:
        """A worker's records, read as the merge asks for them. If the
        worker died before it sent them all, or was never started (pipe
        None), this process searches the branches it did not report."""
        for done in range(len(branches)):
            try:
                record = pickle.load(pipe) if pipe else None
            except (EOFError, pickle.UnpicklingError):  # the stream was cut short
                record = None
            if record is None:
                yield from self._run(branches[done:], floor)
                return
            yield record
            if record[3]:
                return

    def _merge(
        self,
        streams: list[Iterator[_Record]],
        total: int,
        base: int,
        walked: tuple[int, list[tuple[int, ...]] | None],
    ) -> None:
        """Fold collect's records of `total` branches in branch order, branch
        j from streams[j % k], after the count and list of the branches
        walked before the split, into the count and list one process would
        hold: stop at the first branch where the count passes the cap or a
        process stopped at its own cap (its count was clamped, so the sum
        can miss that), and drop the list once the count passes keep. Raises
        _Done or _Timeout as one process would have; `deadline.ticks`
        becomes base plus the nodes of every branch merged."""
        cap, keep, k = self.cap, self.keep, len(streams)
        count, merged = walked
        nodes = 0
        capped = timed_out = False
        for j in range(total):
            # None: that process stopped at an earlier branch of its own
            record = next(streams[j % k], None)
            if record is None:
                continue
            counted, cliques, ticks, stop = record
            count += counted
            nodes += ticks
            capped = count > cap or stop == "done"
            if capped:
                count = cap
            if merged is not None:
                if cliques is None or count > keep:
                    merged = None
                else:
                    merged += cliques[: cap - len(merged)]
            timed_out = timed_out or stop == "time"
            if capped:
                break
        self.count, self.found = count, merged
        self.deadline.ticks = base + nodes
        if capped:
            raise _Done
        if timed_out:
            raise _Timeout

    def _merge_floor(
        self, streams: list[Iterator[_Record]], branches: list[_Branch], base: int, floor: int
    ) -> list[_Branch]:
        """Read maximise's records in branch order, branch j from
        streams[j % k], while the floor is still the split's, and return
        the branches after the first one that raised it, for the root to
        search from the new floor.

        A branch's outcome depends only on the floor it starts from, so each
        record read before the first raise is the one a single process would
        have made, and so is the raise. It becomes the incumbent, and
        `deadline.ticks` becomes base plus the nodes of every branch read.
        Raises _Done if the raise reached `stop`. Raises _Timeout at the
        first branch whose process passed its deadline there, with the bound
        max(floor, that branch's color): every branch before it ended at the
        floor, and every clique not searched lies in it or a later branch,
        whose colors are at most its color (see _CliqueSearch)."""
        k = len(streams)
        nodes = 0
        for j, (color, _, _) in enumerate(branches):
            value, clique, ticks, stop = next(streams[j % k])
            if stop == "time":
                self.bound = max(floor, color)
                raise _Timeout
            nodes += ticks
            self.deadline.ticks = base + nodes
            if value > floor:
                self.floor, self.best = value, clique
                if stop:
                    raise _Done
                return branches[j + 1 :]
        return []

    def _expand(self, size: int, pool: int) -> None:
        self.deadline.check()
        if size >= self.leaf_size:
            self._leaves(pool)
            return
        # a vertex colored at most floor - size is pruned before it could
        # branch, and the floor only rises: color it, but do not record it
        adj, stack = self.adj, self.stack
        for color, cls in reversed(self._color(pool, self.floor - size)):
            while cls:
                if size + color <= self.floor:
                    return
                v = cls.bit_length() - 1
                b = 1 << v
                cls ^= b
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
                pool ^= b

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
    g: Graph,
    time_limit: float = 60.0,
    stop: int | None = None,
    symmetries: Sequence[Sequence[int]] = (),
) -> AlphaResult:
    """Exact alpha(g) by branch and bound, or a safe upper bound on timeout.

    Past `time_limit` seconds the result carries exact=False and the bound
    the stopped search held (method "bnb-bound"), never above the color
    count of its root's greedy coloring (at most the complement's
    degeneracy + 1), so value >= alpha(g) always holds.
    `stop`, a proven upper bound on alpha(g), ends the search as soon as an
    independent set of that size is found; it must be at least 1.
    `symmetries`, permutations of g's vertices (`perm[v]` is v's image),
    prune the search's root by orbits; each is checked as an automorphism
    of g first, and ValueError is raised for one that is not.
    A search past its first few hundred nodes runs its root's remaining
    branches on the CPUs in the process's affinity mask; an exact result is
    the one a single process gives, and only the bound of a stopped search
    may depend on how many CPUs there are.
    """
    return _max_independent_set(g, time_limit, stop, symmetries)


def _max_independent_set(
    g: Graph,
    time_limit: float,
    stop: int | None,
    symmetries: Sequence[Sequence[int]],
    verify: bool = True,
) -> AlphaResult:
    """max_independent_set; with `verify` False the symmetries are trusted
    as automorphisms, for a caller that proved them so by construction."""
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    if stop is not None and stop < 1:
        raise ValueError("stop must be at least 1")
    search = _CliqueSearch(g.complement().adj, time_limit)
    try:
        witness = search.maximise(stop, symmetries, verify)
    except _Timeout:
        return AlphaResult(search.bound, False, "bnb-bound")
    return AlphaResult(
        value=len(witness),
        exact=True,
        method="exact-bnb",
        witness=tuple(witness),
    )


def enumerate_maximum_independent_sets(
    g: Graph,
    target_size: int,
    budget: Budget | None = None,
    keep: int | None = None,
    symmetries: Sequence[Sequence[int]] = (),
) -> EnumerationResult:
    """Every independent set of g with exactly target_size vertices.

    With target_size == alpha(g) this lists the maximum independent sets.
    Results are canonically sorted; hitting the count cap or the time limit
    marks the result truncated and returns the sets found so far. When the
    count exceeds `keep` (None: no limit) the sets are counted, not held:
    the result has sets == (), and a count and truncation flag that equal
    a full listing's unless the time limit stopped it.
    `symmetries`, permutations of g's vertices checked as automorphisms as
    in max_independent_set, let the search list the sets by orbits while
    at most min(count cap, keep) of them exist; the result is the same.
    Past its first few hundred nodes, the search's root branches run on the
    CPUs in the process's affinity mask, and only a time-limit stop depends
    on how many there are.
    """
    if not 1 <= target_size <= g.n:
        raise ValueError(f"target size {target_size} out of range 1..{g.n}")
    budget = budget or Budget()
    search = _CliqueSearch(g.complement().adj, budget.time_limit)
    sets, count, truncated = search.collect(
        target_size, budget.count_cap, keep, symmetries
    )
    return EnumerationResult(
        sets=() if sets is None else tuple(sets),
        count=count,
        truncated=truncated,
    )
