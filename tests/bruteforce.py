"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package (subset
sweeps and direct backtracking instead of branch and bound) so agreement
is meaningful evidence of correctness. The one exception,
reference_clique_search, spells out the package's own clique kernel in its
plainest form, so that a faster kernel can be checked node for node.
"""

from __future__ import annotations

import itertools
import random

from sumcol.graph import Graph


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def brute_alpha_and_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Stability number and all maximum independent sets by a 2^n sweep.

    A subset is independent iff dropping its lowest vertex leaves an
    independent subset not adjacent to that vertex, so one pass over all
    masks in increasing order settles every subset.
    """
    n, adj = g.n, g.adj
    if n > 22:
        raise ValueError("brute force capped at n <= 22")
    indep = bytearray(1 << n)
    indep[0] = 1
    best, sets = 0, [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if indep[rest] and not adj[low.bit_length() - 1] & rest:
            indep[mask] = 1
            k = mask.bit_count()
            if k > best:
                best, sets = k, [mask]
            elif k == best:
                sets.append(mask)
    return best, sorted(mask_to_tuple(m) for m in sets)


def brute_alpha_tilde(sets) -> int:
    """Most pairwise-disjoint members of a set family, by a 2^k sweep.

    A subfamily is pairwise disjoint iff dropping its lowest member leaves
    a pairwise-disjoint subfamily whose union misses that member, so one
    pass over all subfamily masks in increasing order settles them all.
    """
    masks = [sum(1 << v for v in s) for s in sets]
    k = len(masks)
    if k > 20:
        raise ValueError("brute force capped at 20 sets")
    union = [0] * (1 << k)
    disjoint = bytearray(1 << k)
    disjoint[0] = 1
    best = 0
    for family in range(1, 1 << k):
        low = family & -family
        rest = family ^ low
        member = masks[low.bit_length() - 1]
        if disjoint[rest] and not union[rest] & member:
            disjoint[family] = 1
            union[family] = union[rest] | member
            best = max(best, family.bit_count())
    return best


def brute_chromatic_sum_and_number(g: Graph) -> tuple[int, int]:
    """Chromatic sum and chromatic number by a subset DP over independent sets.

    Giving the next color to an independent set I of the uncolored vertices
    R bills one unit to every vertex of R (a vertex of color c pays once for
    each of colors 1..c), so sum(R) = |R| + min sum(R - I) and
    chi(R) = 1 + min chi(R - I) over the nonempty independent I within R.
    The two minima may come from different colorings. Each R walks its
    submasks, 3^n steps in all, hence the cap.
    """
    n, adj = g.n, g.adj
    if n > 9:
        raise ValueError("brute force capped at n <= 9")
    indep = bytearray(1 << n)
    indep[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        indep[mask] = indep[rest] and not adj[low.bit_length() - 1] & rest
    total = [0] * (1 << n)
    colors = [0] * (1 << n)
    for left in range(1, 1 << n):
        rests = []
        part = left
        while part:
            if indep[part]:
                rests.append(left ^ part)
            part = (part - 1) & left
        total[left] = left.bit_count() + min(total[r] for r in rests)
        colors[left] = 1 + min(colors[r] for r in rests)
    return total[-1], colors[-1]


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


def smallest_last_order(adj) -> list[int]:
    """The vertices of a graph given by adjacency rows in smallest-last order.

    A plain O(n^2) peel: take, among the vertices left, one with the fewest
    neighbours left (ties: fewer neighbours in the whole graph, then the
    higher index), place it last, and repeat.
    """
    n = len(adj)
    degree = [sum(adj[v] >> u & 1 for u in range(n)) for v in range(n)]
    left_degree = degree.copy()
    left = set(range(n))
    peeled = []
    while left:
        v = min(left, key=lambda u: (left_degree[u], degree[u], -u))
        left.remove(v)
        peeled.append(v)
        for u in left:
            if adj[v] >> u & 1:
                left_degree[u] -= 1
    return peeled[::-1]


def degeneracy(adj) -> int:
    """Largest minimum degree over the induced subgraphs (2^n sweep)."""
    n = len(adj)
    if n > 16:
        raise ValueError("brute force capped at n <= 16")
    best = 0
    for mask in range(1, 1 << n):
        vertices = mask_to_tuple(mask)
        best = max(best, min((adj[v] & mask).bit_count() for v in vertices))
    return best


def greedy_coloring_alpha_bar(g: Graph) -> int:
    """Upper bound on alpha(g) by greedy coloring of complement(g).

    Vertices are colored in the smallest-last order of the complement, as
    the clique kernel orders them, with the smallest feasible color; the
    class count bounds omega(complement) = alpha(g) from above. Each vertex
    has at most d = degeneracy(complement) neighbours before it, so at most
    d + 1 colors are used. That never exceeds degree_rule_alpha_bar: a
    subgraph of minimum degree d has d + 1 vertices of degree at least d.
    """
    if g.n == 0:
        return 0
    comp = g.complement().adj
    order = smallest_last_order(comp)
    class_masks: list[int] = []
    for v in order:
        for i, mask in enumerate(class_masks):
            if not mask & comp[v]:
                class_masks[i] |= 1 << v
                break
        else:
            class_masks.append(1 << v)
    return max(len(class_masks), 1)


def count_sets_of_size(g: Graph, size: int) -> int:
    """Number of independent sets of exactly `size` vertices (2^n sweep)."""
    n, adj = g.n, g.adj
    if n > 22:
        raise ValueError("brute force capped at n <= 22")
    indep = bytearray(1 << n)
    indep[0] = 1
    count = 1 if size == 0 else 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if indep[rest] and not adj[low.bit_length() - 1] & rest:
            indep[mask] = 1
            if mask.bit_count() == size:
                count += 1
    return count


def count_independent_combinations(g: Graph, size: int) -> int:
    """Number of independent sets of exactly `size` vertices.

    Scans raw vertex combinations with an early exit on the first edge,
    which stays practical past the 2^n sweep's vertex cap as long as
    C(n, size) is modest.
    """
    count = 0
    for combo in itertools.combinations(range(g.n), size):
        taken = 0
        for v in combo:
            if g.adj[v] & taken:
                break
            taken |= 1 << v
        else:
            count += 1
    return count


def random_graph(n: int, p: float, rng: random.Random, name: str = "") -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges, name=name)


def graph_with_automorphism(
    n: int, p: float, rng: random.Random, swap: bool
) -> tuple[Graph, list[int]]:
    """A random graph on n vertices and a planted automorphism sigma of it.

    sigma is a random permutation, or with `swap` a product of disjoint
    vertex swaps. Each pair of vertices joins the edge set with its whole
    orbit under sigma, with probability p, so sigma maps the edge set onto
    itself.
    """
    sigma = list(range(n))
    if swap:
        movers = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        for u, v in zip(movers[::2], movers[1::2]):
            sigma[u], sigma[v] = v, u
    else:
        rng.shuffle(sigma)
    edges: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()
    for u in range(n):
        for v in range(u + 1, n):
            pair = frozenset((u, v))
            if pair in seen:
                continue
            orbit = []
            while pair not in orbit:
                orbit.append(pair)
                pair = frozenset(sigma[w] for w in pair)
            seen.update(orbit)
            if rng.random() < p:
                edges.update(orbit)
    return Graph.from_edges(n, [tuple(e) for e in edges]), sigma


def maps_edges_onto_edges(g: Graph, perm) -> bool:
    """True when perm is a permutation of g's vertices that maps its edge set onto itself."""
    if sorted(perm) != list(range(g.n)):
        return False
    edges = {frozenset(e) for e in g.edges()}
    return {frozenset((perm[u], perm[v])) for u, v in edges} == edges


def queens_row_by_row_count(rows: int, cols: int) -> int:
    """Placements of `rows` mutually non-attacking queens, one per row.

    Direct board backtracking, no graph involved; equals the number of
    maximum independent sets of the queen graph whenever alpha = rows <= cols.
    """
    count = 0

    def rec(r: int, used_cols: int, d1: int, d2: int) -> None:
        nonlocal count
        if r == rows:
            count += 1
            return
        for c in range(cols):
            if used_cols >> c & 1 or d1 >> (r + c) & 1 or d2 >> (r - c + cols) & 1:
                continue
            rec(r + 1, used_cols | 1 << c, d1 | 1 << (r + c), d2 | 1 << (r - c + cols))

    rec(0, 0, 0, 0)
    return count


def reference_clique_search(
    adj, target=None, *, stop=None, cap=5000, keep=None, symmetries=()
):
    """The clique kernel's search, written plainly, and its node count.

    It expands the same tree as stable._CliqueSearch: the same relabeling
    (into smallest_last_order) and greedy seed, the same greedy coloring of
    every node's pool, and the same leaves in collect mode. Its coloring
    records every vertex, and the branching loop prunes each one by its
    color, so a kernel that records fewer candidates must still agree with
    it node for node. With target
    None it runs maximise and returns the clique, sorted, in the original
    labels; otherwise collect, returning (sets or None, count, truncated).
    `symmetries` (permutations of the vertices, taken as automorphisms
    unchecked) prune the root whenever it branches: once a root candidate
    is searched, its image under each leaves the pool, and a candidate no
    longer in the pool is skipped. Collect then takes every image of every
    clique it found, and of every new image, until no new one appears; if
    the search passes min(cap, keep) cliques, or the closure holds more, it
    searches again without the maps, and the node count covers both.
    """
    n = len(adj)
    order = smallest_last_order(adj)
    pos = {v: p for p, v in enumerate(order)}
    rows = [sum(1 << pos[u] for u in range(n) if adj[v] >> u & 1) for v in order]
    nodes, count, found, stack = 0, 0, [], []
    if target is None:
        best = []
        pool = (1 << n) - 1
        while pool:
            v = (pool & -pool).bit_length() - 1
            best.append(v)
            pool &= rows[v]
        floor, leaf_size, stop = len(best), n, n if stop is None else stop
    else:
        floor, leaf_size, keep = target - 1, target - 2, cap if keep is None else keep

    class Done(Exception):
        pass

    def leaves(pool):
        nonlocal count, found
        heads = mask_to_tuple(pool)
        if len(stack) == floor:
            cliques = [(v,) for v in heads]
        else:
            cliques = [(u, v) for u in heads for v in heads if v > u and rows[u] >> v & 1]
        count += len(cliques)
        if found is not None:
            if min(count, cap) > keep:
                found = None
            else:
                found.extend(tuple(stack) + c for c in cliques)
                del found[cap:]
        if count > cap:
            count = cap
            raise Done

    def expand(size, pool, maps):
        nonlocal floor, best, nodes
        nodes += 1
        if size >= leaf_size:
            leaves(pool)
            return
        vertices, colors = [], []
        color, rest = 0, pool
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                vertices.append(v)
                colors.append(color)
                avail &= ~rows[v]
                avail ^= b
                rest ^= b
        for v, c in zip(reversed(vertices), reversed(colors)):
            if size + c <= floor:
                return
            if not pool >> v & 1:
                continue
            stack.append(v)
            child = pool & rows[v]
            if child:
                expand(size + 1, child, maps)
            elif size + 1 > floor:
                floor = size + 1
                best = stack.copy()
                if floor >= stop:
                    raise Done
            stack.pop()
            pool ^= 1 << v
            if not size:
                for sigma in maps:
                    pool &= ~(1 << pos[sigma[order[v]]])

    def labelled(cliques):
        return sorted(tuple(sorted(order[v] for v in c)) for c in cliques)

    if target is None:
        if floor < stop:
            try:
                expand(0, (1 << n) - 1, symmetries)
            except Done:
                pass
        return sorted(order[v] for v in best), nodes

    if symmetries and leaf_size > 0:
        # leaves() reads cap and keep when it runs: the orbit search's are the limit
        plain_limits, limit = (cap, keep), min(cap, keep)
        cap = keep = limit
        try:
            expand(0, (1 << n) - 1, symmetries)
        except Done:
            pass
        else:
            closed = new = set(labelled(found))
            while new:
                new = {tuple(sorted(sigma[v] for v in c)) for c in new for sigma in symmetries}
                new -= closed
                closed |= new
            if len(closed) <= limit:
                return (sorted(closed), len(closed), False), nodes
        count, found, (cap, keep) = 0, [], plain_limits
        stack.clear()
    truncated = False
    try:
        expand(0, (1 << n) - 1, ())
    except Done:
        truncated = True
    if found is not None:
        found = labelled(found)
    return (found, count, truncated), nodes
