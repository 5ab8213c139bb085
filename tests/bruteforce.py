"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package (subset
sweeps and direct backtracking instead of branch and bound) so agreement
is meaningful evidence of correctness.
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


def greedy_coloring_alpha_bar(g: Graph) -> int:
    """Upper bound on alpha(g) by greedy coloring of complement(g).

    Vertices are colored in largest-complement-degree-first order (index
    ascending on ties) with the smallest feasible color; the class count
    bounds omega(complement) = alpha(g) from above. By Welsh and Powell
    (Comput. J. 1967) it never exceeds degree_rule_alpha_bar.
    """
    if g.n == 0:
        return 0
    comp = g.complement().adj
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
