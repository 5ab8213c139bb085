"""Deterministic constructions for the classic coloring benchmark families.

Three families are pure constructions and can be synthesized bit-for-bit
compatible with the distributed instances (isomorphic; every quantity the
bounds use is isomorphism invariant):

  myciel{k}            iterated Mycielskian of K2 (k-1 rounds, 2 levels)
  {k}-Insertions_{l}   iterated generalized Mycielskian of K2 with k+2
                       levels per round (l-1 rounds)
  queen{r}_{c}         one vertex per square of an r x c board, edges
                       between squares sharing a row, column, or diagonal

The pseudo-random families (DSJC*, DSJR*, flat*) are fixed published
instances and cannot be regenerated; supply their .col files on disk.
"""

from __future__ import annotations

import re

from .graph import Graph
from .stable import is_automorphism


def mycielskian(g: Graph, levels: int = 2, name: str = "") -> Graph:
    """Generalized Mycielskian: `levels` stacked copies plus an apex.

    Level 0 keeps the original edges; higher levels are internally empty;
    (u, i) connects to (v, i+1) whenever uv is an edge; the apex connects
    to all of the top level. levels=2 is the classic construction.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    n = g.n
    edges = list(g.edges())
    out = []
    out.extend(edges)
    for gap in range(levels - 1):
        lo, hi = gap * n, (gap + 1) * n
        for u, v in edges:
            out.append((lo + u, hi + v))
            out.append((lo + v, hi + u))
    apex = levels * n
    top = (levels - 1) * n
    for v in range(n):
        out.append((top + v, apex))
    return Graph.from_edges(levels * n + 1, out, name=name)


def _iterate_from_k2(rounds: int, levels: int, name: str) -> Graph:
    g = Graph.from_edges(2, [(0, 1)], name=name)
    for _ in range(rounds):
        g = mycielskian(g, levels, name)
    return g


def myciel_graph(k: int) -> Graph:
    """myciel{k}: k-1 Mycielskian rounds from K2 (k=3 is the 11-vertex graph)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _iterate_from_k2(k - 1, 2, f"myciel{k}")


def insertions_graph(k: int, l: int) -> Graph:
    """{k}-Insertions_{l}: l-1 generalized Mycielskian rounds (k+2 levels) from K2."""
    if k < 1 or l < 2:
        raise ValueError("need k >= 1 and l >= 2")
    return _iterate_from_k2(l - 1, k + 2, f"{k}-Insertions_{l}")


def queen_graph(rows: int, cols: int) -> Graph:
    """queen{rows}_{cols}: mutual-attack graph of queens on a board."""
    if rows < 1 or cols < 1:
        raise ValueError("board dimensions must be >= 1")
    n = rows * cols
    edges = []
    for r1 in range(rows):
        for c1 in range(cols):
            u = r1 * cols + c1
            for r2 in range(r1, rows):
                start = c1 + 1 if r2 == r1 else 0
                for c2 in range(start, cols):
                    if r2 == r1 or c2 == c1 or abs(r2 - r1) == abs(c2 - c1):
                        edges.append((u, r2 * cols + c2))
    return Graph.from_edges(n, edges, name=f"queen{rows}_{cols}")


def _board_maps(rows: int, cols: int):
    """The row-major index maps of the rows x cols board's flips and turns:
    the two flips and the half turn, and on a square board also both
    diagonal reflections and both quarter turns."""
    r, c = rows - 1, cols - 1
    moves = [lambda i, j: (r - i, j), lambda i, j: (i, c - j), lambda i, j: (r - i, c - j)]
    if rows == cols:
        moves += [lambda i, j: (j, i), lambda i, j: (c - j, r - i),
                  lambda i, j: (j, r - i), lambda i, j: (c - j, i)]
    for move in moves:
        yield tuple(a * cols + b for a, b in
                    (move(i, j) for i in range(rows) for j in range(cols)))


def board_symmetries(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The board maps that are automorphisms of g, as vertex permutations.

    For each factorisation n = rows * cols with rows, cols >= 2, g's
    vertices are read as the cells of a rows x cols board in row-major
    order, and each of the board's flips and turns (_board_maps) is kept
    if it maps g onto itself (stable.is_automorphism), each map once. No
    name is read, so a queen graph written to DIMACS and read back keeps
    its 7 (square board) or 3 maps.
    """
    found: dict[tuple[int, ...], None] = {}
    for rows in range(2, g.n // 2 + 1):
        if g.n % rows == 0:
            for perm in _board_maps(rows, g.n // rows):
                if perm not in found and is_automorphism(g.adj, perm):
                    found[perm] = None
    return tuple(found)


# each constructible family's full name and the builder its numbers feed
_FAMILIES = (
    (re.compile(r"myciel(\d+)"), myciel_graph),
    (re.compile(r"queen(\d+)_(\d+)"), queen_graph),
    (re.compile(r"(\d+)-Insertions_(\d+)"), insertions_graph),
)


def can_generate(name: str) -> bool:
    return any(pattern.fullmatch(name) for pattern, _ in _FAMILIES)


def generate(name: str) -> Graph:
    """Build a benchmark instance from its conventional name.

    Raises ValueError for names outside the constructible families.
    """
    for pattern, build in _FAMILIES:
        m = pattern.fullmatch(name)
        if m:
            return build(*map(int, m.groups()))
    raise ValueError(f"no generator for instance {name!r}")
