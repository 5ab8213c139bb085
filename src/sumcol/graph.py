"""Undirected graphs as adjacency bitmasks, plus DIMACS .col text I/O.

Vertices are 0-based ints inside the library. DIMACS text is 1-based; the
parser and writer translate at the boundary. Adjacency rows are Python ints
used as bitsets, which keeps neighborhood intersection and counting cheap
for the branch and bound search built on top.

A DIMACS line ends at "\n", "\r\n" or "\r" (universal newlines), in a file
and in text alike; any other separator, such as a form feed, NEL or U+2028,
is whitespace inside its line. Error line numbers count those lines.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path


class DimacsError(ValueError):
    """Raised for malformed DIMACS input, with the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph. `adj[v]` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match n")

    @staticmethod
    def from_edges(n: int, edges, name: str = "") -> "Graph":
        """Build a graph from an iterable of 0-based (u, v) pairs.

        Duplicate edges and both orientations collapse; self loops are
        rejected.
        """
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj), name)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self.adj[v].bit_count()

    def density(self) -> float:
        """Edge density 2E / (n (n-1)); 0.0 for graphs with under 2 vertices."""
        if self.n < 2:
            return 0.0
        return 2.0 * self.edge_count / (self.n * (self.n - 1))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.adj))
        return Graph(self.n, rows, self.name)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        """Yield edges as 0-based (u, v) pairs with u < v, ascending."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            while rest:
                b = rest & -rest
                yield u, b.bit_length() - 1
                rest ^= b


def parse_dimacs(text: str, name: str = "") -> Graph:
    """Parse DIMACS .col text: `c` comments, one `p edge n m` line, `e u v` lines.

    Edge endpoints are 1-based. Duplicate and reversed edge lines collapse.
    Self loops, out-of-range endpoints, junk lines, edges before the problem
    line, or a second problem line raise DimacsError with the line number.
    The stored edge count is the deduplicated count and may differ from the
    m printed on the p line. A leading byte order mark (U+FEFF) is dropped,
    as read_dimacs drops it from a file.
    """
    return _parse_lines(io.StringIO(text.removeprefix("\ufeff"), newline=None), name)


def _parse_lines(lines: Iterable[str], name: str) -> Graph:
    """The graph of DIMACS lines, taken one at a time from a text stream in
    universal-newlines mode; line numbers count from 1."""
    n = -1
    adj: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0][0] == "c":
            continue
        if fields[0] == "p":
            if n >= 0:
                raise DimacsError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] not in ("edge", "edges"):
                raise DimacsError(line_no, f"malformed problem line: {line.strip()!r}")
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise DimacsError(
                    line_no, f"malformed problem line: {line.strip()!r}"
                ) from None
            if n < 0 or declared_m < 0:
                raise DimacsError(line_no, "negative counts on problem line")
            adj = [0] * n
        elif fields[0] == "e":
            if n < 0:
                raise DimacsError(line_no, "edge line before problem line")
            if len(fields) != 3:
                raise DimacsError(line_no, f"malformed edge line: {line.strip()!r}")
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"malformed edge line: {line.strip()!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(line_no, f"edge endpoint out of range 1..{n}")
            if u == v:
                raise DimacsError(line_no, f"self loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        else:
            raise DimacsError(line_no, f"unrecognized line: {line.strip()!r}")
    if n < 0:
        raise DimacsError(0, "missing problem line")
    return Graph(n, tuple(adj), name)


def write_dimacs(g: Graph, comment: str | None = None) -> str:
    """Serialize to DIMACS text that parse_dimacs round-trips exactly.

    Edges are written once each, 1-based, u < v, ascending.
    """
    out = []
    if comment:
        for c_line in comment.splitlines():
            out.append(f"c {c_line}".rstrip())
    out.append(f"p edge {g.n} {g.edge_count}")
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def read_dimacs(path) -> Graph:
    """Read a .col file; the graph name is the file stem.

    The file is parsed line by line as it is read, so only the graph is
    held, not the text; lines and their numbers are parse_dimacs's. Bytes
    that are not UTF-8 decode to U+FFFD: ignored in a comment, they make a
    problem or edge line malformed, so parsing raises DimacsError. A UTF-8
    byte order mark at the start of the file is skipped.
    """
    p = Path(path)
    with p.open(encoding="utf-8-sig", errors="replace") as f:
        return _parse_lines(f, p.stem)
