"""Integer partitions under sum-coloring constraints, and their move order.

A partition is written largest part first. Reading it as a Young diagram,
part a_i is the number of squares on line i, and its cost is
sum(i * a_i): squares are billed by line number. The admissible partitions
for given bound parameters are those with sum n, parts capped at alpha_bar,
at most m parts equal to alpha_bar, and at least s_lower parts.

Two inverse moves connect admissible partitions: a successor move drops one
square from line i to a lower line j (cost +(j - i), always positive), a
predecessor move lifts one square up (cost falls). The brute-force oracle
here is the reference the closed-form bounds are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class InfeasibleParamsError(ValueError):
    """No admissible partition exists for the given parameters."""


@dataclass(frozen=True)
class BoundParams:
    """Shared parameter block: partition total n, part cap alpha_bar,
    minimum part count s_lower, cap m on parts equal to alpha_bar."""

    n: int
    alpha_bar: int
    s_lower: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.alpha_bar < 1:
            raise ValueError("alpha_bar must be >= 1")
        if self.s_lower < 1:
            raise ValueError("s_lower must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")

    def is_feasible(self) -> bool:
        """Whether any admissible partition exists.

        Needs s_lower <= n, and for alpha_bar == 1 the all-ones partition
        (the only candidate) must satisfy the m cap, i.e. m >= n. For
        alpha_bar >= 2 the all-ones partition is always admissible.
        """
        if self.s_lower > self.n:
            return False
        if self.alpha_bar == 1:
            return self.m >= self.n
        return True


@dataclass(frozen=True)
class IntegerPartition:
    """Non-increasing positive parts; the empty partition has sum 0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for x in self.parts:
            if x < 1:
                raise ValueError(f"parts must be positive, got {x}")
            if prev is not None and x > prev:
                raise ValueError(f"parts must be non-increasing, got {self.parts}")
            prev = x

    @property
    def n(self) -> int:
        return sum(self.parts)

    def line(self, i: int) -> int:
        """Squares on line i (1-based); 0 beyond the last part."""
        if i < 1:
            raise ValueError("line numbers are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"

    def young(self) -> str:
        """ASCII Young diagram, one '#' per square."""
        return "\n".join("#" * x for x in self.parts)


def cost(a: IntegerPartition) -> int:
    """Sum of line number times squares on the line."""
    return sum(i * x for i, x in enumerate(a.parts, start=1))


def change(a: IntegerPartition, i: int, j: int) -> IntegerPartition:
    """Move one square from line i to line j.

    Raises if line i is empty or the result is not a valid partition
    (parts must stay non-increasing and non-negative).
    """
    if i < 1 or j < 1:
        raise ValueError("line numbers are 1-based")
    if i == j:
        raise ValueError("source and target lines must differ")
    if a.line(i) < 1:
        raise ValueError(f"line {i} has no square to move")
    width = max(len(a.parts), j)
    parts = [a.line(k) for k in range(1, width + 1)]
    parts[i - 1] -= 1
    parts[j - 1] += 1
    for prev, cur in zip(parts, parts[1:]):
        if cur > prev:
            raise ValueError(f"move ({i} -> {j}) on {a} breaks the non-increasing order")
    while parts and parts[-1] == 0:
        parts.pop()
    return IntegerPartition(tuple(parts))


def successors(a: IntegerPartition) -> set[IntegerPartition]:
    """All partitions reachable by one downward square move.

    For each line i with at least two squares and a strictly shorter line
    below, the square lands on the first line j > i shorter than a_i - 1.
    The all-ones column is the unique fixed point (empty successor set).
    """
    n = a.n
    out: set[IntegerPartition] = set()
    for i in range(1, n):
        ai = a.line(i)
        if ai != 1 and a.line(i + 1) < ai:
            j = i + 1
            while j < n and a.line(j) >= ai - 1:
                j += 1
            out.add(change(a, i, j))
    return out


def is_admissible(a: IntegerPartition, p: BoundParams) -> bool:
    """Whether a satisfies every constraint of the parameter block."""
    if a.n != p.n:
        return False
    if a.parts and a.parts[0] > p.alpha_bar:
        return False
    if sum(1 for x in a.parts if x == p.alpha_bar) > p.m:
        return False
    return len(a.parts) >= p.s_lower


def predecessors(
    a: IntegerPartition, p: BoundParams, *, target_line_test: bool = False
) -> set[IntegerPartition]:
    """All partitions reachable by one upward square move that stays admissible.

    A square leaves line i (for i in 2..n-1) only when the line keeps its
    mandatory square (a_i > 1 if i <= s_lower, else a_i > 0), the line above
    has headroom under the part cap, and a_{i+1} < a_i. It lands on the
    topmost line of the run of equal values above i.

    The headroom test compares position i-1 against m by default. With
    target_line_test=True the test uses the landing line j instead, which
    admits every move whose result is admissible (the default can reject
    some legal moves when the equal run crosses position m).
    """
    if not is_admissible(a, p):
        raise ValueError(f"{a} is not admissible under {p}")
    n, alpha_bar, s_lower, m = p.n, p.alpha_bar, p.s_lower, p.m
    out: set[IntegerPartition] = set()
    for i in range(2, n):
        ai = a.line(i)
        if not ((i <= s_lower and ai > 1) or (i > s_lower and ai > 0)):
            continue
        if a.line(i + 1) >= ai:
            continue
        above = a.line(i - 1)
        j = i - 1
        while j != 1 and a.line(j) >= a.line(j - 1):
            j -= 1
        anchor = j if target_line_test else i - 1
        if not ((anchor <= m and above < alpha_bar) or (anchor > m and above < alpha_bar - 1)):
            continue
        out.add(change(a, i, j))
    return out


def enumerate_admissible(p: BoundParams, limit: int = 40) -> Iterator[IntegerPartition]:
    """Yield every admissible partition once, largest-first lexicographic.

    Guarded by a size limit (default n <= 40) because the count grows
    quickly; raise the limit explicitly for larger experiments.
    """
    if p.n > limit:
        raise ValueError(f"n={p.n} exceeds the enumeration limit {limit}")
    if not p.is_feasible():
        return
    cap_count = min(p.m, p.n)

    def walk(remaining: int, max_part: int, caps_left: int, prefix: list[int]):
        if remaining == 0:
            if len(prefix) >= p.s_lower:
                yield IntegerPartition(tuple(prefix))
            return
        if len(prefix) + remaining < p.s_lower:
            return
        for v in range(min(max_part, remaining), 0, -1):
            if v == p.alpha_bar and caps_left == 0:
                continue
            prefix.append(v)
            yield from walk(
                remaining - v, v, caps_left - (1 if v == p.alpha_bar else 0), prefix
            )
            prefix.pop()

    yield from walk(p.n, min(p.alpha_bar, p.n), cap_count, [])


def oracle_min(p: BoundParams, limit: int = 40) -> tuple[IntegerPartition, int]:
    """Brute-force minimum-cost admissible partition.

    Ties keep the lexicographically largest partition (the enumeration
    order), matching the closed-form witnesses. Raises
    InfeasibleParamsError when no partition is admissible.
    """
    best: IntegerPartition | None = None
    best_cost = 0
    for a in enumerate_admissible(p, limit=limit):
        c = cost(a)
        if best is None or c < best_cost:
            best, best_cost = a, c
    if best is None:
        raise InfeasibleParamsError(f"no admissible partition for {p}")
    return best, best_cost


@dataclass(frozen=True)
class LatticeDag:
    """Admissible partitions of one parameter block wired by successor moves."""

    params: BoundParams
    nodes: tuple[IntegerPartition, ...]
    costs: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]  # (from, to, cost delta)
    predecessor_free: tuple[int, ...]
    optimum: int

    def to_dot(self) -> str:
        lines = ["digraph admissible {", '  rankdir="TB";']
        for idx, (node, c) in enumerate(zip(self.nodes, self.costs)):
            shape = ' peripheries="2"' if idx in self.predecessor_free else ""
            fill = ' style="filled" fillcolor="lightgrey"' if idx == self.optimum else ""
            lines.append(f'  p{idx} [label="{node}\\ncost {c}"{shape}{fill}];')
        for src, dst, delta in self.arcs:
            lines.append(f'  p{src} -> p{dst} [label="+{delta}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = []
        p = self.params
        out.append(
            f"admissible partitions for n={p.n} alpha_bar={p.alpha_bar} "
            f"s_lower={p.s_lower} m={p.m}"
        )
        for idx, (node, c) in enumerate(zip(self.nodes, self.costs)):
            tags = []
            if idx == self.optimum:
                tags.append("optimum")
            if idx in self.predecessor_free:
                tags.append("predecessor-free")
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            out.append("")
            out.append(f"[{idx}] {node}  cost {c}{suffix}")
            out.append(node.young())
            targets = [(dst, delta) for src, dst, delta in self.arcs if src == idx]
            if targets:
                moves = ", ".join(f"[{dst}] (+{delta})" for dst, delta in targets)
                out.append(f"  successors: {moves}")
        return "\n".join(out) + "\n"


def lattice_dag(p: BoundParams, limit: int = 15) -> LatticeDag:
    """Build the full successor DAG over the admissible partitions.

    Exponential in n, hence the small default limit. Raises
    InfeasibleParamsError when the admissible set is empty.
    """
    if p.n > limit:
        raise ValueError(f"n={p.n} exceeds the lattice limit {limit}")
    nodes = list(enumerate_admissible(p, limit=limit))
    if not nodes:
        raise InfeasibleParamsError(f"no admissible partition for {p}")
    index = {a: i for i, a in enumerate(nodes)}
    costs = [cost(a) for a in nodes]
    arcs = []
    for i, a in enumerate(nodes):
        for b in sorted(successors(a), key=lambda x: x.parts, reverse=True):
            arcs.append((i, index[b], cost(b) - costs[i]))
    pred_free = tuple(
        i for i, a in enumerate(nodes) if not predecessors(a, p)
    )
    optimum = min(range(len(nodes)), key=lambda i: (costs[i], i))
    return LatticeDag(
        params=p,
        nodes=tuple(nodes),
        costs=tuple(costs),
        arcs=tuple(arcs),
        predecessor_free=pred_free,
        optimum=optimum,
    )
