"""In-memory spans around sumcol's public functions, installed from outside.

The tracer replaces module attributes (the names `sumcol.bounds` and
`sumcol.cli` imported, `sumcol.misgraph.max_independent_set`, the two
`SolveCache` methods and `sumcol.instances.generate`) with wrappers that
record a span per call, and puts the originals back on `uninstall`. No file
of the package changes. Spans stay in memory; the caller derives per-layer
figures after each pass and writes the spans out at the end.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    run: str
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    # Call arguments and result, kept only until the pass is summarised.
    call: tuple | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# (span name, module, attribute) of every wrapped callable. The first four
# are the names the pipeline calls stable and misgraph through, so
# "stable.alpha" is alpha on G; the kernel call inside alpha~ is its own span.
TARGETS = (
    ("stable.alpha", "sumcol.bounds", "max_independent_set"),
    ("stable.enum", "sumcol.bounds", "enumerate_maximum_independent_sets"),
    ("misgraph.build", "sumcol.bounds", "build_mis_graph"),
    ("misgraph.alpha_tilde", "sumcol.bounds", "_alpha_tilde"),
    ("stable.alpha_mis_graph", "sumcol.misgraph", "max_independent_set"),
    ("bounds.pipeline", "sumcol.cli", "compute_bounds_pipeline"),
    ("graph.dimacs_parse", "sumcol.cli", "parse_dimacs"),
    ("graph.dimacs_read", "sumcol.cli", "read_dimacs"),
    ("graph.dimacs_write", "sumcol.cli", "write_dimacs"),
    ("instances.generate", "sumcol.instances", "generate"),
    ("cache.load", "sumcol.cache", "SolveCache.load"),
    ("cache.store", "sumcol.cache", "SolveCache.store"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, 0.0, self.run, parent)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def call(self, name: str, fn, /, *args, **kwargs):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        span.call = (args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict) -> None:
        for name, module_name, attr in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": s.run, "self_s": s.self_s, **s.info}
            for s in self.spans
        ]


def annotate(spans: list[Span]) -> None:
    """Turn each span's kept call into counts, then drop the references."""
    for s in spans:
        if s.call is None:
            continue
        args, result = s.call
        s.call = None
        if s.name == "stable.enum":
            cap = args[2].count_cap
            s.info.update(sets=result.count, truncated=result.truncated,
                          cap_stop=result.truncated and result.count == cap)
        elif s.name in ("stable.alpha", "stable.alpha_mis_graph",
                        "misgraph.alpha_tilde"):
            s.info["exact"] = result.exact
        elif s.name == "misgraph.build":
            s.info.update(k=result.n,
                          edges=sum(row.bit_count() for row in result.adj) // 2)
        elif s.name == "graph.dimacs_parse":
            s.info["bytes"] = len(args[0].encode())
        elif s.name == "graph.dimacs_read":
            s.info["bytes"] = Path(args[0]).stat().st_size
        elif s.name == "graph.dimacs_write":
            s.info["bytes"] = len(result.encode())
        elif s.name == "cache.load":
            s.info["hit"] = result is not None
        elif s.name == "bounds.pipeline":
            s.info.update(cached=result.cached, timings=dict(result.timings))
