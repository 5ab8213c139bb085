"""Disk cache for the expensive solver stages.

Bound formulas are instant, but the stability number and the independent
set enumeration can take minutes on hard instances. The cache keys those
stage outputs by the graph's canonical edge list plus the whole
`bounds.PipelineConfig`, which holds only what the solvers read: any change
to it forces a fresh run, while a formula input such as the known
chromatic lower bound is no part of the key and reuses the solve.

Entries are standalone JSON files, one per key, safe to delete at any time.
An entry is the schema tag plus the dict of report stage fields the
pipeline hands to `store` (`bounds.STAGE_FIELDS`): alpha, the count of
maximum independent sets and alpha~ with their flags and skip reasons.
It holds no timings, so solves that reach the same outcomes write the same
bytes, and never the sets themselves. The cache does not interpret that
dict; the pipeline checks a loaded one and treats a malformed entry as a
miss.

The schema tag is not written by hand: it is a digest of the package's
source (`source_tag`), so any change to a module retires every entry
written before it, and an entry with another tag is a miss that the next
store overwrites.
`clear` deletes only the files the cache writes, by their names, and
counts only the entries it removed itself: a file that a concurrent store
or clear took away after `clear` listed the directory is passed over. A
store whose temporary file a concurrent `clear` deleted skips its write.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from .graph import Graph


def source_tag(package: Path) -> str:
    """`sumcol-cache-` and 12 hex digits of a SHA-256 over the package's
    `*.py` modules, taken in name order as name, NUL, bytes."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"sumcol-cache-{h.hexdigest()[:12]}"


CACHE_SCHEMA = source_tag(Path(__file__).parent)


def _graph_digest(g: Graph) -> str:
    h = hashlib.sha256()
    h.update(f"n={g.n}".encode())
    for u, v in g.edges():
        h.update(f";{u},{v}".encode())
    return h.hexdigest()


def _config_digest(cfg) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class SolveCache:
    """File-backed store compatible with compute_bounds_pipeline's cache hook."""

    directory: Path

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def _path(self, g: Graph, cfg) -> Path:
        key = f"{_graph_digest(g)}-{_config_digest(cfg)[:16]}"
        return self.directory / f"{key}.json"

    # the names _path gives entries (group 1 is set) and mkstemp gives the
    # temporary files of store, `<entry stem>.<random>.tmp`: all clear deletes
    _NAMES = re.compile(r"[0-9a-f]{64}-[0-9a-f]{16}\.(?:(json)|[a-z0-9_]+\.tmp)")

    def load(self, g: Graph, cfg) -> dict | None:
        """The stage dict stored for (g, cfg), or None if there is no usable entry."""
        try:
            with open(self._path(g, cfg), encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(obj, dict) or obj.pop("schema", None) != CACHE_SCHEMA:
            return None
        return obj

    def store(self, g: Graph, cfg, stages: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(g, cfg)
        # one temporary file per writer, so concurrent stores of the same key
        # never write into each other's file before the atomic rename
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump({"schema": CACHE_SCHEMA, **stages}, fh)
            os.replace(tmp, path)
        except FileNotFoundError:
            # a concurrent clear deleted the temporary file: the write is skipped
            return
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def clear(self) -> int:
        """Delete the cache's entries and leftover temporary files, returning
        how many entries were removed. Files of other names are kept."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                name = self._NAMES.fullmatch(path.name)
                if name:
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        # a concurrent store renamed its temporary file, or
                        # another clear got there first: nothing was removed
                        continue
                    removed += name[1] is not None
        return removed


def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "sumcol"
