"""Disk cache for the expensive solver stages.

Bound formulas are instant, but the stability number and the independent
set enumeration can take minutes on hard instances. The cache keys those
stage outputs by the graph's canonical edge list plus every configuration
knob the solvers see, so changing a pure bound input (say the known
chromatic lower bound) reuses the solve while any solver-relevant change
forces a fresh run.

Entries are standalone JSON files, one per key, safe to delete at any time.
An entry keeps what the later stages read, never the enumerated sets
themselves: a loaded EnumerationResult carries its count and truncation
flag, with sets == ().
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .graph import Graph
from .stable import AlphaResult, EnumerationResult

CACHE_SCHEMA = "sumcol-cache-v3"


def _graph_digest(g: Graph) -> str:
    h = hashlib.sha256()
    h.update(f"n={g.n}".encode())
    for u, v in g.edges():
        h.update(f";{u},{v}".encode())
    return h.hexdigest()


def _config_digest(cfg) -> str:
    solver_knobs = {
        "alpha_override": cfg.alpha_override,
        "alpha_time_limit": cfg.alpha_time_limit,
        "enum_time_limit": cfg.enum_time_limit,
        "alpha_tilde_time_limit": cfg.alpha_tilde_time_limit,
        "count_cap": cfg.count_cap,
        "mis_graph_cap": cfg.mis_graph_cap,
    }
    blob = json.dumps(solver_knobs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _alpha_to_json(res: AlphaResult | None) -> dict | None:
    if res is None:
        return None
    return {
        "value": res.value,
        "exact": res.exact,
        "elapsed": res.elapsed,
        "method": res.method,
        "witness": list(res.witness) if res.witness is not None else None,
    }


def _alpha_from_json(obj: dict | None) -> AlphaResult | None:
    if obj is None:
        return None
    witness = obj.get("witness")
    return AlphaResult(
        value=int(obj["value"]),
        exact=bool(obj["exact"]),
        elapsed=float(obj["elapsed"]),
        method=str(obj["method"]),
        witness=tuple(witness) if witness is not None else None,
    )


def _enum_to_json(res: EnumerationResult | None) -> dict | None:
    if res is None:
        return None
    return {
        "target_size": res.target_size,
        "count": res.count,
        "truncated": res.truncated,
        "elapsed": res.elapsed,
    }


def _enum_from_json(obj: dict | None) -> EnumerationResult | None:
    if obj is None:
        return None
    return EnumerationResult(
        target_size=int(obj["target_size"]),
        sets=(),
        count=int(obj["count"]),
        truncated=bool(obj["truncated"]),
        elapsed=float(obj["elapsed"]),
    )


@dataclass
class SolveCache:
    """File-backed store compatible with compute_bounds_pipeline's cache hook."""

    directory: Path

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def _path(self, g: Graph, cfg) -> Path:
        key = f"{_graph_digest(g)}-{_config_digest(cfg)[:16]}"
        return self.directory / f"{key}.json"

    def load(self, g: Graph, cfg):
        path = self._path(g, cfg)
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if obj.get("schema") != CACHE_SCHEMA:
            return None
        alpha = _alpha_from_json(obj.get("alpha"))
        if alpha is None:
            return None
        return (
            alpha,
            _enum_from_json(obj.get("enumeration")),
            obj.get("enum_skipped"),
            _alpha_from_json(obj.get("alpha_tilde")),
            obj.get("tilde_skipped"),
            dict(obj.get("timings") or {}),
        )

    def store(self, g: Graph, cfg, alpha_res, enum_res, enum_skipped,
              tilde_res, tilde_skipped, timings) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        obj = {
            "schema": CACHE_SCHEMA,
            "instance": g.name,
            "n": g.n,
            "edge_count": g.edge_count,
            "alpha": _alpha_to_json(alpha_res),
            "enumeration": _enum_to_json(enum_res),
            "enum_skipped": enum_skipped,
            "alpha_tilde": _alpha_to_json(tilde_res),
            "tilde_skipped": tilde_skipped,
            "timings": timings,
        }
        path = self._path(g, cfg)
        # one temporary file per writer, so concurrent stores of the same key
        # never write into each other's file before the atomic rename
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def clear(self) -> int:
        """Delete all cache entries, returning how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.json"):
                entry.unlink()
                removed += 1
            for entry in self.directory.glob("*.tmp"):
                entry.unlink()
        return removed


def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "sumcol"
