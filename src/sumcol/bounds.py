"""Closed-form lower bounds for sum coloring and vertex coloring.

Any proper coloring of a graph with n vertices induces an integer
partition of n: the sorted color class sizes. Relaxing "class = independent
set" to three counting constraints (classes capped at alpha_bar, at most m
classes of size alpha_bar, at least s_lower classes) leaves a partition
problem whose optimum has a closed form. Its cost lower-bounds the
chromatic sum, and its class count lower-bounds the chromatic number.

All formulas were cross-checked against the brute-force oracle in
partitions.oracle_min over the full feasible parameter grid (see tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

from .graph import Graph
from .misgraph import alpha_tilde as _alpha_tilde
from .misgraph import build_mis_graph, compute_m
from .partitions import (
    BoundParams,
    InfeasibleParamsError,
    IntegerPartition,
    linewise_add,
)
from .stable import (
    AlphaResult,
    Budget,
    enumerate_maximum_independent_sets,
    max_independent_set,
)

REPORT_SCHEMA = "sumcol-report-v1"


def _column(n: int) -> IntegerPartition:
    return IntegerPartition((1,) * n)


def sigma_m0(n: int, alpha_bar: int, m: int) -> tuple[int, IntegerPartition]:
    """Minimum partition cost without the minimum-class-count constraint.

    m is clamped to floor(n / alpha_bar) (more alpha_bar-sized parts than
    that cannot fit in n). Splitting n as
    n - m*alpha_bar = q*(alpha_bar - 1) + r with 0 <= r < alpha_bar - 1,
    the optimum packs greedily: m parts of alpha_bar, q parts of
    alpha_bar - 1, then r. With alpha_bar = 1 the only shape is the
    all-ones column. n = 0 yields the empty partition at cost 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha_bar < 1:
        raise ValueError("alpha_bar must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if n == 0:
        return 0, IntegerPartition(())
    if alpha_bar == 1:
        return n * (n + 1) // 2, _column(n)
    m_eff = min(m, n // alpha_bar)
    q, r = divmod(n - m_eff * alpha_bar, alpha_bar - 1)
    value = (
        m_eff * (m_eff + 1) // 2 * alpha_bar
        + q * (2 * m_eff + q + 1) // 2 * (alpha_bar - 1)
        + (m_eff + q + 1) * r
    )
    parts = (alpha_bar,) * m_eff + (alpha_bar - 1,) * q + ((r,) if r else ())
    return value, IntegerPartition(parts)


def sigma_m(p: BoundParams) -> tuple[int, IntegerPartition]:
    """Minimum partition cost under all constraints, with a witness.

    When the unconstrained optimum already has at least s_lower nonzero
    parts it stands. Otherwise the optimum reserves one square on each of
    the first s_lower lines (cost s_lower*(s_lower+1)/2) and distributes
    the remaining n - s_lower squares with the part cap lowered by one;
    the witness is the line-by-line sum of both diagrams.
    """
    if not p.is_feasible():
        raise InfeasibleParamsError(f"no admissible partition for {p}")
    if p.alpha_bar == 1:
        return p.n * (p.n + 1) // 2, _column(p.n)
    value, witness = sigma_m0(p.n, p.alpha_bar, p.m)
    if len(witness.parts) >= p.s_lower:
        return value, witness
    base = p.s_lower * (p.s_lower + 1) // 2
    rest_value, rest = sigma_m0(p.n - p.s_lower, p.alpha_bar - 1, p.m)
    return base + rest_value, linewise_add(_column(p.s_lower), rest)


def lbm_sigma(n: int, alpha_bar: int, s_lower: int) -> int:
    """Sum-coloring lower bound without any cap on full-size classes.

    Equivalent to sigma_m with m = floor(n / alpha_bar), the largest value
    the clamp allows. Always <= sigma_m for any tighter m.
    """
    if not 1 <= alpha_bar <= n:
        raise ValueError("alpha_bar must be in 1..n")
    value, _ = sigma_m(BoundParams(n, alpha_bar, s_lower, n // alpha_bar))
    return value


def lb_chi(n: int, alpha_bar: int, m: int) -> int:
    """Chromatic number lower bound: the class count of the optimal shape.

    Counts the nonzero parts of sigma_m0's witness: m parts of alpha_bar,
    q of alpha_bar - 1, plus one for a nonzero remainder. alpha_bar = 1
    forces n singleton classes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= alpha_bar <= n:
        raise ValueError("alpha_bar must be in 1..n")
    if m < 0:
        raise ValueError("m must be >= 0")
    return len(sigma_m0(n, alpha_bar, m)[1].parts)


def choose_s_lower(
    n: int, alpha_bar: int, known_chi_lb: int | None = None
) -> tuple[int, str]:
    """Minimum class count to enforce, with its provenance tag.

    ceil(n / alpha_bar) always holds (some class would otherwise have to
    exceed alpha_bar); a known chromatic lower bound wins when at least as
    strong. Tags: "known-chi-lb" or "ceil-n-over-alpha".
    """
    if not 1 <= alpha_bar <= n:
        raise ValueError("alpha_bar must be in 1..n")
    base = -(-n // alpha_bar)
    if known_chi_lb is not None:
        if known_chi_lb < 1:
            raise ValueError("known_chi_lb must be >= 1")
        if known_chi_lb >= base:
            return known_chi_lb, "known-chi-lb"
    return base, "ceil-n-over-alpha"


# Past this many maximum sets alpha~ is skipped, so the sets are only counted.
MIS_GRAPH_CAP = 5000


@dataclass
class PipelineConfig:
    """Stage time limits, the count cap and overrides for compute_bounds_pipeline."""

    alpha_time_limit: float = 60.0
    enum_time_limit: float = 60.0
    alpha_tilde_time_limit: float = 60.0
    count_cap: int = 5000
    known_chi_lb: int | None = None
    alpha_override: int | None = None


@dataclass(frozen=True)
class BoundReport:
    """Everything one bound run produced, with provenance and timings."""

    instance: str
    n: int
    edge_count: int
    density: float
    alpha_bar: int
    alpha_exact: bool
    alpha_method: str
    num_is: int | None
    num_is_truncated: bool
    enum_skipped: str | None
    alpha_tilde: int | None
    alpha_tilde_exact: bool
    alpha_tilde_skipped: str | None
    m: int
    q: int
    r: int
    s_lower: int
    s_lower_source: str
    lb_chi: int
    lbm_sigma: int
    sigma_m0: int
    sigma_m: int
    witness: tuple[int, ...]
    cached: bool = False
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = {"schema": REPORT_SCHEMA}
        d.update((f.name, getattr(self, f.name)) for f in fields(self))
        d["density"] = round(self.density, 6)
        d["witness"] = list(self.witness)
        d["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return d

    CSV_FIELDS = (
        "instance", "n", "edge_count", "density", "alpha_bar", "alpha_exact",
        "num_is", "num_is_truncated", "alpha_tilde", "m", "s_lower", "lb_chi",
        "lbm_sigma", "sigma_m0", "sigma_m",
    )
    CSV_HEADER = ",".join(CSV_FIELDS)

    def to_csv_row(self) -> str:
        def cell(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return str(x).lower()
            if isinstance(x, float):
                return f"{x:.4f}"
            return str(x)

        return ",".join(cell(getattr(self, name)) for name in self.CSV_FIELDS)


# The solver stages' outcomes: what the cache stores, and all the formulas
# read besides the graph and the config. A run's timings stay with its report.
STAGE_FIELDS = (
    "alpha_bar", "alpha_exact", "alpha_method", "num_is", "num_is_truncated",
    "enum_skipped", "alpha_tilde", "alpha_tilde_exact", "alpha_tilde_skipped",
)

# The types each stage field may hold, resolved once at import (get_type_hints
# costs about as much as a warm report). Exact types: a JSON true is not an int.
_STAGE_TYPES = {
    name: get_args(hint) or (hint,)
    for name, hint in get_type_hints(BoundReport).items()
    if name in STAGE_FIELDS
}


def _is_stage_record(obj: dict, n: int) -> bool:
    """True when obj has exactly the STAGE_FIELDS, each of its field's type,
    with values a solve of an n-vertex graph can produce."""
    if obj.keys() != _STAGE_TYPES.keys() or not all(
        type(obj[name]) in kinds for name, kinds in _STAGE_TYPES.items()
    ):
        return False
    num_is, tilde = obj["num_is"], obj["alpha_tilde"]
    return (
        1 <= obj["alpha_bar"] <= n
        and (num_is is None or num_is >= (0 if obj["num_is_truncated"] else 1))
        and (tilde is None or tilde >= 1)
    )


def _solve_stages(g: Graph, cfg: PipelineConfig) -> tuple[dict, dict[str, float]]:
    """Run the solver stages and return their STAGE_FIELDS and timings.

    Stages: stability number (exact branch and bound, or the upper bound
    the search held when its time limit stopped it), enumeration of the
    maximum independent sets, then their intersection graph's stability
    number. A later stage is skipped (never guessed) when an earlier one is
    inexact or truncated, and the skip reason is recorded. An exact alpha
    with no independent set of its size can only be an alpha override above
    alpha(g), which raises ValueError. A stage's time covers its solver call
    alone (alpha~'s leaves out the intersection-graph build), and a provided
    alpha takes none.
    """
    if cfg.alpha_override is not None:
        if not 1 <= cfg.alpha_override <= g.n:
            raise ValueError("alpha override out of range")
        alpha = AlphaResult(value=cfg.alpha_override, exact=True, method="provided")
        timings = {"alpha": 0.0}
    else:
        start = time.monotonic()
        alpha = max_independent_set(g, cfg.alpha_time_limit)
        timings = {"alpha": time.monotonic() - start}
    stages = {
        "alpha_bar": alpha.value,
        "alpha_exact": alpha.exact,
        "alpha_method": alpha.method,
        "num_is": None,
        "num_is_truncated": False,
        "enum_skipped": None,
        "alpha_tilde": None,
        "alpha_tilde_exact": False,
        "alpha_tilde_skipped": None,
    }
    if not alpha.exact:
        stages["enum_skipped"] = "alpha-inexact"
        stages["alpha_tilde_skipped"] = "enumeration-skipped"
        return stages, timings

    start = time.monotonic()
    enum = enumerate_maximum_independent_sets(
        g, alpha.value, Budget(cfg.enum_time_limit, cfg.count_cap), keep=MIS_GRAPH_CAP
    )
    timings["enumeration"] = time.monotonic() - start
    if not enum.count and not enum.truncated:
        raise ValueError(
            f"alpha override {alpha.value} is above alpha(G): "
            f"no independent set has {alpha.value} vertices"
        )
    stages["num_is"] = enum.count
    stages["num_is_truncated"] = enum.truncated
    if enum.truncated:
        stages["alpha_tilde_skipped"] = "enumeration-truncated"
    elif enum.count > MIS_GRAPH_CAP:
        stages["alpha_tilde_skipped"] = "num-is-over-cap"
    else:
        mg = build_mis_graph(enum.sets)
        start = time.monotonic()
        tilde = _alpha_tilde(mg, cfg.alpha_tilde_time_limit)
        timings["alpha_tilde"] = time.monotonic() - start
        stages["alpha_tilde"] = tilde.value
        stages["alpha_tilde_exact"] = tilde.exact
    return stages, timings


def compute_bounds_pipeline(
    g: Graph, config: PipelineConfig | None = None, cache=None
) -> BoundReport:
    """Run the full staged computation on one graph.

    The solver stages (see _solve_stages) give alpha, the number of maximum
    independent sets and alpha~; the closed-form bounds then run on them.
    The m chain simply uses fewer terms when a stage was skipped or
    truncated. An optional cache stores the stage fields keyed by instance
    content and solver-relevant config, so bound parameters like the known
    chromatic lower bound can change without re-solving. A loaded entry
    that is not a well-typed stage record with in-range values is a miss,
    and is overwritten.
    """
    cfg = config or PipelineConfig()
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    # chi(G) <= n, so no valid lower bound lies past n: reject it before any solve
    if cfg.known_chi_lb is not None and not 1 <= cfg.known_chi_lb <= g.n:
        raise ValueError(f"known_chi_lb {cfg.known_chi_lb} out of range 1..{g.n}")

    stages = cache.load(g, cfg) if cache is not None else None
    cached = stages is not None and _is_stage_record(stages, g.n)
    timings = {}
    if not cached:
        stages, timings = _solve_stages(g, cfg)
        if cache is not None:
            cache.store(g, cfg, stages)

    t0 = time.monotonic()
    alpha_bar = stages["alpha_bar"]
    num_is = None if stages["num_is_truncated"] else stages["num_is"]
    m = compute_m(g.n, alpha_bar, num_is, stages["alpha_tilde"])
    s_lower, s_source = choose_s_lower(g.n, alpha_bar, cfg.known_chi_lb)
    if alpha_bar >= 2:
        q, r = divmod(g.n - m * alpha_bar, alpha_bar - 1)
    else:
        q, r = 0, 0
    sm0_value, _ = sigma_m0(g.n, alpha_bar, m)
    sm_value, witness = sigma_m(BoundParams(g.n, alpha_bar, s_lower, m))
    lbm = lbm_sigma(g.n, alpha_bar, s_lower)
    chi_bound = lb_chi(g.n, alpha_bar, m)
    timings["formulas"] = time.monotonic() - t0

    return BoundReport(
        instance=g.name,
        n=g.n,
        edge_count=g.edge_count,
        density=g.density(),
        **stages,
        m=m,
        q=q,
        r=r,
        s_lower=s_lower,
        s_lower_source=s_source,
        lb_chi=chi_bound,
        lbm_sigma=lbm,
        sigma_m0=sm0_value,
        sigma_m=sm_value,
        witness=witness.parts,
        cached=cached,
        timings=timings,
    )
