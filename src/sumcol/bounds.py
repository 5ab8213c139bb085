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
    if alpha_bar == 1:
        return n
    m_eff = min(m, n // alpha_bar)
    q, r = divmod(n - m_eff * alpha_bar, alpha_bar - 1)
    return m_eff + q + (1 if r else 0)


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


@dataclass
class PipelineConfig:
    """Stage budgets and overrides for compute_bounds_pipeline."""

    alpha_time_limit: float = 60.0
    enum_time_limit: float = 60.0
    alpha_tilde_time_limit: float = 60.0
    count_cap: int = 5000
    mis_graph_cap: int = 5000
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
    timings: dict = field(default_factory=dict)

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


def compute_bounds_pipeline(
    g: Graph, config: PipelineConfig | None = None, cache=None
) -> BoundReport:
    """Run the full staged computation on one graph.

    Stages: stability number (exact branch and bound, or the smaller of the
    degree-rule and greedy-coloring upper bounds on timeout), enumeration
    of the maximum independent sets, their intersection graph's stability
    number, then the closed-form bounds.
    Later solver stages are skipped (never guessed) when an earlier stage
    is inexact or truncated; the m chain simply uses fewer terms. An
    optional cache stores the solver-stage outputs keyed by instance
    content and solver-relevant config, so bound parameters like the known
    chromatic lower bound can change without re-solving.
    """
    cfg = config or PipelineConfig()
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    timings: dict[str, float] = {}
    cached = False

    alpha_res: AlphaResult
    enum_res = None
    enum_skipped = None
    tilde_res: AlphaResult | None = None
    tilde_skipped = None

    payload = cache.load(g, cfg) if cache is not None else None
    if payload is not None:
        alpha_res, enum_res, enum_skipped, tilde_res, tilde_skipped, timings = payload
        cached = True
    else:
        if cfg.alpha_override is not None:
            if not 1 <= cfg.alpha_override <= g.n:
                raise ValueError("alpha override out of range")
            alpha_res = AlphaResult(
                value=cfg.alpha_override, exact=True, elapsed=0.0, method="provided"
            )
        else:
            alpha_res = max_independent_set(
                g, Budget(cfg.alpha_time_limit, cfg.count_cap)
            )
        timings["alpha"] = alpha_res.elapsed

        if alpha_res.exact:
            enum_res = enumerate_maximum_independent_sets(
                g, alpha_res.value, Budget(cfg.enum_time_limit, cfg.count_cap)
            )
            timings["enumeration"] = enum_res.elapsed
        else:
            enum_skipped = "alpha-inexact"

        if enum_res is None:
            tilde_skipped = "enumeration-skipped"
        elif enum_res.truncated:
            tilde_skipped = "enumeration-truncated"
        elif enum_res.count > cfg.mis_graph_cap:
            tilde_skipped = "num-is-over-cap"
        else:
            mg = build_mis_graph(enum_res.sets)
            tilde_res = _alpha_tilde(
                mg, Budget(cfg.alpha_tilde_time_limit, cfg.count_cap)
            )
            timings["alpha_tilde"] = tilde_res.elapsed
        if cache is not None:
            cache.store(
                g, cfg, alpha_res, enum_res, enum_skipped, tilde_res, tilde_skipped, timings
            )

    t0 = time.monotonic()
    alpha_bar = alpha_res.value
    num_is = None
    if enum_res is not None and not enum_res.truncated:
        num_is = enum_res.count
    m = compute_m(
        g.n,
        alpha_bar,
        num_is,
        tilde_res.value if tilde_res is not None else None,
    )
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
        alpha_bar=alpha_bar,
        alpha_exact=alpha_res.exact,
        alpha_method=alpha_res.method,
        num_is=enum_res.count if enum_res is not None else None,
        num_is_truncated=enum_res.truncated if enum_res is not None else False,
        enum_skipped=enum_skipped,
        alpha_tilde=tilde_res.value if tilde_res is not None else None,
        alpha_tilde_exact=tilde_res.exact if tilde_res is not None else False,
        alpha_tilde_skipped=tilde_skipped,
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
