"""The workloads: their inputs, their CLI invocations and their output checks.

Each workload is a closed loop with one caller: a pass sends one `sumcol`
command after another, each over one instance or one list of instances, the
way `sumcol table` and `sumcol bound` are used. See NOTES.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import random

# A stage that finished exactly but used more than this share of its budget
# could time out on a slower run; such stages are flagged in the result.
NEAR_BUDGET = 0.5

# CLI stage names, and the keys the report's `timings` uses for them.
STAGE_TIMING_KEYS = {"alpha": "alpha", "enum": "enumeration", "alpha-tilde": "alpha_tilde"}

# Defaults of `sumcol table` and `sumcol bound` when no flag is given.
CLI_BUDGETS = {"alpha": 60.0, "enum": 60.0, "alpha-tilde": 60.0}
CLI_COUNT_CAP = 5000


def classify_stages(report: dict, count_cap: int):
    """(stage, outcome, seconds) for each solver stage the report ran.

    outcome is "finished", "count-cap" or "time-limit". An inexact alpha or
    alpha~ stopped on its time limit. A truncated enumeration that holds
    exactly `count_cap` sets stopped on the cap, otherwise on the time limit.
    Stages a report took from the cache are classified as first computed.
    """
    timings = report["timings"]
    out = []
    if report["alpha_method"] != "provided":
        out.append(("alpha", "finished" if report["alpha_exact"] else "time-limit"))
    if report["enum_skipped"] is None:
        if not report["num_is_truncated"]:
            outcome = "finished"
        elif report["num_is"] == count_cap:
            outcome = "count-cap"
        else:
            outcome = "time-limit"
        out.append(("enum", outcome))
    if report["alpha_tilde"] is not None:
        out.append(("alpha-tilde",
                    "finished" if report["alpha_tilde_exact"] else "time-limit"))
    return [(stage, outcome, timings.get(STAGE_TIMING_KEYS[stage]))
            for stage, outcome in out]


def witness_errors(r: dict) -> list[str]:
    """Check a report's witness partition against its own bound parameters."""
    w = r["witness"]
    name = r["instance"]
    errors = []
    if sum(w) != r["n"]:
        errors.append(f"{name}: witness sums to {sum(w)}, not n={r['n']}")
    if any(a < b for a, b in zip(w, w[1:])) or any(x < 1 for x in w):
        errors.append(f"{name}: witness {w} is not a partition in descending order")
    if w and w[0] > r["alpha_bar"]:
        errors.append(f"{name}: witness part {w[0]} exceeds alpha_bar={r['alpha_bar']}")
    if w.count(r["alpha_bar"]) > r["m"]:
        errors.append(f"{name}: witness has more than m={r['m']} parts of alpha_bar")
    if len(w) < r["s_lower"]:
        errors.append(f"{name}: witness has {len(w)} parts, under s_lower={r['s_lower']}")
    line_cost = sum(i * x for i, x in enumerate(w, start=1))
    if line_cost != r["sigma_m"]:
        errors.append(f"{name}: witness costs {line_cost}, sigma_m is {r['sigma_m']}")
    if r["lbm_sigma"] > r["sigma_m"]:
        errors.append(f"{name}: lbm_sigma {r['lbm_sigma']} > sigma_m {r['sigma_m']}")
    if r["sigma_m0"] > r["sigma_m"]:
        errors.append(f"{name}: sigma_m0 {r['sigma_m0']} > sigma_m {r['sigma_m']}")
    return errors


def _same_values(a: dict, b: dict) -> bool:
    skip = ("timings", "cached")
    return {k: v for k, v in a.items() if k not in skip} == \
        {k: v for k, v in b.items() if k not in skip}


class Checked:
    """What one pass produced: the reports, the problems found and the stage tally."""

    def __init__(self) -> None:
        self.reports: list[dict] = []
        self.errors: list[str] = []
        self.flags: list[str] = []
        self.stages_run = 0
        self.time_limit_stops = 0
        self.attempted = 0
        self.failed = 0

    def fail(self, error: str) -> None:
        """An operation that produced no report to check."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)

    def add_report(self, report: dict, budgets: dict, count_cap: int,
                   problems: list[str]) -> None:
        self.reports.append(report)
        self.attempted += 1
        problems = problems + witness_errors(report)
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        for stage, outcome, seconds in classify_stages(report, count_cap):
            self.stages_run += 1
            self.time_limit_stops += outcome == "time-limit"
            if outcome == "finished" and seconds is not None \
                    and seconds > NEAR_BUDGET * budgets[stage]:
                self.flags.append(f"{report['instance']}: {stage} finished in "
                                  f"{seconds:.2f} s of its {budgets[stage]:g} s budget")

    @property
    def sigma_m_total(self) -> int:
        return sum(r["sigma_m"] for r in self.reports)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build_inputs(self, sumcol, inputs, call) -> None:
        """Write the pass inputs under `inputs`; `call(name, fn, *args)` times a layer."""

    def plan(self, pass_no: int, cache_dir) -> list[tuple[list[str], object]]:
        """(argv, context for the check) of each CLI call in pass `pass_no`."""
        raise NotImplementedError

    def check(self, sumcol, calls, outputs, warm: bool, cold: Checked | None) -> Checked:
        """Check the outputs of `calls`, (argv, context) pairs from `plan`;
        `cold` is what the same calls gave on the cold pass a warm pass repeats."""
        result = Checked()
        for (argv, context), (code, stdout, stderr) in zip(calls, outputs):
            if code != 0:
                result.fail(f"{' '.join(argv[:2])}: exit code {code}: {stderr.strip()[-500:]}")
                continue
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError as exc:
                result.fail(f"{' '.join(argv[:2])}: output is not JSON: {exc}")
                continue
            self._check_output(sumcol, context, payload, result)
        for r in result.reports:
            if r["cached"] != warm:
                result.errors.append(f"{r['instance']}: cached={r['cached']} on a "
                                     f"{'warm' if warm else 'cold'} pass")
        if cold is not None and (len(cold.reports) != len(result.reports) or not all(
                _same_values(a, b) for a, b in zip(cold.reports, result.reports))):
            result.errors.append("warm pass reports differ from the cold pass")
        return result

    def _check_output(self, sumcol, context, payload, result: Checked) -> None:
        raise NotImplementedError


def _budget_flags(budgets: dict) -> list[str]:
    return [f for stage, s in budgets.items() for f in ("--time-limit", f"{stage}={s:g}")]


class _TableWorkload(Workload):
    """`sumcol table` calls; every row must match the reference table."""

    def _tables(self) -> list[tuple[list[str], dict]]:
        """(row names, budgets other than the defaults) of each call; [] is the desk set."""
        raise NotImplementedError

    def plan(self, pass_no, cache_dir):
        return [(["table", *names, *_budget_flags(budgets), "--format", "json",
                  "--cache-dir", str(cache_dir)], (names, {**CLI_BUDGETS, **budgets}))
                for names, budgets in self._tables()]

    def _check_output(self, sumcol, context, payload, result):
        names, budgets = context
        fixtures = sumcol.fixtures
        expected = ([fixtures.get_row(n) for n in names] if names
                    else list(fixtures.rows_in_tier("desk")))
        rows = payload.get("rows", [])
        if [r["name"] for r in rows] != [row.name for row in expected]:
            result.fail(f"table rows {[r['name'] for r in rows]} are not "
                        f"{[row.name for row in expected]}")
            return
        for out, row in zip(rows, expected):
            if not row.generator_available:
                if out["status"] != "skipped":
                    result.fail(f"{row.name}: file-only row has status "
                                f"{out['status']}, expected skipped")
                continue
            # `sumcol table` raises the count cap above a row's published count.
            cap = row.num_is + 1 if row.num_is > CLI_COUNT_CAP else CLI_COUNT_CAP
            problems = [] if out["status"] == "ok" else [
                f"{row.name}: status {out['status']}: {out['mismatches']}"]
            result.add_report(out["report"], budgets, cap, problems)


class Desk(_TableWorkload):
    name = "desk"

    def _tables(self):
        return [([], {})]


class Queens(_TableWorkload):
    name = "queens"

    def _tables(self):
        # queen11_11's alpha~ does not finish in 60 s; 2 s stops it every time
        # and leaves queen10_10's 6-8.5 s alpha~ on the 60 s default.
        return [(["queen10_10"], {}), (["queen11_11"], {"alpha-tilde": 2.0})]


def gnp_edges(n: int, p: float, seed: str) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


class RandomGraphs(Workload):
    """Stand-ins for the DSJC rows, whose files cannot be fetched.

    Like the DSJC graphs, each stand-in is one fixed G(n, p) draw. `--seed`
    picks the vertex labelling written to the DIMACS files, a new one for
    every pass. Labels change the solvers' tie-breaking, so search times
    vary, while every exact value stays that of the fixed graph and can be
    pinned below. Independent draws per seed would make cold_s spread by
    about a fifth of its median from seed to seed (alpha on G(125, 0.1) took
    0.3 s to 4 s over 20 draws on a 2-core x86-64 Xeon VM), more than any
    bound of this benchmark could absorb.
    """

    name = "random"
    SHAPES = (("gnp125.1", 125, 0.1), ("gnp125.5", 125, 0.5),
              ("gnp125.9", 125, 0.9), ("gnp250.5", 250, 0.5))
    DRAW_SEED = 1
    # More labellings than passes fit in a run; passes cycle through them.
    LABELLINGS = 6
    # alpha gets 2.5x its slowest time seen (4.0 s on gnp125.1). The enumeration
    # budget stops gnp125.1 (never finishes) and gnp250.5 (needs 7-8.5 s) and is
    # over 10x what gnp125.5 needs, so no stage sits near its budget.
    budgets = {"alpha": 10.0, "enum": 2.0, "alpha-tilde": 2.0}
    count_cap = CLI_COUNT_CAP
    files: list[list[str]]  # [graph][labelling] DIMACS paths, set by build_inputs
    # Values of stages that finished exactly on the fixed draws (gnp250.5's
    # enumeration and alpha~ with a 60 s budget). Checked whenever the stage
    # finishes exactly; a stage stopped by its budget is not pinned.
    PINS = {
        "gnp125.1": {"n": 125, "edge_count": 774, "alpha": 33},
        "gnp125.5": {"n": 125, "edge_count": 3886, "alpha": 10, "num_is": 7,
                     "alpha_tilde": 2},
        "gnp125.9": {"n": 125, "edge_count": 6952, "alpha": 4, "num_is": 14,
                     "alpha_tilde": 8},
        "gnp250.5": {"n": 250, "edge_count": 15454, "alpha": 11, "num_is": 194,
                     "alpha_tilde": 10},
    }

    def build_inputs(self, sumcol, inputs, call):
        inputs.mkdir(parents=True)
        self.files = []
        for name, n, p in self.SHAPES:
            edges = call("instances.generate", gnp_edges, n, p,
                         f"{self.DRAW_SEED}:{n}:{p}")
            row = []
            for k in range(self.LABELLINGS):
                perm = random.Random(f"{self.seed}:{k}:{name}").sample(range(n), n)
                g = call("instances.generate", sumcol.graph.Graph.from_edges, n,
                         [(perm[u], perm[v]) for u, v in edges])
                path = inputs / f"{name}-{k}.col"
                path.write_text(call("graph.dimacs_write", sumcol.graph.write_dimacs, g))
                row.append(str(path))
            self.files.append(row)

    def plan(self, pass_no, cache_dir):
        k = pass_no % self.LABELLINGS
        return [(["bound", *(row[k] for row in self.files), *_budget_flags(self.budgets),
                  "--count-cap", str(self.count_cap), "--format", "json",
                  "--cache-dir", str(cache_dir)], None)]

    def _check_output(self, sumcol, context, payload, result):
        reports = payload if isinstance(payload, list) else [payload]
        if [r["instance"].rsplit("-", 1)[0] for r in reports] != \
                [name for name, _, _ in self.SHAPES]:
            result.fail(f"unexpected reports {[r['instance'] for r in reports]}")
            return
        for r in reports:
            pin = self.PINS[r["instance"].rsplit("-", 1)[0]]
            problems = [f"{r['instance']}: {key}={r[key]}, expected {pin[key]}"
                        for key in ("n", "edge_count") if r[key] != pin[key]]
            if r["alpha_bar"] < pin["alpha"] or (r["alpha_exact"]
                                                 and r["alpha_bar"] != pin["alpha"]):
                problems.append(f"{r['instance']}: alpha_bar={r['alpha_bar']}, "
                                f"alpha is {pin['alpha']}")
            if "num_is" in pin and r["num_is"] is not None and not r["num_is_truncated"] \
                    and r["num_is"] != pin["num_is"]:
                problems.append(f"{r['instance']}: num_is={r['num_is']}, "
                                f"expected {pin['num_is']}")
            if "alpha_tilde" in pin and r["alpha_tilde_exact"] \
                    and r["alpha_tilde"] != pin["alpha_tilde"]:
                problems.append(f"{r['instance']}: alpha_tilde={r['alpha_tilde']}, "
                                f"expected {pin['alpha_tilde']}")
            result.add_report(r, self.budgets, self.count_cap, problems)


class DeskRandom(Workload):
    """`desk`'s `sumcol table` call, then `random`'s `sumcol bound` call.

    One workload rather than two, so that the benchmark has two workloads of
    about 12 s per pass and a run of its fixed length holds several rounds
    of every call (see NOTES.md). The parts keep their own inputs, budgets
    and checks.
    """

    name = "desk_random"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.parts = (Desk(seed), RandomGraphs(seed))

    def build_inputs(self, sumcol, inputs, call):
        for part in self.parts:
            part.build_inputs(sumcol, inputs, call)

    def plan(self, pass_no, cache_dir):
        return [(argv, (part, context)) for part in self.parts
                for argv, context in part.plan(pass_no, cache_dir)]

    def _check_output(self, sumcol, context, payload, result):
        part, context = context
        part._check_output(sumcol, context, payload, result)


WORKLOADS = {w.name: w for w in (DeskRandom, Queens)}
