"""Benchmark for sumcol: one workload per process, through `sumcol.cli.main`.

    python3 perfbench/run.py --workload desk_random --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`. Workloads are `desk_random` and `queens` (see NOTES.md), or `all`,
which runs each in its own child process, one after another.

A run sets up seven times and keeps the median. For about `--seconds` it then
repeats rounds of one CLI call, taking the calls of a pass in turn: the call
into an empty cache (cold), then a batch of it against the cache it filled
(warm). It checks every output. `--trace 0` prints the end-to-end metrics.
`--trace 1` alternates untraced and traced whole-pass pairs and prints the
per-layer metrics. Metric names and units come from BENCHMARK.json. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (metadata,
every pass, and the spans of a traced run) is written to `.perfbench_out/`.
Exit code: 0 when every check passed, 1 when one failed, 2 when the package
or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, annotate
from workloads import CLI_BUDGETS, CLI_COUNT_CAP, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUPS = 7
# Warm repeats after each untraced cold call: at least WARM_PASSES, and more
# until they add up to WARM_SECONDS. A warm call takes from 8 ms (queens) to
# 0.5 s (the desk rows); the machine's speed swings by a quarter within
# seconds, so one warm sample is the mean time of a whole batch.
WARM_PASSES = 3
WARM_SECONDS = 2.0
# Largest gap allowed between a stage's span and the time its report gives.
SPAN_SLACK_S = 0.005
SPAN_SLACK_SHARE = 0.05


def import_sumcol():
    """Import the package from src/ afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "sumcol" or m.startswith("sumcol.")]:
        del sys.modules[name]
    sumcol = importlib.import_module("sumcol")
    importlib.import_module("sumcol.cli")
    if Path(sumcol.__file__).resolve().parent != SRC / "sumcol":
        raise ImportError(f"imported sumcol from {sumcol.__file__}, not from {SRC}")
    return sumcol


def set_up(workload, work: Path, call):
    """Import sumcol, write the workload's inputs and make an empty cache.

    Returns the seconds taken and the freshly imported package.
    """
    t0 = time.perf_counter()
    sumcol = import_sumcol()
    workload.build_inputs(sumcol, work / "inputs", call)
    (work / "cache-0").mkdir(parents=True)
    return time.perf_counter() - t0, sumcol


def fresh_cache(work: Path, label) -> Path:
    path = work / f"cache-{label}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_pass(sumcol, calls, tracer=None, run=""):
    """Send each CLI call in turn; seconds inside `main`, and (code, out, err) each."""
    gc.collect()
    if tracer is not None:
        tracer.run = run
    outputs, wall = [], 0.0
    for argv, _ in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = sumcol.cli.main(argv)
                else:
                    code = tracer.call("cli.main", sumcol.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - t0
        outputs.append((code, out.getvalue(), err.getvalue()))
    return wall, outputs


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def span_timing_errors(tracer, run: str) -> list[str]:
    """Stages whose span disagrees with the time the report gives for them."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.run == run and s.parent >= 0:
            children.setdefault(s.parent, []).append(i)

    def child(i, name):
        return next((j for j in children.get(i, ()) if spans[j].name == name), None)

    errors = []
    for i, s in enumerate(spans):
        if s.run != run or s.name != "bounds.pipeline" or s.info["cached"]:
            continue
        tilde = child(i, "misgraph.alpha_tilde")
        stage_spans = {
            "alpha": child(i, "stable.alpha"),
            "enumeration": child(i, "stable.enum"),
            "alpha_tilde": None if tilde is None else child(tilde, "stable.alpha_mis_graph"),
        }
        for key, j in stage_spans.items():
            reported = s.info["timings"].get(key)
            if (j is None) != (reported is None):
                errors.append(f"{run}: report timing {key}={reported} but span {j}")
            elif j is not None and abs(spans[j].duration - reported) > \
                    SPAN_SLACK_S + SPAN_SLACK_SHARE * reported:
                errors.append(f"{run}: {key} span {spans[j].duration:.4f} s, "
                              f"report {reported:.4f} s")
    return errors


def layer_metrics(tracer, k: int, traced_cold_s: float, cache_bytes: int) -> dict:
    """Per-layer figures of traced pair k: its cold pass, plus the set-up's
    generation and writes, and the warm pass's cache loads."""
    cold = tracer.of_run(f"cold-{k}")
    warm = tracer.of_run(f"warm-{k}")
    setup = tracer.of_run("setup")

    def named(spans, *names):
        return [s for s in spans if s.name in names]

    def total(spans, *names):
        return sum(s.duration for s in named(spans, *names))

    enum = named(cold, "stable.enum")
    builds = named(cold, "misgraph.build")
    loads = named(cold + warm, "cache.load")
    pipelines = named(cold, "bounds.pipeline")
    return {
        "stable.alpha_s": total(cold, "stable.alpha"),
        "stable.alpha_timeouts": sum(not s.info["exact"] for s in named(cold, "stable.alpha")),
        "stable.enum_s": total(cold, "stable.enum"),
        "stable.enum_sets": sum(s.info["sets"] for s in enum if not s.info["truncated"]),
        "stable.enum_partial_sets": sum(s.info["sets"] for s in enum if s.info["truncated"]),
        "stable.enum_timeouts": sum(s.info["truncated"] and not s.info["cap_stop"]
                                    for s in enum),
        "stable.enum_cap_stops": sum(s.info["cap_stop"] for s in enum),
        "misgraph.build_s": total(cold, "misgraph.build"),
        "misgraph.k": sum(s.info["k"] for s in builds),
        "misgraph.edges": sum(s.info["edges"] for s in builds),
        "misgraph.alpha_tilde_s": total(cold, "misgraph.alpha_tilde"),
        "misgraph.alpha_tilde_timeouts": sum(not s.info["exact"] for s in
                                             named(cold, "misgraph.alpha_tilde")),
        "cache.store_s": total(cold, "cache.store"),
        "cache.load_s": total(warm, "cache.load"),
        "cache.bytes_written": cache_bytes,
        "cache.hit_ratio": sum(s.info["hit"] for s in loads) / max(len(loads), 1),
        "graph.dimacs_write_s": total(setup + cold, "graph.dimacs_write"),
        "graph.dimacs_parse_s": total(cold, "graph.dimacs_parse", "graph.dimacs_read"),
        "graph.dimacs_bytes": sum(s.info["bytes"] for s in
                                  named(cold, "graph.dimacs_parse", "graph.dimacs_read")),
        "instances.generate_s": total(setup + cold, "instances.generate"),
        "bounds.pipeline_s": total(cold, "bounds.pipeline"),
        "bounds.self_s": sum(s.self_s for s in pipelines),
        "bounds.formulas_s": sum(s.info["timings"].get("formulas", 0.0) for s in pipelines),
        "cli.self_s": sum(s.self_s for s in named(cold, "cli.main")),
        "trace.accounted_share": sum(s.self_s for s in cold) / traced_cold_s,
    }


class Tally:
    """Checks and timings gathered over a run."""

    def __init__(self) -> None:
        self.checks = []
        self.passes = []

    def add(self, kind: str, k: int, call, seconds: float, checked) -> None:
        self.checks.append(checked)
        self.passes.append({"kind": kind, "pass": k, "call": call, "seconds": seconds,
                            "attempted": checked.attempted, "failed": checked.failed,
                            "errors": checked.errors, "near_budget": checked.flags})

    def seconds(self, kind: str) -> list[float]:
        return [p["seconds"] for p in self.passes if p["kind"] == kind]


def run_pair(sumcol, workload, work, k, tally, tracer=None, call=None):
    """A cold pass into an empty cache, then warm passes over the same inputs.

    The pass is pass k of the workload's plan, or only its CLI call number
    `call` when that is given."""
    label = "cold" if tracer is None else "traced-cold"
    cache = fresh_cache(work, f"{label}-{k}-{call}")
    calls = workload.plan(k, cache)
    if call is not None:
        calls = [calls[call]]
    seconds, outputs = run_pass(sumcol, calls, tracer, f"cold-{k}")
    cold = workload.check(sumcol, calls, outputs, warm=False, cold=None)
    tally.add(label, k, call, seconds, cold)
    cache_bytes = dir_bytes(cache)
    warm_passes, warm_s = 0, 0.0
    while warm_passes < (WARM_PASSES if tracer is None else 1) or \
            (tracer is None and warm_s < WARM_SECONDS):
        seconds_w, outputs = run_pass(sumcol, calls, tracer, f"warm-{k}")
        tally.add(label.replace("cold", "warm"), k, call, seconds_w,
                  workload.check(sumcol, calls, outputs, warm=True, cold=cold))
        warm_passes += 1
        warm_s += seconds_w
    shutil.rmtree(cache)
    return seconds, cache_bytes


def another_round(start: float, rounds: int, seconds: int) -> bool:
    """Start another round? Always the first; after that, only while
    the run is expected to end within half a round of `seconds`, so that a
    run lasts about `seconds` however long a round takes."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def measure(workload, seconds: int, work: Path) -> tuple[dict, Tally, dict]:
    """Untraced run: the end-to-end metrics.

    Each round is one CLI call of the pass, cold then warm, taking the calls
    in turn, so that the warm samples of a run are spread over it rather
    than bunched after each whole pass. A pass time is the sum over calls of
    the call's median, and at least one whole pass is always run."""
    setups = []
    for i in range(SETUPS):
        if i:
            shutil.rmtree(work)
        took, sumcol = set_up(workload, work, lambda name, fn, *a: fn(*a))
        setups.append(took)
    tally = Tally()
    n = len(workload.plan(0, work))
    start = time.perf_counter()
    r = 0
    while r < n or another_round(start, r, seconds):
        run_pair(sumcol, workload, work, r // n, tally, call=r % n)
        r += 1

    def recorded(i: int, kind: str) -> list:
        return [(p, c) for p, c in zip(tally.passes, tally.checks)
                if p["call"] == i and p["kind"] == kind]

    def warm_batches(i: int) -> list[float]:
        """Call i's mean warm time in each of its rounds."""
        batches = {}
        for p, _ in recorded(i, "warm"):
            batches.setdefault(p["pass"], []).append(p["seconds"])
        return [statistics.fmean(b) for b in batches.values()]

    cold = [[p["seconds"] for p, _ in recorded(i, "cold")] for i in range(n)]
    warm = [warm_batches(i) for i in range(n)]
    checks = [[c for _, c in recorded(i, "cold")] for i in range(n)]
    stops = sum(statistics.fmean(c.time_limit_stops for c in cs) for cs in checks)
    stages = sum(statistics.fmean(c.stages_run for c in cs) for cs in checks)
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": sum(statistics.median(s) for s in cold),
        "warm_s": sum(statistics.median(s) for s in warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "in_budget_share": 1 - stops / max(stages, 1),
        "sigma_m_total": sum(statistics.median_low(c.sigma_m_total for c in cs)
                             for cs in checks),
    }
    samples = {"setup_s": [setups], "cold_s": cold, "warm_s": warm}
    return metrics, tally, {"samples": samples}


def measure_traced(workload, seconds: int, work: Path):
    """Traced run: per-layer metrics, and the tracing overhead on cold_s."""
    tracer = Tracer()
    tracer.run = "setup"
    sumcol = import_sumcol()
    workload.build_inputs(sumcol, work / "inputs", tracer.call)
    modules = {name: sys.modules[name] for name in
               ("sumcol.bounds", "sumcol.cli", "sumcol.misgraph", "sumcol.cache",
                "sumcol.instances")}
    tally = Tally()
    per_pair, span_errors = [], []
    start = time.perf_counter()
    k = 0
    while another_round(start, k, seconds):
        run_pair(sumcol, workload, work, k, tally)
        tracer.install(modules)
        try:
            traced_s, cache_bytes = run_pair(sumcol, workload, work, k, tally, tracer)
        finally:
            tracer.uninstall()
        annotate(tracer.spans)
        span_errors += span_timing_errors(tracer, f"cold-{k}")
        per_pair.append(layer_metrics(tracer, k, traced_s, cache_bytes))
        k += 1
    # Times and ratios are medians over the traced pairs. Counts come from the
    # first pair, so they do not depend on how many pairs fit in the run
    # (on random each pair has its own labelling).
    metrics = {name: first if isinstance(first, int) else
               statistics.median(p[name] for p in per_pair)
               for name, first in per_pair[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(tally.seconds("traced-cold"))
                                   - statistics.median(tally.seconds("cold")))
    return metrics, tally, {"span_errors": span_errors, "per_pair": per_pair,
                            "spans": tracer.to_json()}


def high_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with ten samples above it, or the maximum when
    that percentile would not lie above the median."""
    n = len(samples)
    if n <= 20:
        return "max", max(samples)
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sumcol").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "calls": [argv for argv, _ in workload.plan(0, "CACHE")],
        "default_budgets_s": CLI_BUDGETS,
        "default_count_cap": CLI_COUNT_CAP,
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def run_one(args) -> int:
    if not (SRC / "sumcol" / "__init__.py").is_file():
        print(f"perfbench: no sumcol package under {SRC}", file=sys.stderr)
        return 2
    try:
        units = load_spec()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measured = measure_traced if args.trace else measure
        metrics, tally, extra = measured(workload, args.seconds, work)
        meta = metadata(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for c in tally.checks for e in c.errors] + extra.get("span_errors", [])
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                      "BENCHMARK.json")
    flags = sorted({f for c in tally.checks for f in c.flags})
    result = {
        "correct": not errors,
        "attempted": sum(c.attempted for c in tally.checks),
        "failed": sum(c.failed for c in tally.checks),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  rev {meta['git_revision'][:12]}  "
          f"python {meta['python']}  nproc {meta['nproc']}")
    samples = extra.get("samples", {})
    for name, m in result["metrics"].items():
        note = ""
        if name in samples:
            parts = []
            for s in samples[name]:
                label, value = high_percentile(s)
                parts.append(f"median {statistics.median(s):.6g} of {len(s)}, "
                             f"{label} {value:.6g}")
            note = f"  ({'; '.join(parts)})"
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{note}")
    for flag in flags:
        print(f"  near budget: {flag}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "errors": errors, "near_budget": flags,
              "passes": tally.passes, **extra}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one at a time, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
