"""Command line interface.

Subcommands:

  bound    compute the bounds for one or more instances (files or
           constructible benchmark names)
  table    recompute reference-table rows and check every cell
  lattice  print the partial order of admissible partitions
  cache    maintenance of the solver-stage cache (cache clear)

Every flag is checked as it is parsed, so a bad value is a usage error
before any instance is loaded. Commands raise their errors; `main` alone
prints them, as `sumcol <command>: <message>`, with `<instance>: ` before
the message of an error from loading or solving one instance.

Exit codes: 0 success, 1 usage error, 2 instance parse error, 3 reference
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, fixtures, instances
from .bounds import BoundReport, PipelineConfig, compute_bounds_pipeline
from .cache import SolveCache, default_cache_dir
from .graph import DimacsError, Graph, parse_dimacs, read_dimacs, write_dimacs
from .partitions import BoundParams, lattice_dag

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3

# each --time-limit stage and the PipelineConfig field it sets
_STAGES = {
    "alpha": "alpha_time_limit",
    "enum": "enum_time_limit",
    "alpha-tilde": "alpha_tilde_time_limit",
}


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _time_limit(raw: str) -> tuple[str, float]:
    """argparse type of --time-limit: STAGE=SECONDS as (stage, seconds)."""
    stage, sep, seconds = raw.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected STAGE=SECONDS, got {raw!r}")
    if stage not in _STAGES and stage != "all":
        raise argparse.ArgumentTypeError(
            f"unknown stage {stage!r}; choose from {', '.join(_STAGES)} or all"
        )
    try:
        value = float(seconds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number of seconds in {raw!r}") from None
    if not value > 0:  # NaN too: no clock ever passes a NaN deadline
        raise argparse.ArgumentTypeError(f"time limit must be positive, got {raw!r}")
    return stage, value


def _count_cap(raw: str) -> int:
    """argparse type of --count-cap: a positive int, else a usage error."""
    try:
        cap = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"count_cap must be positive, got {cap}")
    return cap


def _build_config(args) -> PipelineConfig:
    limits = {}
    for stage, seconds in args.time_limit:
        for s in _STAGES if stage == "all" else (stage,):
            limits[_STAGES[s]] = seconds
    return PipelineConfig(
        **limits, count_cap=args.count_cap, alpha_override=getattr(args, "alpha", None)
    )


def _make_cache(args) -> SolveCache | None:
    """The solve cache, or None under --no-cache. Its directory is made now,
    so an unusable path is a usage error before any solve, not after it."""
    if getattr(args, "no_cache", False):
        return None
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cache directory {directory}: {exc.strerror or exc}") from None
    return SolveCache(directory)


def _load_instance(spec: str) -> Graph:
    """Resolve an instance argument: an existing file, else a generator name.

    Raises FileNotFoundError when neither works and DimacsError on bad files.
    """
    path = Path(spec)
    if path.is_file():
        return read_dimacs(path)
    if instances.can_generate(spec):
        return instances.generate(spec)
    if "/" in spec or spec.endswith(".col"):
        raise FileNotFoundError("instance file not found")
    raise FileNotFoundError("neither a file nor a constructible instance name")


class _InstanceError(Exception):
    """Loading or solving the named instance failed; the cause is chained."""


def _print_report_block(report: BoundReport, out) -> None:
    def row(label, value):
        print(f"  {label:<22} {value}", file=out)

    print(f"{report.instance or '(unnamed)'}:", file=out)
    row("vertices", report.n)
    row("edges", report.edge_count)
    row("density", f"{report.density:.4f}")
    alpha_note = "exact" if report.alpha_exact else "upper bound"
    row("alpha", f"{report.alpha_bar} ({alpha_note}, {report.alpha_method})")
    if report.num_is is not None:
        suffix = " (truncated)" if report.num_is_truncated else ""
        row("max ind. sets", f"{report.num_is}{suffix}")
    else:
        row("max ind. sets", f"not enumerated ({report.enum_skipped})")
    if report.alpha_tilde is not None:
        row("disjoint sets bound", report.alpha_tilde)
    elif report.alpha_tilde_skipped:
        row("disjoint sets bound", f"skipped ({report.alpha_tilde_skipped})")
    row("m", report.m)
    row("s_lower", f"{report.s_lower} ({report.s_lower_source})")
    row("chromatic number >=", report.lb_chi)
    row("chromatic sum >=", report.sigma_m)
    row("  via fixed m", report.sigma_m0)
    row("  via m = n // alpha", report.lbm_sigma)
    row("witness partition", "(" + ",".join(map(str, report.witness)) + ")")
    if report.cached:
        row("solver stages", "from cache")


def cmd_bound(args) -> int:
    for flag, value in (("--alpha", args.alpha), ("--chi-lb", args.chi_lb)):
        if value is not None and len(args.instance) > 1:
            raise ValueError(f"{flag} applies to a single instance")
    cache = _make_cache(args)
    cfg = _build_config(args)
    reports = []
    for spec in args.instance:
        try:
            g = _load_instance(spec)
            reports.append(
                compute_bounds_pipeline(g, cfg, cache=cache, known_chi_lb=args.chi_lb)
            )
        except (FileNotFoundError, ValueError) as exc:
            raise _InstanceError(spec) from exc

    if args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    elif args.format == "csv":
        print(BoundReport.CSV_HEADER)
        for r in reports:
            print(r.to_csv_row())
    else:
        for i, r in enumerate(reports):
            if i:
                print()
            _print_report_block(r, sys.stdout)
    return EXIT_OK


def _table_rows(args) -> list[fixtures.ReferenceRow]:
    if args.names:
        try:
            return [fixtures.get_row(name) for name in args.names]
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    tiers = ("desk", "heavy", "long") if args.long else ("desk",)
    return list(fixtures.rows_in_tier(*tiers))


def _row_status(mismatches) -> str:
    if not mismatches:
        return "ok"
    unverified = {col for col, want, got in mismatches if got is None}
    if unverified and all(col in unverified for col, _, _ in mismatches):
        return "incomplete"
    return "mismatch"


def cmd_table(args) -> int:
    rows = _table_rows(args)
    cache = _make_cache(args)
    cfg = _build_config(args)
    results = []
    for row in rows:
        try:
            if row.generator_available:
                g = instances.generate(row.name)
                g = parse_dimacs(write_dimacs(g), name=row.name)
            else:
                # a row with no generator is read from --instances-dir alone
                path = args.instances_dir and Path(args.instances_dir, f"{row.name}.col")
                if not (path and path.is_file()):
                    reason = "instance file not available"
                    results.append((row, None, [], "skipped", reason))
                    continue
                g = read_dimacs(path)
            row_cfg = cfg
            if row.num_is > cfg.count_cap:
                row_cfg = replace(cfg, count_cap=row.num_is + 1)
            report = compute_bounds_pipeline(
                g, row_cfg, cache=cache, known_chi_lb=row.chi_lb
            )
        except (FileNotFoundError, ValueError) as exc:
            raise _InstanceError(row.name) from exc
        mism = fixtures.compare_report(report, row, corrected_num_is=not args.strict)
        results.append((row, report, mism, _row_status(mism), None))

    _emit_table(args, results)
    bad = [r for r in results if r[3] in ("mismatch", "incomplete")]
    return EXIT_MISMATCH if bad else EXIT_OK


def _emit_table(args, results) -> None:
    if args.format == "json":
        rows = []
        for row, report, mism, status, reason in results:
            rows.append(
                {
                    "name": row.name,
                    "status": status,
                    "reason": reason,
                    "mismatches": [
                        {"column": c, "expected": w, "actual": g} for c, w, g in mism
                    ],
                    "report": report.to_json_dict() if report else None,
                }
            )
        print(json.dumps({"schema": "sumcol-table-v1", "rows": rows}, indent=2))
        return
    if args.format == "csv":
        print(BoundReport.CSV_HEADER + ",status")
        for row, report, mism, status, reason in results:
            if report is None:
                print(row.name + "," * len(BoundReport.CSV_FIELDS) + status)
            else:
                print(report.to_csv_row() + f",{status}")
        return

    header = (
        f"{'instance':<16} {'n':>5} {'dens':>5} {'alpha':>5} {'#is':>9} "
        f"{'m':>3} {'s':>4} {'LBchi':>5} {'LBMS':>7} {'SM0':>7} {'SM':>7}  status"
    )
    print(header)
    print("-" * len(header))
    for row, report, mism, status, reason in results:
        if report is None:
            print(f"{row.name:<16} " + " " * 63 + f" skipped: {reason}")
            continue
        nis = "-" if report.num_is is None else str(report.num_is)
        note = status
        if mism:
            cells = ",".join(c for c, _, _ in mism)
            note = f"{status} [{cells}]"
        print(
            f"{row.name:<16} {report.n:>5} {report.density:>5.2f} "
            f"{report.alpha_bar:>5} {nis:>9} {report.m:>3} {report.s_lower:>4} "
            f"{report.lb_chi:>5} {report.lbm_sigma:>7} {report.sigma_m0:>7} "
            f"{report.sigma_m:>7}  {note}"
        )
    n_ok = sum(1 for r in results if r[3] == "ok")
    n_skip = sum(1 for r in results if r[3] == "skipped")
    n_bad = len(results) - n_ok - n_skip
    print(f"\n{n_ok} ok, {n_bad} mismatched, {n_skip} skipped")


def cmd_lattice(args) -> int:
    params = BoundParams(args.n, args.alpha_bar, args.s_lower, args.m)
    dag = lattice_dag(params, limit=args.limit)
    print(dag.to_dot() if args.format == "dot" else dag.to_text())
    return EXIT_OK


def cmd_cache(args) -> int:
    cache = SolveCache(Path(args.cache_dir) if args.cache_dir else default_cache_dir())
    removed = cache.clear()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.directory}")
    return EXIT_OK


def _add_common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--time-limit",
        type=_time_limit,
        action="append",
        default=[],
        metavar="STAGE=SECONDS",
        help="per-stage time limit (alpha, enum, alpha-tilde, or all); repeatable",
    )
    p.add_argument(
        "--count-cap",
        type=_count_cap,
        default=PipelineConfig.count_cap,
        metavar="N",
        help="stop enumerating independent sets beyond N (default %(default)s)",
    )
    p.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="solver-stage cache directory (default: user cache dir)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the solver-stage cache")


def build_parser() -> _Parser:
    parser = _Parser(prog="sumcol", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"sumcol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bound = sub.add_parser("bound", help="compute bounds for instances")
    p_bound.add_argument("instance", nargs="+",
                         help="DIMACS .col file or constructible name (e.g. queen8_8)")
    p_bound.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_bound.add_argument("--chi-lb", type=int, default=None, metavar="N",
                         help="known lower bound on the chromatic number")
    p_bound.add_argument("--alpha", type=int, default=None, metavar="N",
                         help="trust this stability number instead of solving")
    _add_common_solver_flags(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_table = sub.add_parser("table", help="recompute and verify reference rows")
    p_table.add_argument("names", nargs="*",
                         help="specific reference rows (default: the desk-scale set)")
    p_table.add_argument("--long", action="store_true",
                         help="include the heavy and long tiers")
    p_table.add_argument("--strict", action="store_true",
                         help="expect published cells verbatim, including known defects")
    p_table.add_argument("--instances-dir", metavar="DIR", default=None,
                         help="directory holding .col files for rows with no generator")
    p_table.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _add_common_solver_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_lat = sub.add_parser("lattice", help="show the admissible-partition order")
    p_lat.add_argument("--n", type=int, required=True, help="number being partitioned")
    p_lat.add_argument("--alpha-bar", type=int, required=True,
                       help="maximum allowed part size")
    p_lat.add_argument("--s-lower", type=int, required=True,
                       help="minimum number of parts")
    p_lat.add_argument("--m", type=int, required=True,
                       help="maximum count of parts at the maximum size")
    p_lat.add_argument("--limit", type=int, default=15,
                       help="refuse to expand more than this many partitions")
    p_lat.add_argument("--format", choices=("text", "dot"), default="text")
    p_lat.set_defaults(func=cmd_lattice)

    p_cache = sub.add_parser("cache", help="solver cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True,
                                       parser_class=_Parser)
    p_clear = cache_sub.add_parser("clear", help="delete all cached solver results")
    p_clear.add_argument("--cache-dir", metavar="PATH", default=None)
    p_clear.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != EXIT_USAGE:  # --help and --version exit 0
            raise
        return EXIT_USAGE  # the parser has printed the usage error
    try:
        return args.func(args)
    except _InstanceError as exc:
        error, message = exc.__cause__, f"{exc}: {exc.__cause__}"
    except ValueError as exc:
        error, message = exc, str(exc)
    print(f"sumcol {args.command}: {message}", file=sys.stderr)
    return EXIT_PARSE if isinstance(error, DimacsError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
