"""Shared test configuration: long-mode gating and the acceptance summary.

Tests named test_c<N>_* in test_acceptance.py are grouped by criterion
number and reported as one PASS/FAIL line each at the end of the run.
Tests can also leave free-form notes (counterexample listings and the
like) that are echoed in the same summary block.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

import pytest

CRITERIA = {
    1: "reference table reproduction, desk scale",
    2: "proven-optimum rows (queen8_8, queen10_10)",
    3: "chromatic lower bound tight on queen instances",
    4: "cap fill equals oracle, witness for witness, on the full n <= 14 grid",
    5: "partition-order properties on all partitions, n <= 12",
    6: "bound chain LBM-sigma <= sigma-M <= chromatic sum",
    7: "solver exactness against brute force",
    8: "long-mode rows (optional)",
}

_CRIT_RE = re.compile(r"test_c(\d+)_")
_outcomes: dict[int, dict[str, str]] = defaultdict(dict)
NOTES: dict[str, list[str]] = defaultdict(list)


def note(section: str, line: str) -> None:
    NOTES[section].append(line)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "long: heavy reproduction runs, enabled by SUMCOL_LONG=1"
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SUMCOL_LONG"):
        return
    skip_long = pytest.mark.skip(reason="long mode off; set SUMCOL_LONG=1 to enable")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip_long)


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    m = _CRIT_RE.search(report.nodeid)
    if not m:
        return
    crit = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        outcome = report.outcome
        if hasattr(report, "wasxfail") and outcome in ("passed", "skipped"):
            outcome = "expected-fail"
        _outcomes[crit][report.nodeid] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for crit in sorted(CRITERIA):
        title = CRITERIA[crit]
        runs = _outcomes.get(crit)
        if not runs:
            tr.write_line(f"criterion {crit}: NOT RUN - {title}")
            continue
        counts = defaultdict(int)
        for outcome in runs.values():
            counts[outcome] += 1
        verdict = "FAIL" if counts.get("failed") else "PASS"
        detail = ", ".join(
            f"{counts[k]} {k}" for k in ("passed", "failed", "skipped", "expected-fail")
            if counts.get(k)
        )
        tr.write_line(f"criterion {crit}: {verdict} ({detail}) - {title}")
    for section in sorted(NOTES):
        tr.write_line("")
        tr.write_line(f"{section}:")
        for line in NOTES[section]:
            tr.write_line(f"  {line}")
