"""Tests for the command line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sumcol
from sumcol import bounds, cli
from sumcol.bounds import BoundReport, PipelineConfig

TRIANGLE_COL = "c tiny triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_generated_instance_table_output(self, capsys):
        code, out, err = run(capsys, "bound", "queen5_5", "--no-cache")
        assert code == 0
        assert err == ""
        assert out.startswith("queen5_5:")
        assert "chromatic sum >=" in out
        assert " 75" in out

    def test_file_instance(self, capsys, tmp_path):
        path = tmp_path / "triangle.col"
        path.write_text(TRIANGLE_COL, encoding="utf-8")
        code, out, _ = run(capsys, "bound", str(path), "--no-cache", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instance"] == "triangle"
        assert payload["sigma_m"] == 6

    def test_json_single_report_is_an_object(self, capsys):
        code, out, _ = run(capsys, "bound", "queen5_5", "--no-cache", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, dict)
        assert payload["schema"] == "sumcol-report-v1"

    def test_json_multiple_reports_are_an_array(self, capsys):
        code, out, _ = run(
            capsys, "bound", "queen5_5", "queen6_6", "--no-cache", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["instance"] for r in payload] == ["queen5_5", "queen6_6"]

    def test_formats_agree_on_every_shared_field(self, capsys):
        _, json_out, _ = run(
            capsys, "bound", "queen6_6", "--no-cache", "--format", "json"
        )
        _, csv_out, _ = run(capsys, "bound", "queen6_6", "--no-cache", "--format", "csv")
        _, table_out, _ = run(capsys, "bound", "queen6_6", "--no-cache")
        payload = json.loads(json_out)
        header, row = csv_out.strip().splitlines()
        assert header == BoundReport.CSV_HEADER
        cells = dict(zip(header.split(","), row.split(",")))
        for column in ("n", "edge_count", "alpha_bar", "num_is", "m",
                       "s_lower", "lb_chi", "lbm_sigma", "sigma_m0", "sigma_m"):
            assert int(cells[column]) == payload[column], column
        assert cells["instance"] == payload["instance"]
        assert f"chromatic sum >=       {payload['sigma_m']}" in table_out

    def test_alpha_override_is_reported_as_provided(self, capsys):
        code, out, _ = run(
            capsys, "bound", "queen5_5", "--alpha", "5", "--no-cache",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["alpha_method"] == "provided"

    def test_chi_lb_tightens_s_lower(self, capsys):
        code, out, _ = run(
            capsys, "bound", "queen6_6", "--chi-lb", "7", "--no-cache",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s_lower"] == 7
        assert payload["s_lower_source"] == "known-chi-lb"
        assert payload["sigma_m"] == 129

    def test_unknown_instance_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "no_such_graph", "--no-cache")
        assert code == 1
        assert "neither a file nor a constructible instance" in err

    def test_missing_col_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "missing/instance.col", "--no-cache")
        assert code == 1
        assert "not found" in err

    def test_malformed_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.col"
        path.write_text("p edge 3 1\ne 1 9\n", encoding="utf-8")
        code, _, err = run(capsys, "bound", str(path), "--no-cache")
        assert code == 2
        assert "line 2" in err

    def test_non_utf8_edge_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.col"
        path.write_bytes(b"p edge 2 1\ne 1 \xff2\n")
        code, _, err = run(capsys, "bound", str(path), "--no-cache")
        assert code == 2
        assert err.startswith("sumcol bound: line 2: malformed edge line")

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_cache_dir_fails_before_solving(self, capsys, tmp_path, below):
        # a file where the directory should be, or a path through a file
        blocker = tmp_path / "x"
        blocker.touch()
        directory = blocker / below  # an empty `below` leaves the file itself
        code, out, err = run(capsys, "bound", "queen5_5", "--cache-dir", str(directory))
        assert code == 1
        assert out == ""
        assert err.startswith(f"sumcol bound: cache directory {directory}: ")
        assert "Traceback" not in err

    def test_alpha_rejected_for_multiple_instances(self, capsys):
        code, _, err = run(
            capsys, "bound", "queen5_5", "queen6_6", "--alpha", "5", "--no-cache"
        )
        assert code == 1
        assert "--alpha applies to a single instance" in err

    def test_chi_lb_rejected_for_multiple_instances(self, capsys):
        code, _, err = run(
            capsys, "bound", "queen5_5", "queen6_6", "--chi-lb", "5", "--no-cache"
        )
        assert code == 1
        assert "--chi-lb applies to a single instance" in err

    @pytest.mark.parametrize("chi_lb", ["0", "26"])
    def test_chi_lb_outside_1_to_n_is_rejected_before_any_solve(
        self, capsys, monkeypatch, tmp_path, chi_lb
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting --chi-lb")

        monkeypatch.setattr(bounds, "_solve_stages", no_solve)
        cache_dir = tmp_path / "cache"
        code, out, err = run(
            capsys, "bound", "queen5_5", "--chi-lb", chi_lb, "--cache-dir", str(cache_dir)
        )
        assert (code, out) == (1, "")
        assert f"known_chi_lb {chi_lb} out of range 1..25" in err
        assert not any(cache_dir.iterdir())

    def test_chi_lb_of_n_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "bound", "queen5_5", "--chi-lb", "25", "--no-cache", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["s_lower"] == 25

    def test_out_of_range_alpha_override(self, capsys):
        code, _, err = run(
            capsys, "bound", "queen5_5", "--alpha", "26", "--no-cache"
        )
        assert code == 1
        assert "alpha override out of range" in err

    def test_alpha_override_above_alpha_names_the_override(self, capsys):
        code, out, err = run(capsys, "bound", "queen5_5", "--alpha", "6", "--no-cache")
        assert (code, out) == (1, "")
        assert "alpha override 6 is above alpha(G)" in err

    def test_nan_time_limit_is_a_usage_error(self, capsys):
        # a NaN deadline is never passed, so it would switch the limit off
        code, _, err = run(
            capsys, "bound", "queen5_5", "--time-limit", "all=nan", "--no-cache"
        )
        assert code == 1
        assert "time limit must be positive" in err

    @pytest.mark.parametrize(
        "value", ["alpha", "warp=10", "alpha=abc", "alpha=-3", "enum=0"]
    )
    def test_bad_time_limit_values(self, capsys, value):
        code, _, err = run(
            capsys, "bound", "queen5_5", "--time-limit", value, "--no-cache"
        )
        assert code == 1
        assert err

    def test_time_limit_all_fans_out(self, capsys):
        code, out, _ = run(
            capsys, "bound", "queen5_5", "--time-limit", "all=30",
            "--no-cache", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["sigma_m"] == 75

    def test_nonpositive_count_cap(self, capsys):
        code, _, err = run(capsys, "bound", "queen5_5", "--count-cap", "0", "--no-cache")
        assert code == 1
        assert "count_cap" in err


@pytest.mark.parametrize(
    "command", [["bound", "queen5_5"], ["table", "myciel3"]], ids=["bound", "table"]
)
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_count_cap_is_a_usage_error_before_any_solve(
    capsys, monkeypatch, command, cap
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --count-cap")

    monkeypatch.setattr(cli, "compute_bounds_pipeline", no_solve)
    code, out, err = run(capsys, *command, "--count-cap", cap, "--no-cache")
    assert (code, out) == (1, "")
    assert "usage: sumcol" in err
    assert f"count_cap must be positive, got {cap}" in err


class TestTable:
    def test_defective_row_passes_by_default(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "myciel3", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "1 ok, 0 mismatched, 0 skipped" in out

    def test_defective_row_fails_strict(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "myciel3", "--strict", "--cache-dir", str(tmp_path)
        )
        assert code == 3
        assert "mismatch [num_is]" in out
        assert "0 ok, 1 mismatched, 0 skipped" in out

    def test_clean_row_passes_strict(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "queen6_6", "--strict", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "1 ok" in out

    def test_row_without_file_is_skipped_not_failed(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "DSJC125.1", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "skipped: instance file not available" in out
        assert "0 ok, 0 mismatched, 1 skipped" in out

    def test_unknown_row_name(self, capsys):
        code, _, err = run(capsys, "table", "queen99_99", "--no-cache")
        assert code == 1
        assert "no reference row" in err

    def test_csv_format_appends_status(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "myciel3", "queen5_5", "DSJC125.1",
            "--format", "csv", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == BoundReport.CSV_HEADER + ",status"
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines[1:])
        assert lines[1].startswith("myciel3,") and lines[1].endswith(",ok")
        assert lines[3].startswith("DSJC125.1,") and lines[3].endswith(",skipped")

    def test_skipped_csv_row_has_a_cell_per_header_column(self, capsys):
        code, out, _ = run(capsys, "table", "DSJC125.1", "--format", "csv", "--no-cache")
        assert code == 0
        header, row = out.strip().splitlines()
        assert row == "DSJC125.1" + "," * len(BoundReport.CSV_FIELDS) + "skipped"
        assert len(row.split(",")) == len(header.split(",")) == len(BoundReport.CSV_FIELDS) + 1

    def test_json_format_carries_schema_and_mismatches(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "myciel4", "--strict", "--format", "json",
            "--cache-dir", str(tmp_path),
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["schema"] == "sumcol-table-v1"
        (entry,) = payload["rows"]
        assert entry["status"] == "mismatch"
        assert entry["mismatches"] == [
            {"column": "num_is", "expected": 2, "actual": 1}
        ]
        assert entry["report"]["sigma_m"] == 41

    def test_runs_are_deterministic(self, capsys, tmp_path):
        args = ("table", "myciel3", "queen5_5", "--format", "csv", "--no-cache")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_non_utf8_instance_file_is_a_parse_error(self, capsys, tmp_path):
        (tmp_path / "DSJC125.1.col").write_bytes(b"p edge 2 1\ne 1 \xff2\n")
        code, _, err = run(
            capsys, "table", "DSJC125.1", "--instances-dir", str(tmp_path), "--no-cache"
        )
        assert code == 2
        assert err.startswith("sumcol table: DSJC125.1: line 2: malformed edge line")

    def test_unusable_cache_dir_fails_before_solving(self, capsys, tmp_path):
        blocker = tmp_path / "x"
        blocker.touch()
        code, out, err = run(capsys, "table", "myciel3", "--cache-dir", str(blocker))
        assert code == 1
        assert out == ""
        assert err.startswith(f"sumcol table: cache directory {blocker}: ")

    def test_row_status_classifies_incomplete(self):
        assert cli._row_status([]) == "ok"
        assert cli._row_status([("num_is", 5, None)]) == "incomplete"
        assert cli._row_status([("num_is", 5, None), ("m", 2, 1)]) == "mismatch"


class TestLattice:
    def test_text_output_lists_partitions(self, capsys):
        code, out, _ = run(
            capsys, "lattice", "--n", "6", "--alpha-bar", "3",
            "--s-lower", "2", "--m", "2",
        )
        assert code == 0
        assert "(3,3)" in out
        assert "(2,2,2)" in out
        assert "(1,1,1,1,1,1)" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "lattice", "--n", "5", "--alpha-bar", "3",
            "--s-lower", "1", "--m", "1", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "->" in out

    def test_infeasible_parameters(self, capsys):
        code, _, err = run(
            capsys, "lattice", "--n", "5", "--alpha-bar", "1",
            "--s-lower", "1", "--m", "2",
        )
        assert code == 1
        assert "no admissible partition" in err

    def test_limit_guard(self, capsys):
        code, _, err = run(
            capsys, "lattice", "--n", "30", "--alpha-bar", "5",
            "--s-lower", "6", "--m", "6", "--limit", "10",
        )
        assert code == 1
        assert "exceeds" in err


class TestCache:
    def test_clear_reports_removed_entries(self, capsys, tmp_path):
        run(capsys, "bound", "queen5_5", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 1 cache entry " in out
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 0 cache entries " in out

    def test_bound_reuses_the_cache_directory(self, capsys, tmp_path):
        run(capsys, "bound", "queen5_5", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "bound", "queen5_5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "from cache" in out


class TestConfig:
    def test_solver_defaults_come_from_the_pipeline_config(self):
        args = cli.build_parser().parse_args(["bound", "queen5_5"])
        assert cli._build_config(args) == PipelineConfig(
            alpha_override=args.alpha, count_cap=args.count_cap
        )


class TestEntryPoint:
    def test_installed_script_smoke(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        _, found, rest = pyproject.read_text(encoding="utf-8").partition(
            "[project.scripts]\n"
        )
        assert found, "pyproject.toml has no [project.scripts] table"
        scripts = rest.split("\n[", 1)[0].splitlines()
        assert 'sumcol = "sumcol.cli:main"' in scripts
        exe = shutil.which("sumcol")
        if exe is not None:
            command, env = [exe], None
        else:
            # Without an installed script, run the same main() through
            # ``python -m sumcol``; the child must import the package this
            # suite imported, whatever the working directory.
            src = str(Path(sumcol.__file__).resolve().parent.parent)
            pythonpath = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
            command = [sys.executable, "-m", "sumcol"]
        proc = subprocess.run(
            [*command, "bound", "queen5_5", "--no-cache", "--format", "csv"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("queen5_5,")

    def test_every_exported_name_resolves(self):
        missing = [name for name in sumcol.__all__ if not hasattr(sumcol, name)]
        assert missing == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "sumcol 0.1.0" in capsys.readouterr().out
