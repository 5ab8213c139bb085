"""Tests for the solver-stage disk cache."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from sumcol import (
    Graph,
    PipelineConfig,
    SolveCache,
    compute_bounds_pipeline,
    default_cache_dir,
    queen_graph,
)
import sumcol.cache
from sumcol import cli
from sumcol.bounds import STAGE_FIELDS, _solve_stages
from sumcol.cache import CACHE_SCHEMA, _config_digest, source_tag


def report_fields(report) -> dict:
    """Everything in a report except run bookkeeping."""
    d = report.to_json_dict()
    d.pop("cached")
    d.pop("timings")
    return d


class TestRoundTrip:
    def test_second_run_hits_and_reproduces_the_report(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(6, 6)
        fresh = compute_bounds_pipeline(g, cache=cache)
        again = compute_bounds_pipeline(g, cache=cache)
        assert not fresh.cached
        assert again.cached
        assert report_fields(again) == report_fields(fresh)

    def test_a_hit_times_only_the_formulas(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        fresh = compute_bounds_pipeline(g, cache=cache)
        again = compute_bounds_pipeline(g, cache=cache)
        assert again.cached
        assert set(fresh.timings) == {"alpha", "enumeration", "alpha_tilde", "formulas"}
        assert set(again.timings) == {"formulas"}
        assert dataclasses.replace(again, cached=False, timings=fresh.timings) == fresh

    def test_cold_solves_write_identical_entries(self, tmp_path):
        g = queen_graph(7, 7)
        entries = []
        for name in ("first", "second"):
            compute_bounds_pipeline(g, cache=SolveCache(tmp_path / name))
            (entry,) = (tmp_path / name).iterdir()
            entries.append((entry.name, entry.read_bytes()))
        assert entries[0] == entries[1]
        assert b"timings" not in entries[0][1]

    def test_skip_markers_survive_the_round_trip(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)], name="matching")
        cfg = PipelineConfig(count_cap=7)
        fresh = compute_bounds_pipeline(g, cfg, cache=cache)
        again = compute_bounds_pipeline(g, cfg, cache=cache)
        assert again.cached
        assert again.num_is_truncated
        assert again.alpha_tilde_skipped == "enumeration-truncated"
        assert report_fields(again) == report_fields(fresh)

    def test_entry_is_a_single_json_file_with_no_leftover_tmp(self, tmp_path):
        cache = SolveCache(tmp_path)
        compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestKeying:
    def test_different_graphs_use_different_entries(self, tmp_path):
        cache = SolveCache(tmp_path)
        compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        compute_bounds_pipeline(queen_graph(6, 6), cache=cache)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_solver_knob_change_misses(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, PipelineConfig(count_cap=5000), cache=cache)
        second = compute_bounds_pipeline(g, PipelineConfig(count_cap=4999), cache=cache)
        assert not second.cached
        assert len(list(tmp_path.glob("*.json"))) == 2

    # a changed value for every PipelineConfig field the solver stages read
    SOLVER_FIELD_CHANGES = {
        "alpha_time_limit": 59.0,
        "enum_time_limit": 59.0,
        "alpha_tilde_time_limit": 59.0,
        "count_cap": 4999,
        "alpha_override": 5,
    }

    def test_every_solver_field_is_covered(self):
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(self.SOLVER_FIELD_CHANGES) == names

    # known_chi_lb is the formulas' input, passed beside the config
    @pytest.mark.parametrize("name", sorted(SOLVER_FIELD_CHANGES) + ["known_chi_lb"])
    def test_a_field_change_misses_unless_only_the_formulas_read_it(self, tmp_path, name):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, PipelineConfig(), cache=cache)
        if name == "known_chi_lb":
            changed = compute_bounds_pipeline(g, cache=cache, known_chi_lb=5)
        else:
            cfg = PipelineConfig(**{name: self.SOLVER_FIELD_CHANGES[name]})
            changed = compute_bounds_pipeline(g, cfg, cache=cache)
        assert changed.cached == (name == "known_chi_lb")
        assert changed.sigma_m == 75

    # key prefixes of entries already on disk: a change to them orphans every entry
    DIGEST_PINS = {
        "default": (PipelineConfig(), "361c762a31d3fd7e"),
        "random workload limits": (
            PipelineConfig(alpha_time_limit=10.0, enum_time_limit=2.0,
                           alpha_tilde_time_limit=2.0),
            "00433d290dbdbe77",
        ),
        "count cap": (PipelineConfig(count_cap=195272), "e7b1884fde9f4bed"),
        "alpha override": (PipelineConfig(alpha_override=5), "b0de9819d9d13e85"),
    }

    @pytest.mark.parametrize("case", list(DIGEST_PINS))
    def test_config_digest_is_pinned(self, case):
        cfg, prefix = self.DIGEST_PINS[case]
        assert _config_digest(cfg)[:16] == prefix

    def test_pure_bound_input_change_still_hits(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(6, 6)
        base = compute_bounds_pipeline(g, PipelineConfig(), cache=cache)
        tightened = compute_bounds_pipeline(g, cache=cache, known_chi_lb=7)
        assert tightened.cached
        assert tightened.s_lower == 7
        assert tightened.s_lower_source == "known-chi-lb"
        assert tightened.sigma_m >= base.sigma_m
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_a_table_entry_serves_bound_with_another_chi_lb(self, tmp_path, capsys):
        # table feeds the row's published chi_lb (5), bound feeds its own
        assert cli.main(["table", "queen5_5", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["bound", "queen5_5", "--cache-dir", str(tmp_path), "--chi-lb", "6",
                "--format", "json"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["cached"], report["s_lower"], report["sigma_m"]) == (True, 6, 76)


class TestSchemaTag:
    def test_tag_is_a_digest_of_the_package_source(self, tmp_path):
        assert re.fullmatch(r"sumcol-cache-[0-9a-f]{12}", CACHE_SCHEMA)
        package = Path(sumcol.cache.__file__).parent
        probe = "import sumcol.cache; print(sumcol.cache.CACHE_SCHEMA)"
        env = {**os.environ, "PYTHONPATH": str(package.parent)}
        imports = [
            subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.strip()
            for _ in range(2)
        ]
        assert imports == [CACHE_SCHEMA, CACHE_SCHEMA]
        copy = tmp_path / "sumcol"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert source_tag(copy) == CACHE_SCHEMA
        module = copy / "partitions.py"
        module.write_bytes(module.read_bytes() + b"\n")
        assert re.fullmatch(r"sumcol-cache-[0-9a-f]{12}", source_tag(copy))
        assert source_tag(copy) != CACHE_SCHEMA


class TestRobustness:
    def test_missing_directory_is_a_miss(self, tmp_path):
        cache = SolveCache(tmp_path / "never-created")
        report = compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        assert not report.cached

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json", encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert report.sigma_m == 75

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        obj["schema"] = "sumcol-cache-v0"
        entry.write_text(json.dumps(obj), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached


    def test_v1_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        obj["schema"] = "sumcol-cache-v1"
        entry.write_text(json.dumps(obj), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert json.loads(entry.read_text(encoding="utf-8"))["schema"] == CACHE_SCHEMA
        assert compute_bounds_pipeline(g, cache=cache).cached

    def test_v5_entry_with_timings_is_a_miss_and_is_overwritten(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        fresh = compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        v5 = {**obj, "schema": "sumcol-cache-v5",
              "timings": {"alpha": 0.001, "enumeration": 0.002, "alpha_tilde": 0.003}}
        entry.write_text(json.dumps(v5), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert report_fields(report) == report_fields(fresh)
        stored = json.loads(entry.read_text(encoding="utf-8"))
        assert stored.keys() == {"schema", *STAGE_FIELDS}
        assert stored == obj
        assert compute_bounds_pipeline(g, cache=cache).cached

    def test_v4_entry_from_a_stopped_alpha_is_a_miss_and_is_overwritten(self, tmp_path):
        # v4 is v5's layout, but a stopped alpha in it holds a method no longer
        # produced and a looser bound than the search now reports
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        fresh = compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        stages = {k: obj[k] for k in STAGE_FIELDS}
        obj.update(
            schema="sumcol-cache-v4", alpha_bar=6, alpha_exact=False,
            alpha_method="greedy-coloring", num_is=None, enum_skipped="alpha-inexact",
            alpha_tilde=None, alpha_tilde_exact=False,
            alpha_tilde_skipped="enumeration-skipped",
        )
        entry.write_text(json.dumps(obj), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert report_fields(report) == report_fields(fresh)
        stored = json.loads(entry.read_text(encoding="utf-8"))
        assert stored["schema"] == CACHE_SCHEMA
        assert {k: stored[k] for k in STAGE_FIELDS if k != "timings"} == {
            k: v for k, v in stages.items() if k != "timings"
        }
        assert compute_bounds_pipeline(g, cache=cache).cached

    @staticmethod
    def nested_entry(schema, report, sets):
        """A v2/v3 entry: one object per solver result; v2 also listed the sets."""
        enumeration = {"target_size": report.alpha_bar, "count": report.num_is,
                       "truncated": report.num_is_truncated, "elapsed": 0.0}
        if sets is not None:
            enumeration["sets"] = sets
        return {
            "schema": schema, "instance": report.instance, "n": report.n,
            "edge_count": report.edge_count,
            "alpha": {"value": report.alpha_bar, "exact": True, "elapsed": 0.0,
                      "method": report.alpha_method, "witness": None},
            "enumeration": enumeration,
            "enum_skipped": None,
            "alpha_tilde": {"value": report.alpha_tilde, "exact": True, "elapsed": 0.0,
                            "method": "clique-bnb", "witness": None},
            "tilde_skipped": None,
            "timings": {},
        }

    def test_v2_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        fresh = compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        v2_sets = [[0, 7, 14, 16, 23]] * fresh.num_is
        for schema, sets in (("sumcol-cache-v2", v2_sets), ("sumcol-cache-v3", None)):
            obj = self.nested_entry(schema, fresh, sets)
            entry.write_text(json.dumps(obj), encoding="utf-8")
            assert not compute_bounds_pipeline(g, cache=cache).cached
            stored = json.loads(entry.read_text(encoding="utf-8"))
            assert stored.keys() == {"schema", *STAGE_FIELDS}
            assert stored["schema"] == CACHE_SCHEMA
            assert report_fields(compute_bounds_pipeline(g, cache=cache)) == report_fields(fresh)

    # entries of the current schema that a hit would misread or crash on
    MALFORMED = {
        "missing key": lambda obj: {k: v for k, v in obj.items() if k != "num_is"},
        "extra key": lambda obj: {**obj, "enumeration": {"count": 10}},
        "null for an int": lambda obj: {**obj, "alpha_bar": None},
        "object for an int": lambda obj: {**obj, "alpha_bar": {"value": 5}},
        "bool for an int": lambda obj: {**obj, "alpha_bar": True},
        "string for a bool": lambda obj: {**obj, "alpha_exact": "true"},
        "list for the timings": lambda obj: {**obj, "timings": []},
        "text in the timings": lambda obj: {**obj, "timings": {"alpha": "fast"}},
        "top-level list": lambda obj: [],
        "top-level number": lambda obj: 5,
    }

    @pytest.mark.parametrize("damage", list(MALFORMED))
    def test_malformed_entry_is_a_miss_and_is_overwritten(self, tmp_path, damage):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        entry.write_text(json.dumps(self.MALFORMED[damage](obj)), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert report.sigma_m == 75
        stored = json.loads(entry.read_text(encoding="utf-8"))
        assert stored.keys() == {"schema", *STAGE_FIELDS}
        assert stored["schema"] == CACHE_SCHEMA
        again = compute_bounds_pipeline(g, cache=cache)
        assert again.cached
        assert report_fields(again) == report_fields(report)


    # well-typed entries no solve of queen5_5 (n = 25) can produce
    OUT_OF_RANGE = {
        "alpha_bar 0": {"alpha_bar": 0},
        "alpha_bar above n": {"alpha_bar": 26},
        "negative num_is": {"num_is": -3},
        "no sets, not truncated": {"num_is": 0, "num_is_truncated": False},
        "alpha_tilde 0": {"alpha_tilde": 0},
    }

    @pytest.mark.parametrize("damage", list(OUT_OF_RANGE))
    def test_out_of_range_entry_is_a_miss_and_is_overwritten(self, tmp_path, damage):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        fresh = compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        entry.write_text(json.dumps({**obj, **self.OUT_OF_RANGE[damage]}), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert not report.cached
        assert report.sigma_m == 75
        stored = json.loads(entry.read_text(encoding="utf-8"))
        assert stored.keys() == obj.keys()
        assert all(stored[k] == obj[k] for k in obj if k != "timings")
        again = compute_bounds_pipeline(g, cache=cache)
        assert again.cached
        assert report_fields(again) == report_fields(fresh)

    def test_truncated_entry_with_no_sets_hits(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        obj = json.loads(entry.read_text(encoding="utf-8"))
        entry.write_text(json.dumps({**obj, "num_is": 0, "num_is_truncated": True,
                                     "alpha_tilde": None}), encoding="utf-8")
        report = compute_bounds_pipeline(g, cache=cache)
        assert report.cached
        assert (report.num_is, report.m) == (0, 5)


class TestCountsNotSets:
    def test_entry_holds_no_per_set_data(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(6, 6)
        report = compute_bounds_pipeline(g, cache=cache)
        assert report.num_is == 4
        obj = json.loads(next(tmp_path.glob("*.json")).read_text(encoding="utf-8"))
        assert obj.keys() == {"schema", *STAGE_FIELDS}
        assert obj["num_is"] == 4

    def test_loaded_enumeration_keeps_the_count_without_sets(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(6, 6)
        compute_bounds_pipeline(g, cache=cache)
        stages = cache.load(g, PipelineConfig())
        assert (stages["alpha_bar"], stages["num_is"], stages["num_is_truncated"]) == (6, 4, False)


class TestWrites:
    def test_store_leaves_no_tmp_file(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        cfg = PipelineConfig()
        stages, _ = _solve_stages(g, cfg)
        cache.store(g, cfg, stages)
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
        assert cache.load(g, cfg) == stages

    def test_store_does_not_touch_another_writers_tmp_file(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        compute_bounds_pipeline(g, cache=cache)
        entry = next(tmp_path.glob("*.json"))
        # the file a concurrent writer sharing `<key>.tmp` would be filling
        other = entry.with_suffix(".tmp")
        other.write_text("half-written", encoding="utf-8")
        entry.unlink()
        compute_bounds_pipeline(g, cache=cache)
        assert other.read_text(encoding="utf-8") == "half-written"
        assert compute_bounds_pipeline(g, cache=cache).cached


    @staticmethod
    def clear_after_dump(monkeypatch, cache, then=None):
        """Make store's JSON dump end with `cache.clear()`, then raise `then`:
        the race in which a concurrent clear deletes a live temporary file."""
        def dump(obj, fh):
            json.dump(obj, fh)
            cache.clear()
            if then is not None:
                raise then

        monkeypatch.setattr(sumcol.cache, "json",
                            types.SimpleNamespace(dump=dump, load=json.load,
                                                  dumps=json.dumps))

    def test_a_clear_inside_store_skips_the_write(self, tmp_path, monkeypatch, capsys):
        self.clear_after_dump(monkeypatch, SolveCache(tmp_path))
        assert cli.main(["bound", "queen5_5", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("queen5_5:")
        assert "chromatic sum >=       75" in out
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_store_whose_tmp_file_is_gone_raises_its_own_error(
        self, tmp_path, monkeypatch
    ):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        cfg = PipelineConfig()
        stages, _ = _solve_stages(g, cfg)
        self.clear_after_dump(monkeypatch, cache, then=OSError("disk full"))
        with pytest.raises(OSError, match="disk full"):
            cache.store(g, cfg, stages)
        assert list(tmp_path.iterdir()) == []

    def test_a_store_finishing_inside_clear_is_passed_over(self, tmp_path, monkeypatch):
        # clear lists the directory, and before it unlinks anything a
        # concurrent store renames its temporary file into place and a
        # concurrent clear deletes one of the two listed entries
        cache = SolveCache(tmp_path)
        cfg = PipelineConfig()
        for side in (5, 6):
            compute_bounds_pipeline(queen_graph(side, side), cache=cache)
        gone, kept = sorted(tmp_path.glob("*.json"))
        stored = cache._path(queen_graph(4, 4), cfg)
        tmp = tmp_path / f"{stored.stem}.x1y2ab_9.tmp"
        tmp.write_text("{}", encoding="utf-8")
        listed = type(tmp_path).iterdir

        def iterdir(path):
            listing = list(listed(path))
            os.replace(tmp, stored)
            gone.unlink()
            return iter(listing)

        monkeypatch.setattr(type(tmp_path), "iterdir", iterdir)
        assert cache.clear() == 1
        monkeypatch.undo()
        assert not kept.exists()
        assert [p.name for p in tmp_path.iterdir()] == [stored.name]

    def test_concurrent_stores_of_one_key_stay_valid(self, tmp_path):
        cache = SolveCache(tmp_path)
        g = queen_graph(5, 5)
        cfg = PipelineConfig()
        stages = {**_solve_stages(g, cfg)[0], "pad": list(range(2000))}
        errors = []

        def writer():
            try:
                for _ in range(25):
                    cache.store(g, cfg, stages)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
        assert cache.load(g, cfg) == stages


class TestClear:
    def test_clear_counts_entries(self, tmp_path):
        cache = SolveCache(tmp_path)
        compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        compute_bounds_pipeline(queen_graph(6, 6), cache=cache)
        assert cache.clear() == 2
        assert cache.clear() == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_clear_removes_leftover_tmp_files(self, tmp_path):
        cache = SolveCache(tmp_path)
        compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        entry = next(tmp_path.glob("*.json"))
        (tmp_path / f"{entry.stem}.x1y2ab_9.tmp").write_text("", encoding="utf-8")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_clear_keeps_files_the_cache_did_not_write(self, tmp_path):
        cache = SolveCache(tmp_path)
        compute_bounds_pipeline(queen_graph(5, 5), cache=cache)
        foreign = {"notes.json": "{}", "notes.tmp": "draft", "package.json": "{}"}
        for name, text in foreign.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert cache.clear() == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(foreign)
        assert all((tmp_path / name).read_text(encoding="utf-8") == text
                   for name, text in foreign.items())

    def test_clear_on_absent_directory(self, tmp_path):
        assert SolveCache(tmp_path / "nothing").clear() == 0


class TestDefaultDirectory:
    def test_respects_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "sumcol"

    def test_falls_back_to_home_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "sumcol"
