"""Suite runner: timing report, bench output, name resolution."""

import io
import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.suite import (
    BenchOverwriteError,
    check_identity,
    check_suite_document,
    resolve_names,
    run_suite,
    write_bench,
)
from repro.perf.cache import CACHE_VERSION

CHEAP = ["fig2_deepspeed_cdf", "sec23_deepspeed_profile"]


class TestResolveNames:
    def test_all_keyword(self):
        assert resolve_names(["all"]) == list(ALL_EXPERIMENTS)

    def test_prefix_match_preserves_paper_order(self):
        assert resolve_names(["fig2", "table1"]) == ["table1_gpus", "fig2_deepspeed_cdf"]

    def test_unknown_prefix_empty(self):
        assert resolve_names(["fig99"]) == []


class TestRunSuite:
    def test_cheap_figure_runs_and_reports(self, tmp_path):
        stream = io.StringIO()
        bench = tmp_path / "BENCH_suite.json"
        report = run_suite(
            ["table1_gpus"],
            fast=True,
            jobs=1,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            bench_path=str(bench),
            stream=stream,
        )
        output = stream.getvalue()
        assert "3090-Ti" in output
        assert "Suite timing report" in output
        assert report.figures[0].name == "table1_gpus"
        assert report.figures[0].seconds >= 0

        document = json.loads(bench.read_text())
        assert document["schema"] == "mobius-bench-suite/3"
        assert document["cache"]["version"] == CACHE_VERSION
        assert document["figures"][0]["name"] == "table1_gpus"
        assert document["total_seconds"] > 0
        assert document["output_fingerprint"] == report.output_fingerprint
        # table1 enumerates no cells, but the schedule section still exists.
        assert document["schedule"]["cells_enumerated"] == 0

    def test_no_cache_mode(self, tmp_path):
        stream = io.StringIO()
        report = run_suite(
            ["table1_gpus"],
            fast=True,
            use_cache=False,
            stream=stream,
        )
        assert not report.use_cache
        assert report.cache_totals == {"hits": 0, "misses": 0}

    def test_bench_records_baseline_speedup(self, tmp_path):
        stream = io.StringIO()
        kwargs = dict(fast=True, use_cache=False, stream=stream)
        baseline = run_suite(["table1_gpus"], **kwargs)
        optimized = run_suite(["table1_gpus"], **kwargs)
        path = tmp_path / "bench.json"
        document = write_bench(optimized, str(path), baseline=baseline)
        assert "baseline" in document
        assert document["speedup_vs_baseline"] > 0
        assert json.loads(path.read_text())["baseline"]["total_seconds"] > 0

    def test_bench_records_cold_pass(self, tmp_path):
        stream = io.StringIO()
        kwargs = dict(fast=True, use_cache=False, stream=stream)
        baseline = run_suite(["table1_gpus"], **kwargs)
        cold = run_suite(["table1_gpus"], **kwargs)
        warm = run_suite(["table1_gpus"], **kwargs)
        document = write_bench(
            warm, str(tmp_path / "bench.json"), baseline=baseline, cold=cold
        )
        assert document["cold_cache"]["total_seconds"] > 0
        assert document["speedup_cold_vs_baseline"] > 0


class TestScheduledSuite:
    def test_assembly_is_pure_cache_hits(self, tmp_path):
        """The tentpole guarantee: after the drain, figures never miss."""
        report = run_suite(
            CHEAP,
            fast=True,
            jobs=1,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=io.StringIO(),
        )
        assert report.cache_totals["misses"] == 0
        assert report.cache_totals["hits"] > 0
        assert report.schedule["cells_deduped"] >= 1  # fig2 == sec23
        assert report.schedule["duplicate_solves"] == 0

    def test_aggregate_system_misses_pinned_across_jobs(self, tmp_path):
        """Satellite pin: total system computes identical for jobs=1 vs 2."""
        reports = {}
        for jobs in (1, 2):
            reports[jobs] = run_suite(
                CHEAP + ["fig12_overhead"],
                fast=True,
                jobs=jobs,
                use_cache=True,
                cache_dir=str(tmp_path / f"cache{jobs}"),
                stream=io.StringIO(),
            )
        misses = {
            jobs: report.aggregate_cache["system"]["misses"]
            for jobs, report in reports.items()
        }
        assert misses[1] == misses[2] == reports[1].schedule["cells_unique"]
        assert (
            reports[1].schedule["cells_fingerprint"]
            == reports[2].schedule["cells_fingerprint"]
        )

    def test_check_identity_passes(self, tmp_path):
        report = run_suite(
            ["fig2_deepspeed_cdf"],
            fast=True,
            jobs=2,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=io.StringIO(),
        )
        verdict = check_identity(
            report,
            ["fig2_deepspeed_cdf"],
            fast=True,
            cache_dir=str(tmp_path / "cache"),
        )
        assert verdict["ok"]
        assert verdict["cells_match"] and verdict["outputs_match"]

    def test_check_identity_requires_schedule(self):
        report = run_suite(
            ["table1_gpus"], fast=True, use_cache=False, stream=io.StringIO()
        )
        with pytest.raises(ValueError):
            check_identity(report, ["table1_gpus"], fast=True)


class TestWriteBenchGuard:
    def _report(self, tmp_path, **kwargs):
        return run_suite(
            ["table1_gpus"],
            fast=True,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=io.StringIO(),
            **kwargs,
        )

    def test_refuses_to_overwrite_fuller_report(self, tmp_path):
        report = self._report(tmp_path)
        path = tmp_path / "bench.json"
        full = report.as_dict()
        full["fast"] = False  # a committed full-sweep baseline
        path.write_text(json.dumps(full))
        with pytest.raises(BenchOverwriteError):
            write_bench(report, str(path))
        # Same or better coverage writes fine; force always writes.
        write_bench(report, str(path), force=True)
        assert json.loads(path.read_text())["fast"] is True
        write_bench(report, str(path))

    def test_unreadable_existing_report_is_not_protected(self, tmp_path):
        report = self._report(tmp_path)
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        write_bench(report, str(path))
        assert json.loads(path.read_text())["schema"] == "mobius-bench-suite/3"


class TestCheckSuiteDocument:
    def _document(self, tmp_path):
        report = run_suite(
            CHEAP,
            fast=True,
            jobs=1,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=io.StringIO(),
        )
        return report.as_dict()

    def test_good_document_passes(self, tmp_path):
        document = self._document(tmp_path)
        assert check_suite_document(document) == []
        # Against itself as the reference: throughput trivially equal.
        assert check_suite_document(document, document) == []

    def test_flags_duplicate_solves_and_missing_reuse(self, tmp_path):
        document = self._document(tmp_path)
        document["schedule"]["duplicate_solves"] = 3
        document["schedule"]["cells_deduped"] = 0
        document["schedule"]["cells_precached"] = 0
        document["schedule"]["cells_shared"] = 0
        document["schedule"]["cells_coalesced"] = 0
        problems = check_suite_document(document)
        assert any("duplicate" in p for p in problems)
        assert any("reuse" in p for p in problems)

    def test_flags_failed_identity(self, tmp_path):
        document = self._document(tmp_path)
        document["identity"] = {"ok": False, "cells_match": False, "outputs_match": True}
        assert any("identity" in p for p in check_suite_document(document))

    def test_throughput_gate_needs_multiple_cpus(self, tmp_path):
        document = self._document(tmp_path)
        reference = json.loads(json.dumps(document))
        # Pretend the reference machine was 8x faster per unique cell.
        reference["machine"]["cpus"] = 8
        reference["total_seconds"] = document["total_seconds"] / 8
        document["machine"]["cpus"] = 1
        assert check_suite_document(document, reference) == []  # 1 CPU: skipped
        document["machine"]["cpus"] = 8
        problems = check_suite_document(document, reference)
        assert any("throughput" in p for p in problems)
