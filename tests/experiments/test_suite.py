"""Suite runner: timing report, bench row, name resolution.

The suite gate's cases are rows of the one table in
``tests/perf/test_bench.py``.
"""

import io

import pytest

import repro.experiments.suite as suite_module
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.suite import check_identity, resolve_names, run_suite
from tests.perf.test_bench import check_case

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
        report = run_suite(
            ["table1_gpus"],
            fast=True,
            jobs=1,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=stream,
        )
        output = stream.getvalue()
        assert "3090-Ti" in output
        assert "Suite timing report" in output
        assert report.figures[0].name == "table1_gpus"
        assert report.figures[0].seconds >= 0
        assert report.total_seconds > 0
        # table1 enumerates no cells, but the schedule section still exists.
        assert report.schedule["cells_enumerated"] == 0

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

    def test_bench_records_cold_pass(self, monkeypatch):
        # The bench row always drains every figure from an empty cache;
        # two cheap figures that share a cell stand in for the suite.
        monkeypatch.setattr(
            suite_module, "ALL_EXPERIMENTS", ("fig2_deepspeed_cdf", "sec23_deepspeed_profile")
        )
        (entry,) = suite_module.bench_rows(jobs=1)
        assert entry["name"] == "suite"
        assert entry["counters"]["cells_enumerated"] == 2
        assert entry["counters"]["cells_unique"] == 1
        assert entry["counters"]["cells_computed"] == 1  # cold: nothing precached
        assert entry["fingerprint"] and all(entry["checks"].values())
        assert entry["walls"]["seconds"] > 0


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

    def test_figure_text_is_identical_across_cold_caches(self, tmp_path):
        """Figure 12 prints planning work, not walls, so two cold runs on
        two fresh caches print the same bytes."""
        reports = [
            run_suite(
                ["fig12_overhead"],
                fast=True,
                jobs=1,
                cache_dir=str(tmp_path / f"cache{index}"),
                stream=io.StringIO(),
            )
            for index in range(2)
        ]
        assert reports[0].output_fingerprint == reports[1].output_fingerprint

    def test_check_identity_passes(self, tmp_path):
        names = ["fig2_deepspeed_cdf", "fig12_overhead"]
        report = run_suite(
            names,
            fast=True,
            jobs=2,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
            stream=io.StringIO(),
        )
        verdict = check_identity(report, names, fast=True)
        assert verdict["ok"]
        assert verdict["cells_match"] and verdict["outputs_match"]

    def test_check_identity_requires_schedule(self):
        report = run_suite(
            ["table1_gpus"], fast=True, use_cache=False, stream=io.StringIO()
        )
        with pytest.raises(ValueError):
            check_identity(report, ["table1_gpus"], fast=True)


class TestCheckSuiteDocument:
    def test_good_document_passes(self):
        check_case("suite-identical")

    def test_flags_duplicate_solves_and_missing_reuse(self):
        check_case("suite-duplicate-solves-and-no-reuse")

    def test_flags_failed_identity(self):
        check_case("suite-identity-failed")

    def test_throughput_gate_needs_multiple_cpus(self):
        check_case("suite-rate-one-cpu-host")
        check_case("suite-rate-one-cpu-baseline")
        check_case("suite-rate-below-floor")
