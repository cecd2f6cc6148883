"""Tests for the simbench document and its CI fingerprint/work gate."""

import json

import pytest

from repro.cli import main
from repro.sim.bench import (
    BENCH_SCHEMA,
    GATED_COUNTERS,
    compare_benchmarks,
    write_bench,
)


def _doc(**overrides):
    base = {
        "schema": BENCH_SCHEMA,
        "corpus": [
            {
                "name": "gpt-a/topo_2_2",
                "fingerprint": "aaaa1111",
                "events": 100,
                "reallocations": 40,
                "components_filled": 40,
                "fill_rounds": 60,
                "flows_touched": 60,
                "member_scans": 180,
                "flows_touched_per_reallocation": 1.5,
                "reallocations_per_event": 0.4,
                "wall_seconds": 0.05,
            }
        ],
        "chaos": [
            {
                "name": "gpt-a/topo_2_2/degraded_link",
                "fingerprint": "bbbb2222",
                "status": "ok",
                "wall_seconds": 0.07,
            }
        ],
        "large": [
            {
                "name": "dc-1024x4-r256",
                "fingerprint": "dddd4444",
                "events": 1_041_935,
                "n_tasks": 786_432,
                "reallocations": 1_041_924,
                "components_filled": 824_962,
                "fill_rounds": 824_962,
                "flows_touched": 1_242_966,
                "member_scans": 3_728_898,
                "flows_touched_per_reallocation": 1.193,
                "reallocations_per_event": 1.0,
                "wall_seconds": 70.0,
                "peak_rss_mb": 520,
            }
        ],
    }
    base.update(overrides)
    return base


class TestCompareBenchmarks:
    def test_identical_documents_pass(self):
        assert compare_benchmarks(_doc(), _doc()) == []

    def test_wall_time_is_ignored(self):
        slow = _doc()
        slow["corpus"][0]["wall_seconds"] = 999.0
        slow["chaos"][0]["wall_seconds"] = 999.0
        assert compare_benchmarks(slow, _doc()) == []

    def test_fingerprint_divergence_fails(self):
        bad = _doc()
        bad["corpus"][0]["fingerprint"] = "cccc3333"
        failures = compare_benchmarks(bad, _doc())
        assert any("fingerprint diverged" in f for f in failures)

    def test_chaos_fingerprint_divergence_fails(self):
        bad = _doc()
        bad["chaos"][0]["fingerprint"] = "cccc3333"
        failures = compare_benchmarks(bad, _doc())
        assert any("chaos" in f and "fingerprint diverged" in f for f in failures)

    @pytest.mark.parametrize("counter", GATED_COUNTERS)
    def test_work_counter_regression_fails_beyond_25_percent(self, counter):
        worse = _doc()
        worse["corpus"][0][counter] = int(_doc()["corpus"][0][counter] * 1.3)
        failures = compare_benchmarks(worse, _doc())
        assert any(counter in f and "regressed" in f for f in failures)

    def test_borderline_and_improved_counters_pass(self):
        borderline = _doc()
        borderline["corpus"][0]["events"] = 125  # exactly 1.25x: allowed
        assert compare_benchmarks(borderline, _doc()) == []
        better = _doc()
        better["corpus"][0]["flows_touched"] = 10
        assert compare_benchmarks(better, _doc()) == []

    def test_missing_row_fails_both_ways(self):
        shrunk = _doc(corpus=[])
        assert any(
            "missing from current" in f for f in compare_benchmarks(shrunk, _doc())
        )
        assert any(
            "missing from baseline" in f for f in compare_benchmarks(_doc(), shrunk)
        )

    def test_large_section_gated_like_the_others(self):
        bad = _doc()
        bad["large"][0]["fingerprint"] = "eeee5555"
        failures = compare_benchmarks(bad, _doc())
        assert any("large" in f and "fingerprint diverged" in f for f in failures)
        worse = _doc()
        worse["large"][0]["events"] = int(_doc()["large"][0]["events"] * 1.3)
        failures = compare_benchmarks(worse, _doc())
        assert any("large" in f and "events regressed" in f for f in failures)
        # Wall time and peak RSS stay informational.
        slow = _doc()
        slow["large"][0]["wall_seconds"] = 9999.0
        slow["large"][0]["peak_rss_mb"] = 99999
        assert compare_benchmarks(slow, _doc()) == []

    def test_missing_large_row_fails(self):
        assert any(
            "large" in f and "missing from current" in f
            for f in compare_benchmarks(_doc(large=[]), _doc())
        )


class TestSimbenchCli:
    @pytest.fixture
    def fake_bench(self, monkeypatch):
        import repro.cli as cli_module  # noqa: F401  (run_bench imported late)
        import repro.sim.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda: _doc())
        return _doc()

    def test_smoke_text_output(self, fake_bench, capsys):
        assert main(["simbench"]) == 0
        out = capsys.readouterr().out
        assert "gpt-a/topo_2_2" in out
        assert "touched/realloc=" in out
        assert "scans=180" in out
        assert "realloc/event=" in out
        assert "dc-1024x4-r256" in out
        assert "rss=" in out

    def test_json_to_file_and_gate(self, fake_bench, tmp_path, capsys):
        out_path = tmp_path / "BENCH_sim.json"
        assert main(["simbench", "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == BENCH_SCHEMA
        capsys.readouterr()
        assert main(["simbench", "--check-against", str(out_path)]) == 0

    def test_gate_fails_on_divergence(self, fake_bench, tmp_path, capsys):
        baseline = _doc()
        baseline["corpus"][0]["fingerprint"] = "something-else"
        path = tmp_path / "baseline.json"
        write_bench(path, baseline)
        assert main(["simbench", "--check-against", str(path)]) == 1
        assert "fingerprint diverged" in capsys.readouterr().err

    def test_committed_baseline_matches_schema(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads((repo_root / "BENCH_sim.json").read_text())
        assert committed["schema"] == BENCH_SCHEMA
        assert len(committed["corpus"]) >= 4
        for row in committed["corpus"]:
            assert row["fingerprint"]
            for counter in GATED_COUNTERS:
                assert isinstance(row[counter], int)
            # The incremental allocator's headline property: a reallocation
            # touches a small component, not the whole flow population.
            assert row["flows_touched_per_reallocation"] < 10
            # And it runs once per timestamp, not once per flow change.
            assert row["reallocations_per_event"] < 1
        for row in committed["chaos"]:
            assert row["status"] in ("ok", "infeasible")
            assert (row["fingerprint"] is None) == (row["status"] == "infeasible")
        # The datacenter row: ~1M events, identified by the columnar digest.
        assert len(committed["large"]) >= 1
        for row in committed["large"]:
            assert row["events"] >= 1_000_000
            assert row["fingerprint"] and len(row["fingerprint"]) == 64
            assert row["flows_touched_per_reallocation"] < 10
            assert row["wall_seconds"] > 0 and row["peak_rss_mb"] > 0
