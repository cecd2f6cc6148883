"""Tests for the solvebench document and its CI regression gate."""

import json

import pytest

from repro.cli import main
from repro.solver.bench import BENCH_SCHEMA, compare_benchmarks, write_bench


def _doc(**overrides):
    base = {
        "schema": BENCH_SCHEMA,
        "suite_uncached": {"before_seconds": 85.7, "after_seconds": 35.2},
        "mip": [
            {
                "name": "a/S4",
                "status": "optimal",
                "parity": True,
                "warm_identical": True,
                "nodes": 100,
                "pivots": 500,
                "warm_nodes": 100,
                "wall_seconds": 1.0,
            }
        ],
        "partition": [
            {
                "name": "a",
                "parity": True,
                "warm_identical": True,
                "nodes": 50,
                "warm_nodes": 50,
                "wall_seconds": 0.1,
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
        slow["mip"][0]["wall_seconds"] = 999.0
        assert compare_benchmarks(slow, _doc()) == []

    def test_parity_regression_fails(self):
        bad = _doc()
        bad["mip"][0]["parity"] = False
        failures = compare_benchmarks(bad, _doc())
        assert any("parity" in f for f in failures)

    def test_node_regression_fails_beyond_25_percent(self):
        worse = _doc()
        worse["mip"][0]["nodes"] = 126  # > 1.25 * 100
        failures = compare_benchmarks(worse, _doc())
        assert any("node count" in f for f in failures)
        borderline = _doc()
        borderline["mip"][0]["nodes"] = 125  # exactly 1.25x: allowed
        assert compare_benchmarks(borderline, _doc()) == []

    def test_node_improvement_passes(self):
        better = _doc()
        better["mip"][0]["nodes"] = 10
        assert compare_benchmarks(better, _doc()) == []

    def test_warm_divergence_fails(self):
        bad = _doc()
        bad["partition"][0]["warm_identical"] = False
        failures = compare_benchmarks(bad, _doc())
        assert any("warm" in f for f in failures)

    def test_missing_instance_fails_both_ways(self):
        shrunk = _doc(mip=[])
        assert any(
            "missing from current" in f for f in compare_benchmarks(shrunk, _doc())
        )
        assert any(
            "missing from baseline" in f for f in compare_benchmarks(_doc(), shrunk)
        )


class TestSolvebenchCli:
    @pytest.fixture
    def fake_bench(self, monkeypatch):
        import repro.solver.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda: _doc())
        return _doc()

    def test_smoke_text_output(self, fake_bench, capsys):
        assert main(["solvebench"]) == 0
        out = capsys.readouterr().out
        assert "a/S4" in out and "[ok]" in out

    def test_json_to_file_and_gate(self, fake_bench, tmp_path, capsys):
        out_path = tmp_path / "BENCH_solver.json"
        assert main(["solvebench", "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == BENCH_SCHEMA
        capsys.readouterr()
        assert (
            main(["solvebench", "--check-against", str(out_path)]) == 0
        )

    def test_gate_fails_on_regression(self, fake_bench, tmp_path, capsys):
        baseline = _doc()
        baseline["mip"][0]["nodes"] = 10  # current (100) is a 10x regression
        path = tmp_path / "baseline.json"
        write_bench(path, baseline)
        assert main(["solvebench", "--check-against", str(path)]) == 1
        assert "node count regressed" in capsys.readouterr().err

    def test_committed_baseline_matches_schema(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads((repo_root / "BENCH_solver.json").read_text())
        assert committed["schema"] == BENCH_SCHEMA
        assert committed["suite_uncached"]["before_seconds"] == 85.7
        assert committed["suite_uncached"]["after_seconds"] is not None
        assert (
            committed["suite_uncached"]["after_seconds"]
            <= committed["suite_uncached"]["before_seconds"] / 2
        ), "the suite speedup gate of this PR: >= 2x uncached"
        for row in committed["mip"]:
            assert row["parity"] and row["warm_identical"]
        for row in committed["partition"]:
            assert row["warm_identical"]
