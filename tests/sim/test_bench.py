"""The ``sim`` bench: its gate cases and its CLI.

The gate cases are rows of the one table in ``tests/perf/test_bench.py``.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.perf.bench import SCHEMA, write
from repro.sim.bench import GATED_COUNTERS
from tests.perf.test_bench import SIM, check_case, fake_bench  # noqa: F401


class TestCompareBenchmarks:
    def test_identical_documents_pass(self):
        check_case("sim-identical")

    def test_wall_time_is_ignored(self):
        check_case("sim-walls-ignored")

    def test_fingerprint_divergence_fails(self):
        check_case("sim-fingerprint")

    def test_chaos_fingerprint_divergence_fails(self):
        check_case("chaos-fingerprint")

    @pytest.mark.parametrize("counter", GATED_COUNTERS)
    def test_work_counter_regression_fails_beyond_25_percent(self, counter):
        check_case(f"sim-counter-{counter}")

    def test_borderline_and_improved_counters_pass(self):
        check_case("sim-counter-borderline")
        check_case("sim-counter-improved")

    def test_missing_row_fails_both_ways(self):
        check_case("sim-row-missing-current")
        check_case("sim-row-missing-baseline")

    def test_large_section_gated_like_the_others(self):
        # The largest row, the ZeRO-3 step, is gated like the first.
        check_case("sim-large-fingerprint")
        check_case("sim-large-counter")

    def test_missing_large_row_fails(self):
        check_case("sim-large-missing")


class TestSimbenchCli:
    def test_smoke_text_output(self, fake_bench, capsys):
        assert main(["bench", "sim"]) == 0
        out = capsys.readouterr().out
        assert "gpt-a/topo_2_2" in out
        assert "flows_touched=60" in out
        assert "zero3:gpt-a/topo_2_2" in out
        assert "seconds=" in out

    def test_json_to_file_and_gate(self, fake_bench, tmp_path, capsys):
        out_path = tmp_path / "BENCH_sim.json"
        assert main(["bench", "sim", "--out", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == SCHEMA
        assert document["bench"] == "sim"
        assert document["rows"] == SIM["rows"]
        capsys.readouterr()
        assert main(["bench", "sim", "--check-against", str(out_path)]) == 0

    def test_gate_fails_on_divergence(self, fake_bench, tmp_path, capsys):
        baseline = json.loads(json.dumps(SIM))
        baseline["rows"][0]["fingerprint"] = "something-else"
        path = tmp_path / "baseline.json"
        write(baseline, path)
        assert main(["bench", "sim", "--check-against", str(path)]) == 1
        assert "fingerprint diverged" in capsys.readouterr().err

    def test_committed_baseline_matches_schema(self):
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads((repo_root / "BENCH_sim.json").read_text())
        assert committed["schema"] == SCHEMA
        rows = committed["rows"]
        assert len(rows) >= 5  # four corpus cells and the ZeRO-3 step
        for entry in rows:
            assert entry["fingerprint"]
            counters = entry["counters"]
            assert tuple(counters) == GATED_COUNTERS
            assert all(isinstance(value, int) for value in counters.values())
            # The incremental allocator's headline property: a reallocation
            # touches a small component, not the whole flow population.
            assert counters["flows_touched"] < 10 * counters["reallocations"]
            # And it runs once per timestamp, not once per flow change.
            assert counters["reallocations"] < counters["events"]
