"""Tests for the chaos harness and its CLI wiring."""

import dataclasses
import json

import pytest

from repro.check.corpus import CorpusCell, default_corpus
from repro.cli import build_parser, main
from repro.core.api import MobiusConfig, plan_mobius
from repro.faults.chaos import (
    SCENARIOS,
    build_schedule,
    run_chaos,
    run_chaos_cell,
)
from repro.faults.models import FaultSchedule
from repro.hardware.topology import commodity_server


@pytest.fixture(scope="module")
def cell():
    return default_corpus()[0]


@pytest.fixture(scope="module")
def planned(cell):
    return plan_mobius(cell.model, cell.topology, cell.config)


class TestBuildSchedule:
    def test_clean_is_empty(self, cell, planned):
        schedule = build_schedule("clean", cell, 0, 1.0, planned.plan)
        assert schedule.faults == ()
        assert schedule.seed == 0

    def test_dropout_targets_last_gpu_mid_step(self, cell, planned):
        schedule = build_schedule("dropout", cell, 0, 2.0, planned.plan)
        (dropout,) = schedule.dropouts
        assert dropout.gpu == cell.topology.n_gpus - 1
        assert dropout.time == pytest.approx(3.0)

    def test_straggler_targets_a_computing_gpu(self, cell, planned):
        schedule = build_schedule("straggler", cell, 0, 1.0, planned.plan)
        (straggler,) = schedule.stragglers
        plan = planned.plan
        gpu = straggler.gpu
        stage_costs = plan.partition.stage_costs(planned.cost_model)
        assert any(
            stage_costs[j].fwd_seconds > 0 for j in plan.stages_of_gpu(gpu)
        )

    def test_unknown_scenario_rejected(self, cell, planned):
        with pytest.raises(ValueError):
            build_schedule("meteor-strike", cell, 0, 1.0, planned.plan)


class TestRunChaosCell:
    def test_dropout_recovers_with_positive_ttr(self, cell):
        result = run_chaos_cell(cell, "dropout", seed=0, n_steps=4)
        assert result.ok
        assert result.status == "ok"
        assert result.time_to_recover > 0
        assert 0 < result.goodput < result.goodput_clean
        assert result.check_errors == 0

    def test_clean_matches_its_own_baseline(self, cell):
        result = run_chaos_cell(cell, "clean", seed=0, n_steps=4)
        assert result.ok
        assert result.goodput == pytest.approx(result.goodput_clean)
        assert result.time_to_recover == 0

    def test_single_gpu_dropout_reports_typed_infeasibility(self, tiny_model):
        solo = CorpusCell(
            "tiny/solo",
            tiny_model,
            commodity_server([1]),
            MobiusConfig(partition_time_limit=1.0),
        )
        result = run_chaos_cell(solo, "dropout", seed=0, n_steps=4)
        assert result.status == "infeasible"
        assert result.ok  # a typed outcome, not a failure
        assert result.detail
        assert result.samples > 0  # the pre-fault step still counts

    def test_rejects_non_positive_steps(self, cell):
        with pytest.raises(ValueError):
            run_chaos_cell(cell, "clean", n_steps=0)


class TestRunChaos:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(
            cells=[default_corpus()[0]], scenarios=("clean", "flaky"), n_steps=2
        )

    def test_matrix_shape_and_ok(self, report):
        assert [r.scenario for r in report.results] == ["clean", "flaky"]
        assert all(result.ok for result in report.results)

    def test_reports_are_deterministic(self, report):
        again = run_chaos(
            cells=[default_corpus()[0]], scenarios=("clean", "flaky"), n_steps=2
        )
        assert again.results == report.results


class TestCli:
    def test_parser_accepts_chaos_flags(self):
        args = build_parser().parse_args(["bench", "chaos", "--out", "x.json"])
        assert args.command == "bench"
        assert args.kind == "chaos"
        assert args.out == "x.json"
        assert args.check_against is None

    def test_cmd_chaos_writes_report_and_exits_by_ok(self, tmp_path, monkeypatch):
        import repro.faults.chaos as chaos_module

        results = []
        monkeypatch.setattr(
            chaos_module,
            "run_chaos",
            lambda: chaos_module.ChaosReport(seed=0, n_steps=4, results=tuple(results)),
        )
        out = tmp_path / "BENCH_chaos.json"
        assert main(["bench", "chaos", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "chaos"
        assert payload["rows"] == []

        cell = default_corpus()[0]
        results.append(
            dataclasses.replace(
                run_chaos_cell(cell, "clean", n_steps=1), check_errors=1
            )
        )
        assert main(["bench", "chaos", "--out", str(out)]) == 1
        (entry,) = json.loads(out.read_text())["rows"]
        assert entry["name"] == f"{cell.name}/clean"
        assert entry["fingerprint"] and entry["checks"] == {"ok": False}
