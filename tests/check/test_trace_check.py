"""Tests for the task-graph sanitizer (repro.check.trace_check) and the
``Trace`` constructor's span guards it relies on."""

from __future__ import annotations

import math

import pytest

from repro.check.trace_check import sanitize_run
from repro.hardware.topology import topo_2_2
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace
from tests.helpers import make_trace


def _restored(trace, family, column, row, value):
    """Rebuild ``trace`` from its pickled state with one stored value corrupted."""
    state = trace.__getstate__()
    columns = dict(state[family])
    corrupted = columns[column].copy()
    corrupted[row] = value
    columns[column] = corrupted
    state[family] = columns
    restored = Trace.__new__(Trace)
    restored.__setstate__(state)
    return restored


def _codes(report):
    return {f.code for f in report}


@pytest.fixture
def topo():
    return topo_2_2()


class TestCheckTaskGraph:
    def test_simulated_graph_is_clean(self, topo):
        table = TaskTable()
        upload = table.transfer(topo.path_from_dram(0), 1e9, gpu=0)
        table.compute(0, 0.5, after=(upload,))
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        report = sanitize_run(table, runner.last_times)
        assert report.ok, report.render()

    def test_causality_violation_flagged(self, topo):
        table = TaskTable()
        dep = table.compute(0, 1.0, "first")
        child = table.compute(1, 1.0, "second", after=(dep,))
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        times = runner.last_times
        times.start[child] = 0.25  # corrupt: starts before dep ends
        times.end[child] = 1.25
        report = sanitize_run(table, times)
        assert "TASK-CAUSALITY" in _codes(report)
        finding = next(f for f in report if f.code == "TASK-CAUSALITY")
        assert finding.subject == "second"
        assert finding.slack == pytest.approx(-0.75)

    def test_duration_mismatch_flagged(self, topo):
        table = TaskTable()
        task = table.compute(0, 1.0, "k")
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        times = runner.last_times
        times.end[task] = times.start[task] + 0.5  # corrupt the realised time
        report = sanitize_run(table, times)
        assert "TASK-DURATION" in _codes(report)

    def test_barrier_that_takes_time_flagged(self, topo):
        table = TaskTable()
        first = table.compute(0, 1.0, "first")
        sync = table.barrier("sync", after=(first,))
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        times = runner.last_times
        times.end[sync] = times.start[sync] + 0.5  # barriers are zero-cost
        report = sanitize_run(table, times)
        assert _codes(report) == {"TASK-DURATION"}
        assert report.findings[0].subject == "sync"

    def test_shared_link_conservation_holds_in_sim(self, topo):
        # Two concurrent uploads to GPUs 0 and 1 share the root-complex
        # link; the fluid model must split it between them.
        table = TaskTable()
        for g in (0, 1):
            table.transfer(topo.path_from_dram(g), 2e9, gpu=g, label=f"U{g}")
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        times = runner.last_times
        report = sanitize_run(table, times)
        assert report.ok, report.render()
        # Sharing really happened: neither transfer got the full link.
        for row in range(len(table)):
            implied = table.nbytes[row] / (times.end[row] - times.start[row])
            path = table.paths[table.path_id[row]]
            assert implied < topo.path_bandwidth(path) * 0.75


class TestSanitizeTrace:
    """A trace rebuilt from a pickled cache payload passes the same guards."""

    @pytest.fixture
    def trace(self):
        return make_trace(
            4,
            [(0, 0.0, 1.0, "F0,0")],
            [(1, 0.0, 1.0, 1e9, "stage-upload", "U1")],
        )

    def test_nan_timestamp_flagged(self, trace):
        with pytest.raises(ValueError, match="non-finite times"):
            _restored(trace, "compute", "start", 0, float("nan"))

    def test_backwards_span_flagged(self, trace):
        with pytest.raises(ValueError, match="ends before it starts"):
            _restored(trace, "compute", "start", 0, 2.0)

    def test_negative_bytes_flagged(self, trace):
        with pytest.raises(ValueError, match="invalid byte count"):
            _restored(trace, "transfers", "nbytes", 0, -5.0)


class TestTraceGuards:
    """The ``Trace`` constructor's ValueError guards."""

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            make_trace(2, [(0, 1.0, 0.5, "F0,0")])

    def test_rejects_nan_start(self):
        with pytest.raises(ValueError, match="finite"):
            make_trace(2, [(0, float("nan"), 1.0, "F0,0")])

    def test_rejects_inf_end(self):
        with pytest.raises(ValueError, match="finite"):
            make_trace(2, transfers=[(0, 0.0, math.inf, 10.0, "k", "l")])

    def test_rejects_nan_bytes(self):
        with pytest.raises(ValueError, match="byte count"):
            make_trace(2, transfers=[(0, 0.0, 1.0, float("nan"), "k", "l")])

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="byte count"):
            make_trace(2, transfers=[(0, 0.0, 1.0, -1.0, "k", "l")])

    @pytest.mark.parametrize(
        "compute,transfer,match",
        [
            ((1, 1.0, 0.5), (0.0, 1.0, 1.0), "ends before it starts"),
            ((1, 0.0, 1.0), (0.0, math.inf, 1.0), "finite"),
            ((1, 0.0, 1.0), (0.0, 1.0, -1.0), "byte count"),
            ((2, 0.0, 1.0), (0.0, 1.0, 1.0), "is on gpu 2,"),
            ((-1, 0.0, 1.0), (0.0, 1.0, 1.0), "is on gpu -1,"),
        ],
    )
    def test_from_columns_applies_the_same_checks(self, compute, transfer, match):
        """Built from whole columns, the first failing row raises its error."""
        with pytest.raises(ValueError, match=match):
            Trace(
                2,
                compute={
                    "gpu": [0, compute[0]],
                    "start": [0.0, compute[1]],
                    "end": [1.0, compute[2]],
                    "label": ["ok", "c"],
                },
                transfers={
                    "gpu": [0],
                    "start": [transfer[0]],
                    "end": [transfer[1]],
                    "nbytes": [transfer[2]],
                    "nbytes_int": [False],
                    "kind_code": [0],
                    "label": ["t"],
                    "kinds": ["k"],
                },
            )

    def test_zero_duration_span_is_legal(self):
        trace = make_trace(2, [(0, 1.0, 1.0, "F0,0")])
        assert trace.compute[0].start == trace.compute[0].end
