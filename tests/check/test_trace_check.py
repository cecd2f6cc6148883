"""Tests for the trace/task-graph sanitizer (repro.check.trace_check)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.check.trace_check import check_task_graph, sanitize_run, sanitize_trace
from repro.hardware.topology import topo_2_2
from repro.sim.tasks import TaskGraphRunner, TaskTable, TaskTimes
from repro.sim.trace import Trace, _ComputeStore, _TransferStore
from tests.helpers import make_trace, span_columns


def _codes(report):
    return {f.code for f in report}


def _raw_trace(n_gpus, compute=(), transfers=()):
    """A trace whose stores are built past the constructor's validation."""
    compute, transfers = span_columns(compute, transfers)
    trace = Trace.__new__(Trace)
    trace.n_gpus = n_gpus
    trace._compute_store = _ComputeStore(compute)
    trace._transfer_store = _TransferStore(transfers)
    return trace


@pytest.fixture
def topo():
    return topo_2_2()


class TestSanitizeTrace:
    def test_empty_trace_is_clean(self, topo):
        assert sanitize_trace(make_trace(4), topo).ok

    def test_clean_trace(self, topo):
        trace = make_trace(
            4,
            [(0, 0.0, 1.0, "F0,0"), (0, 1.0, 2.0, "F0,1")],  # back-to-back is legal
            [(1, 0.0, 1.0, 1e9, "stage-upload", "U1")],
        )
        assert sanitize_trace(trace, topo).ok

    def test_overlapping_compute_flagged(self, topo):
        trace = make_trace(4, [(2, 0.0, 1.0, "F0,0"), (2, 0.5, 1.5, "F0,1")])
        report = sanitize_trace(trace, topo)
        assert _codes(report) == {"TRACE-COMPUTE-OVERLAP"}
        finding = report.findings[0]
        assert finding.subject == "gpu 2"
        assert finding.slack == pytest.approx(-0.5)

    def test_overlap_on_different_gpus_is_fine(self, topo):
        trace = make_trace(4, [(0, 0.0, 1.0, "F0,0"), (1, 0.5, 1.5, "F1,0")])
        assert sanitize_trace(trace, topo).ok

    def test_nan_timestamp_flagged(self, topo):
        # The Trace constructor rejects NaN; simulate a corrupted trace by
        # building its column stores directly.
        trace = _raw_trace(4, [(0, float("nan"), 1.0, "F0,0")])
        assert _codes(sanitize_trace(trace, topo)) == {"TRACE-FINITE"}

    def test_backwards_span_flagged(self, topo):
        trace = _raw_trace(4, [(0, 2.0, 1.0, "F0,0")])
        assert "TRACE-NEG-DURATION" in _codes(sanitize_trace(trace, topo))

    def test_gpu_out_of_range_flagged(self, topo):
        trace = _raw_trace(4, [(7, 0.0, 1.0, "F0,0")])
        assert "TRACE-GPU-RANGE" in _codes(sanitize_trace(trace, topo))

    def test_negative_bytes_flagged(self, topo):
        trace = _raw_trace(4, transfers=[(0, 0.0, 1.0, -5.0, "x", "x")])
        assert "TRACE-NEG-BYTES" in _codes(sanitize_trace(trace, topo))

    def test_impossible_bandwidth_flagged(self, topo):
        # 1 TB in a microsecond: far beyond any PCIe link.
        trace = make_trace(4, transfers=[(0, 0.0, 1e-6, 1e12, "stage-upload", "U0")])
        report = sanitize_trace(trace, topo)
        assert _codes(report) == {"TRACE-BW-SPEC"}

    def test_bandwidth_at_spec_passes(self, topo):
        nbytes = topo.max_link_bandwidth * 2.0  # exactly the fastest link
        trace = make_trace(4, transfers=[(0, 0.0, 2.0, nbytes, "stage-upload", "U0")])
        assert sanitize_trace(trace, topo).ok

    def test_without_topology_bandwidth_is_not_checked(self):
        trace = make_trace(4, transfers=[(0, 0.0, 1e-6, 1e12, "stage-upload", "U0")])
        assert sanitize_trace(trace).ok


class TestCheckTaskGraph:
    def test_simulated_graph_is_clean(self, topo):
        table = TaskTable()
        upload = table.transfer(topo.path_from_dram(0), 1e9, gpu=0)
        table.compute(0, 0.5, after=(upload,))
        runner = TaskGraphRunner(topo)
        trace = runner.execute(table)
        report = sanitize_run(table, runner.last_times, trace, topo)
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
        report = check_task_graph(table, times, topo)
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
        report = check_task_graph(table, times, topo)
        assert "TASK-DURATION" in _codes(report)

    def test_incomplete_task_flagged(self, topo):
        table = TaskTable()
        table.compute(0, 1.0, "never-ran")
        never = np.full(1, np.nan)
        times = TaskTimes(start=never, end=never, seconds=np.array([1.0]))
        report = check_task_graph(table, times, topo)
        assert _codes(report) == {"TASK-INCOMPLETE"}

    def test_path_bandwidth_violation_flagged(self, topo):
        table = TaskTable()
        transfer = table.transfer(topo.path_from_dram(0), 1e9, gpu=0, label="U0")
        runner = TaskGraphRunner(topo)
        runner.execute(table)
        times = runner.last_times
        times.end[transfer] = times.start[transfer] + 1e-6  # impossibly fast
        report = check_task_graph(table, times, topo)
        assert "TASK-BW-PATH" in _codes(report)
        # The link-conservation law is violated by the same corruption.
        assert "TASK-LINK-CAP" in _codes(report)

    def test_shared_link_conservation_holds_in_sim(self, topo):
        # Two concurrent uploads to GPUs 0 and 1 share the root-complex
        # link; the fluid model must keep their sum within capacity.
        table = TaskTable()
        for g in (0, 1):
            table.transfer(topo.path_from_dram(g), 2e9, gpu=g, label=f"U{g}")
        runner = TaskGraphRunner(topo)
        trace = runner.execute(table)
        times = runner.last_times
        report = sanitize_run(table, times, trace, topo)
        assert report.ok, report.render()
        # Sharing really happened: neither transfer got the full link.
        for row in range(len(table)):
            implied = table.nbytes[row] / (times.end[row] - times.start[row])
            path = table.paths[table.path_id[row]]
            assert implied < topo.path_bandwidth(path) * 0.75


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
            ((1.0, 0.5), (0.0, 1.0, 1.0), "ends before it starts"),
            ((0.0, 1.0), (0.0, math.inf, 1.0), "finite"),
            ((0.0, 1.0), (0.0, 1.0, -1.0), "byte count"),
        ],
    )
    def test_from_columns_applies_the_same_checks(self, compute, transfer, match):
        """Built from whole columns, the first failing row raises its error."""
        with pytest.raises(ValueError, match=match):
            Trace(
                2,
                compute={
                    "gpu": [0, 1],
                    "start": [0.0, compute[0]],
                    "end": [1.0, compute[1]],
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
