"""Tests for task-graph execution."""

import pytest

from repro.hardware.topology import topo_2_2
from repro.sim.tasks import (
    BarrierTask,
    ComputeTask,
    DeadlockError,
    TaskGraphRunner,
    TransferTask,
)

GB = 1e9
PCIE = 13.1 * GB


class TestExecution:
    def test_transfer_then_compute(self):
        topo = topo_2_2()
        up = TransferTask(path=topo.path_from_dram(0), nbytes=PCIE, gpu=0)
        work = ComputeTask(gpu=0, seconds=0.5).after(up)
        trace = TaskGraphRunner(topo).execute([up, work])
        assert trace.makespan == pytest.approx(1.5, rel=1e-6)

    def test_independent_tasks_run_in_parallel(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=0, seconds=1.0)
        b = ComputeTask(gpu=1, seconds=1.0)
        trace = TaskGraphRunner(topo).execute([a, b])
        assert trace.makespan == pytest.approx(1.0)

    def test_same_gpu_tasks_serialize(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=0, seconds=1.0)
        b = ComputeTask(gpu=0, seconds=1.0)
        trace = TaskGraphRunner(topo).execute([a, b])
        assert trace.makespan == pytest.approx(2.0)

    def test_compute_overlaps_transfer(self):
        topo = topo_2_2()
        work = ComputeTask(gpu=0, seconds=1.0)
        move = TransferTask(path=topo.path_from_dram(0), nbytes=PCIE, gpu=0)
        trace = TaskGraphRunner(topo).execute([work, move])
        assert trace.makespan == pytest.approx(1.0, rel=1e-6)

    def test_barrier_joins(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=0, seconds=1.0)
        b = ComputeTask(gpu=1, seconds=2.0)
        barrier = BarrierTask().after(a, b)
        tail = ComputeTask(gpu=0, seconds=0.5).after(barrier)
        trace = TaskGraphRunner(topo).execute([a, b, barrier, tail])
        assert trace.makespan == pytest.approx(2.5)

    def test_after_skips_none(self):
        task = ComputeTask(gpu=0, seconds=1.0).after(None, None)
        assert task.deps == []

    def test_diamond_dependency(self):
        topo = topo_2_2()
        root = ComputeTask(gpu=0, seconds=1.0)
        left = ComputeTask(gpu=0, seconds=1.0).after(root)
        right = ComputeTask(gpu=1, seconds=2.0).after(root)
        join = ComputeTask(gpu=0, seconds=1.0).after(left, right)
        trace = TaskGraphRunner(topo).execute([root, left, right, join])
        assert trace.makespan == pytest.approx(4.0)


class TestErrors:
    def test_cycle_raises_deadlock(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=0, seconds=1.0)
        b = ComputeTask(gpu=0, seconds=1.0).after(a)
        a.after(b)
        with pytest.raises(DeadlockError):
            TaskGraphRunner(topo).execute([a, b])

    def test_dependency_outside_graph_raises(self):
        topo = topo_2_2()
        ghost = ComputeTask(gpu=0, seconds=1.0)
        task = ComputeTask(gpu=0, seconds=1.0).after(ghost)
        with pytest.raises(DeadlockError):
            TaskGraphRunner(topo).execute([task])


class TestTraceRecording:
    def test_compute_spans_recorded(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=1, seconds=1.0, label="work")
        trace = TaskGraphRunner(topo).execute([a])
        assert len(trace.compute) == 1
        span = trace.compute[0]
        assert (span.gpu, span.label) == (1, "work")
        assert span.end - span.start == pytest.approx(1.0)

    def test_transfer_spans_record_bytes_and_kind(self):
        topo = topo_2_2()
        move = TransferTask(
            path=topo.path_from_dram(0), nbytes=2 * GB, gpu=0, kind="param-upload"
        )
        trace = TaskGraphRunner(topo).execute([move])
        assert len(trace.transfers) == 1
        span = trace.transfers[0]
        assert span.nbytes == 2 * GB
        assert span.kind == "param-upload"
        assert span.nbytes / (span.end - span.start) == pytest.approx(PCIE, rel=1e-6)

    def test_zero_duration_tasks_not_recorded(self):
        topo = topo_2_2()
        barrier = BarrierTask()
        empty = TransferTask(path=topo.path_from_dram(0), nbytes=0.0, gpu=0)
        zero = ComputeTask(gpu=0, seconds=0.0)
        trace = TaskGraphRunner(topo).execute([barrier, empty, zero])
        assert trace.compute == ()
        assert trace.transfers == ()

    def test_queued_task_start_time_excludes_wait(self):
        topo = topo_2_2()
        a = ComputeTask(gpu=0, seconds=1.0)
        b = ComputeTask(gpu=0, seconds=1.0)
        trace = TaskGraphRunner(topo).execute([a, b])
        starts = sorted(span.start for span in trace.compute)
        assert starts == [pytest.approx(0.0), pytest.approx(1.0)]
