"""Tests for the task table and its execution."""

import pytest

from repro.hardware.topology import commodity_server, topo_2_2
from repro.models.spec import build_gpt_like
from repro.perf.fingerprint import fingerprint
from repro.sim.tasks import DeadlockError, TaskGraphRunner, TaskTable

GB = 1e9
PCIE = 13.1 * GB


def _successors_of(table: TaskTable, row: int) -> list[int]:
    offsets, successors, _ = table.successors()
    return successors[offsets[row] : offsets[row + 1]]


_COLUMNS = (
    "op", "gpu", "seconds", "nbytes", "path_id", "priority", "trace_kind", "label",
    "paths", "kinds",
)


def _snapshot(table: TaskTable) -> tuple:
    columns = tuple(list(getattr(table, name)) for name in _COLUMNS)
    return columns, tuple(column.tolist() for column in table.edges())


class TestExecution:
    def test_transfer_then_compute(self):
        topo = topo_2_2()
        table = TaskTable()
        up = table.transfer(topo.path_from_dram(0), PCIE, gpu=0)
        table.compute(0, 0.5, after=(up,))
        trace = TaskGraphRunner(topo).execute(table)
        assert trace.makespan == pytest.approx(1.5, rel=1e-6)

    def test_independent_tasks_run_in_parallel(self):
        table = TaskTable()
        table.compute(0, 1.0)
        table.compute(1, 1.0)
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert trace.makespan == pytest.approx(1.0)

    def test_same_gpu_tasks_serialize(self):
        table = TaskTable()
        table.compute(0, 1.0)
        table.compute(0, 1.0)
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert trace.makespan == pytest.approx(2.0)

    def test_compute_overlaps_transfer(self):
        topo = topo_2_2()
        table = TaskTable()
        table.compute(0, 1.0)
        table.transfer(topo.path_from_dram(0), PCIE, gpu=0)
        trace = TaskGraphRunner(topo).execute(table)
        assert trace.makespan == pytest.approx(1.0, rel=1e-6)

    def test_barrier_joins(self):
        table = TaskTable()
        a = table.compute(0, 1.0)
        b = table.compute(1, 2.0)
        barrier = table.barrier(after=(a, b))
        table.compute(0, 0.5, after=(barrier,))
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert trace.makespan == pytest.approx(2.5)

    def test_after_skips_none(self):
        table = TaskTable()
        task = table.compute(0, 1.0, after=(None,))
        table.after(task, None, None)
        assert [column.tolist() for column in table.edges()] == [[], []]

    def test_diamond_dependency(self):
        table = TaskTable()
        root = table.compute(0, 1.0)
        left = table.compute(0, 1.0, after=(root,))
        right = table.compute(1, 2.0, after=(root,))
        table.compute(0, 1.0, after=(left, right))
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert trace.makespan == pytest.approx(4.0)


    def test_compute_finish_wins_exact_tie_with_earlier_flow(self):
        # A compute row's completion takes its heap counter when its unit
        # picks it up, so a compute dispatched before a flow starts
        # completes first when both end at the same instant.  The order
        # shows on GPU 1, which runs each one's successor FIFO.
        topo = topo_2_2()
        path = topo.path_from_dram(0)
        nbytes = min(topo.link_bandwidths[topo.link_id(edge)] for edge in path)
        table = TaskTable()
        kernel = table.compute(0, 1.0)
        upload = table.transfer(path, nbytes, gpu=0)
        table.compute(1, 1.0, "after-kernel", after=(kernel,))
        table.compute(1, 1.0, "after-upload", after=(upload,))
        trace = TaskGraphRunner(topo).execute(table)
        starts = {span.label: span.start for span in trace.compute if span.gpu == 1}
        assert starts == {"after-kernel": 1.0, "after-upload": 2.0}


    def test_zero_time_rows_take_no_event(self):
        # Barriers and zero-byte transfers complete at their dispatch
        # instant: only the two kernels' completions are events.
        topo = topo_2_2()
        table = TaskTable()
        first = table.compute(0, 1.0, "first")
        sync = table.barrier("sync", after=(first,))
        empty = table.transfer(topo.path_from_dram(0), 0, gpu=0, after=(sync,))
        local = table.transfer((), 0.0, gpu=0, after=(empty,))
        table.compute(0, 1.0, "second", after=(local,))
        runner = TaskGraphRunner(topo)
        trace = runner.execute(table)
        assert runner.sim.events_processed == 2
        assert [(span.label, span.start) for span in trace.compute] == [
            ("first", 0.0),
            ("second", 1.0),
        ]
        assert runner.last_times.start.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert runner.last_times.end.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_long_barrier_chain_does_not_deepen_the_stack(self):
        table = TaskTable()
        row = table.compute(0, 1.0)
        for _ in range(20_000):
            row = table.barrier(after=(row,))
        table.compute(0, 1.0, "last", after=(row,))
        runner = TaskGraphRunner(topo_2_2())
        trace = runner.execute(table)
        assert trace.makespan == 2.0
        assert runner.sim.events_processed == 2

    def test_barrier_releases_its_successors_before_later_same_time_events(self):
        # Both kernels end at t=1.  The barrier behind the first completes
        # at once, so its successor reaches GPU 2 before the second
        # kernel's successor; a zero-delay barrier event would have fired
        # after the second kernel's completion and queued it behind.
        table = TaskTable()
        first = table.compute(0, 1.0, "first")
        second = table.compute(1, 1.0, "second")
        sync = table.barrier(after=(first,))
        table.compute(2, 1.0, "after-barrier", after=(sync,))
        table.compute(2, 1.0, "after-second", after=(second,))
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        starts = {span.label: span.start for span in trace.compute if span.gpu == 2}
        assert starts == {"after-barrier": 1.0, "after-second": 2.0}


class TestTable:
    def test_handles_are_row_ids(self):
        topo = topo_2_2()
        table = TaskTable()
        assert table.compute(0, 1.0) == 0
        assert table.transfer(topo.path_from_dram(1), 5, gpu=1) == 1
        assert table.barrier() == 2
        assert len(table) == 3

    def test_successor_order_is_declaration_order(self):
        # x and y both wait on a; y's edge is declared first, but
        # successors follow the rows, then each row's dependencies.
        table = TaskTable()
        a = table.compute(1, 1.0, "a")
        x = table.compute(0, 1.0, "x")
        y = table.compute(0, 1.0, "y")
        table.after(y, a)
        table.after(x, a)
        assert _successors_of(table, a) == [x, y]
        # Both become ready when a completes and queue on GPU 0 in that
        # order.
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert [(s.label, s.start) for s in trace.compute] == [
            ("a", 0.0),
            ("x", 1.0),
            ("y", 2.0),
        ]

    def test_duplicate_deps_count_twice(self):
        table = TaskTable()
        a = table.compute(0, 1.0)
        b = table.compute(0, 1.0, after=(a, a))
        table.after(b, a)
        _, _, indegree = table.successors()
        assert indegree == [0, 3]
        assert _successors_of(table, a) == [b, b, b]
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert trace.makespan == pytest.approx(2.0)

    @pytest.mark.parametrize("handle", [1, -1, 7, "0", 0.0])
    def test_handle_outside_table_rejected_at_emit(self, handle):
        table = TaskTable()
        with pytest.raises(ValueError, match="not a row of this table"):
            table.compute(0, 1.0, after=(handle,))
        assert len(table) == 0

    def test_rejected_emit_leaves_the_table_unchanged(self):
        table = TaskTable()
        a = table.compute(0, 1.0)
        before = _snapshot(table)
        with pytest.raises(ValueError, match="not a row of this table"):
            table.compute(0, 1.0, after=(a, 5))
        with pytest.raises(ValueError, match="not a row of this table"):
            table.after(a, a, 5)
        assert _snapshot(table) == before

    def test_after_rejects_unknown_rows(self):
        table = TaskTable()
        a = table.compute(0, 1.0)
        with pytest.raises(ValueError, match="not a row of this table"):
            table.after(a, 1)
        with pytest.raises(ValueError, match="not a row of this table"):
            table.after(1, a)

    def test_paths_and_kinds_are_interned(self):
        topo = topo_2_2()
        table = TaskTable()
        table.transfer(topo.path_from_dram(0), 1, kind="up")
        table.transfer(topo.path_to_dram(0), 1, kind="down")
        table.transfer(topo.path_from_dram(0), 1, kind="up")
        assert table.path_id == [0, 1, 0]
        assert table.trace_kind == [0, 1, 0]
        assert table.kinds == ["up", "down"]


class TestErrors:
    def test_cycle_raises_deadlock(self):
        table = TaskTable()
        a = table.compute(0, 1.0, "a")
        b = table.compute(0, 1.0, "b", after=(a,))
        table.after(a, b)
        with pytest.raises(DeadlockError, match=r"2 tasks never completed.*'a', 'b'"):
            TaskGraphRunner(topo_2_2()).execute(table)

    def test_dependency_outside_graph_raises(self):
        # A handle from another table is out of range here.
        ghost_table = TaskTable()
        ghost_table.compute(0, 1.0)
        ghost = ghost_table.compute(0, 1.0)
        table = TaskTable()
        with pytest.raises(ValueError, match="not a row of this table"):
            table.compute(0, 1.0, after=(ghost,))

    def test_unstamped_start_fails_trace_construction(self):
        # A dispatch seam that forgets to stamp its row's start leaves a
        # NaN the trace refuses, in every run, sanitized or not.
        class Unstamped(TaskGraphRunner):
            def _start_transfer(self, row, on_done):
                table = self._table
                self.network.start_flow(
                    table.paths[table.path_id[row]],
                    table.nbytes[row],
                    on_done,
                    priority=table.priority[row],
                )

        topo = topo_2_2()
        table = TaskTable()
        table.transfer(topo.path_from_dram(0), 1e9, gpu=0, label="U0")
        with pytest.raises(ValueError, match="'U0' has non-finite times"):
            Unstamped(topo).execute(table)


class TestTraceRecording:
    def test_compute_spans_recorded(self):
        table = TaskTable()
        table.compute(1, 1.0, "work")
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        assert len(trace.compute) == 1
        span = trace.compute[0]
        assert (span.gpu, span.label) == (1, "work")
        assert span.end - span.start == pytest.approx(1.0)

    def test_transfer_spans_record_bytes_and_kind(self):
        topo = topo_2_2()
        table = TaskTable()
        table.transfer(topo.path_from_dram(0), 2 * GB, gpu=0, kind="param-upload")
        trace = TaskGraphRunner(topo).execute(table)
        assert len(trace.transfers) == 1
        span = trace.transfers[0]
        assert span.nbytes == 2 * GB
        assert span.kind == "param-upload"
        assert span.nbytes / (span.end - span.start) == pytest.approx(PCIE, rel=1e-6)

    def test_int_byte_counts_stay_int(self):
        topo = topo_2_2()
        table = TaskTable()
        table.transfer(topo.path_from_dram(0), 2_000_000, gpu=0)
        table.transfer(topo.path_from_dram(1), 2e6, gpu=1)
        trace = TaskGraphRunner(topo).execute(table)
        assert [type(span.nbytes) for span in trace.transfers] == [int, float]

    def test_kind_codes_follow_recording_order(self):
        # "late" is emitted first but recorded second; the trace's kind
        # codes count from the first recorded span.
        topo = topo_2_2()
        table = TaskTable()
        table.transfer(topo.path_from_dram(0), 2 * GB, gpu=0, kind="late")
        table.transfer(topo.path_from_dram(2), 1 * GB, gpu=2, kind="early")
        trace = TaskGraphRunner(topo).execute(table)
        assert [span.kind for span in trace.transfers] == ["early", "late"]
        assert trace._transfer_columns()["kind_code"].tolist() == [0, 1]

    def test_zero_duration_tasks_not_recorded(self):
        topo = topo_2_2()
        table = TaskTable()
        table.barrier()
        table.transfer(topo.path_from_dram(0), 0.0, gpu=0)
        table.compute(0, 0.0)
        trace = TaskGraphRunner(topo).execute(table)
        assert trace.compute == ()
        assert trace.transfers == ()

    def test_queued_task_start_time_excludes_wait(self):
        table = TaskTable()
        table.compute(0, 1.0)
        table.compute(0, 1.0)
        trace = TaskGraphRunner(topo_2_2()).execute(table)
        starts = sorted(span.start for span in trace.compute)
        assert starts == [pytest.approx(0.0), pytest.approx(1.0)]

    def test_realised_times_live_on_the_runner(self):
        table = TaskTable()
        a = table.compute(0, 1.0)
        b = table.compute(0, 0.5, after=(a,))
        runner = TaskGraphRunner(topo_2_2())
        runner.execute(table)
        times = runner.last_times
        assert times.start.tolist() == [0.0, 1.0]
        assert times.end.tolist() == [1.0, 1.5]
        assert times.seconds.tolist() == [1.0, 0.5]
        assert runner.last_tasks is table and b == 1


class TestExecutionLeavesTableUnchanged:
    """Executing a table never writes to it, so a straggler's stretch or a
    run's realised times cannot leak into the next execution."""

    def test_plain_faulted_plain(self):
        from repro.faults.models import FaultSchedule, StragglerGpu
        from repro.faults.recovery import FaultInjectingRunner

        topo = topo_2_2()
        table = TaskTable()
        up = table.transfer(topo.path_from_dram(0), 2_000_000_000, gpu=0, kind="up")
        table.compute(0, 1.0, "work", after=(up,))
        before = _snapshot(table)
        schedule = FaultSchedule(seed=0, faults=(StragglerGpu(gpu=0, slowdown=2.0),))

        first = TaskGraphRunner(topo).execute(table)
        faulted = [FaultInjectingRunner(topo, schedule).execute(table) for _ in range(2)]
        third = TaskGraphRunner(topo).execute(table)

        assert fingerprint(first) == fingerprint(third)
        assert first.makespan == pytest.approx(2.0 / 13.1 + 1.0)
        assert [t.makespan for t in faulted] == [
            pytest.approx(2.0 / 13.1 + 2.0)
        ] * 2
        assert _snapshot(table) == before


class TestTraceFingerprintRegression:
    def test_fresh_runs_fingerprint_identically(self):
        """Two fresh runs of the same configuration fingerprint identically."""
        from repro.core.api import MobiusConfig, run_mobius
        from repro.perf.cache import cache_overridden

        model = build_gpt_like(
            "fresh-fp-1024x6",
            n_blocks=6,
            hidden_dim=1024,
            n_heads=8,
            default_microbatch_size=1,
        )
        topology = commodity_server([2, 2])
        config = MobiusConfig(partition_time_limit=0.5)

        fingerprints = []
        for _ in range(2):
            with cache_overridden():
                report = run_mobius(model, topology, config)
            fingerprints.append(fingerprint(report.trace))
        assert fingerprints[0] == fingerprints[1]
