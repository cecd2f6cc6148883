"""Suite-wide cell scheduler: enumeration, ordering, leases, drains."""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentCell
from repro.experiments.schedule import (
    LEASE_DIRNAME,
    DrainFailed,
    build_schedule,
    drain,
    enumerate_cells,
    figure_cells,
    run_cells,
)
from repro.hardware.topology import commodity_server
from repro.models.zoo import gpt_8b
from repro.perf.cache import LeaseTable, cache_overridden, get_cache
from repro.perf.store import source_digest
from repro.perf.fingerprint import fingerprint
from repro.serve.supervisor import RequestQuarantined, WorkerSolveError

#: Modules cheap enough to actually drain inside a unit test.
CHEAP = ["fig2_deepspeed_cdf", "sec23_deepspeed_profile", "fig12_overhead"]


class TestEnumeration:
    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_every_module_enumerates(self, name):
        """The tripwire: cells() exists, returns cells, and fast ⊆ full."""
        fast = figure_cells(name, fast=True)
        full = figure_cells(name, fast=False)
        assert all(isinstance(cell, ExperimentCell) for cell in fast + full)
        fast_keys = {fingerprint(cell) for cell in fast}
        full_keys = {fingerprint(cell) for cell in full}
        assert fast_keys <= full_keys, f"{name}: fast cells not a subset of full"

    def test_suite_wide_dedup_exists(self):
        """Figures genuinely share cells (fig2/sec23, fig10/fig11, fig7⊇fig8)."""
        schedule = build_schedule(enumerate_cells(ALL_EXPERIMENTS, fast=False))
        assert schedule.cells_deduped > 0
        shared = [node for node in schedule.nodes if len(node.figures) > 1]
        assert shared, "no cell is claimed by more than one figure"

    def test_graph_is_acyclic_and_rank_ordered(self):
        schedule = build_schedule(enumerate_cells(ALL_EXPERIMENTS, fast=False))
        # Every edge joins two cells of one partition solve, pointing from
        # the first enumerated to a later one — so Kahn's algorithm must
        # consume every node.
        indegree = {node.index: len(node.deps) for node in schedule.nodes}
        frontier = [i for i, d in indegree.items() if d == 0]
        seen = 0
        while frontier:
            index = frontier.pop()
            seen += 1
            for dependent in schedule.nodes[index].dependents:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    frontier.append(dependent)
        assert seen == len(schedule.nodes), "cycle in the schedule graph"
        for node in schedule.nodes:
            for dep in node.deps:
                assert dep < node.index
                assert (
                    schedule.nodes[dep].cell.topology.n_gpus
                    == node.cell.topology.n_gpus
                )

    def test_sweep_cells_are_independent(self):
        """fig14's GPU counts solve different problems, so none waits."""
        schedule = build_schedule(enumerate_cells(["fig14_scalability"], fast=False))
        assert len({node.cell.topology.n_gpus for node in schedule.nodes}) >= 3
        assert schedule.ordering_edges == 0
        assert all(not node.deps for node in schedule.nodes)


class TestLeaseTable:
    def test_acquire_release_cycle(self, tmp_path):
        table = LeaseTable(str(tmp_path))
        assert table.acquire("system", "abc")
        assert not table.acquire("system", "abc")
        assert table.holder("system", "abc") == os.getpid()
        table.release("system", "abc")
        assert table.acquire("system", "abc")
        table.release("system", "abc")

    def test_wait_sees_release(self, tmp_path):
        table = LeaseTable(str(tmp_path))
        assert table.acquire("system", "abc")
        polls = []

        def sleeper(seconds):
            polls.append(seconds)
            table.release("system", "abc")

        waiter = LeaseTable(str(tmp_path), sleeper=sleeper)
        assert waiter.wait("system", "abc") == "released"
        assert polls

    def test_wait_breaks_stale_lease_of_dead_holder(self, tmp_path):
        table = LeaseTable(str(tmp_path))
        path = table._path("system", "abc")
        path.parent.mkdir(parents=True, exist_ok=True)
        # A PID that cannot be a live process holds the lease.
        path.write_text("999999999")
        waiter = LeaseTable(str(tmp_path), sleeper=lambda _: None)
        assert waiter.wait("system", "abc") == "broken"
        assert waiter.acquire("system", "abc")
        waiter.release("system", "abc")

    def test_wait_times_out(self, tmp_path):
        table = LeaseTable(str(tmp_path))
        assert table.acquire("system", "abc")
        waiter = LeaseTable(str(tmp_path), max_polls=3, sleeper=lambda _: None)
        assert waiter.wait("system", "abc") == "timeout"
        table.release("system", "abc")

    def test_release_without_acquire_is_noop(self, tmp_path):
        LeaseTable(str(tmp_path)).release("system", "never-acquired")


def _comparable(result):
    """The deterministic face of a SystemResult (drops wall-clock extras)."""
    return (
        result.system,
        result.status,
        result.step_seconds if not math.isnan(result.step_seconds) else "nan",
        tuple(result.trace.compute) if result.trace is not None else None,
        tuple(result.trace.transfers) if result.trace is not None else None,
    )


@pytest.fixture
def drain_cells(tiny_model):
    topology = commodity_server([2, 2])
    return [
        ExperimentCell("mobius", tiny_model, topology, microbatch_size=1),
        ExperimentCell("gpipe", gpt_8b(), topology, microbatch_size=1),  # OOM
        ExperimentCell("gpipe", tiny_model, topology, microbatch_size=1),
        ExperimentCell("deepspeed", tiny_model, topology, microbatch_size=1),
    ]


def _pool_drain(cells, directory):
    """Drain ``cells`` on a two-worker pool and read back their results."""
    with cache_overridden(memory=True, disk=True, directory=directory):
        report = drain([("grid", cell) for cell in cells], jobs=2)
        pooled = [get_cache().lookup("system", cell)[0] for cell in cells]
    assert report.cells_computed == len(cells)
    return pooled


class TestDrain:
    def test_order_and_values_match_serial(self, drain_cells, tmp_path):
        with cache_overridden(memory=False, disk=False):
            serial = [cell.run() for cell in drain_cells]
        pooled = _pool_drain(drain_cells, str(tmp_path))
        assert [_comparable(r) for r in pooled] == [_comparable(r) for r in serial]

    def test_oom_cells_pass_through(self, drain_cells, tmp_path):
        pooled = _pool_drain(drain_cells, str(tmp_path))
        assert pooled[1].status == "oom"
        assert not pooled[1].ok and pooled[1].trace is None

    def test_jobs_identity_and_counter_pin(self, tmp_path):
        """jobs=1 and jobs=2 drains: same fingerprint, same total misses."""
        reports = {}
        for jobs in (1, 2):
            with cache_overridden(
                memory=True, disk=True, directory=str(tmp_path / f"j{jobs}")
            ):
                reports[jobs] = run_cells(CHEAP, fast=True, jobs=jobs)
        solo, pool = reports[1], reports[2]
        assert solo.cells_fingerprint == pool.cells_fingerprint
        assert solo.cells_unique == pool.cells_unique
        assert solo.duplicate_solves == pool.duplicate_solves == 0
        # The satellite pin: total "system" misses across all processes is
        # exactly the unique-cell count, independent of the worker count.
        for report in (solo, pool):
            assert (
                report.worker_cache["system"]["misses"] == report.cells_unique
            ), report
        # fig2 and sec23 share their cell; fig12 contributes plan-only cells.
        assert pool.cells_deduped >= 1
        assert pool.cells_computed == pool.cells_unique

    def test_second_drain_is_fully_precached(self, tmp_path):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            first = run_cells(CHEAP, fast=True, jobs=1)
            again = run_cells(CHEAP, fast=True, jobs=1)
        assert again.cells_precached == first.cells_unique
        assert again.cells_computed == 0
        assert again.cells_fingerprint == first.cells_fingerprint

    def test_plan_only_cells_have_plans_not_traces(self, tmp_path):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            run_cells(["fig12_overhead"], fast=True, jobs=1)
            cache = get_cache()
            for cell in figure_cells("fig12_overhead", fast=True):
                result, found = cache.lookup("system", cell)
                assert found
                assert result.trace is None
                assert result.extras["plan_report"].plan is not None

    def test_contended_cell_coalesces_under_held_lease(self, tmp_path, monkeypatch):
        """A lease held by a live process makes the drain wait, then read."""
        from repro.experiments import schedule as schedule_mod

        cell = figure_cells("fig2_deepspeed_cdf", fast=True)[0]
        digest = fingerprint(cell)
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            cache = get_cache()
            lease_dir = str(tmp_path / LEASE_DIRNAME)
            holder = LeaseTable(lease_dir)
            namespace = schedule_mod._lease_namespace()
            assert namespace == f"system.{source_digest()}"
            assert holder.acquire(namespace, digest)

            # While "another process" (this test, same live PID) holds the
            # lease, it computes and publishes the result; our waiter polls,
            # sees the release, and reads the published value.
            def release_and_publish(_seconds):
                from repro.experiments.runner import run_cell

                result = run_cell(cell)
                cache.memoize("system", cell, lambda: result)
                holder.release(namespace, digest)

            monkeypatch.setattr(
                schedule_mod,
                "LeaseTable",
                lambda directory: LeaseTable(directory, sleeper=release_and_publish),
            )
            report = drain([("fig2", cell)], jobs=1)
        assert report.cells_coalesced == 1
        assert report.cells_computed == 0



@pytest.fixture
def sabotage(monkeypatch):
    """Install a chaos hook on the supervisor a ``jobs > 1`` drain builds.

    Returns ``install(hook)``; the list it returns records every
    ``(key, attempt)`` the supervisor asked the hook about, i.e. every
    attempt a cell got.
    """
    from repro.serve import supervisor as supervisor_mod

    def install(hook):
        calls = []

        class Sabotaged(supervisor_mod.Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)

                def recorded(key, attempt):
                    calls.append((key, attempt))
                    return hook(key, attempt)

                self.sabotage_hook = recorded

        monkeypatch.setattr(supervisor_mod, "Supervisor", Sabotaged)
        return calls

    return install


class TestDrainWorkerCrashes:
    """Real spawned workers, killed through the supervisor's chaos seam."""

    def test_killed_worker_costs_one_retry(self, tmp_path, sabotage):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path / "calm")):
            calm = run_cells(CHEAP, fast=True, jobs=1)
        victim = fingerprint(figure_cells(CHEAP[0], fast=True)[0])
        calls = sabotage(
            lambda key, attempt: "crash" if key == victim and attempt == 1 else None
        )
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path / "hit")):
            report = run_cells(CHEAP, fast=True, jobs=2)
        assert report.worker_crashes == 1
        assert [c for c in calls if c[0] == victim] == [(victim, 1), (victim, 2)]
        assert report.cells_computed == report.cells_unique
        assert report.cells_fingerprint == calm.cells_fingerprint

    def test_dead_lease_holder_is_broken_at_once(self, tmp_path, sabotage, monkeypatch):
        from repro.experiments import schedule as schedule_mod
        from repro.serve import supervisor as supervisor_mod

        class LeaseHoldingWorker(supervisor_mod.ProcessWorker):
            """Takes the cell's lease in its child's name before dying."""

            def solve(self, task, args, sabotage=None):
                if sabotage == "crash":
                    self._ensure_started()
                    _cell, digest, lease_dir = args
                    holder = LeaseTable(lease_dir)._path(
                        schedule_mod._lease_namespace(), digest
                    )
                    holder.parent.mkdir(parents=True, exist_ok=True)
                    holder.write_text(str(self._process.pid))
                return super().solve(task, args, sabotage)

        monkeypatch.setattr(supervisor_mod, "ProcessWorker", LeaseHoldingWorker)
        sabotage(lambda key, attempt: "crash" if attempt == 1 else None)
        cell = figure_cells("fig2_deepspeed_cdf", fast=True)[0]
        started = time.monotonic()
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            report = drain([("fig2", cell)], jobs=2)
        # The lease budget is 2400 polls of 50 ms; a joined holder reads as
        # dead on the first poll, so the retry computes straight away.
        assert time.monotonic() - started < 60.0
        assert report.worker_crashes == 1
        assert report.cells_computed == 1

    def test_poison_cell_is_quarantined_and_the_rest_complete(self, tmp_path, sabotage):
        poison = figure_cells(CHEAP[0], fast=True)[0]
        digest = fingerprint(poison)
        sabotage(lambda key, attempt: "crash" if key == digest else None)
        directory = str(tmp_path)
        with cache_overridden(memory=True, disk=True, directory=directory):
            with pytest.raises(DrainFailed) as exc:
                run_cells(CHEAP, fast=True, jobs=2)
        (node, err), = exc.value.failures
        assert node.digest == digest
        assert isinstance(err, RequestQuarantined)
        assert digest[:12] in str(exc.value)
        assert all(figure in str(exc.value) for figure in node.figures)
        # Every other cell was computed and persisted before the error.
        with cache_overridden(memory=True, disk=True, directory=directory):
            again = run_cells(CHEAP, fast=True, jobs=1)
        assert again.cells_computed == 1
        assert again.cells_precached == again.cells_unique - 1

    def test_raising_cell_is_attempted_once(self, tmp_path, sabotage, tiny_model):
        topology = commodity_server([2, 2])
        bad = ExperimentCell("no-such-system", tiny_model, topology)
        good = ExperimentCell("gpipe", tiny_model, topology, microbatch_size=1)
        calls = sabotage(lambda key, attempt: None)
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            with pytest.raises(DrainFailed) as exc:
                drain([("grid", bad), ("grid", good)], jobs=2)
            assert get_cache().lookup("system", good)[1]
        (node, err), = exc.value.failures
        assert isinstance(err, WorkerSolveError)
        # Cells are deterministic: a raising cell is never retried.
        assert [c for c in calls if c[0] == fingerprint(bad)] == [(fingerprint(bad), 1)]
