"""Batched-vs-single dispatch equivalence (DESIGN.md §12).

``Simulator.run`` dispatches equal-timestamp cohorts; the oracle
``SingleDispatchSimulator.run`` (``tests/sim/single_dispatch.py``) pops one
event at a time.  The contract is *exact* equivalence:
identical firing order, clock trajectory, ``events_processed`` count and —
through the task layer — bit-identical trace fingerprints.  These tests
drive both loops with

* a seeded fuzz harness generating adversarial schedules (timestamp ties,
  nested same-time scheduling, cancellations from inside cohorts, ``until``
  boundaries, handle-free ``schedule_call`` entries), and
* the real workloads: every corpus cell and a faulted chaos execution.
"""

import random

import pytest

from repro.perf.fingerprint import fingerprint
from repro.sim.engine import Simulator

from tests.sim.single_dispatch import SingleDispatchSimulator

#: The loop under test and its oracle, keyed by the mode ids the tests use.
SIMULATORS = {"single": SingleDispatchSimulator, "batched": Simulator}


def _drive(
    seed: int, mode: str, until: float | None = None, *, hooks: bool = False
):
    """Run one randomly generated schedule; returns (log, now, events).

    The generator consumes ``rng`` inside callbacks, so draws stay aligned
    between modes exactly when the firing order does — any divergence
    snowballs into a log mismatch, which is the point.  With ``hooks``,
    callbacks also register end-of-timestamp hooks that log and may spawn
    more events (zero-delay ones included).
    """
    sim = SIMULATORS[mode]()
    rng = random.Random(seed)
    log: list[tuple[int, float]] = []
    handles: list = []
    tags = iter(range(10**6))

    def spawn(depth: int) -> None:
        tag = next(tags)
        # Coarse delay grid: collisions (equal-timestamp cohorts) are the
        # interesting case, so make them overwhelmingly likely.
        delay = rng.choice((0.0, 0.0, 0.25, 0.25, 0.5, 1.0))

        def callback() -> None:
            log.append((tag, sim.now))
            if depth < 3:
                for _ in range(rng.randrange(3)):
                    spawn(depth + 1)
            if handles and rng.random() < 0.4:
                # May hit an already-popped cohort member scheduled at this
                # very timestamp — dispatch-time re-checking must suppress it.
                rng.choice(handles).cancel()
            if hooks and rng.random() < 0.3:
                sim.at_timestamp_end(lambda: end_of_timestamp(tag, depth))

        if rng.random() < 0.25:
            sim.schedule_call(delay, callback)
        else:
            handles.append(sim.schedule(delay, callback))

    def end_of_timestamp(tag: int, depth: int) -> None:
        log.append((-1 - tag, sim.now))
        if depth < 3 and rng.random() < 0.5:
            spawn(depth + 1)

    for _ in range(40):
        spawn(0)
    for _ in range(5):
        rng.choice(handles).cancel()

    if until is None:
        sim.run()
    else:
        sim.run(until=until)
        sim.run()  # resume to drain; the boundary must not skew state
    return log, sim.now, sim.events_processed


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_full_run_identical(self, seed):
        assert _drive(seed, "single") == _drive(seed, "batched")

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("until", [0.0, 0.25, 0.6, 1.75])
    def test_run_until_boundary_identical(self, seed, until):
        assert _drive(seed, "single", until) == _drive(seed, "batched", until)

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("until", [None, 0.25, 0.6])
    def test_end_of_timestamp_hooks_identical(self, seed, until):
        single = _drive(seed, "single", until, hooks=True)
        assert single == _drive(seed, "batched", until, hooks=True)
        fired_at = {tag: now for tag, now in single[0] if tag >= 0}
        hook_times = [(-1 - tag, now) for tag, now in single[0] if tag < 0]
        assert hook_times
        # Each hook runs before the clock leaves its registering event.
        for tag, now in hook_times:
            assert fired_at[tag] == now


class TestCohortSemantics:
    """Deterministic reductions of the tricky cohort cases."""

    @pytest.mark.parametrize("mode", ["single", "batched"])
    def test_cohort_member_cancels_later_member(self, mode):
        # The canceller is scheduled first (smaller tie-break counter), so
        # it fires first and must suppress its same-timestamp victim even
        # though the batched loop already popped both into the cohort.
        sim = SIMULATORS[mode]()
        fired = []
        victim = {}
        sim.schedule(1.0, lambda: (fired.append("canceller"), victim["h"].cancel()))
        victim["h"] = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.run()
        assert fired == ["canceller"]
        assert sim.events_processed == 1

    @pytest.mark.parametrize("mode", ["single", "batched"])
    def test_same_time_events_scheduled_from_cohort_join_in_order(self, mode):
        sim = SIMULATORS[mode]()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("child-a"))
            sim.schedule_call(0.0, lambda: fired.append("child-b"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "child-a", "child-b"]
        assert sim.now == 1.0

    def test_all_cancelled_cohort_leaves_clock_alone(self):
        """A fully dead cohort must not advance `now` in either loop."""
        for simulator_type in SIMULATORS.values():
            sim = simulator_type()
            handle = sim.schedule(5.0, lambda: None)
            handle.cancel()
            sim.run()
            assert sim.now == 0.0
            assert sim.events_processed == 0

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="backwards"):
            sim.run(until=0.5)


class TestWorkloadEquivalence:
    """The end-to-end contract: bit-identical traces on real workloads."""

    @pytest.mark.parametrize("index", [0, 3])
    def test_corpus_cells_identical_fingerprints(self, index):
        from repro.check.corpus import default_corpus
        from repro.core.api import plan_mobius
        from repro.core.pipeline import build_mobius_tasks
        from repro.sim.tasks import TaskGraphRunner

        cell = default_corpus()[index]
        report = plan_mobius(cell.model, cell.topology, cell.config)
        stage_costs = report.plan.partition.stage_costs(report.cost_model)

        outcomes = {}
        for mode in ("single", "batched"):
            tasks = build_mobius_tasks(
                report.plan,
                cell.topology,
                stage_costs,
                prefetch=cell.config.prefetch,
                use_priorities=cell.config.use_priorities,
            )
            runner = TaskGraphRunner(cell.topology, simulator=SIMULATORS[mode]())
            trace = runner.execute(tasks)
            outcomes[mode] = (
                fingerprint(trace),
                trace.columnar_digest(),
                runner.sim.events_processed,
            )
        assert outcomes["single"] == outcomes["batched"]

    def test_chaos_execution_identical_fingerprints(self):
        from repro.check.corpus import default_corpus
        from repro.core.api import plan_mobius
        from repro.core.pipeline import build_mobius_tasks
        from repro.faults.models import (
            FaultSchedule,
            FlakyTransfers,
            LinkDegradation,
            StragglerGpu,
        )
        from repro.faults.recovery import FaultInjectingRunner

        cell = default_corpus()[0]
        report = plan_mobius(cell.model, cell.topology, cell.config)
        stage_costs = report.plan.partition.stage_costs(report.cost_model)
        schedule = FaultSchedule(
            seed=7,
            faults=(
                FlakyTransfers(failure_rate=0.1),
                StragglerGpu(gpu=0, slowdown=1.5),
                LinkDegradation(edge=("sw0", "rc0"), factor=0.5),
            ),
        )

        # One table for both runs: executing it leaves it unchanged.
        tasks = build_mobius_tasks(
            report.plan,
            cell.topology,
            stage_costs,
            prefetch=cell.config.prefetch,
            use_priorities=cell.config.use_priorities,
        )
        outcomes = {}
        for mode in ("single", "batched"):
            runner = FaultInjectingRunner(
                cell.topology, schedule, simulator=SIMULATORS[mode]()
            )
            trace = runner.execute(tasks)
            outcomes[mode] = (
                fingerprint(trace),
                runner.sim.events_processed,
                len(runner.failed_attempts),
            )
        assert outcomes["single"] == outcomes["batched"]
