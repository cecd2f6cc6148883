"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim.engine import Simulator

from tests.sim.single_dispatch import SingleDispatchSimulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]
        assert sim.now == 1.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(0.5, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda sim, t: sim.schedule(t, lambda: None),
            lambda sim, t: sim.schedule_at(t, lambda: None),
            lambda sim, t: sim.schedule_call(t, lambda: None),
            lambda sim, t: sim.schedule_call_at(t, lambda: None),
            lambda sim, t: sim.schedule_at_seq(t, sim.reserve_seq(), lambda: None),
        ],
        ids=["schedule", "schedule_at", "schedule_call", "schedule_call_at", "at_seq"],
    )
    def test_nan_time_rejected(self, schedule):
        # NaN fails every comparison: accepted, it would sit at the heap top
        # where the batched loop never matches its time, and spin forever.
        sim = Simulator()
        with pytest.raises(ValueError):
            schedule(sim, float("nan"))
        assert not sim._heap

    def test_zero_delay_runs_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        handle.cancel()
        sim.run()
        assert fired == []


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_on_empty_heap(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)
        assert sim.now == 2.0  # the failed call must not rewind the clock


def _simulator(mode: str) -> Simulator:
    return SingleDispatchSimulator() if mode == "single" else Simulator()


@pytest.mark.parametrize("mode", ["single", "batched"])
class TestEndOfTimestampHook:
    def _schedule_flushing_events(self, sim, log):
        """Events at t=1 that each re-arm one shared hook, plus a t=2 event."""
        armed = [False]

        def hook():
            armed[0] = False
            log.append(("hook", sim.now))

        def event(name, spawn=False):
            log.append((name, sim.now))
            if not armed[0]:
                armed[0] = True
                sim.at_timestamp_end(hook)
            if spawn:
                sim.schedule_call(0.0, lambda: event(name + "'"))

        sim.schedule_at(1.0, lambda: event("a", spawn=True))
        sim.schedule_call_at(1.0, lambda: event("b"))
        sim.schedule_at(2.0, lambda: event("c"))

    def test_fires_once_per_timestamp_after_same_time_events(self, mode):
        sim = _simulator(mode)
        log = []
        self._schedule_flushing_events(sim, log)
        sim.run()
        assert log == [
            ("a", 1.0),
            ("b", 1.0),
            ("a'", 1.0),
            ("hook", 1.0),
            ("c", 2.0),
            ("hook", 2.0),
        ]
        assert sim.events_processed == 4  # hooks are not events

    def test_until_runs_hook_before_moving_the_clock(self, mode):
        sim = _simulator(mode)
        log = []
        self._schedule_flushing_events(sim, log)
        sim.run(until=1.5)
        assert log[-1] == ("hook", 1.0)
        assert sim.now == 1.5
        sim.run(until=5.0)
        assert log[-1] == ("hook", 2.0)
        assert sim.now == 5.0

    def test_hook_registered_before_the_loop_runs_before_first_pop(self, mode):
        sim = _simulator(mode)
        log = []
        sim.schedule(0.0, lambda: log.append(("event", sim.now)))
        sim.at_timestamp_end(lambda: log.append(("hook", sim.now)))
        sim.run()
        assert log == [("hook", 0.0), ("event", 0.0)]

    def test_hook_scheduling_at_now_keeps_the_clock(self, mode):
        sim = _simulator(mode)
        log = []

        def hook():
            log.append(("hook", sim.now))
            if len(log) < 3:
                sim.schedule_call(0.0, event)

        def event():
            log.append(("event", sim.now))
            sim.at_timestamp_end(hook)

        sim.schedule_at(1.0, event)
        sim.schedule_at(3.0, lambda: log.append(("late", sim.now)))
        sim.run()
        assert log == [
            ("event", 1.0),
            ("hook", 1.0),
            ("event", 1.0),
            ("hook", 1.0),
            ("late", 3.0),
        ]


class TestReservedCounter:
    @pytest.mark.parametrize("mode", ["single", "batched"])
    def test_reserved_seq_sorts_ahead_of_later_same_time_events(self, mode):
        sim = _simulator(mode)
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("before"))
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, lambda: fired.append("after"))
        sim.schedule_call_at(1.0, lambda: fired.append("after-call"))
        handle = sim.schedule_at_seq(1.0, seq, lambda: fired.append("reserved"))
        assert handle.time == 1.0
        sim.run()
        assert fired == ["before", "reserved", "after", "after-call"]

    def test_reserved_handle_cancels(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at_seq(1.0, sim.reserve_seq(), lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_reserved_push_in_past_rejected(self):
        sim = Simulator()
        seq = sim.reserve_seq()
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.schedule_at_seq(1.0, seq, lambda: None)
