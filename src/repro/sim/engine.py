"""Deterministic discrete-event simulation core.

The simulator is a classic event-heap design: callbacks are scheduled at
absolute times and executed in time order (ties broken by insertion order so
runs are fully deterministic).  Higher-level components — the flow network
(:mod:`repro.sim.resources`) and the task-graph runner
(:mod:`repro.sim.tasks`) — build on these primitives.

One dispatch loop drains the heap (DESIGN.md §12): :meth:`Simulator.run`
pops equal-timestamp *cohorts* in one run and dispatches them back to
back.  Cancellation is re-checked at dispatch time and same-timestamp
events scheduled by cohort members join the tail of the cohort, so the
firing order, the clock trajectory and the ``events_processed`` count are
exactly those of a one-event-at-a-time loop.  That loop lives in the test
suite as the oracle (``tests/sim/single_dispatch.py``), and the seeded fuzz
harness in ``tests/sim/test_dispatch_equivalence.py`` asserts the match.

Events that never need cancellation can skip the :class:`EventHandle`
allocation entirely via :meth:`Simulator.schedule_call`; the loop accepts
bare callables and handles on the same heap and the shared insertion
counter keeps tie-breaking identical either way.

Two primitives let a component coalesce work that several same-time
events would each redo (the flow network reallocates once per timestamp
with them, DESIGN.md §11):

* :meth:`Simulator.at_timestamp_end` registers a one-shot hook that the
  loop runs once every event at the current time has been dispatched —
  including same-time events scheduled by those callbacks — and before
  the clock moves on.  Hooks pending when the loop starts run before its
  first pop.  Hooks are not events: ``events_processed`` ignores them.
* :meth:`Simulator.reserve_seq` takes an insertion counter now, and
  :meth:`Simulator.schedule_at_seq` pushes an event with it later, so a
  deferred push gets exactly the heap key an immediate one would have had.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation marks the event dead rather than removing it from the heap
    (lazy deletion), which keeps scheduling O(log n).
    """

    __slots__ = ("time", "_callback", "_cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._cancelled = True


class Simulator:
    """Event loop with a virtual clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.0, 2.0]
    """

    __slots__ = ("now", "events_processed", "_heap", "_counter", "_end_hooks")

    def __init__(self) -> None:
        self.now = 0.0
        #: Callbacks dispatched so far (cancelled events excluded); a
        #: deterministic work counter reported by ``repro bench sim``.
        self.events_processed = 0
        self._heap: list[tuple[float, int, object]] = []
        self._counter = itertools.count()
        #: One-shot end-of-timestamp hooks, run in registration order.
        self._end_hooks: list[Callable[[], None]] = []

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not (delay >= 0):  # also rejects NaN, which fails every comparison
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not (time >= self.now):
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        handle = EventHandle(time, callback)
        heapq.heappush(self._heap, (time, next(self._counter), handle))
        return handle

    def schedule_call(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule a non-cancellable ``callback`` ``delay`` seconds from now.

        The fast path for fire-and-forget events (compute completions,
        barriers, zero-byte transfers): no :class:`EventHandle` is
        allocated.  The shared insertion counter makes the tie-break order
        identical to an equivalent :meth:`schedule` call.
        """
        if not (delay >= 0):
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def schedule_call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Absolute-time variant of :meth:`schedule_call`."""
        if not (time >= self.now):
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def reserve_seq(self) -> int:
        """Take the next insertion counter for a later :meth:`schedule_at_seq`.

        Every event pushed after this call sorts behind the reserved
        counter at equal times, exactly as if the event had been pushed now.
        """
        return next(self._counter)

    def schedule_at_seq(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at ``time`` under a :meth:`reserve_seq` counter.

        Each reserved counter must be pushed at most once.
        """
        if not (time >= self.now):
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        handle = EventHandle(time, callback)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def at_timestamp_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once, when the current timestamp is exhausted.

        It fires after every event at ``now`` has been dispatched,
        including same-time events scheduled meanwhile, and before the
        clock advances.  Hooks registered by a hook run in the same pass;
        events a hook schedules at ``now`` are dispatched after the pass,
        and a new pass follows them if they register hooks in turn.
        """
        self._end_hooks.append(callback)

    def _run_end_hooks(self) -> None:
        hooks = self._end_hooks
        while hooks:
            batch = hooks.copy()
            hooks.clear()
            for hook in batch:
                hook()

    def run(self, until: float | None = None) -> None:
        """Process events in time order, one equal-timestamp cohort at a time.

        The heap is drained one *cohort* (maximal run of entries sharing a
        timestamp) at a time, with the same firing order, clock trajectory
        and ``events_processed`` as popping one event at a time:

        * the ``until`` deadline is checked once per cohort, not per event;
        * cancellation is re-checked at dispatch time, so a cohort member
          cancelling a later member still suppresses it;
        * events scheduled *at the cohort's timestamp* by cohort callbacks
          carry larger insertion counters than everything already popped,
          so re-scanning the heap after the popped run keeps insertion
          order.

        End-of-timestamp hooks run once the cohort's timestamp is
        exhausted, before the clock moves on.

        Args:
            until: If given, stop once the next event would fire after this
                time (the clock is left at ``until``).  Otherwise run until
                the event heap drains.

        Raises:
            ValueError: If ``until`` lies before the current clock — running
                "until" a past instant would silently rewind ``now`` and
                re-admit events that already fired as schedulable times.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run backwards: until={until} < now {self.now}"
            )
        heap = self._heap
        heappop = heapq.heappop
        handle_type = EventHandle
        hooks = self._end_hooks
        dispatched = 0
        try:
            if hooks:
                self._run_end_hooks()
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                # Drain every entry at `time`, re-scanning for same-time
                # events the cohort's callbacks scheduled, then close the
                # timestamp; hooks may schedule at `time` again.
                while heap and heap[0][0] == time:
                    cohort = [heappop(heap)[2]]
                    while heap and heap[0][0] == time:
                        cohort.append(heappop(heap)[2])
                    for handle in cohort:
                        if handle.__class__ is handle_type:
                            if handle._cancelled:
                                continue
                            handle = handle._callback
                        self.now = time
                        dispatched += 1
                        handle()
                    if hooks and not (heap and heap[0][0] == time):
                        self._run_end_hooks()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.events_processed += dispatched
