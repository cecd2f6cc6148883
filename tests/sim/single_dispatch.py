"""The one-event-at-a-time dispatch loop, kept as a test oracle.

:meth:`repro.sim.engine.Simulator.run` drains the heap in equal-timestamp
cohorts.  Its contract is that firing order, clock trajectory and
``events_processed`` equal those of the plain loop below, which pops one
event at a time.  The equivalence tests run the same workload on both
classes — a runner takes this one through its ``simulator=`` parameter —
and compare the results (DESIGN.md §12).
"""

from __future__ import annotations

import heapq

from repro.sim.engine import EventHandle, Simulator

__all__ = ["SingleDispatchSimulator"]


class SingleDispatchSimulator(Simulator):
    """A :class:`Simulator` whose :meth:`run` dispatches one event at a time."""

    __slots__ = ()

    def run(self, until: float | None = None) -> None:
        """Process events one at a time, in time order.

        End-of-timestamp hooks run whenever the next heap entry lies later
        than the clock (or the heap is empty).  ``until`` and its
        validation behave as in :meth:`Simulator.run`.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run backwards: until={until} < now {self.now}"
            )
        heap = self._heap
        hooks = self._end_hooks
        dispatched = 0
        try:
            if hooks:
                self._run_end_hooks()
            while True:
                if hooks and (not heap or heap[0][0] != self.now):
                    self._run_end_hooks()
                    continue
                if not heap:
                    break
                entry = heap[0]
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    return
                heapq.heappop(heap)
                handle = entry[2]
                if handle.__class__ is EventHandle:
                    if handle._cancelled:
                        continue
                    handle = handle._callback
                self.now = time
                dispatched += 1
                handle()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.events_processed += dispatched
