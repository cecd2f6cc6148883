"""Host-speed calibration: report times in reference-host seconds.

On a small shared machine the speed of one vCPU changes with what other
tenants run on the same physical cores.  On a 2-vCPU 2.1 GHz Xeon host, a
fixed CPU-bound op ran at 1.0x to 2.0x its best time, in phases of ten to
thirty seconds, with no steal time reported, so whole runs land in a slow
phase.  No statistic over one run removes that.

Each timing is therefore paired with calibration samples taken around
and inside it: a fixed pure-Python loop (integer arithmetic and a heap of
small objects), timed as the best of three passes.  A measured time ``t``
is reported as ``t * REFERENCE_S / sample``: the seconds it would have
taken on the host at the speed at which the loop takes ``REFERENCE_S``.  The calibration loop is part of the benchmark and never
changes with the program, so a change that makes the program faster or
slower moves the reported times exactly as it moves the raw ones.  Raw
times are printed on the run's detail line next to the scaled ones.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

#: Time of :func:`calibration_pass` on an unloaded vCPU of a 2.1 GHz Xeon
#: host.  It only sets the scale of reported times.
REFERENCE_S = 0.0065

_PASSES = 3


class _Event:
    __slots__ = ("time", "key", "previous")

    def __init__(self, time: float, key: int, previous: "_Event | None") -> None:
        self.time = time
        self.key = key
        self.previous = previous


def calibration_pass() -> int:
    """Fixed work of about 6 ms: the yardstick for the host's current speed.

    Half integer arithmetic, half a heap of small linked objects (the
    shape of an event queue); with both, the yardstick slows in step with
    the planner and the simulator better than either part alone.
    """
    total = 0
    for i in range(60_000):
        total += i * i % 7
    rng = random.Random(7)
    heap: list = []
    event = None
    for i in range(2_500):
        event = _Event(rng.random(), i, event)
        heapq.heappush(heap, (event.time, i, event))
    while heap:
        when, _, event = heapq.heappop(heap)
        total += int(when * event.key)
    return total


def sample() -> float:
    """Seconds of one calibration pass right now (best of three)."""
    best = float("inf")
    for _ in range(_PASSES):
        started = time.perf_counter()
        calibration_pass()
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Calibration samples over a pass, and the factors they give.

    :meth:`take` records a sample now.  :meth:`time` runs one op on the
    main thread; while it runs, a timer signal takes a sample every
    ``interval`` seconds (unless ``interval`` is ``None``), and the
    samples' own time is cut out of the op.  A moment is scaled by the
    median of the four samples nearest to it (two before, two after), which
    follows the host's slow phases but not the jitter of single samples.
    """

    def __init__(self, interval: float | None = 0.5) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def take(self, *_signal_args) -> None:
        started = time.perf_counter()
        seconds = sample()
        self.samples.append((started, time.perf_counter(), seconds))

    def time(self, op):
        """Run ``op()``; returns ``(output, error, segments)``.

        ``segments`` are the ``(start, end)`` stretches of the op between
        the samples taken while it ran.
        """
        first = len(self.samples)
        if self.interval is not None:
            previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        output = error = None
        started = time.perf_counter()
        try:
            output = op()
        except Exception as err:
            error = err
        finally:
            ended = time.perf_counter()
            if self.interval is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        edges = [started]
        for s0, s1, _ in self.samples[first:]:
            if started <= s0 and s1 <= ended:
                edges += [s0, s1]
        edges.append(ended)
        return output, error, list(zip(edges[::2], edges[1::2]))

    def factor_at(self, moment: float) -> float:
        after = bisect.bisect_left([s0 for s0, _, _ in self.samples], moment)
        nearest = [seconds for *_, seconds in self.samples[max(0, after - 2):after + 2]]
        return REFERENCE_S / statistics.median(nearest)

    def scaled(self, segments: list[tuple[float, float]]) -> float:
        """Reference-host seconds of ``segments``."""
        return sum((end - start) * self.factor_at((start + end) / 2) for start, end in segments)
