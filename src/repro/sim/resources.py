"""Simulated resources: compute units and the bandwidth-shared flow network.

Two resource types drive every experiment:

* :class:`ComputeUnit` — one per GPU (plus optionally one for the CPU).  It
  executes compute tasks serially in FIFO order, mirroring a CUDA stream.
* :class:`FlowNetwork` — a fluid-flow model of the server interconnect.
  Concurrent transfers become *flows* over edge paths of the
  :class:`~repro.hardware.topology.Topology`; every time the flow set
  changes, per-flow rates are recomputed with **priority-aware max-min fair
  sharing** (progressive filling).  This is what reproduces the paper's
  contention observations: two GPUs pushing data through one CPU root
  complex each see half its bandwidth (Figure 2), and prefetches issued with
  ``cudaStreamCreateWithPriority`` (§3.3) preempt lower-priority flows.

The allocator is *incremental* (DESIGN.md §11): a flow
arrival/departure/scale event marks its links dirty, and once per
simulated timestamp — from the simulator's end-of-timestamp hook — the
flush refills only the same-priority components reachable from the dirty
links.  Links are the topology's dense integer ids
(:meth:`Topology.link_id`).  Each distinct ``(path, priority)`` is resolved
once into a *route*: its id tuple (:attr:`Flow.eids`), its link bitmask
(:attr:`Flow.mask`) and its rate-memo class id, so :meth:`start_flow`
does one lookup per flow.  The capacities, the dirty links and the fill's
rows are all keyed by id.  The network keeps no link index: changes OR
their links into one dirty bitmask, and the flush grows the refill set by
passes over the live flows (``flow.mask & mask``), then splits it into
components by merging flows whose masks meet
(:meth:`FlowNetwork._affected`).  With the few dozen live flows of a
commodity server, this costs less than keeping an index current at every
start and finish.

Max-min rates depend only on the flow set, paths, priorities and link
capacities — never on transfer progress, nor on the order in which the
components are listed — so flows outside the affected components provably
keep their rates, and the resulting traces are bit-identical to a
from-scratch refill at every change (asserted by the fuzz oracle in
``tests/sim/test_allocator_equivalence.py`` and the ``repro bench sim``
fingerprint gate).

Rate memo.  A training step repeats one layer's traffic pattern, so a
flush often sees a live flow set this network has filled before.  Live
flows are counted per *class*, a route (one ``(Flow.eids, priority)``),
and a flush whose class multiset was filled before copies the recorded
per-class rates onto the live flows instead of searching and filling.
This is exact because rates are component-canonical (DESIGN.md §11): each
component's rates are a function of its flow set, of higher-priority use
of its links and of the capacities, so the whole rate vector is a function
of the live multiset and the capacities, and flows of one class freeze in
the same round at the same level.  Each scale epoch clears the memo.  On
perfbench ``sim-4gpu`` it answers 86–90% of the DeepSpeed flushes and
24–42% of the Mobius ones.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from array import array
from collections import deque
from collections.abc import Callable, Iterable

from repro.hardware.topology import Edge, Path, Topology
from repro.sim.engine import EventHandle, Simulator

__all__ = ["ComputeUnit", "Flow", "FlowNetwork", "FlowNetworkStats"]

_EPS = 1e-12
_INF = float("inf")


class ComputeUnit:
    """A serial compute engine (one CUDA stream's worth of a GPU).

    Tasks submitted while another task runs are queued FIFO.  Completion
    callbacks fire inside the simulator event loop.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._queue: deque[
            tuple[float, Callable[[], None], Callable[[], None]]
        ] = deque()
        self._busy = False

    def submit(
        self,
        seconds: float,
        on_done: Callable[[], None],
        on_start: Callable[[], None],
    ) -> None:
        """Queue a task of length ``seconds``; ``on_done`` fires at its end.

        ``on_start`` is called when the unit picks the task up (at once if
        the unit is idle), without an event of its own.
        """
        if not (0 <= seconds < _INF):  # also rejects NaN
            raise ValueError(
                f"task duration must be finite and non-negative, got {seconds}"
            )
        self._queue.append((seconds, on_done, on_start))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        seconds, on_done, on_start = self._queue.popleft()
        on_start()

        def finish() -> None:
            # Run the completion callback first so dependent work enqueued by
            # it at the same timestamp is ordered behind queued tasks.
            on_done()
            self._start_next()

        # Completions are never cancelled: skip the EventHandle allocation.
        self.sim.schedule_call(seconds, finish)


@dataclasses.dataclass(slots=True)
class Flow:
    """One in-flight transfer.

    Attributes:
        path: Directed edges the flow occupies (all simultaneously).
        priority: Larger values are served first; flows at the same priority
            max-min share leftover bandwidth.
        on_done: Completion callback.
        eids: The topology's link ids of ``path``, in path order.
        mask: ``eids`` as an int bitmask (bit ``eid`` set per link).
        class_id: The owning network's interned id of ``(path, priority)``,
            the rate memo's class.
        uid: The owning network's start counter.
        remaining: Bytes left, advanced to the network's last update.
        threshold: The residue at or under which the flow counts as
            finished, ``max(1e-9 * nbytes, 1.0)``.
    """

    path: Path
    priority: int
    on_done: Callable[[], None]
    eids: tuple[int, ...]
    mask: int
    class_id: int
    uid: int
    remaining: float
    threshold: float
    rate: float = 0.0


#: ``(priority, flows, edges)``: one same-priority component and the member
#: map of each link id it crosses (see :meth:`FlowNetwork._affected`), or
#: ``None`` for a one-flow component, which fills without rows.
_Component = tuple[int, list[Flow], dict[int, dict[int, Flow]] | None]
_priority_of = operator.itemgetter(0)


@dataclasses.dataclass
class FlowNetworkStats:
    """Deterministic allocator work counters (``repro bench sim`` gates these).

    All counters are event-sequence determined — no wall-clock input — so
    equal workloads produce equal counts across machines and runs.
    """

    #: ``_reallocate`` flushes (one per simulated timestamp that saw a
    #: change) that had at least one active flow.
    reallocations: int = 0
    #: Flows re-filled, summed over reallocations (the incremental win:
    #: this stays near the component size, not the total flow count).
    #: This and the two fill counters below count real fills only, not
    #: flushes answered from the rate memo.
    flows_touched: int = 0
    #: Edge-connected components progressively filled.
    components_filled: int = 0
    #: Progressive-filling rounds across all component fills.
    fill_rounds: int = 0
    #: Bandwidth-scale window boundaries applied (epoch changes).
    scale_epochs: int = 0
    #: Flushes whose live flow multiset the rate memo had already filled,
    #: answered without a search or a fill.
    memo_hits: int = 0


class FlowNetwork:
    """Priority-aware max-min fair bandwidth sharing over a topology.

    The model is *fluid*: each flow progresses continuously at its currently
    assigned rate.  Rates change only when a flow starts or finishes (or a
    link's capacity is rescaled).  Such changes are collected per simulated
    timestamp; when the timestamp is exhausted the network re-solves the
    allocation over the affected components once and reschedules its
    next-completion event (:meth:`_reallocate`).  Between a change and that
    flush, ``Flow.rate`` of the affected flows is stale.

    Allocation: flows are grouped by priority, highest first.  Within a
    group, progressive filling raises all rates uniformly until an edge
    saturates, freezes the flows crossing it, and repeats.  Capacity consumed
    by higher-priority groups is subtracted before lower groups fill.
    """

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self._flows: dict[int, Flow] = {}
        self._uid = itertools.count()
        self._last_update = 0.0
        self._next_event: EventHandle | None = None
        #: Each distinct ``(path, priority)`` started so far, validated and
        #: resolved once into its route: link ids, link bitmask and
        #: rate-memo class id.
        self._routes: dict[tuple[Path, int], tuple[tuple[int, ...], int, int]] = {}
        #: Links whose flow set or capacity changed since the last flush,
        #: as a bitmask of link ids.
        self._dirty_mask = 0
        #: Insertion counter reserved at the latest change for the next
        #: completion event; ``None`` while no flow is live.
        self._reserved_seq: int | None = None
        self._flush_pending = False
        #: Stack of active scale factors per link id (overlapping windows
        #: compose multiplicatively; each window removes its own factor).
        self._scale_factors: dict[int, list[float]] = {}
        #: Current capacity per link id: the nominal bandwidth times its
        #: scale stack, recomputed for the link at each scale epoch.
        self._nominal = topology.link_bandwidths
        self._capacity: list[float] = list(self._nominal)
        #: Rate memo.  Each route is a class; ``_class_counts`` holds the
        #: live flows per class id in unsigned 32-bit counters, exact for
        #: any flow count a process can hold (2**32 live flows would take
        #: hundreds of GB), and an array raises rather than wraps.
        #: ``_rate_memo`` maps a live multiset, the counts' bytes with
        #: trailing zero bytes stripped, to the per-class rates its fill
        #: produced.  Cleared at scale epochs.
        self._class_counts = array("I")
        self._rate_memo: dict[bytes, array] = {}
        self.stats = FlowNetworkStats()

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._flows.values())

    def effective_bandwidth(self, edge: Edge) -> float:
        """Current capacity of ``edge``: topology bandwidth x any live scales."""
        return self._capacity[self.topology.link_id(edge)]

    def set_bandwidth_scale(
        self,
        edge: Edge,
        factor: float,
        *,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Scale one directed link's capacity over a time window.

        This is the injection point for PCIe-degradation fault models (and
        for experiments that want a weakened link without monkeypatching
        topology internals): between ``start`` and ``end`` the link's
        capacity is ``factor`` x its nominal bandwidth, and in-flight flows
        are re-allocated at both boundary instants.

        Overlapping or nested windows on the same edge compose: each window
        pushes its factor onto a per-edge stack on entry and removes *its
        own* factor on exit, so the effective capacity is the nominal
        bandwidth times the product of all currently-open windows' factors.

        Args:
            edge: A directed edge of the topology (validated eagerly).
            factor: Capacity multiplier; must be positive and finite (a zero
                capacity would deadlock flows crossing the link).
            start: Absolute simulation time the scale takes effect; ``None``
                or a past instant applies it immediately.
            end: Absolute time the link recovers to nominal bandwidth;
                ``None`` (or ``inf``) makes the degradation persistent.
        """
        eid = self.topology.link_id(edge)  # raises KeyError on unknown edges
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError(f"bandwidth scale factor must be positive, got {factor}")
        for bound in (start, end):
            if bound is not None and math.isnan(bound):
                raise ValueError(f"degradation window bound is NaN: [{start}, {end})")
        if end is not None and start is not None and end <= start:
            raise ValueError(f"degradation window is empty: [{start}, {end})")

        def apply() -> None:
            self._advance()
            self._scale_factors.setdefault(eid, []).append(factor)
            self._rescale(eid)

        def clear() -> None:
            self._advance()
            stack = self._scale_factors.get(eid)
            if stack is not None:
                try:
                    stack.remove(factor)
                except ValueError:
                    pass
                if not stack:
                    del self._scale_factors[eid]
            self._rescale(eid)

        if start is None or start <= self.sim.now:
            apply()
        else:
            self.sim.schedule_call_at(start, apply)
        if end is not None and math.isfinite(end):
            self.sim.schedule_call_at(max(end, self.sim.now), clear)

    def start_flow(
        self,
        path: Path,
        nbytes: float,
        on_done: Callable[[], None],
        *,
        priority: int = 0,
    ) -> Flow:
        """Begin a transfer of ``nbytes`` along ``path``.

        A zero-byte transfer, or one with an empty path (same-device copy),
        completes immediately via a zero-delay event (the task runner
        completes such rows itself, without calling this).

        Raises:
            KeyError: ``path`` has an edge the topology lacks.
            ValueError: ``path`` crosses an edge more than once, or
                ``nbytes`` is negative or not finite.
        """
        if not (0 <= nbytes < _INF):  # also rejects NaN
            raise ValueError(f"nbytes must be finite and non-negative, got {nbytes}")
        route = self._routes.get((path, priority))
        if route is None:
            route = self._route(path, priority)
        eids, mask, class_id = route
        threshold = 1e-9 * nbytes
        flow = Flow(
            path,
            priority,
            on_done,
            eids,
            mask,
            class_id,
            next(self._uid),
            nbytes,
            threshold if threshold >= 1.0 else 1.0,
        )
        if nbytes == 0 or not path:
            self.sim.schedule_call(0.0, on_done)
            return flow
        self._advance()
        self._flows[flow.uid] = flow
        self._dirty_mask |= mask
        self._class_counts[class_id] += 1
        self._invalidate()
        return flow

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _route(self, path: Path, priority: int) -> tuple[tuple[int, ...], int, int]:
        """Resolve and intern a new ``(path, priority)``: its link ids, its
        link bitmask and a fresh rate-memo class id.  ``path`` must cross
        each edge at most once."""
        eids = tuple(map(self.topology.link_id, path))
        if len(set(eids)) < len(eids):
            seen: set[int] = set()
            for edge, eid in zip(path, eids):
                if eid in seen:
                    raise ValueError(f"path crosses edge {edge!r} more than once: {path!r}")
                seen.add(eid)
        mask = 0
        for eid in eids:
            mask |= 1 << eid
        route = self._routes[path, priority] = (eids, mask, len(self._class_counts))
        self._class_counts.append(0)
        return route

    def _rescale(self, eid: int) -> None:
        """Apply a scale epoch on link ``eid``: recompute its capacity."""
        bandwidth = self._nominal[eid]
        for factor in self._scale_factors.get(eid, ()):
            bandwidth *= factor
        self._capacity[eid] = bandwidth
        self.stats.scale_epochs += 1
        self._rate_memo.clear()  # its rates were filled at the old capacity
        self._dirty_mask |= 1 << eid
        self._invalidate()

    def _advance(self) -> None:
        """Progress all flows from the last update time to ``sim.now``."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                remaining = flow.remaining - flow.rate * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0
        self._last_update = self.sim.now

    def _invalidate(self) -> None:
        """Record a flow-set or capacity change at ``sim.now``.

        The caller has marked the changed links dirty.  Cancels the pending
        completion event and reserves the insertion counter an immediate
        reschedule would take at this point; :meth:`_reallocate` runs once
        the timestamp closes.
        """
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        self._reserved_seq = self.sim.reserve_seq() if self._flows else None
        if not self._flush_pending:
            self._flush_pending = True
            self.sim.at_timestamp_end(self._reallocate)

    def _reallocate(self) -> None:
        """Refill the components reachable from this timestamp's dirty links.

        Runs once per simulated timestamp that saw a change.  The result is
        bit-identical to refilling and rescheduling after every change, for
        three reasons:

        * component-local max-min rates are a function of the component's
          flow set (and capacities) only (DESIGN.md §11), so one fill over
          the union of the touched components at the end of the timestamp
          yields the rates the last per-change fill of each would have;
        * no simulated time passes within a timestamp, so ``_advance``
          moves nothing between the changes and the flush — the stale
          intermediate rates never act on progress;
        * the completion event is pushed at ``now + horizon`` under the
          counter reserved at the timestamp's last change, which is exactly
          the ``(time, seq)`` heap key of the last eager reschedule.  The
          heap breaks time ties by that counter, and a changed tie-break is
          what made the lazy deadline heap diverge (DESIGN.md §11).

        The refilled flows are :meth:`_affected`'s components; the order in
        which they are listed is irrelevant, because :meth:`_fill` depends
        only on the set it is given.  A live flow multiset filled before is
        answered from the rate memo instead (:meth:`_refill`).
        """
        self._flush_pending = False
        mask = self._dirty_mask
        self._dirty_mask = 0
        seq = self._reserved_seq
        self._reserved_seq = None
        if seq is None:
            return
        self.stats.reallocations += 1
        # Completion horizon.  Per-flow deadlines must be recomputed from the
        # advanced ``remaining`` for trace byte-identity (a lazily-invalidated
        # deadline heap measurably diverges — DESIGN.md §11), so this stays
        # an eager scan over the flow set: the refill's own pass that sets
        # the rates.
        horizon = self._refill(mask)
        if horizon == _INF:
            raise RuntimeError(
                "flow network deadlock: active flows received zero bandwidth"
            )
        sim = self.sim
        self._next_event = sim.schedule_at_seq(
            sim.now + horizon, seq, self._on_completion_event
        )

    def _refill(self, mask: int) -> float:
        """Set every live flow's rate, from the rate memo if it can, and
        return the completion horizon: the least ``remaining / rate`` over
        flows with bandwidth (``inf`` if none has any).

        A live class multiset filled before at the current capacities
        copies the recorded per-class rates onto the live flows (exact by
        the module docstring's "Rate memo" argument).  A miss refills the
        components reachable from the dirty links ``mask`` and records the
        rate of each live class.
        """
        flows = self._flows.values()
        counts = self._class_counts
        key = counts.tobytes().rstrip(b"\0")
        rates = self._rate_memo.get(key)
        horizon = _INF
        if rates is not None:
            self.stats.memo_hits += 1
            for flow in flows:
                rate = flow.rate = rates[flow.class_id]
                if rate > _EPS:
                    quotient = flow.remaining / rate
                    if quotient < horizon:
                        horizon = quotient
            return horizon
        components = self._affected(mask)
        if components:
            self._fill(components)
        # Class ids past the key's last nonzero count have no live flow.
        width = -(-len(key) // counts.itemsize)
        rates = self._rate_memo[key] = array("d", bytes(8 * width))
        for flow in flows:
            rate = rates[flow.class_id] = flow.rate
            if rate > _EPS:
                quotient = flow.remaining / rate
                if quotient < horizon:
                    horizon = quotient
        return horizon

    def _affected(self, mask: int) -> list[_Component]:
        """The live flows edge-connected (transitively) to the links in ``mask``.

        Returned as the components progressive filling works on: maximal
        sets of same-priority flows connected through shared links, each as
        ``(priority, flows, edges)``, where ``edges`` pairs the id of every
        link the component crosses with the component's flows there.
        Their union is the closure over all priorities, a union of whole
        components.

        Passes over the live flows add each flow whose links meet ``mask``
        (the dirty links, grown by the links of every flow added) until a
        pass adds none, which closes the set under link sharing at any
        priority.  The set is then split into same-priority components by
        merging flows whose masks meet.  A one-flow component carries no
        edge map.
        """
        reached: list[Flow] = []
        pending: Iterable[Flow] = self._flows.values()
        grew = True
        while grew and pending:
            grew = False
            rest = []
            for flow in pending:
                if flow.mask & mask:
                    mask |= flow.mask
                    reached.append(flow)
                    grew = True
                else:
                    rest.append(flow)
            pending = rest
        if len(reached) == 1:
            return [(reached[0].priority, reached, None)]
        # priority -> [(links, flows)], pairwise link-disjoint per priority.
        parts: dict[int, list[tuple[int, list[Flow]]]] = {}
        for flow in reached:
            links = flow.mask
            flows = [flow]
            kept = []
            for part in parts.get(flow.priority, ()):
                if part[0] & links:
                    links |= part[0]
                    flows += part[1]
                else:
                    kept.append(part)
            kept.append((links, flows))
            parts[flow.priority] = kept
        components: list[_Component] = []
        for priority, group in parts.items():
            for _, flows in group:
                if len(flows) == 1:
                    components.append((priority, flows, None))
                    continue
                edges: dict[int, dict[int, Flow]] = {}
                for flow in flows:
                    uid = flow.uid
                    for eid in flow.eids:
                        members = edges.get(eid)
                        if members is None:
                            edges[eid] = {uid: flow}
                        else:
                            members[uid] = flow
                components.append((priority, flows, edges))
        return components

    def _fill(self, components: list[_Component]) -> dict[int, float]:
        """Refill ``components`` (see :meth:`_affected`) from scratch.

        Fills the components in descending priority order, each against
        the shared ``used`` capacity map (link id -> bytes/s), which is
        returned.

        The result depends on the *set* of flows only, never on the order
        of the components, of their flows or of their edges: within one
        component fill ``delta`` is a min over rows, each row receives the
        same ``delta`` once per live member, and live counts are integers,
        so no floating-point sum is reordered; components of one priority
        are edge-disjoint, so they touch disjoint ``used`` entries; and
        priorities fill in sorted order.
        """
        used: dict[int, float] = {}
        if len(components) > 1:
            components = sorted(components, key=_priority_of, reverse=True)
        capacity = self._capacity
        touched = rounds = 0
        for _, flows, edges in components:
            touched += len(flows)
            if len(flows) > 1:
                rounds += self._fill_component(flows, edges, used)
                continue
            # One flow: one round of `_fill_component`'s arithmetic
            # (`max(headroom, 0.0) / live` with `live == 1`), without rows.
            rounds += 1
            flow = flows[0]
            bottleneck = _INF
            for eid in flow.eids:
                headroom = capacity[eid] - used.get(eid, 0.0)
                if headroom < 0.0:
                    headroom = 0.0
                if headroom < bottleneck:
                    bottleneck = headroom
            if bottleneck == _INF:
                flow.rate = 0.0  # no edges (defensive; not expected)
                continue
            flow.rate = 0.0 + bottleneck
            for eid in flow.eids:
                used[eid] = used.get(eid, 0.0) + bottleneck
        stats = self.stats
        stats.flows_touched += touched
        stats.components_filled += len(components)
        stats.fill_rounds += rounds
        return used

    def _fill_component(
        self,
        flows: list[Flow],
        edges: dict[int, dict[int, Flow]],
        used: dict[int, float],
    ) -> int:
        """Max-min fill one component into remaining link capacity.

        ``edges`` pairs each link id the component crosses with the member
        map of its flows there.  Updates ``used`` in place and returns the
        number of filling rounds.  Arithmetic is operation-for-operation
        identical to the classic global progressive fill (the oracle in
        ``tests/sim/test_allocator_equivalence.py``): every live flow's
        rate is 0.0 plus the same sequence of round deltas, so it equals
        the running ``level`` and is written once, when the flow freezes;
        a row receives ``delta`` once per live member, exactly as per-flow
        additions would; and a round that leaves flows live counts the
        frozen ones off the rows they cross instead of recounting.
        """
        # Per-link state rows: [used, live, capacity, threshold, members].
        # Capacity and the saturation threshold are loop invariants.
        capacities = self._capacity
        state: dict[int, list] = {}
        for eid, members in edges.items():
            capacity = capacities[eid]
            state[eid] = [
                used.get(eid, 0.0),
                len(members),
                capacity,
                capacity * (1 - _EPS),
                members,
            ]
        rows = list(state.values())
        frozen: set[int] = set()
        unfrozen = len(flows)
        level = 0.0
        rounds = 0
        while unfrozen:
            rounds += 1
            delta = _INF
            for row in rows:
                headroom = row[2] - row[0]
                if headroom < 0.0:
                    headroom = 0.0
                share = headroom / row[1]
                if share < delta:
                    delta = share
            if delta == _INF:
                break  # remaining flows cross no edges (defensive; not expected)
            level += delta
            saturated = []
            for row in rows:
                total = row[0]
                for _ in range(row[1]):
                    total += delta
                row[0] = total
                if total >= row[3]:
                    saturated.append(row)
            if not saturated:
                if delta <= 0:
                    break  # no headroom anywhere: all remaining stay at 0
                continue
            # Freeze flows crossing any saturated edge.
            newly: list[Flow] = []
            for row in saturated:
                for uid, flow in row[4].items():
                    if uid not in frozen:
                        frozen.add(uid)
                        flow.rate = level
                        newly.append(flow)
            unfrozen -= len(newly)
            if unfrozen:
                for flow in newly:
                    for eid in flow.eids:
                        state[eid][1] -= 1
                rows = [row for row in rows if row[1]]
        if unfrozen:
            for flow in flows:
                if flow.uid not in frozen:
                    flow.rate = level
        for eid, row in state.items():
            used[eid] = row[0]
        return rounds

    def _on_completion_event(self) -> None:
        self._next_event = None
        flows = self._flows
        # Sub-byte residues are numerical noise (floating-point advance can
        # leave a remainder too small to represent as a future event time,
        # which would livelock the loop) — treat them as finished.  Live
        # flows that shared a link with a finished flow seed the flush.
        # `_advance` and the finished scan run in one pass.  The threshold
        # is at least 1.0, so comparing the unclamped residue decides
        # exactly as comparing the clamped one would.
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        finished = []
        if elapsed > 0:
            for flow in flows.values():
                remaining = flow.remaining - flow.rate * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0
                if remaining <= flow.threshold:
                    finished.append(flow)
        else:
            for flow in flows.values():
                if flow.remaining <= flow.threshold:
                    finished.append(flow)
        counts = self._class_counts
        mask = self._dirty_mask
        for flow in finished:
            del flows[flow.uid]
            counts[flow.class_id] -= 1
            mask |= flow.mask
        self._dirty_mask = mask
        self._invalidate()
        for flow in finished:
            flow.on_done()

