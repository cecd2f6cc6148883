"""Fuzz oracle for the incremental flow allocator (DESIGN.md §11).

The production :class:`~repro.sim.resources.FlowNetwork` refills only the
edge-connected component(s) a change touches.  The reference oracle below
keeps the *old* progressive fill verbatim — not as dead code in ``src/`` —
and re-derives everything from scratch at every event: priority groups,
edge-connected components, and the max-min fill per component.  After
**every** reallocation — the once-per-timestamp flush that follows flow
arrivals, flow completions and bandwidth-scale epochs — the incremental
rates must equal the from-scratch oracle exactly (``==``, not approx: the
optimization contract is bit-identical traces).

The flush's closure is pinned the same way: the old flow-level BFS
``_closure`` is kept verbatim below, over a membership map rebuilt from
scratch, and at every flush that fills, the production closure must reach
exactly its set, split into exactly the from-scratch components, with the
dirty links decoded from the flush's bitmask.  A property test refills
shuffled copies of every affected set and requires bit-identical rates and
``used`` maps, which is the order-independence the fill relies on.

The recurring-cohort fuzz replays one arrival cohort over a fixed path
pool, so flow sets recur and the rate memo answers flushes; each hit is
checked against the oracle like any fill, flows of one ``(eids, priority)``
class must share a rate, and the first flush after a scale epoch must miss.

The coincident-timestamp fuzz additionally pins the batching itself:
against :class:`EagerFlowNetwork`, which reallocates at every change as the
allocator did before per-timestamp flushing, completion order and times
must be identical under both dispatch loops.

Two oracle granularities pin down the contract precisely:

* **component oracle** (the allocator's canonical semantics) — groups are
  split into edge-connected components and each is filled separately.
  This must match on *any* workload; the fuzz harness drives seeded random
  arrival/priority/size/scale-window sequences over the paper's 2+2, 4 and
  4+4 commodity servers (departures happen naturally as flows complete,
  which is how the production runner retires flows too).
* **global oracle** (the legacy allocator) — one fill over the whole
  priority group.  Its round deltas interleave across components, so on
  adversarial capacities it can differ from the component fill by an ulp;
  on the production workloads the two are floating-point coincident, which
  is exactly the trace-byte compatibility the corpus-workload test (and
  the ``repro bench sim`` fingerprint gate) asserts.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict

import pytest

from repro.hardware.topology import (
    commodity_server,
    datacenter_server,
    topo_2_2,
    topo_4,
    topo_4_4,
)
from repro.sim.engine import Simulator
from repro.sim.resources import _EPS, FlowNetwork

from tests.sim.single_dispatch import SingleDispatchSimulator

GB = 1e9


# ----------------------------------------------------------------------
# Reference oracle: the pre-incremental progressive fill, kept verbatim.
# ----------------------------------------------------------------------


def _oracle_progressive_fill(flows, used, effective_bandwidth, rates):
    """The old ``FlowNetwork._progressive_fill``, on (uid, path) records."""
    unfrozen = {uid: path for uid, path in flows}
    for uid, _ in flows:
        rates[uid] = 0.0
    edge_flows = defaultdict(list)
    for uid, path in flows:
        for edge in path:
            edge_flows[edge].append(uid)

    while unfrozen:
        delta = float("inf")
        for edge, members in edge_flows.items():
            live = sum(1 for uid in members if uid in unfrozen)
            if not live:
                continue
            headroom = effective_bandwidth(edge) - used[edge]
            delta = min(delta, max(headroom, 0.0) / live)
        if delta == float("inf"):
            break
        for uid, path in unfrozen.items():
            rates[uid] += delta
            for edge in path:
                used[edge] += delta
        saturated = {
            edge
            for edge in edge_flows
            if used[edge] >= effective_bandwidth(edge) * (1 - _EPS)
            and any(uid in unfrozen for uid in edge_flows[edge])
        }
        if not saturated:
            if delta <= 0:
                break
            continue
        for edge in saturated:
            for uid in edge_flows[edge]:
                unfrozen.pop(uid, None)


def _oracle_closure(edge_members, seeds):
    """The old ``FlowNetwork._closure``, over a given membership map."""
    seen: set[int] = set()
    stack: list = []
    for flow in seeds:
        if flow.uid not in seen:
            seen.add(flow.uid)
            stack.append(flow)
    out: list = []
    while stack:
        flow = stack.pop()
        out.append(flow)
        for edge in flow.path:
            for uid, other in edge_members[edge].items():
                if uid not in seen:
                    seen.add(uid)
                    stack.append(other)
    return out


def oracle_affected(network: FlowNetwork, dirty) -> set[int]:
    """Uids the old flush refilled for ``dirty``, from rebuilt membership.

    The membership is rebuilt from ``flow.path`` edge tuples, independent of
    the network's link-id index; ``dirty`` link ids are mapped back to
    edges through the topology's id -> edge table.
    """
    edge_members: dict = defaultdict(dict)
    for flow in network.active_flows:
        for edge in flow.path:
            edge_members[edge][flow.uid] = flow
    links = network.topology.links
    seeds: dict = {}
    for eid in dirty:
        seeds.update(edge_members.get(links[eid], {}))
    return {flow.uid for flow in _oracle_closure(edge_members, seeds.values())}


def mask_links(mask: int) -> list[int]:
    """The link ids set in a dirty bitmask, ascending."""
    return [eid for eid in range(mask.bit_length()) if mask >> eid & 1]


def _split_components(records):
    """Edge-connected components of ``[(uid, path), ...]``, from scratch."""
    components = []
    remaining = list(records)
    while remaining:
        component = [remaining.pop(0)]
        edges = set(component[0][1])
        changed = True
        while changed:
            changed = False
            rest = []
            for uid, path in remaining:
                if any(edge in edges for edge in path):
                    component.append((uid, path))
                    edges.update(path)
                    changed = True
                else:
                    rest.append((uid, path))
            remaining = rest
        components.append(component)
    return components


def oracle_rates(network: FlowNetwork, *, decompose: bool) -> dict[int, float]:
    """From-scratch rates for the network's current flow set.

    ``decompose=True`` is the allocator's canonical per-component
    semantics; ``decompose=False`` is the legacy whole-group fill.
    """
    used: dict = defaultdict(float)
    by_priority: dict[int, list] = defaultdict(list)
    for flow in network.active_flows:
        by_priority[flow.priority].append((flow.uid, flow.path))
    rates: dict[int, float] = {}
    for priority in sorted(by_priority, reverse=True):
        group = by_priority[priority]
        pieces = _split_components(group) if decompose else [group]
        for piece in pieces:
            _oracle_progressive_fill(
                piece, used, network.effective_bandwidth, rates
            )
    return rates


class CheckedFlowNetwork(FlowNetwork):
    """FlowNetwork that cross-checks every reallocation against the oracle."""

    #: Also assert the legacy global fill (valid on production workloads,
    #: where its rounds are floating-point coincident with the component
    #: fill; not valid for adversarial fuzz capacities).
    check_global = False

    def __init__(self, sim, topology):
        super().__init__(sim, topology)
        self.checked_reallocations = 0
        #: Flow starts, completion events and scale edges seen.
        self.changes = 0
        #: First flushes after a scale epoch, all of which must miss the
        #: rate memo (the epoch clears it).
        self.misses_after_epoch = 0
        self._epoch_since_flush = False
        #: Most live flows seen at a flush.
        self.peak_flows = 0

    def _invalidate(self):
        self.changes += 1
        super()._invalidate()

    def _rescale(self, eid):
        self._epoch_since_flush = True
        super()._rescale(eid)

    def _affected(self, mask):
        expected = oracle_affected(self, mask_links(mask))
        components = super()._affected(mask)
        self._check_components(components, expected)
        return components

    def _check_components(self, components, expected):
        uids = [flow.uid for _, flows, _ in components for flow in flows]
        assert len(uids) == len(set(uids)), "a flow placed in two components"
        assert set(uids) == expected, (
            f"edge-level closure diverged from the flow-level oracle at "
            f"t={self.sim.now}: {sorted(uids)} != {sorted(expected)}"
        )
        # Exactly the from-scratch same-priority components ...
        by_priority: dict = defaultdict(list)
        for flow in self.active_flows:
            if flow.uid in expected:
                by_priority[flow.priority].append((flow.uid, flow.path))
        oracle_parts = {
            (priority, frozenset(uid for uid, _ in piece))
            for priority, group in by_priority.items()
            for piece in _split_components(group)
        }
        parts = {
            (priority, frozenset(flow.uid for flow in flows))
            for priority, flows, _ in components
        }
        assert parts == oracle_parts
        # ... each with its edges' member maps (none for one flow).
        links = self.topology.links
        for priority, flows, edges in components:
            if edges is None:
                assert len(flows) == 1
                continue
            crossing: dict = defaultdict(set)
            for flow in flows:
                for edge in flow.path:
                    crossing[edge].add(flow.uid)
            assert {links[eid]: set(members) for eid, members in edges.items()} == crossing
            assert all(
                flow.priority == priority
                for members in edges.values()
                for flow in members.values()
            )

    def _reallocate(self):
        hits = self.stats.memo_hits
        self.peak_flows = max(self.peak_flows, len(self._flows))
        super()._reallocate()
        if self._flows and self._epoch_since_flush:
            assert self.stats.memo_hits == hits, "a memo hit across a scale epoch"
            self.misses_after_epoch += 1
            self._epoch_since_flush = False
        # The memo's premise: flows of one (eids, priority) class share a rate.
        class_rates: dict = {}
        for flow in self.active_flows:
            rate = class_rates.setdefault((flow.eids, flow.priority), flow.rate)
            assert flow.rate == rate, f"one class, two rates at t={self.sim.now}"
        actual = {flow.uid: flow.rate for flow in self.active_flows}
        expected = oracle_rates(self, decompose=True)
        assert actual == expected, (
            f"incremental rates diverged from the from-scratch component "
            f"oracle at t={self.sim.now}: {actual} != {expected}"
        )
        if self.check_global:
            legacy = oracle_rates(self, decompose=False)
            assert actual == legacy, (
                f"rates diverged from the legacy global fill at "
                f"t={self.sim.now}: {actual} != {legacy}"
            )
        if self._flows:  # empty calls early-return uncounted in stats too
            self.checked_reallocations += 1


class EagerFlowNetwork(CheckedFlowNetwork):
    """Reallocates at every change: the allocator before per-timestamp flushes.

    The change's reserved counter is pushed at once, which is the heap key
    the eager allocator's reschedule took; the end-of-timestamp hook left
    behind then finds nothing reserved and returns.
    """

    def _invalidate(self):
        super()._invalidate()
        self._reallocate()


def _random_path(topology, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return topology.path_to_dram(rng.randrange(topology.n_gpus))
    if kind == 1:
        return topology.path_from_dram(rng.randrange(topology.n_gpus))
    src = rng.randrange(topology.n_gpus)
    dst = rng.randrange(topology.n_gpus)
    if src == dst:
        dst = (dst + 1) % topology.n_gpus
    return topology.gpu_to_gpu_path(src, dst)


def _fuzz_topologies():
    return [topo_2_2(), topo_4(), topo_4_4()]


class ShuffledFillNetwork(CheckedFlowNetwork):
    """Refills shuffled copies of every affected set; results must not move.

    The copies reorder the components, each component's flows, its edges
    and every edge's member map (a one-flow component may carry none).
    ``Flow.rate`` values and the returned ``used`` map must be
    bit-identical to the production fill's.
    """

    def __init__(self, sim, topology, seed=0):
        super().__init__(sim, topology)
        self.rng = random.Random(seed)
        self.shuffled_fills = 0

    def _shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def _fill(self, components):
        used = super()._fill(components)
        flows = [flow for _, members, _ in components for flow in members]
        rates = {flow.uid: flow.rate for flow in flows}
        for _ in range(2):
            copy = [
                (
                    priority,
                    self._shuffled(members),
                    None
                    if edges is None
                    else {
                        edge: dict(self._shuffled(sharers.items()))
                        for edge, sharers in self._shuffled(edges.items())
                    },
                )
                for priority, members, edges in self._shuffled(components)
            ]
            stats = dataclasses.replace(self.stats)
            assert super()._fill(copy) == used
            self.stats = stats
            assert {flow.uid: flow.rate for flow in flows} == rates
            self.shuffled_fills += 1
        return used


def _run_fuzz(
    topology,
    seed,
    n_arrivals=40,
    with_scales=True,
    network_type=CheckedFlowNetwork,
):
    rng = random.Random(seed)
    sim = Simulator()
    network = network_type(sim, topology)
    completed = []
    for _ in range(n_arrivals):
        at = rng.uniform(0.0, 3.0)
        path = _random_path(topology, rng)
        nbytes = rng.uniform(0.05, 2.5) * GB
        priority = rng.choice((0, 0, 0, 1, 1, 2))
        label = f"fuzz-{len(completed)}"

        def arrive(path=path, nbytes=nbytes, priority=priority, label=label):
            network.start_flow(
                path,
                nbytes,
                lambda: completed.append(label),
                priority=priority,
            )

        sim.schedule_at(at, arrive)
    if with_scales:
        edges = sorted(topology.links)
        for _ in range(6):
            edge = rng.choice(edges)
            factor = rng.choice((0.25, 0.5, 0.75))
            start = rng.uniform(0.0, 2.5)
            end = start + rng.uniform(0.2, 2.0)
            network.set_bandwidth_scale(edge, factor, start=start, end=end)
    sim.run()
    assert len(completed) == n_arrivals
    # Every arrival reallocates with >= 1 active flow, so each one passed
    # through the checked fill (completions may leave the network empty).
    assert network.checked_reallocations >= n_arrivals
    return network


def _run_recurring_fuzz(topology, seed, *, with_scales, replays=4):
    """Replays of one arrival cohort over a pool of four fixed paths.

    The same flow sets recur, so the rate memo answers flushes, and scale
    windows laid over the replays make some sets recur across an epoch.
    Every flush, hit or miss, is checked against the from-scratch oracle.
    """
    rng = random.Random(seed)
    pool = [_random_path(topology, rng) for _ in range(4)]
    cohort = [
        (
            rng.uniform(0.0, 1.0),
            rng.choice(pool),
            rng.uniform(0.05, 1.0) * GB,
            rng.choice((0, 0, 1, 2)),
        )
        for _ in range(10)
    ]
    period = 8.0
    sim = Simulator()
    network = CheckedFlowNetwork(sim, topology)
    completed = []
    for replay in range(replays):
        for at, path, nbytes, priority in cohort:
            sim.schedule_at(
                replay * period + at,
                lambda path=path, nbytes=nbytes, priority=priority: network.start_flow(
                    path, nbytes, lambda: completed.append(sim.now), priority=priority
                ),
            )
    if with_scales:
        edges = sorted({edge for path in pool for edge in path})
        for _ in range(4):
            start = rng.uniform(0.0, replays * period)
            network.set_bandwidth_scale(
                rng.choice(edges),
                rng.choice((0.25, 0.5, 0.75)),
                start=start,
                end=start + rng.uniform(0.5, 2 * period),
            )
    sim.run()
    assert len(completed) == replays * len(cohort)
    assert network.stats.reallocations == network.checked_reallocations
    return network


class TestIncrementalMatchesOracle:
    def test_fuzz_topo_2_2(self):
        for seed in range(6):
            _run_fuzz(topo_2_2(), seed)

    def test_fuzz_topo_4(self):
        for seed in range(6):
            _run_fuzz(topo_4(), seed)

    def test_fuzz_topo_4_4(self):
        for seed in range(6):
            _run_fuzz(topo_4_4(), seed)

    def test_fuzz_datacenter_nvlink(self):
        # Single-edge NVLink paths beside the three-edge DRAM paths.
        for seed in range(3):
            _run_fuzz(datacenter_server(4), seed)

    def test_fuzz_topo_4_4_4_4(self):
        topology = commodity_server([4] * 4)
        for seed in range(3):
            _run_fuzz(topology, seed)
        # A crowded network: the paper's cells peak at 44 live flows.
        network = _run_fuzz(topology, seed=0, n_arrivals=300)
        assert network.peak_flows > 128

    def test_fuzz_without_scale_events(self):
        for topology in _fuzz_topologies():
            _run_fuzz(topology, seed=99, with_scales=False)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("topology", _fuzz_topologies(), ids=["2+2", "4", "4+4"])
    def test_fuzz_recurring_flow_sets(self, topology, seed):
        network = _run_recurring_fuzz(topology, seed, with_scales=False)
        assert network.stats.memo_hits > 0
        assert network.misses_after_epoch == 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("topology", _fuzz_topologies(), ids=["2+2", "4", "4+4"])
    def test_fuzz_recurring_flow_sets_across_scale_epochs(self, topology, seed):
        network = _run_recurring_fuzz(topology, seed, with_scales=True)
        assert network.stats.memo_hits > 0
        assert network.stats.scale_epochs > 0
        assert network.misses_after_epoch >= 1

    def test_reallocations_all_checked(self):
        network = _run_fuzz(topo_2_2(), seed=7, n_arrivals=12)
        assert network.stats.reallocations == network.checked_reallocations


class TestFillOrderIndependence:
    """``_fill`` depends on the affected set only, not on its order."""

    @pytest.mark.parametrize("topology", _fuzz_topologies(), ids=["2+2", "4", "4+4"])
    def test_shuffled_affected_sets_fill_bit_identically(self, topology):
        for seed in range(3):
            network = _run_fuzz(topology, seed, network_type=ShuffledFillNetwork)
            # Each arrival's flush refilled two shuffled copies at least.
            assert network.shuffled_fills >= 2 * 40
            assert network.stats.components_filled < network.stats.flows_touched


_GRID = 0.25


def _run_coincident_fuzz(topology, seed, network_type, mode):
    """Arrivals, scale windows and follow-on work on a coarse time grid.

    Returns ``(completion log, network)``; the log records each completion
    as ``(label, repr(time))``.  Random draws happen inside callbacks, so
    they stay aligned between runs exactly when the event order does.
    """
    rng = random.Random(seed)
    sim = SingleDispatchSimulator() if mode == "single" else Simulator()
    network = network_type(sim, topology)
    log = []
    labels = iter(range(10**6))

    def launch(generation):
        label = f"g{generation}-{next(labels)}"
        path = _random_path(topology, rng)
        # Sizes in grid-multiples of the path's bottleneck: a flow alone,
        # or one sharing by a power of two, finishes exactly on the grid,
        # tying its completion event with arrivals, scale edges and other
        # completions — the case the heap's insertion counter decides.
        bottleneck = min(topology.bandwidth_of(edge) for edge in path)
        nbytes = bottleneck * _GRID * rng.choice((1, 2, 3, 4))
        priority = rng.choice((0, 0, 1, 2))

        def done():
            log.append((label, repr(sim.now)))
            if generation >= 2:
                return
            if rng.random() < 0.5:
                launch(generation + 1)
            if rng.random() < 0.5:
                # Zero delay still lands in this timestamp; a grid delay
                # lands where completions do.
                delay = _GRID * rng.choice((0, 0, 1, 2))
                sim.schedule_call(delay, lambda: launch(generation + 1))

        network.start_flow(path, nbytes, done, priority=priority)

    for _ in range(24):
        sim.schedule_at(_GRID * rng.randrange(12), lambda: launch(0))
    edges = sorted(topology.links)
    for _ in range(6):
        start = _GRID * rng.randrange(10)
        network.set_bandwidth_scale(
            rng.choice(edges),
            rng.choice((0.25, 0.5, 0.75)),
            start=start,
            end=start + _GRID * rng.randrange(1, 8),
        )
    sim.run()
    assert not network.active_flows
    return log, network


class TestCoincidentTimestamps:
    """Same-time changes coalesce into one flush without moving any trace."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("topology", _fuzz_topologies(), ids=["2+2", "4", "4+4"])
    def test_batched_flush_matches_eager_reallocation(self, topology, seed):
        eager_log, eager = _run_coincident_fuzz(
            topology, seed, EagerFlowNetwork, "single"
        )
        for mode in ("single", "batched"):
            log, network = _run_coincident_fuzz(
                topology, seed, CheckedFlowNetwork, mode
            )
            assert log == eager_log
            assert network.stats.reallocations == network.checked_reallocations
            # Batching is exercised: strictly fewer flushes than changes.
            assert network.stats.reallocations < network.changes
            assert network.changes == eager.changes
        assert len(eager_log) > 24


class TestLegacyGlobalFillOnProductionWorkload:
    """The legacy whole-group fill coincides bitwise on real workloads.

    This is the trace-byte compatibility claim behind the allocator
    rewrite: on the check-corpus task graphs (including a degraded-link
    scale window, as injected by ``faults.models.LinkDegradation``) the
    incremental component fill reproduces the legacy allocator's rates at
    every event — hence identical traces, as also pinned by the committed
    ``BENCH_sim.json`` fingerprints.
    """

    def test_corpus_cell_with_degradation_window(self):
        from repro.check.corpus import default_corpus
        from repro.core.api import plan_mobius
        from repro.core.pipeline import build_mobius_tasks
        from repro.sim.tasks import TaskGraphRunner

        cell = default_corpus()[0]
        report = plan_mobius(cell.model, cell.topology, cell.config)
        stage_costs = report.plan.partition.stage_costs(report.cost_model)
        tasks = build_mobius_tasks(
            report.plan,
            cell.topology,
            stage_costs,
            prefetch=cell.config.prefetch,
            use_priorities=cell.config.use_priorities,
        )
        runner = TaskGraphRunner(cell.topology)
        network = CheckedFlowNetwork(runner.sim, cell.topology)
        network.check_global = True
        runner.network = network
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=0.02, end=0.2)
        trace = runner.execute(tasks)
        assert network.checked_reallocations > 0
        assert trace.makespan > 0
