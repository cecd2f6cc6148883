"""Tests for compute units and the bandwidth-shared flow network."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.topology import topo_2_2, topo_4
from repro.sim import resources
from repro.sim.engine import Simulator
from repro.sim.resources import ComputeUnit, FlowNetwork

GB = 1e9
PCIE = 13.1 * GB


def run_flows(topology, flows):
    """Start all flows at t=0; returns dict flow_index -> completion time."""
    sim = Simulator()
    network = FlowNetwork(sim, topology)
    done = {}
    for index, (path, nbytes, priority) in enumerate(flows):
        network.start_flow(
            path, nbytes, (lambda i=index: done.__setitem__(i, sim.now)), priority=priority
        )
    sim.run()
    return done


def _idle() -> None:
    """A task's ``on_start`` that does nothing."""


class TestComputeUnit:
    def test_serial_fifo(self):
        sim = Simulator()
        unit = ComputeUnit(sim, "gpu0")
        ends = []
        unit.submit(1.0, lambda: ends.append(sim.now), _idle)
        unit.submit(2.0, lambda: ends.append(sim.now), _idle)
        sim.run()
        assert ends == [1.0, 3.0]

    def test_zero_length_task(self):
        sim = Simulator()
        unit = ComputeUnit(sim, "gpu0")
        fired = []
        unit.submit(0.0, lambda: fired.append(sim.now), _idle)
        sim.run()
        assert fired == [0.0]

    def test_negative_duration_rejected(self):
        unit = ComputeUnit(Simulator(), "gpu0")
        with pytest.raises(ValueError):
            unit.submit(-1.0, lambda: None, _idle)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, seconds):
        # Accepted, NaN livelocked the batched loop and inf ran the clock to
        # inf; the unit must stay idle and usable after the rejection.
        sim = Simulator()
        unit = ComputeUnit(sim, "gpu0")
        with pytest.raises(ValueError):
            unit.submit(seconds, lambda: None, _idle)
        ends = []
        unit.submit(1.0, lambda: ends.append(sim.now), _idle)
        sim.run()
        assert ends == [1.0]

    def test_submission_during_execution_queues(self):
        sim = Simulator()
        unit = ComputeUnit(sim, "gpu0")
        ends = []

        def first_done():
            ends.append(sim.now)
            unit.submit(1.0, lambda: ends.append(sim.now), _idle)

        unit.submit(1.0, first_done, _idle)
        sim.run()
        assert ends == [1.0, 2.0]

    def test_on_start_fires_at_pickup(self):
        sim = Simulator()
        unit = ComputeUnit(sim, "gpu0")
        starts = []
        unit.submit(1.0, lambda: None, lambda: starts.append(("a", sim.now)))
        unit.submit(2.0, lambda: None, lambda: starts.append(("b", sim.now)))
        assert starts == [("a", 0.0)]
        sim.run()
        assert starts == [("a", 0.0), ("b", 1.0)]


class TestFlowTiming:
    def test_single_flow_at_link_bandwidth(self):
        topo = topo_2_2()
        done = run_flows(topo, [(topo.path_from_dram(0), PCIE, 0)])
        assert done[0] == pytest.approx(1.0, rel=1e-6)

    def test_two_flows_same_rc_halve(self):
        topo = topo_4()
        flows = [(topo.path_from_dram(g), PCIE, 0) for g in (0, 1)]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(2.0, rel=1e-6)
        assert done[1] == pytest.approx(2.0, rel=1e-6)

    def test_flows_on_different_rcs_do_not_contend(self):
        topo = topo_2_2()
        flows = [(topo.path_from_dram(0), PCIE, 0), (topo.path_from_dram(2), PCIE, 0)]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(1.0, rel=1e-6)
        assert done[1] == pytest.approx(1.0, rel=1e-6)

    def test_upload_and_download_full_duplex(self):
        topo = topo_2_2()
        flows = [(topo.path_from_dram(0), PCIE, 0), (topo.path_to_dram(0), PCIE, 0)]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(1.0, rel=1e-6)
        assert done[1] == pytest.approx(1.0, rel=1e-6)

    def test_released_bandwidth_reassigned(self):
        # Short and long flow share a link: after the short one finishes,
        # the long one speeds up. 0.5 + ((2-1)/13.1GB remaining at full).
        topo = topo_4()
        flows = [
            (topo.path_from_dram(0), 0.5 * PCIE, 0),
            (topo.path_from_dram(1), 1.0 * PCIE, 0),
        ]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(1.0, rel=1e-6)
        assert done[1] == pytest.approx(1.5, rel=1e-6)

    def test_zero_byte_flow_completes_instantly(self):
        topo = topo_2_2()
        done = run_flows(topo, [(topo.path_from_dram(0), 0.0, 0)])
        assert done[0] == 0.0

    def test_empty_path_completes_instantly(self):
        done = run_flows(topo_2_2(), [((), 123.0, 0)])
        assert done[0] == 0.0

    def test_negative_bytes_rejected(self):
        topo = topo_2_2()
        network = FlowNetwork(Simulator(), topo)
        with pytest.raises(ValueError):
            network.start_flow(topo.path_from_dram(0), -1.0, lambda: None)

    def test_repeated_edge_rejected_at_the_call(self):
        # Accepted, the flow died in the event loop on a bare KeyError.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        with pytest.raises(ValueError, match=r"\('gpu0', 'sw0'\)"):
            network.start_flow(topo.path_to_dram(0) * 2, PCIE, lambda: None)
        assert not network.active_flows
        sim.run()

    def test_unknown_edge_rejected_at_the_call(self):
        # Accepted, the path raised only at the end-of-timestamp flush.
        sim = Simulator()
        network = FlowNetwork(sim, topo_2_2())
        with pytest.raises(KeyError, match="not part of topology"):
            network.start_flow((("gpu0", "dram"),), PCIE, lambda: None)
        assert not network.active_flows
        sim.run()

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_bytes_rejected_at_the_call(self, nbytes):
        # Accepted, these surfaced at flush time as a misleading deadlock.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        with pytest.raises(ValueError, match="finite"):
            network.start_flow(topo.path_from_dram(0), nbytes, lambda: None)
        assert not network.active_flows
        sim.run()

    def test_tiny_residue_terminates(self):
        # Regression: sub-byte float residues used to livelock the loop.
        topo = topo_4()
        flows = [
            (topo.path_from_dram(0), PCIE / 3.0, 0),
            (topo.path_from_dram(1), PCIE / 7.0, 0),
            (topo.path_from_dram(2), PCIE / 11.0, 0),
        ]
        done = run_flows(topo, flows)
        assert len(done) == 3


class TestPriorities:
    def test_high_priority_preempts(self):
        topo = topo_4()
        flows = [
            (topo.path_from_dram(0), PCIE, 1),
            (topo.path_from_dram(1), PCIE, 0),
        ]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(1.0, rel=1e-6)  # full bandwidth
        assert done[1] == pytest.approx(2.0, rel=1e-6)  # waits, then full

    def test_equal_priority_shares(self):
        topo = topo_4()
        flows = [(topo.path_from_dram(g), PCIE, 5) for g in (0, 1)]
        done = run_flows(topo, flows)
        assert done[0] == pytest.approx(2.0, rel=1e-6)

    def test_low_priority_uses_leftover(self):
        # High-priority flow only on one link; low-priority elsewhere runs
        # at full speed.
        topo = topo_2_2()
        flows = [
            (topo.path_from_dram(0), PCIE, 1),
            (topo.path_from_dram(2), PCIE, 0),
        ]
        done = run_flows(topo, flows)
        assert done[1] == pytest.approx(1.0, rel=1e-6)


class TestBandwidthScale:
    def test_persistent_scale_halves_rate(self):
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5)
        done = {}
        network.start_flow(
            topo.path_to_dram(0), PCIE, lambda: done.setdefault(0, sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(2.0, rel=1e-6)

    def test_windowed_scale_applies_and_clears(self):
        # Degraded at half bandwidth for [0, 1): after 1s the flow has moved
        # 0.5*PCIE bytes, the rest completes at full rate -> 1.5s total.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=0.0, end=1.0)
        done = {}
        network.start_flow(
            topo.path_to_dram(0), PCIE, lambda: done.setdefault(0, sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(1.5, rel=1e-6)

    def test_future_start_leaves_link_nominal_until_then(self):
        # Degradation starts at t=2.0, after the 1s flow already finished.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.25, start=2.0)
        done = {}
        network.start_flow(
            topo.path_to_dram(0), PCIE, lambda: done.setdefault(0, sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(1.0, rel=1e-6)

    def test_mid_flight_reallocation(self):
        # The link degrades while the flow is in flight: 0.5s at full rate
        # moves half the bytes, the other half at quarter rate takes 2s.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.25, start=0.5)
        done = {}
        network.start_flow(
            topo.path_to_dram(0), PCIE, lambda: done.setdefault(0, sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(2.5, rel=1e-6)

    def test_unknown_edge_rejected(self):
        network = FlowNetwork(Simulator(), topo_2_2())
        with pytest.raises(KeyError):
            network.set_bandwidth_scale(("gpu0", "dram"), 0.5)

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("inf"), float("nan")])
    def test_bad_factor_rejected(self, factor):
        network = FlowNetwork(Simulator(), topo_2_2())
        with pytest.raises(ValueError):
            network.set_bandwidth_scale(("sw0", "rc0"), factor)

    @pytest.mark.parametrize(
        "window", [(float("nan"), None), (None, float("nan")), (1.0, float("nan"))]
    )
    def test_nan_window_bound_rejected(self, window):
        # A NaN end used to be dropped silently, leaving the scale on forever.
        sim = Simulator()
        network = FlowNetwork(sim, topo_2_2())
        start, end = window
        with pytest.raises(ValueError, match="NaN"):
            network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=start, end=end)
        assert not sim._heap
        assert network.stats.scale_epochs == 0

    def test_empty_window_rejected(self):
        network = FlowNetwork(Simulator(), topo_2_2())
        with pytest.raises(ValueError):
            network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=2.0, end=2.0)

    def test_effective_bandwidth_reports_scale(self):
        topo = topo_2_2()
        network = FlowNetwork(Simulator(), topo)
        edge = ("sw0", "rc0")
        assert network.effective_bandwidth(edge) == topo.bandwidth_of(edge)
        network.set_bandwidth_scale(edge, 0.5)
        assert network.effective_bandwidth(edge) == pytest.approx(
            0.5 * topo.bandwidth_of(edge)
        )


class TestOverlappingScaleWindows:
    """Regression: windows used to occupy one scale slot per edge, so the
    earlier window's end event cleared the later window's factor too.
    Factors now stack multiplicatively and each window removes only its own.
    """

    def test_overlapping_windows_compose_and_outlive_each_other(self):
        # A: 0.5x on [0, 1); B: 0.5x on [0.5, 2).  One PCIE-sized flow:
        #   [0, 0.5)  0.5x   -> 0.25  of the bytes
        #   [0.5, 1)  0.25x  -> 0.125 (factors multiply while overlapped)
        #   [1, 2)    0.5x   -> 0.5   (A ended; B must survive its clear)
        #   remaining 0.125 at full rate -> done at t = 2.125.
        # Under the old bug A's end reset the link to nominal (1.625s).
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=0.0, end=1.0)
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=0.5, end=2.0)
        done = {}
        network.start_flow(
            topo.path_to_dram(0), PCIE, lambda: done.setdefault(0, sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(2.125, rel=1e-6)

    def test_nested_window_restores_outer_factor(self):
        # B: 0.5x on [1, 2) nested inside A: 0.5x on [0, 4).  When B ends
        # the link must return to A's factor, not to nominal.
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        edge = ("sw0", "rc0")
        nominal = topo.bandwidth_of(edge)
        network.set_bandwidth_scale(edge, 0.5, start=0.0, end=4.0)
        network.set_bandwidth_scale(edge, 0.5, start=1.0, end=2.0)
        probes = {}
        for at in (0.5, 1.5, 3.0, 5.0):
            sim.schedule_at(
                at,
                lambda at=at: probes.__setitem__(
                    at, network.effective_bandwidth(edge)
                ),
            )
        sim.run()
        assert probes[0.5] == pytest.approx(0.5 * nominal)
        assert probes[1.5] == pytest.approx(0.25 * nominal)
        assert probes[3.0] == pytest.approx(0.5 * nominal)
        assert probes[5.0] == pytest.approx(nominal)

    def test_overlapping_link_degradation_faults(self):
        # The same composition through faults.models.LinkDegradation, the
        # production producer of overlapping windows (chaos schedules).
        from repro.faults.models import FaultSchedule, LinkDegradation
        from repro.faults.recovery import FaultInjectingRunner

        topo = topo_2_2()
        schedule = FaultSchedule(
            0,
            (
                LinkDegradation(("sw0", "rc0"), 0.5, start=0.0, end=1.0),
                LinkDegradation(("sw0", "rc0"), 0.5, start=0.5, end=2.0),
            ),
        )
        runner = FaultInjectingRunner(topo, schedule)
        done = {}
        runner.network.start_flow(
            topo.path_to_dram(0),
            PCIE,
            lambda: done.setdefault(0, runner.sim.now),
        )
        runner.sim.run()
        assert done[0] == pytest.approx(2.125, rel=1e-6)


class TestRoutes:
    """Each distinct ``(path, priority)`` resolves once into a route."""

    def test_a_rejected_path_is_rejected_at_every_use(self):
        topo = topo_2_2()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        for _ in range(2):
            with pytest.raises(KeyError, match="not part of topology"):
                network.start_flow((("gpu0", "dram"),), PCIE, lambda: None)
            with pytest.raises(ValueError, match="more than once"):
                network.start_flow(topo.path_to_dram(0) * 2, PCIE, lambda: None)
        assert not network._routes
        assert not network.active_flows
        sim.run()

    def test_one_path_at_two_priorities_is_two_memo_classes(self):
        topo = topo_2_2()
        path = topo.path_to_dram(0)
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        low = network.start_flow(path, PCIE, lambda: None)
        high = network.start_flow(path, PCIE, lambda: None, priority=1)
        again = network.start_flow(tuple(path), PCIE, lambda: None, priority=1)
        assert low.class_id != high.class_id == again.class_id
        assert (low.eids, low.mask) == (high.eids, high.mask)
        assert sorted(network._routes) == [(path, 0), (path, 1)]
        assert list(network._class_counts) == [1, 2]
        sim.run(until=0.0)
        # The high-priority pair takes the link; the low flow waits.
        assert (low.rate, high.rate, again.rate) == (0.0, PCIE / 2, PCIE / 2)
        sim.run()
        assert list(network._class_counts) == [0, 0]


class RecordingNetwork(FlowNetwork):
    """Records the live flows and their rates after every flush."""

    def __init__(self, sim, topology):
        super().__init__(sim, topology)
        self.flushes = []

    def _reallocate(self):
        super()._reallocate()
        if self._flows:
            flows = list(self._flows.values())
            self.flushes.append((flows, [flow.rate for flow in flows]))


def fresh_rates(topology, flows):
    """The rates a new network fills for ``flows``' paths and priorities."""
    sim = Simulator()
    network = FlowNetwork(sim, topology)
    copies = [
        network.start_flow(flow.path, GB, lambda: None, priority=flow.priority)
        for flow in flows
    ]
    sim.run(until=0.0)  # the start's flush, before any completion
    assert network.stats.memo_hits == 0
    return [copy.rate for copy in copies]


class TestRateMemo:
    """A live ``(eids, priority)`` multiset filled before copies its rates."""

    def test_class_counts_past_one_byte_stay_exact(self):
        # 300 = 44 (mod 256): a one-byte counter would wrap and answer the
        # 300-flow set with the 44-flow set's rates.
        topo = topo_4()
        path, other = topo.path_to_dram(0), topo.path_to_dram(1)
        sim = Simulator()
        network = RecordingNetwork(sim, topo)
        done = []

        def cohort(count):
            for _ in range(count):
                network.start_flow(path, GB, lambda: done.append(sim.now))

        sim.schedule_at(0.0, lambda: cohort(44))
        sim.schedule_at(10.0, lambda: cohort(300))
        # One short flow beside the 300 leaves, and the 300-flow set recurs.
        sim.schedule_at(
            10.5, lambda: network.start_flow(other, 0.1 * GB, lambda: None)
        )
        sim.run()
        assert len(done) == 344
        assert network.stats.memo_hits == 1
        assert [len(flows) for flows, _ in network.flushes] == [44, 300, 301, 300]
        for flows, rates in network.flushes:
            assert rates == fresh_rates(topo, flows)
        assert network.flushes[1][1][0] == PCIE / 300

    def test_scale_window_refills_a_set_filled_before(self):
        topo = topo_2_2()
        edge = ("sw0", "rc0")
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        stats = network.stats

        def start_and_flush():
            flow = network.start_flow(topo.path_to_dram(0), PCIE, lambda: None)
            sim.run(until=sim.now)
            return flow

        assert start_and_flush().rate == PCIE
        sim.run()
        filled = stats.components_filled
        assert start_and_flush().rate == PCIE  # the same set: copied
        assert (stats.memo_hits, stats.components_filled) == (1, filled)
        sim.run()
        network.set_bandwidth_scale(edge, 0.5, start=sim.now + 1.0, end=sim.now + 5.0)
        sim.run(until=sim.now + 1.0)
        assert start_and_flush().rate == 0.5 * PCIE  # inside the window: refilled
        assert (stats.memo_hits, stats.components_filled) == (1, filled + 1)
        sim.run()
        assert network.effective_bandwidth(edge) == PCIE
        assert start_and_flush().rate == PCIE  # after the window: refilled
        assert (stats.memo_hits, stats.components_filled) == (1, filled + 2)

    def test_memo_lives_and_dies_with_its_network(self):
        def module_state():
            return {
                name: (id(value), len(value))
                for name, value in vars(resources).items()
                if isinstance(value, (dict, list, set))
            }

        before = module_state()
        names = set(vars(resources))
        topo = topo_4()
        sim = Simulator()
        network = FlowNetwork(sim, topo)
        for at in (0.0, 5.0, 10.0):
            for gpu in (0, 1):
                sim.schedule_at(
                    at + gpu,
                    lambda gpu=gpu: network.start_flow(
                        topo.path_to_dram(gpu), PCIE, lambda: None
                    ),
                )
        sim.run()
        assert network.stats.memo_hits > 0
        assert set(vars(resources)) == names
        assert module_state() == before
        network_ref = weakref.ref(network)
        entry_ref = weakref.ref(next(iter(network._rate_memo.values())))
        del network, sim
        gc.collect()
        assert network_ref() is None
        assert entry_ref() is None


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1e6, max_value=5e10), min_size=1, max_size=6
    ),
    gpus=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
)
def test_makespan_bounded_by_capacity(sizes, gpus):
    """Property: completion time is at least volume/capacity on the most
    loaded edge, and at most total volume over the slowest link (full
    serialisation)."""
    if len(sizes) != len(gpus):
        sizes = sizes[: len(gpus)]
        gpus = gpus[: len(sizes)]
    topo = topo_2_2()
    flows = [(topo.path_from_dram(g), s, 0) for g, s in zip(gpus, sizes)]
    done = run_flows(topo, flows)
    makespan = max(done.values())
    # Lower bound: most loaded directed edge.
    edge_load: dict = {}
    for path, nbytes, _ in flows:
        for edge in path:
            edge_load[edge] = edge_load.get(edge, 0.0) + nbytes
    lower = max(load / topo.bandwidth_of(edge) for edge, load in edge_load.items())
    upper = sum(sizes) / min(
        topo.path_bandwidth(topo.path_from_dram(g)) for g in set(gpus)
    )
    assert makespan >= lower * (1 - 1e-6)
    assert makespan <= upper * (1 + 1e-6) + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1e6, max_value=2e10), min_size=1, max_size=5),
    priorities=st.lists(st.integers(min_value=-1, max_value=2), min_size=1, max_size=5),
)
def test_all_flows_complete_regardless_of_priorities(sizes, priorities):
    """Property: every flow eventually completes (no starvation), even with
    arbitrary priority mixes, and completion order respects work ordering
    on a single shared link."""
    k = min(len(sizes), len(priorities))
    topo = topo_4()
    flows = [
        (topo.path_from_dram(i % 4), sizes[i], priorities[i]) for i in range(k)
    ]
    done = run_flows(topo, flows)
    assert len(done) == k
    assert all(t > 0 or sizes[i] == 0 for i, t in done.items())
