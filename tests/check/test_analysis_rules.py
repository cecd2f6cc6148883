"""MOB004-MOB007 rule behavior over fixture programs."""

import textwrap

from repro.check.analysis.program import Program
from repro.check.analysis.rules import AnalysisConfig, analyze_program


def _analyze(config: AnalysisConfig | None = None, **files: str):
    sources = {
        path.replace("__", "/") + ".py": textwrap.dedent(text)
        for path, text in files.items()
    }
    program = Program.from_sources(sources)
    return analyze_program(program, config or AnalysisConfig())


def _codes(report):
    return [f.code for f in report]


class TestMob004:
    def test_clock_in_out_of_prefix_helper_reachable_from_sim_hot_path(self):
        """No path prefix and no caller decides the scope: a wall-clock read
        in ``repro/analysis/`` is flagged whether or not ``Simulator.run``
        calls it, and the finding names the function that reads it."""
        helper_source = textwrap.dedent(
            """
            import time

            def estimate_budget(n):
                return time.time() + n
            """
        )
        report = _analyze(
            src__repro__sim__engine="""
            from repro.analysis.helpers import estimate_budget

            class Simulator:
                def run(self):
                    estimate_budget(4)
            """,
            src__repro__analysis__helpers=helper_source,
        )
        mob004 = [f for f in report if f.code == "MOB004"]
        assert len(mob004) == 1
        finding = mob004[0]
        assert finding.subject.startswith("src/repro/analysis/helpers.py:")
        assert finding.symbol == "repro.analysis.helpers.estimate_budget"
        assert "wall-clock read time.time in " in finding.message
        assert "repro.analysis.helpers.estimate_budget" in finding.message

        alone = _analyze(src__repro__analysis__helpers=helper_source)
        assert [f.subject for f in alone] == [finding.subject]

    def test_clock_in_uncalled_function_is_flagged(self):
        report = _analyze(
            src__repro__sim__engine="""
            class Simulator:
                def run(self):
                    pass
            """,
            src__repro__analysis__helpers="""
            import time

            def cold_report():
                return time.time()
            """,
        )
        assert _codes(report) == ["MOB004"]
        assert report.findings[0].symbol == "repro.analysis.helpers.cold_report"

    def test_clock_allowlist_site_is_honored(self):
        report = _analyze(
            src__repro__serve__daemon="""
            from repro.core.partition import mip_partition

            class PlanService:
                def _answer(self):
                    return mip_partition()
            """,
            src__repro__core__partition="""
            import time

            def mip_partition():
                return time.perf_counter()
            """,
        )
        assert "MOB004" not in _codes(report)

    def test_wall_clock_in_allowlisted_function_is_flagged(self):
        # The allowlist admits monotonic clocks only.
        report = _analyze(
            src__repro__core__partition="""
            import time

            def mip_partition():
                started = time.perf_counter()
                return time.time() - started
            """,
        )
        mob004 = [f for f in report if f.code == "MOB004"]
        assert [f.subject for f in mob004] == ["src/repro/core/partition.py:6"]
        assert "time.time" in mob004[0].message

    def test_module_alias_is_resolved(self):
        report = _analyze(
            src__repro__sim__pacing="""
            import time as t

            def pace():
                return t.time()
            """,
        )
        assert _codes(report) == ["MOB004"]

    def test_numpy_random_module_alias_is_resolved(self):
        report = _analyze(
            src__repro__faults__coins="""
            import numpy.random as npr

            def flip():
                return npr.rand() < 0.5
            """,
        )
        assert _codes(report) == ["MOB004"]
        assert "numpy.random.rand" in report.findings[0].message

    def test_function_local_import_is_resolved(self):
        report = _analyze(
            src__repro__core__budget="""
            def deadline(seconds):
                from time import time as now

                return now() + seconds
            """,
        )
        assert _codes(report) == ["MOB004"]

    def test_baseline_builder_reached_from_cell_worker(self):
        report = _analyze(
            src__repro__experiments__schedule="""
            from repro.baselines.gpipe import build_gpipe_tasks

            def _cell_worker(cell):
                return build_gpipe_tasks(cell)
            """,
            src__repro__baselines__gpipe="""
            import random

            def build_gpipe_tasks(cell):
                return random.random()
            """,
        )
        mob004 = [f for f in report if f.code == "MOB004"]
        assert len(mob004) == 1
        assert mob004[0].symbol == "repro.baselines.gpipe.build_gpipe_tasks"
        assert "random.random draw in repro.baselines.gpipe" in mob004[0].message

    def test_import_time_code_of_a_root_is_checked(self):
        report = _analyze(
            src__repro__sim__config="""
            import random

            SEED = random.randint(0, 9)
            """,
        )
        assert [f.subject for f in report] == ["src/repro/sim/config.py:4"]

    def test_nested_class_method_is_checked(self):
        report = _analyze(
            src__repro__sim__nested="""
            import time

            class A:
                class B:
                    def f(self):
                        return time.time()
            """,
        )
        assert [f.subject for f in report] == ["src/repro/sim/nested.py:7"]
        assert "A.B.f" in report.findings[0].message

    def test_rng_draw_on_hot_path_is_flagged(self):
        report = _analyze(
            src__repro__sim__engine="""
            import numpy as np

            class Simulator:
                def run(self):
                    return np.random.random()
            """,
        )
        assert _codes(report).count("MOB004") == 1

    def test_callback_registered_at_seam_is_reachable(self):
        report = _analyze(
            src__repro__sim__engine="""
            from repro.perf.metrics import stamp

            class Simulator:
                def run(self):
                    self.schedule_call(1.0, stamp)

                def schedule_call(self, when, fn):
                    pass
            """,
            src__repro__perf__metrics="""
            import time

            def stamp():
                return time.monotonic()
            """,
        )
        mob004 = [f for f in report if f.code == "MOB004"]
        assert len(mob004) == 1
        assert mob004[0].symbol == "repro.perf.metrics.stamp"

    def test_end_of_timestamp_hook_is_a_seam(self):
        """A hook the event loop calls through no call edge is checked
        like every other function."""
        report = _analyze(
            src__repro__sim__engine="""
            class Simulator:
                def run(self):
                    pass

                def at_timestamp_end(self, fn):
                    pass
            """,
            src__repro__sim__resources="""
            import time

            class FlowNetwork:
                def start_flow(self, sim):
                    sim.at_timestamp_end(self._flush)

                def _flush(self):
                    return time.perf_counter()
            """,
        )
        mob004 = [f for f in report if f.code == "MOB004"]
        assert len(mob004) == 1
        assert mob004[0].symbol == "repro.sim.resources.FlowNetwork._flush"


class TestMob005:
    def test_set_iteration_feeding_heappush_is_flagged(self):
        report = _analyze(
            src__repro__sim__engine="""
            import heapq

            class Simulator:
                def run(self):
                    heap = []
                    ready = set()
                    for item in ready:
                        heapq.heappush(heap, item)
            """,
        )
        mob005 = [f for f in report if f.code == "MOB005"]
        assert len(mob005) == 1
        assert "sorted" in mob005[0].message

    def test_sorted_wrapper_resolves_the_hazard(self):
        report = _analyze(
            src__repro__sim__engine="""
            import heapq

            class Simulator:
                def run(self):
                    heap = []
                    ready = set()
                    for item in sorted(ready):
                        heapq.heappush(heap, item)
            """,
        )
        assert "MOB005" not in _codes(report)

    def test_set_typed_instance_attribute_iteration_is_flagged(self):
        report = _analyze(
            src__repro__sim__engine="""
            class Simulator:
                def __init__(self):
                    self._frontier = set()

                def run(self):
                    out = []
                    for item in self._frontier:
                        out.append(item)
            """,
        )
        assert _codes(report).count("MOB005") == 1

    def test_membership_only_set_use_is_fine(self):
        report = _analyze(
            src__repro__sim__engine="""
            class Simulator:
                def run(self):
                    seen = set()
                    for item in seen:
                        if item:
                            continue
            """,
        )
        assert "MOB005" not in _codes(report)

    def test_set_iteration_outside_old_roots_is_flagged(self):
        report = _analyze(
            src__repro__experiments__report="""
            def summarize():
                out = []
                names = set()
                for name in names:
                    out.append(name)
            """,
        )
        assert _codes(report) == ["MOB005"]


class TestMob006:
    def test_attribute_write_after_fingerprint_is_flagged(self):
        report = _analyze(
            src__repro__core__plan="""
            from repro.perf.fingerprint import fingerprint

            def seal(plan):
                digest = fingerprint(plan)
                plan.digest = digest
                return plan
            """,
        )
        mob006 = [f for f in report if f.code == "MOB006"]
        assert len(mob006) == 1
        assert mob006[0].symbol == "repro.core.plan.seal"

    def test_write_before_fingerprint_is_fine(self):
        report = _analyze(
            src__repro__core__plan="""
            from repro.perf.fingerprint import fingerprint

            def seal(plan):
                plan.stage = 3
                return fingerprint(plan)
            """,
        )
        assert "MOB006" not in _codes(report)

    def test_write_to_unhashed_object_is_fine(self):
        report = _analyze(
            src__repro__core__plan="""
            from repro.perf.fingerprint import fingerprint

            def seal(plan, other):
                digest = fingerprint(plan)
                other.digest = digest
            """,
        )
        assert "MOB006" not in _codes(report)


class TestMob007:
    def test_global_write_from_worker_frontier_is_flagged(self):
        report = _analyze(
            src__repro__experiments__schedule="""
            from repro.perf.cache import configure

            def _cell_worker(config):
                configure(config)
            """,
            src__repro__perf__cache="""
            _cache = {}

            def configure(config):
                global _cache
                _cache = dict(config)
            """,
        )
        mob007 = [f for f in report if f.code == "MOB007"]
        assert len(mob007) == 1
        assert mob007[0].symbol == "repro.perf.cache.configure"
        assert "rebind of module-level mutable '_cache' in repro.perf.cache" in (
            mob007[0].message
        )

    def test_global_write_no_worker_reaches_is_flagged(self):
        report = _analyze(
            src__repro__analysis__registry="""
            _seen = []

            def remember(name):
                _seen.append(name)
            """,
        )
        mob007 = [f for f in report if f.code == "MOB007"]
        assert [f.subject for f in mob007] == ["src/repro/analysis/registry.py:5"]
        assert "mutating .append() on" in mob007[0].message

    def test_sync_seam_write_is_sanctioned(self):
        config = AnalysisConfig(
            sync_seams=frozenset({"repro.perf.cache.configure"})
        )
        report = _analyze(
            config,
            src__repro__experiments__schedule="""
            from repro.perf.cache import configure

            def _cell_worker(config):
                configure(config)
            """,
            src__repro__perf__cache="""
            _cache = {}

            def configure(config):
                global _cache
                _cache = dict(config)
            """,
        )
        assert "MOB007" not in _codes(report)

    def test_next_on_shared_counter_is_a_write(self):
        report = _analyze(
            src__repro__sim__tasks="""
            import itertools

            _uids = itertools.count()

            class Task:
                def __post_init__(self):
                    self.uid = next(_uids)
            """,
            src__repro__experiments__schedule="""
            from repro.sim.tasks import Task

            def _cell_worker(task):
                return Task()
            """,
        )
        mob007 = [f for f in report if f.code == "MOB007"]
        assert len(mob007) == 1
        assert "next() on shared counter" in mob007[0].message

    def test_reads_and_local_shadows_are_fine(self):
        report = _analyze(
            src__repro__perf__cache="""
            _cache = {}

            def lookup(key):
                return _cache.get(key)

            def local_shadow():
                _cache = {}
                _cache["x"] = 1
            """,
            src__repro__experiments__schedule="""
            from repro.perf.cache import lookup, local_shadow

            def _cell_worker(config):
                lookup(config)
                local_shadow()
            """,
        )
        assert "MOB007" not in _codes(report)
