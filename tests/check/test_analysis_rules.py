"""MOB004-MOB007 rule behavior over fixture programs."""

import textwrap

from repro.check.analysis.program import Program
from repro.check.analysis.rules import AnalysisConfig, analyze_program
from repro.check.lint import lint_source


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
        """The acceptance fixture: reachability beats prefix matching.

        A wall-clock read lives in ``repro/analysis/`` — a path MOB002
        never looks at — but ``Simulator.run`` calls it, so MOB004 fires.
        """
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
        assert "Simulator.run" in finding.message

        # The old prefix-scoped MOB002 pass is blind to this file.
        prefix_report = lint_source(
            helper_source, "src/repro/analysis/helpers.py"
        )
        assert "MOB002" not in _codes(prefix_report)

    def test_unreachable_clock_is_not_flagged(self):
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
        assert "MOB004" not in _codes(report)

    def test_clock_allowlist_site_is_honored(self):
        report = _analyze(
            src__repro__serve__daemon="""
            from repro.core.mapping import cross_mapping

            class PlanService:
                def _answer(self):
                    return cross_mapping()
            """,
            src__repro__core__mapping="""
            import time

            def cross_mapping():
                return time.perf_counter()
            """,
        )
        assert "MOB004" not in _codes(report)

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
        """The event loop calls end-of-timestamp hooks indirectly."""
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

    def test_cold_path_set_iteration_is_not_flagged(self):
        report = _analyze(
            src__repro__experiments__report="""
            def summarize():
                out = []
                names = set()
                for name in names:
                    out.append(name)
            """,
        )
        assert "MOB005" not in _codes(report)


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

            def _worker_init(config):
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
        assert "_worker_init" in mob007[0].message

    def test_sync_seam_write_is_sanctioned(self):
        config = AnalysisConfig(
            sync_seams=frozenset({"repro.perf.cache.configure"})
        )
        report = _analyze(
            config,
            src__repro__experiments__schedule="""
            from repro.perf.cache import configure

            def _worker_init(config):
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

    def test_registry_touching_function_joins_the_frontier(self):
        report = _analyze(
            AnalysisConfig(race_registries=("repro.core.api._REGISTRY",)),
            src__repro__core__api="""
            _REGISTRY = {}

            def plan(key, value):
                _REGISTRY[key] = value
            """,
        )
        mob007 = [f for f in report if f.code == "MOB007"]
        assert len(mob007) == 1
        assert mob007[0].symbol == "repro.core.api.plan"

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

            def _worker_init(config):
                lookup(config)
                local_shadow()
            """,
        )
        assert "MOB007" not in _codes(report)
