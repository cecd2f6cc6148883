"""Tests for the MOB003 task-label rule and for the clock and RNG
fixtures MOB004 checks over one-module programs, wherever they sit."""

from __future__ import annotations

import functools
import textwrap
from pathlib import Path

from repro.check.analysis import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    Program,
    analyze_program,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _codes(report):
    return [f.code for f in report]


def _lint(
    source: str, rel_path: str, config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG
):
    """Every MOB rule over a program made of this one module."""
    program = Program.from_sources({rel_path: textwrap.dedent(source)})
    return analyze_program(program, config)


@functools.lru_cache(maxsize=1)
def _repo_report():
    return analyze_program(Program.from_tree(REPO_ROOT))


def _assert_real_module_clean(rel: str) -> None:
    findings = [f for f in _repo_report() if f.subject.startswith(f"{rel}:")]
    assert not findings, "\n".join(f.render() for f in findings)


# A planner module: cached plans must not depend on a clock.
HOT_MODULE = "src/repro/core/synthetic.py"
# The one file MOB003 checks: the Mobius pipeline emitter.
LABEL_MODULE = "src/repro/core/pipeline.py"


class TestMob004HotPathDeterminism:
    """Clock reads and process-global RNG draws."""

    def test_wall_clock_call_flagged(self):
        report = _lint(
            """
            import time

            def now():
                return time.time()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004"]

    def test_perf_counter_flagged_outside_allowlist(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004"]

    def test_from_time_import_time_flagged(self):
        report = _lint(
            """
            from time import time

            def now():
                return time()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004"]

    def test_random_import_flagged(self):
        imported = """
            import random

            def pick(xs):
                return random.choice(xs)
            """
        from_imported = """
            from random import choice

            def pick(xs):
                return choice(xs)
            """
        assert _codes(_lint(imported, HOT_MODULE)) == ["MOB004"]
        assert _codes(_lint(from_imported, HOT_MODULE)) == ["MOB004"]

    def test_legacy_numpy_random_flagged(self):
        report = _lint(
            """
            import numpy as np

            def jitter():
                np.random.seed(0)
                return np.random.rand(3)
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004", "MOB004"]

    def test_numpy_random_distributions_flagged(self):
        report = _lint(
            """
            import numpy as np

            def arrivals():
                return np.random.exponential(1.0) + np.random.poisson(3)
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004", "MOB004"]
        assert "numpy.random.exponential" in report.findings[0].message
        assert "numpy.random.poisson" in report.findings[1].message

    def test_numpy_random_global_state_read_flagged(self):
        report = _lint(
            """
            from numpy.random import get_state

            def snapshot():
                return get_state()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004"]
        assert "numpy.random.get_state" in report.findings[0].message

    def test_unseeded_generator_constructor_flagged(self):
        report = _lint(
            """
            import numpy as np
            from numpy.random import SeedSequence

            def fresh():
                return np.random.default_rng(), SeedSequence()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004", "MOB004"]
        assert "numpy.random.default_rng() seeded from OS entropy" in (
            report.findings[0].message
        )
        assert "numpy.random.SeedSequence()" in report.findings[1].message

    def test_seeded_constructors_allowed(self):
        report = _lint(
            """
            import numpy as np

            def seeded(seed: int) -> np.random.Generator:
                state = np.random.RandomState(seed)
                bits = np.random.PCG64(np.random.SeedSequence(seed))
                return np.random.Generator(bits), state
            """,
            HOT_MODULE,
        )
        assert not report.findings

    def test_default_rng_allowed(self):
        report = _lint(
            """
            import numpy as np

            def jitter():
                return np.random.default_rng(0).random(3)
            """,
            HOT_MODULE,
        )
        assert not report.findings

    def test_datetime_now_flagged(self):
        report = _lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB004"]

    def test_import_time_clock_is_flagged(self):
        report = _lint("import time\nt = time.time()\n", "src/repro/experiments/x.py")
        assert [f.subject for f in report] == ["src/repro/experiments/x.py:2"]
        assert report.findings[0].symbol == "repro.experiments.x.<module>"


class TestMob004StrictClock:
    """Monotonic clocks are banned too, outside allowlisted functions, so
    fault injection stays clock-free and simulator results
    virtual-clock-only."""

    FAULTS_MODULE = "src/repro/faults/some_module.py"
    SIM_MODULE = "src/repro/sim/some_module.py"

    def test_perf_counter_flagged_in_solver(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            self.FAULTS_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_monotonic_flagged_in_solver(self):
        report = _lint(
            """
            import time

            def tick():
                return time.monotonic()
            """,
            self.FAULTS_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_from_time_import_flagged(self):
        report = _lint(
            """
            from time import perf_counter

            def tick():
                return perf_counter()
            """,
            self.FAULTS_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_allowlisted_site_passes(self):
        config = AnalysisConfig(
            clock_allowlist=frozenset({"src/repro/sim/bench.py::_corpus_rows"})
        )
        report = _lint(
            """
            import time

            def _corpus_rows():
                started = time.perf_counter()
                return time.perf_counter() - started
            """,
            "src/repro/sim/bench.py",
            config,
        )
        assert not report.findings

    def test_other_method_in_allowlisted_file_flagged(self):
        report = _lint(
            """
            import time

            class Rows:
                def _run_corpus_rows(self):
                    return time.perf_counter()
            """,
            "src/repro/sim/bench.py",
        )
        assert "MOB004" in _codes(report)

    def test_perf_counter_flagged_in_sim(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            self.SIM_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_sim_bench_has_no_clock_sites(self):
        # Bench walls go through repro.perf.bench.Stopwatch, so no sim/
        # function may read a clock, and the real bench module is clean.
        assert not [
            site
            for site in DEFAULT_ANALYSIS_CONFIG.clock_allowlist
            if site.startswith("src/repro/sim/")
        ]
        _assert_real_module_clean("src/repro/sim/bench.py")

    def test_dispatch_and_streaming_modules_stay_clock_free(self):
        # The batched-dispatch / columnar-streaming hot paths (DESIGN.md
        # §12) must never read a clock: the bench fingerprints are pinned
        # across machines.  Nor may the cross-mapping search, whose result
        # every cached plan holds.  Lint the real modules, not fixtures.
        for rel in (
            "src/repro/core/mapping.py",
            "src/repro/sim/engine.py",
            "src/repro/sim/trace.py",
            "src/repro/sim/resources.py",
        ):
            _assert_real_module_clean(rel)

    def test_other_function_in_sim_bench_flagged(self):
        report = _lint(
            """
            import time

            def run_bench():
                return time.perf_counter()
            """,
            "src/repro/sim/bench.py",
        )
        assert "MOB004" in _codes(report)

    def test_perf_counter_flagged_in_core(self):
        # No directory-wide exemption: core/ is held to monotonic clocks
        # too, outside the allowlisted functions.
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            "src/repro/core/some_module.py",
        )
        assert _codes(report) == ["MOB004"]


class TestMob004ServeClockDiscipline:
    """Serve deadlines are node budgets, and no serve function reads a
    clock."""

    SERVE_MODULE = "src/repro/serve/some_module.py"

    def test_perf_counter_flagged_in_serve(self):
        report = _lint(
            """
            import time

            def deadline_left(t0):
                return time.perf_counter() - t0
            """,
            self.SERVE_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_wall_clock_flagged_in_serve(self):
        report = _lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            self.SERVE_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_serve_bench_has_no_clock_sites(self):
        # Serve bench walls go through repro.perf.bench.Stopwatch too.
        assert not [
            site
            for site in DEFAULT_ANALYSIS_CONFIG.clock_allowlist
            if site.startswith("src/repro/serve/")
        ]
        _assert_real_module_clean("src/repro/serve/bench.py")

    def test_other_function_in_serve_bench_flagged(self):
        report = _lint(
            """
            import time

            def run_bench():
                return time.perf_counter()
            """,
            "src/repro/serve/bench.py",
        )
        assert "MOB004" in _codes(report)

    def test_real_serve_modules_are_clean(self):
        for rel in (
            "src/repro/serve/requests.py",
            "src/repro/serve/admission.py",
            "src/repro/serve/supervisor.py",
            "src/repro/serve/daemon.py",
            "src/repro/serve/store.py",
            "src/repro/serve/chaos.py",
            "src/repro/serve/bench.py",
        ):
            _assert_real_module_clean(rel)


class TestMob004DurableStore:
    """The result cache and its durable store read no clock."""

    STORE_MODULE = "src/repro/perf/store.py"

    def test_perf_counter_flagged_in_store(self):
        report = _lint(
            """
            import time

            def retry_deadline(t0):
                return time.perf_counter() - t0
            """,
            self.STORE_MODULE,
        )
        assert "MOB004" in _codes(report)

    def test_clock_in_cache_is_flagged(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            "src/repro/perf/cache.py",
        )
        assert _codes(report) == ["MOB004"]

    def test_real_store_module_is_clean_and_linted_by_tree(self, tmp_path):
        _assert_real_module_clean(self.STORE_MODULE)
        module = tmp_path / self.STORE_MODULE
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert "MOB004" in _codes(run_lint(tmp_path))


class TestMob003TaskLabels:
    def test_helper_constructor_passes(self):
        report = _lint(
            """
            from repro.core.labels import compute_label
            from repro.sim.tasks import TaskTable

            task = TaskTable().compute(0, 1.0, label=compute_label("F", 0, 1))
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_module_qualified_helper_passes(self):
        report = _lint(
            """
            import repro.core.labels as labels
            from repro.sim.tasks import TaskTable

            task = TaskTable().compute(0, 1.0, labels.compute_label("F", 0, 1))
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_contract_matching_literal_passes(self):
        report = _lint(
            """
            from repro.sim.tasks import TaskTable

            task = TaskTable().compute(0, 1.0, label="F0,1")
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_ad_hoc_literal_flagged(self):
        report = _lint(
            """
            from repro.sim.tasks import TaskTable

            task = TaskTable().compute(0, 1.0, label="fwd-stage-0-mb-1")
            """,
            LABEL_MODULE,
        )
        assert _codes(report) == ["MOB003"]

    def test_ad_hoc_fstring_flagged(self):
        report = _lint(
            """
            def emit(table, path, j, kind):
                return table.transfer(path, 1.0, 0, kind, 0, f"Ub{j}.pre.{kind}")
            """,
            LABEL_MODULE,
        )
        # The anchored contract cannot verify the kind placeholder, so the
        # f-string skeleton fails and authors are pushed to the helpers.
        assert _codes(report) == ["MOB003"]

    def test_fstring_with_blessed_skeleton_passes(self):
        report = _lint(
            """
            def emit(table, j, mb):
                return table.compute(0, 1.0, label=f"F{j},{mb}")
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_dynamic_expression_is_warning(self):
        report = _lint(
            """
            def emit(table, name):
                return table.barrier(name.upper())
            """,
            LABEL_MODULE,
        )
        assert _codes(report) == ["MOB003"]
        assert report.findings[0].severity == "warning"
        assert report.ok  # warnings do not fail the gate

    def test_rule_scoped_to_pipeline_module(self):
        report = _lint(
            """
            from repro.sim.tasks import TaskTable

            task = TaskTable().compute(0, 1.0, label="whatever")
            """,
            "src/repro/baselines/gpipe.py",
        )
        assert not report.findings


class TestInfrastructure:
    def test_syntax_error_reported_not_raised(self):
        report = _lint("def broken(:\n", HOT_MODULE)
        assert _codes(report) == ["MOB000"]

    def test_lint_tree_on_repo_is_clean(self):
        report = run_lint(REPO_ROOT)
        assert report.ok, report.render()
