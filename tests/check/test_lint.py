"""Tests for the MOB0xx AST lint rules (repro.check.lint)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.check.lint import DEFAULT_CONFIG, LintConfig, lint_source, lint_tree


def _codes(report):
    return [f.code for f in report]


def _lint(source: str, rel_path: str, config: LintConfig = DEFAULT_CONFIG):
    return lint_source(textwrap.dedent(source), rel_path, config)


FINGERPRINT_MODULE = DEFAULT_CONFIG.fingerprint_modules[0]
# A hot-path (MOB002) module that is not also strict-clock scoped.
HOT_MODULE = "src/repro/core/synthetic.py"
LABEL_MODULE = DEFAULT_CONFIG.label_modules[0]


class TestMob001FrozenDataclasses:
    def test_frozen_dataclass_passes(self):
        report = _lint(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Plan:
                x: int = 0
            """,
            FINGERPRINT_MODULE,
        )
        assert not [f for f in report if f.code == "MOB001"]

    def test_mutable_dataclass_flagged(self):
        report = _lint(
            """
            import dataclasses

            @dataclasses.dataclass
            class Plan:
                x: int = 0
            """,
            FINGERPRINT_MODULE,
        )
        assert _codes(report) == ["MOB001"]
        assert f"{FINGERPRINT_MODULE}:" in report.findings[0].subject

    def test_bare_decorator_name_flagged(self):
        report = _lint(
            """
            from dataclasses import dataclass

            @dataclass(order=True)
            class Plan:
                x: int = 0
            """,
            FINGERPRINT_MODULE,
        )
        assert _codes(report) == ["MOB001"]

    def test_allowlisted_mutable_passes(self):
        report = _lint(
            """
            import dataclasses

            @dataclasses.dataclass
            class MobiusPlanReport:
                x: int = 0
            """,
            "src/repro/core/api.py",
        )
        assert not [f for f in report if f.code == "MOB001"]

    def test_rule_scoped_to_fingerprint_modules(self):
        report = _lint(
            """
            import dataclasses

            @dataclasses.dataclass
            class Whatever:
                x: int = 0
            """,
            "src/repro/experiments/runner.py",
        )
        assert not report.findings

    def test_real_fingerprint_modules_are_clean(self):
        root = Path(__file__).resolve().parents[2]
        report = lint_tree(root)
        assert report.ok, report.render()


class TestMob002HotPathDeterminism:
    def test_wall_clock_call_flagged(self):
        report = _lint(
            """
            import time

            def now():
                return time.time()
            """,
            HOT_MODULE,
        )
        assert _codes(report) == ["MOB002"]

    def test_perf_counter_allowed(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            HOT_MODULE,
        )
        assert not report.findings

    def test_from_time_import_time_flagged(self):
        report = _lint("from time import time\n", HOT_MODULE)
        assert _codes(report) == ["MOB002"]

    def test_random_import_flagged(self):
        assert _codes(_lint("import random\n", HOT_MODULE)) == ["MOB002"]
        assert _codes(_lint("from random import choice\n", HOT_MODULE)) == ["MOB002"]

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
        assert _codes(report) == ["MOB002", "MOB002"]

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
        assert _codes(report) == ["MOB002"]

    def test_rule_scoped_to_hot_paths(self):
        report = _lint("import time\nt = time.time()\n", "src/repro/experiments/x.py")
        assert not report.findings


class TestMob002StrictClock:
    """The strict variant over ``solver/`` and ``sim/``: even monotonic
    clocks are banned outside allowlisted sites, so the literal-MIP oracle
    stays clock-free and simulator results virtual-clock-only."""

    SOLVER_MODULE = "src/repro/solver/some_module.py"
    SIM_MODULE = "src/repro/sim/some_module.py"

    def test_perf_counter_flagged_in_solver(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            self.SOLVER_MODULE,
        )
        assert "MOB002" in _codes(report)

    def test_monotonic_flagged_in_solver(self):
        report = _lint(
            """
            import time

            def tick():
                return time.monotonic()
            """,
            self.SOLVER_MODULE,
        )
        assert "MOB002" in _codes(report)

    def test_from_time_import_flagged(self):
        report = _lint(
            "from time import perf_counter\n", self.SOLVER_MODULE
        )
        assert "MOB002" in _codes(report)

    def test_allowlisted_site_passes(self):
        # A sanctioned clock site: simbench's wall-time column.
        report = _lint(
            """
            import time

            def _run_corpus_rows():
                started = time.perf_counter()
                return time.perf_counter() - started
            """,
            "src/repro/sim/bench.py",
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
        assert "MOB002" in _codes(report)

    def test_perf_counter_flagged_in_sim(self):
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            self.SIM_MODULE,
        )
        assert "MOB002" in _codes(report)

    def test_sim_bench_reporting_sites_allowlisted(self):
        # The simbench wall-time columns are reporting-only by contract;
        # its three row builders are the sanctioned sim/ clock sites.
        report = _lint(
            """
            import time

            def _run_corpus_rows():
                started = time.perf_counter()
                return time.perf_counter() - started

            def _run_chaos_rows():
                return time.perf_counter()

            def _run_large_rows():
                return time.perf_counter()
            """,
            "src/repro/sim/bench.py",
        )
        assert not report.findings

    def test_dispatch_and_streaming_modules_stay_clock_free(self):
        # The batched-dispatch / columnar-streaming hot paths (DESIGN.md
        # §12) must never read a clock: the large-bench fingerprints are
        # pinned across machines.  Lint the real modules, not fixtures.
        root = Path(__file__).resolve().parents[2]
        for rel in (
            "src/repro/sim/engine.py",
            "src/repro/sim/trace.py",
            "src/repro/sim/workloads.py",
            "src/repro/sim/resources.py",
        ):
            source = (root / rel).read_text()
            report = lint_source(source, rel)
            assert report.ok, f"{rel}:\n{report.render()}"

    def test_other_function_in_sim_bench_flagged(self):
        report = _lint(
            """
            import time

            def run_bench():
                return time.perf_counter()
            """,
            "src/repro/sim/bench.py",
        )
        assert "MOB002" in _codes(report)

    def test_strict_rule_scoped_to_strict_prefixes(self):
        # perf_counter stays legal in ordinary hot paths (core/).
        report = _lint(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """,
            "src/repro/core/some_module.py",
        )
        assert not report.findings


class TestMob002ServeClockDiscipline:
    """The serve layer is strict-clock scoped: deadlines are node budgets,
    and the only sanctioned wall-clock site is the servebench phase
    bracketing (reporting-only by contract)."""

    SERVE_MODULE = "src/repro/serve/some_module.py"

    def test_serve_prefix_is_strict_scoped(self):
        assert "src/repro/serve/" in DEFAULT_CONFIG.strict_clock_prefixes
        assert "src/repro/serve/" in DEFAULT_CONFIG.hot_path_prefixes

    def test_perf_counter_flagged_in_serve(self):
        report = _lint(
            """
            import time

            def deadline_left(t0):
                return time.perf_counter() - t0
            """,
            self.SERVE_MODULE,
        )
        assert "MOB002" in _codes(report)

    def test_wall_clock_flagged_in_serve(self):
        report = _lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            self.SERVE_MODULE,
        )
        assert "MOB002" in _codes(report)

    def test_servebench_reporting_site_allowlisted(self):
        report = _lint(
            """
            import time

            def _run_throughput_rows(workdir):
                started = time.perf_counter()
                return time.perf_counter() - started
            """,
            "src/repro/serve/bench.py",
        )
        assert not report.findings

    def test_other_function_in_serve_bench_flagged(self):
        report = _lint(
            """
            import time

            def run_bench():
                return time.perf_counter()
            """,
            "src/repro/serve/bench.py",
        )
        assert "MOB002" in _codes(report)

    def test_serve_requests_is_fingerprint_scoped(self):
        # PlanRequest/PlanResponse/Deadline are content-addressed payloads:
        # mutable dataclasses there would break solve-key stability.
        assert "src/repro/serve/requests.py" in DEFAULT_CONFIG.fingerprint_modules
        report = _lint(
            """
            import dataclasses

            @dataclasses.dataclass
            class PlanRequest:
                tenant: str = "default"
            """,
            "src/repro/serve/requests.py",
        )
        assert _codes(report) == ["MOB001"]

    def test_real_serve_modules_are_clean(self):
        root = Path(__file__).resolve().parents[2]
        for rel in (
            "src/repro/serve/requests.py",
            "src/repro/serve/admission.py",
            "src/repro/serve/supervisor.py",
            "src/repro/serve/daemon.py",
            "src/repro/serve/store.py",
            "src/repro/serve/chaos.py",
            "src/repro/serve/bench.py",
        ):
            source = (root / rel).read_text()
            report = lint_source(source, rel)
            assert report.ok, f"{rel}:\n{report.render()}"


class TestMob003TaskLabels:
    def test_helper_constructor_passes(self):
        report = _lint(
            """
            from repro.core.labels import compute_label
            from repro.sim.tasks import ComputeTask

            task = ComputeTask(label=compute_label("F", 0, 1), gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_module_qualified_helper_passes(self):
        report = _lint(
            """
            import repro.core.labels as labels
            from repro.sim.tasks import ComputeTask

            task = ComputeTask(label=labels.compute_label("F", 0, 1), gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_contract_matching_literal_passes(self):
        report = _lint(
            """
            from repro.sim.tasks import ComputeTask

            task = ComputeTask(label="F0,1", gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_ad_hoc_literal_flagged(self):
        report = _lint(
            """
            from repro.sim.tasks import ComputeTask

            task = ComputeTask(label="fwd-stage-0-mb-1", gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert _codes(report) == ["MOB003"]

    def test_ad_hoc_fstring_flagged(self):
        report = _lint(
            """
            from repro.sim.tasks import TransferTask

            def emit(j, kind):
                return TransferTask(label=f"Ub{j}.pre.{kind}", nbytes=1.0)
            """,
            LABEL_MODULE,
        )
        # The anchored contract cannot verify the kind placeholder, so the
        # f-string skeleton fails and authors are pushed to the helpers.
        assert _codes(report) == ["MOB003"]

    def test_fstring_with_blessed_skeleton_passes(self):
        report = _lint(
            """
            from repro.sim.tasks import ComputeTask

            def emit(j, mb):
                return ComputeTask(label=f"F{j},{mb}", gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert not report.findings

    def test_dynamic_expression_is_warning(self):
        report = _lint(
            """
            from repro.sim.tasks import ComputeTask

            def emit(name):
                return ComputeTask(label=name.upper(), gpu=0, seconds=1.0)
            """,
            LABEL_MODULE,
        )
        assert _codes(report) == ["MOB003"]
        assert report.findings[0].severity == "warning"
        assert report.ok  # warnings do not fail the gate

    def test_rule_scoped_to_pipeline_module(self):
        report = _lint(
            """
            from repro.sim.tasks import ComputeTask

            task = ComputeTask(label="whatever", gpu=0, seconds=1.0)
            """,
            "src/repro/baselines/gpipe.py",
        )
        assert not report.findings


class TestInfrastructure:
    def test_syntax_error_reported_not_raised(self):
        report = _lint("def broken(:\n", HOT_MODULE)
        assert _codes(report) == ["MOB000"]

    def test_lint_tree_on_repo_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        report = lint_tree(root)
        assert report.ok, report.render()
