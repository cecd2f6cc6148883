"""Static and dynamic verification of planner output, traces and source.

The planner (:mod:`repro.core`) makes promises — memory bounds, contention
optimality, a step-time objective — and the simulator (:mod:`repro.sim`)
claims to realise them.  :mod:`repro.check` is the independent referee: it
replays those promises from first principles without trusting either side,
and lints the source contracts (:mod:`repro.check.analysis`) that keep the
measurement pipeline honest.  ``repro check`` runs the plan, mapping and
trace checkers over a fixed model x topology corpus and ``repro lint`` runs
the source rules; pytest auto-sanitizes every simulated trace via the
fixture in ``tests/conftest.py``.
"""

from repro.check.analysis import AnalysisConfig, run_lint
from repro.check.corpus import CorpusCell, check_cell, default_corpus, run_corpus
from repro.check.findings import CheckReport, Finding
from repro.check.mapping_check import check_mapping, optimal_contention
from repro.check.plan_check import check_plan
from repro.check.trace_check import check_task_graph, sanitize_run, sanitize_trace

__all__ = [
    "AnalysisConfig",
    "CheckReport",
    "Finding",
    "run_lint",
    "check_plan",
    "check_mapping",
    "optimal_contention",
    "sanitize_trace",
    "check_task_graph",
    "sanitize_run",
    "CorpusCell",
    "default_corpus",
    "check_cell",
    "run_corpus",
]
