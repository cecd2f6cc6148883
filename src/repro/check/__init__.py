"""Static and dynamic verification of planner output, traces and source.

The planner (:mod:`repro.core`) makes promises — memory bounds, contention
optimality — and the simulator (:mod:`repro.sim`) claims to realise them.
:mod:`repro.check` replays those promises from the plan and the trace alone
and lints the source contracts (:mod:`repro.check.analysis`) that keep the
measurement pipeline honest.  ``repro lint`` runs the source rules; the
chaos bench checks every faulted step and re-plan, ``tests/check/test_corpus.py``
checks every corpus cell, and pytest sanitizes every simulated trace via the
fixture in ``tests/conftest.py``.
"""

from repro.check.analysis import AnalysisConfig, run_lint
from repro.check.corpus import CorpusCell, default_corpus
from repro.check.findings import CheckReport, Finding
from repro.check.mapping_check import check_mapping, optimal_contention
from repro.check.plan_check import check_plan
from repro.check.trace_check import sanitize_run

__all__ = [
    "AnalysisConfig",
    "CheckReport",
    "Finding",
    "run_lint",
    "check_plan",
    "check_mapping",
    "optimal_contention",
    "sanitize_run",
    "CorpusCell",
    "default_corpus",
]
