"""Whole-program analysis backing ``repro lint``.

Layers (each its own module, composable in tests):

* :mod:`~repro.check.analysis.program` — pure-``ast`` symbol tables.
* :mod:`~repro.check.analysis.callgraph` — conservative call graph +
  reachability.
* :mod:`~repro.check.analysis.rules` — MOB003-MOB007.
* :mod:`~repro.check.analysis.baseline` — checked-in suppressions.
* :mod:`~repro.check.analysis.sarif` — SARIF 2.1.0 output for CI.
* :mod:`~repro.check.analysis.driver` — the ``repro lint`` entry point.
"""

from repro.check.analysis.baseline import Baseline, BaselineEntry, apply_baseline
from repro.check.analysis.callgraph import CallGraph, build_call_graph
from repro.check.analysis.driver import LintRun, run_lint
from repro.check.analysis.program import Program
from repro.check.analysis.rules import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    analyze_program,
)
from repro.check.analysis.sarif import to_sarif

__all__ = [
    "AnalysisConfig",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_ANALYSIS_CONFIG",
    "LintRun",
    "Program",
    "analyze_program",
    "apply_baseline",
    "build_call_graph",
    "run_lint",
    "to_sarif",
]
