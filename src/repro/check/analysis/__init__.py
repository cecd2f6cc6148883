"""Whole-program analysis backing ``repro lint``.

Layers (each its own module, composable in tests):

* :mod:`~repro.check.analysis.program` — pure-``ast`` symbol tables.
* :mod:`~repro.check.analysis.rules` — MOB003-MOB007, each over every
  function of the program, and the one place a finding is declared fine,
  :class:`AnalysisConfig`.
* :mod:`~repro.check.analysis.driver` — the ``repro lint`` entry point.
"""

from repro.check.analysis.driver import run_lint
from repro.check.analysis.program import Program
from repro.check.analysis.rules import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    analyze_program,
)

__all__ = [
    "AnalysisConfig",
    "DEFAULT_ANALYSIS_CONFIG",
    "Program",
    "analyze_program",
    "run_lint",
]
