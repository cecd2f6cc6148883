"""Shared planning fixtures for the repro.check tests.

Planning is the slow part, so the plans are session-scoped: one MIP solve
and one max-stage solve serve every checker test.  Both plan the first
corpus cell's model on its server (6 blocks, hidden 1024, on 2+2).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.corpus import default_corpus
from repro.core.api import plan_mobius


@pytest.fixture(scope="session")
def planned_tiny():
    """(MobiusPlanReport, Topology) for the tiny model on the 2+2 server."""
    cell = default_corpus()[0]
    return plan_mobius(cell.model, cell.topology, cell.config), cell.topology


@pytest.fixture(scope="session")
def planned_tiny_many_stages():
    """A block-per-stage plan (S > N), so every prefetch constraint is live."""
    cell = default_corpus()[0]
    config = dataclasses.replace(cell.config, partition_method="min-stage")
    return plan_mobius(cell.model, cell.topology, config), cell.topology
