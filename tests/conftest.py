"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import topo_2_2, topo_4
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like


@pytest.fixture
def tiny_model():
    """A small GPT-like spec (6 blocks, hidden 1024) for fast planning tests."""
    return build_gpt_like(
        "tiny", n_blocks=6, hidden_dim=1024, n_heads=8, default_microbatch_size=2
    )


@pytest.fixture
def tiny_cost_model(tiny_model):
    return CostModel(RTX_3090TI, tiny_model.default_microbatch_size)


@pytest.fixture
def topo22():
    return topo_2_2()


@pytest.fixture
def topo4():
    return topo_4()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _auto_sanitize_traces(monkeypatch):
    """Run the repro.check sanitizer on every simulated execution.

    Every task table any test executes through ``TaskGraphRunner.execute``
    — Mobius, the baselines, the memory audit — is checked for causality
    and duration violations for free.  Tests exercising deliberately broken
    runs call the checker on hand-edited times instead.
    """
    from repro.check.trace_check import sanitize_run
    from repro.sim.tasks import TaskGraphRunner

    original = TaskGraphRunner.execute

    def execute_and_sanitize(self, tasks, **kwargs):
        trace = original(self, tasks, **kwargs)
        report = sanitize_run(self.last_tasks, self.last_times)
        assert report.ok, f"simulated trace failed sanitization:\n{report.render()}"
        return trace

    monkeypatch.setattr(TaskGraphRunner, "execute", execute_and_sanitize)
