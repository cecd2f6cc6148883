"""Docstring examples in key modules stay correct."""

import doctest

import pytest

import repro.sim.engine
import repro.sim.tasks


@pytest.mark.parametrize(
    "module",
    [repro.sim.engine, repro.sim.tasks],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no doctest examples"
    assert result.failed == 0


def test_task_graph_runner_docstring_example():
    """The TaskGraphRunner class docstring's worked example is accurate."""
    from repro.hardware.topology import topo_2_2
    from repro.sim.tasks import TaskGraphRunner, TaskTable

    topo = topo_2_2()
    table = TaskTable()
    up = table.transfer(topo.path_from_dram(0), 1e9, gpu=0)
    table.compute(0, 0.5, after=(up,))
    trace = TaskGraphRunner(topo).execute(table)
    assert round(trace.makespan, 3) == 0.576
