"""Docstring examples in key modules stay correct."""

import doctest

import pytest

import repro.sim.engine


@pytest.mark.parametrize(
    "module",
    [repro.sim.engine],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no doctest examples"
    assert result.failed == 0


def test_task_graph_runner_docstring_example():
    """The TaskGraphRunner class docstring's worked example is accurate."""
    from repro.hardware.topology import topo_2_2
    from repro.sim.tasks import ComputeTask, TaskGraphRunner, TransferTask

    topo = topo_2_2()
    up = TransferTask(path=topo.path_from_dram(0), nbytes=1e9, gpu=0)
    work = ComputeTask(gpu=0, seconds=0.5).after(up)
    trace = TaskGraphRunner(topo).execute([up, work])
    assert round(trace.makespan, 3) == 0.576
