"""Every registered experiment module conforms to the harness contract."""

import importlib
import inspect

import pytest

from repro.experiments import ALL_EXPERIMENTS


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_experiment_module_contract(name):
    module = importlib.import_module(f"repro.experiments.{name}")
    assert callable(module.run), name
    # The suite calls every run() the same way, run(fast=...).
    params = inspect.signature(module.run).parameters
    assert set(params) == {"fast"}, name
    assert params["fast"].default is False, name
    # `repro figures` is the one way to print a figure.
    assert not hasattr(module, "main"), name
    # cells() is the scheduler's enumeration protocol: every module must
    # expose it (cell-less figures return an empty tuple) so the suite
    # drain can never silently skip a figure's work.
    assert callable(module.cells), name
    assert set(inspect.signature(module.cells).parameters) == {"fast"}, name


def test_registry_matches_files():
    import pathlib

    import repro.experiments as pkg

    directory = pathlib.Path(pkg.__file__).parent
    # Infrastructure modules (not figure reproductions) are exempt.
    modules = {
        p.stem
        for p in directory.glob("*.py")
        if p.stem not in ("__init__", "runner", "schedule", "suite")
    }
    assert modules == set(ALL_EXPERIMENTS)
