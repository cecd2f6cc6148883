"""The fixed model x topology corpus the checkers, benches and chaos run over.

A deterministic set of cells — GPT-like models crossed with the paper's
commodity-server topologies — small enough for CI yet exercising the planner
paths that matter: multi-root-complex servers (cross mapping), asymmetric
PCIe trees, and more stages than GPUs (prefetch budgets on every wave).

``tests/check/test_corpus.py`` plans, maps and simulates every cell and
expects no finding from :func:`~repro.check.plan_check.check_plan`,
:func:`~repro.check.mapping_check.check_mapping` or
:func:`~repro.check.trace_check.sanitize_run`.  The chaos bench
(:mod:`repro.faults.chaos`), the sim and serve benches and ``repro serve``
run over the same cells.
"""

from __future__ import annotations

import dataclasses

from repro.core.api import MobiusConfig
from repro.hardware.topology import Topology, topo_1_3, topo_2_2, topo_4
from repro.models.spec import ModelSpec, build_gpt_like

__all__ = ["CorpusCell", "default_corpus"]

#: Search budget per partition solve; the corpus models are small enough
#: that the boundary search exhausts well inside this.
_TIME_LIMIT = 2.0


@dataclasses.dataclass(frozen=True)
class CorpusCell:
    """One verification cell: a model planned onto a topology."""

    name: str
    model: ModelSpec
    topology: Topology
    config: MobiusConfig = MobiusConfig(partition_time_limit=_TIME_LIMIT)


def _gpt_a() -> ModelSpec:
    return build_gpt_like(
        "check-gpt-a",
        n_blocks=6,
        hidden_dim=1024,
        n_heads=8,
        default_microbatch_size=2,
    )


def _gpt_b() -> ModelSpec:
    return build_gpt_like(
        "check-gpt-b",
        n_blocks=8,
        hidden_dim=1536,
        n_heads=12,
        default_microbatch_size=1,
    )


def default_corpus() -> list[CorpusCell]:
    """The default cells: two models crossed with the paper's servers.

    Every corpus cell also feeds the literal Eq. 3-11 partition MIP to
    HiGHS in the DFS-vs-HiGHS parity test, so cells must stay small enough
    for a dense MILP cross-check at every stage count.
    """
    gpt_a = _gpt_a()
    gpt_b = _gpt_b()
    return [
        CorpusCell("gpt-a/topo_2_2", gpt_a, topo_2_2()),
        CorpusCell("gpt-a/topo_4", gpt_a, topo_4()),
        CorpusCell("gpt-a/topo_1_3", gpt_a, topo_1_3()),
        CorpusCell("gpt-b/topo_2_2", gpt_b, topo_2_2()),
    ]
