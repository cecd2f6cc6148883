"""Static verification of a stage-to-GPU mapping against Eqs. 12-13.

Cross mapping (§3.3) promises the permutation with the minimum *contention
degree* — the Eq. 13 sum of ``shared(i, j) / |i - j|`` over stage pairs.
This checker recomputes that objective from the :class:`Topology` graph and,
for servers small enough to search exactly (the paper's sizes, N <= 8),
compares it against the true optimum.  A mapping is flagged when a strictly
lower-contention assignment exists, with the adjacent stage pairs that share
a CPU root complex — the collisions Figure 4a shows — named explicitly.

The mapping must permute the topology's GPUs; a plan that leaves a GPU out
fails tier-1's every-GPU-computes test (DESIGN.md §8).
"""

from __future__ import annotations

import itertools

from repro.check.findings import CheckReport
from repro.core.mapping import contention_degree
from repro.core.plan import Mapping
from repro.hardware.topology import Topology

__all__ = ["check_mapping", "optimal_contention"]

_CHECKER = "mapping"

#: Beyond this GPU count the exact permutation search (N!) is skipped and
#: only structural checks run; matches ``repro.core.mapping``'s limit.
_EXACT_SEARCH_LIMIT = 8

_TOL = 1e-9


def optimal_contention(topology: Topology, n_stages: int) -> float:
    """Exact minimum Eq. 13 contention over all GPU permutations.

    Only valid for ``topology.n_gpus <= 8`` (the paper's server sizes);
    larger servers raise ``ValueError`` rather than silently approximating.
    """
    n = topology.n_gpus
    if n > _EXACT_SEARCH_LIMIT:
        raise ValueError(
            f"exact contention search is limited to {_EXACT_SEARCH_LIMIT} "
            f"GPUs, topology has {n}"
        )
    return min(
        contention_degree(topology, Mapping(perm), n_stages)
        for perm in itertools.permutations(range(n))
    )


def _adjacent_shared_pairs(
    topology: Topology, mapping: Mapping, n_stages: int
) -> list[tuple[int, int]]:
    """Adjacent stage pairs whose GPUs hang off the same root complex."""
    return [
        (j, j + 1)
        for j in range(n_stages - 1)
        if topology.share_root_complex(
            mapping.gpu_of_stage(j), mapping.gpu_of_stage(j + 1)
        )
    ]


def check_mapping(
    mapping: Mapping, topology: Topology, n_stages: int
) -> CheckReport:
    """Verify a stage-to-GPU mapping's contention promise.

    Args:
        mapping: The permutation to verify.
        topology: Interconnect supplying ``shared(i, j)`` (Eq. 12).
        n_stages: Pipeline stage count the mapping serves.

    Returns:
        A report; ``MAP-CONTENTION`` findings carry the contention excess
        over the optimum as negative slack.
    """
    report = CheckReport()
    actual = contention_degree(topology, mapping, n_stages)

    if topology.n_gpus <= _EXACT_SEARCH_LIMIT:
        best = optimal_contention(topology, n_stages)
        excess = actual - best
        if excess > _TOL:
            pairs = _adjacent_shared_pairs(topology, mapping, n_stages)
            pair_note = (
                "adjacent stages sharing a root complex: "
                + ", ".join(f"({a},{b})" for a, b in pairs)
                if pairs
                else "no adjacent pair shares a root complex, but farther "
                "pairs still contend"
            )
            report.add(
                _CHECKER,
                "MAP-CONTENTION",
                f"mapping has contention degree {actual:.4f} but "
                f"{best:.4f} is achievable on {topology.name!r}; {pair_note}",
                subject=f"perm {mapping.perm}",
                slack=float(-excess),
            )

    return report
