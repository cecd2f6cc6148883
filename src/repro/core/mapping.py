"""Stage-to-GPU mapping: sequential vs topology-aware cross mapping (§3.3).

Mobius assigns stage ``j`` to GPU ``perm[j % N]``; the *mapping* problem is
choosing the permutation.  Sequential mapping (identity) puts adjacent
stages on adjacent GPUs, which on commodity servers often share a CPU root
complex — their prefetches then collide (Figure 4a).  Cross mapping searches
permutations for the minimum *contention degree*:

    contention(stage_i, stage_j) = shared(i, j) / |i - j|          (Eq. 12)

where ``shared(i, j)`` is the number of GPUs under the common root complex
of the two stages' GPUs (0 when they differ), and the objective sums over
all stage pairs (Eq. 13).

``shared(i, j)`` depends only on which root complex each GPU sits under,
so a permutation's score depends only on which root complex each residue
``j % N`` lands on.  The search therefore scores one permutation per such
*root-complex class* rather than all ``N!``: 70 classes on Topo 4+4 instead
of 40,320, 6 on Topo 2+2.  Permutations of one class have bit-identical
scores, so scanning the classes' lexicographically smallest members in
lexicographic order with the strict-improvement rule returns exactly the
permutation a full ``N!`` scan returns.  The search is exact up to
:data:`_EXACT_SEARCH_LIMIT` GPUs; the pair sum collapses to residue
classes, making each candidate O(N^2).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.plan import Mapping
from repro.hardware.topology import Topology

__all__ = [
    "MappingResult",
    "contention_degree",
    "cross_mapping",
    "sequential_mapping",
]

#: Above this GPU count the exact permutation search is replaced by a
#: round-robin-over-root-complexes heuristic.
_EXACT_SEARCH_LIMIT = 8


@dataclasses.dataclass
class MappingResult:
    """A mapping plus search metadata.

    Attributes:
        mapping: The chosen stage-to-GPU permutation.
        contention: Its Eq. 13 objective value.
        schemes_evaluated: Number of candidate permutations scored (one
            per root-complex class).
    """

    mapping: Mapping
    contention: float
    schemes_evaluated: int


def contention_degree(topology: Topology, mapping: Mapping, n_stages: int) -> float:
    """Eq. 13 objective: summed pairwise contention over all stage pairs."""
    if n_stages <= 0:
        raise ValueError(f"n_stages must be positive, got {n_stages}")
    # shared(i, j) is the group size of stage i's root complex when stage j
    # sits under the same one, else 0: look both up once per stage.
    root = [topology.root_complex_of(mapping.gpu_of_stage(i)) for i in range(n_stages)]
    group = [len(topology.gpus_under_root_complex(rc)) for rc in root]
    total = 0.0
    for i in range(n_stages):
        root_i, group_i = root[i], group[i]
        for j in range(i + 1, n_stages):
            if root[j] == root_i:
                total += group_i / (j - i)
    return total


def _residue_weights(n_stages: int, n_gpus: int) -> np.ndarray:
    """``W[a, b] = sum over stage pairs i<j with i%N==a, j%N==b of 1/(j-i)``.

    Collapsing the Eq. 13 sum onto residue classes makes scoring one
    permutation O(N^2) instead of O(S^2).  The sums run in Python floats in
    (i, j) order, the same float64 additions as accumulating in the array.
    """
    weights = [[0.0] * n_gpus for _ in range(n_gpus)]
    for i in range(n_stages):
        row = weights[i % n_gpus]
        for j in range(i + 1, n_stages):
            row[j % n_gpus] += 1.0 / (j - i)
    return np.array(weights)


def _shared_matrix(topology: Topology) -> np.ndarray:
    n = topology.n_gpus
    shared = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            shared[a, b] = topology.shared_group_size(a, b)
    return shared


def _class_representatives(topology: Topology) -> list[tuple[int, ...]]:
    """The lexicographically smallest permutation of each root-complex class.

    A class fixes the root complex of every position; its smallest member
    fills each position with the lowest GPU of that root complex not yet
    used.  Branching on those candidates in ascending GPU order yields the
    representatives in lexicographic order.
    """
    queues = [topology.gpus_under_root_complex(rc) for rc in range(topology.n_root_complexes)]
    taken = [0] * len(queues)
    prefix: list[int] = []
    representatives: list[tuple[int, ...]] = []

    def extend() -> None:
        if len(prefix) == topology.n_gpus:
            representatives.append(tuple(prefix))
            return
        heads = sorted(
            (queue[taken[rc]], rc) for rc, queue in enumerate(queues) if taken[rc] < len(queue)
        )
        for gpu, rc in heads:
            prefix.append(gpu)
            taken[rc] += 1
            extend()
            taken[rc] -= 1
            prefix.pop()

    extend()
    return representatives


def _score(perm: tuple[int, ...], weights: np.ndarray, shared: np.ndarray) -> float:
    indices = np.array(perm)
    return float(np.sum(weights * shared[np.ix_(indices, indices)]))


def sequential_mapping(topology: Topology) -> MappingResult:
    """The naive mapping of existing pipeline systems: stage j -> GPU j % N."""
    mapping = Mapping.sequential(topology.n_gpus)
    return MappingResult(
        mapping=mapping,
        contention=math.nan,
        schemes_evaluated=1,
    )


def cross_mapping(topology: Topology, n_stages: int) -> MappingResult:
    """Search for the permutation minimising the contention degree.

    For servers up to :data:`_EXACT_SEARCH_LIMIT` GPUs the search is exact
    (the paper: "Mobius searches all mapping schemes"): it scores one
    representative per root-complex class, which covers every scheme's
    score (see the module docstring).  Beyond that a root-complex
    round-robin heuristic is used.
    """
    n = topology.n_gpus
    weights = _residue_weights(n_stages, n)
    shared = _shared_matrix(topology)

    if n <= _EXACT_SEARCH_LIMIT:
        # The representatives are scored in one batched gather+reduce; the
        # per-permutation reduction over the contiguous (n, n) block is
        # bit-identical to np.sum(weights * shared[np.ix_(p, p)]).  Members
        # of one class score identically, so an N! scan can only improve at
        # a class's first (smallest) member: visiting the representatives
        # in lexicographic order with the same 1e-12 strict-improvement
        # rule makes the same choices.
        perms = _class_representatives(topology)
        indices = np.array(perms, dtype=np.intp)
        blocks = shared[indices[:, :, None], indices[:, None, :]]
        scores = (weights[np.newaxis] * blocks).sum(axis=(1, 2)).tolist()
        best_perm: tuple[int, ...] | None = None
        best_score = math.inf
        count = len(perms)
        for perm, score in zip(perms, scores):
            if score < best_score - 1e-12:
                best_perm, best_score = perm, score
        assert best_perm is not None
        mapping = Mapping(best_perm)
    else:
        perm = _round_robin_heuristic(topology)
        best_score = _score(perm, weights, shared)
        mapping = Mapping(perm)
        count = 1

    full_score = contention_degree(topology, mapping, n_stages)
    return MappingResult(
        mapping=mapping,
        contention=full_score,
        schemes_evaluated=count,
    )


def _round_robin_heuristic(topology: Topology) -> tuple[int, ...]:
    """Interleave GPUs across root complexes so consecutive residues differ."""
    queues = [list(topology.gpus_under_root_complex(rc)) for rc in range(topology.n_root_complexes)]
    order: list[int] = []
    index = 0
    while any(queues):
        if queues[index % len(queues)]:
            order.append(queues[index % len(queues)].pop(0))
        index += 1
    return tuple(order)
