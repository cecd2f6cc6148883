"""The warm start as it was before its candidates were cut at the push bound
(a test oracle).

:func:`repro.core.partition._warm_start` scores the derived candidate of a
round first, on its own forward stack, and stops scoring every other
candidate once its prefix's push bound shows it cannot win.  The functions
below are the earlier form, copied unchanged: every candidate is scored
exactly, in the order it was generated.  The tests require both to return
the same boundaries and the same step float.  They call only
``ctx.score(boundaries)``, whose default scores exactly, so the oracle shares
the scoring kernel and none of the cutoff logic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.partition import _SearchContext

def _balanced_boundaries(n_layers: int, n_stages: int) -> list[int]:
    return [round(n_layers * i / n_stages) for i in range(1, n_stages)]


def _local_search(
    ctx: _SearchContext, boundaries: list[int], best_time: float
) -> tuple[list[int], float]:
    """Hill-climb by moving single boundaries; returns the local optimum."""
    improved = True
    current = list(boundaries)
    while improved:
        improved = False
        for index in range(len(current)):
            for delta in (-1, 1):
                candidate = list(current)
                candidate[index] += delta
                lo = candidate[index - 1] if index else 0
                hi = candidate[index + 1] if index + 1 < len(candidate) else ctx.model.n_layers
                if not lo < candidate[index] < hi:
                    continue
                step = ctx.score(candidate)
                if step < best_time - 1e-12:
                    current, best_time, improved = candidate, step, True
    return current, best_time


def _split_longest_stage(boundaries: list[int], n_layers: int) -> list[int] | None:
    """Derive an ``n+1``-stage candidate by halving the longest stage."""
    cuts = [0, *boundaries, n_layers]
    longest = max(range(len(cuts) - 1), key=lambda i: (cuts[i + 1] - cuts[i], -i))
    lo, hi = cuts[longest], cuts[longest + 1]
    if hi - lo < 2:
        return None
    candidate = sorted([*boundaries, (lo + hi) // 2])
    return candidate


def _warm_start(ctx: _SearchContext) -> tuple[list[int] | None, float]:
    """Best near-balanced partition over all stage counts, refined locally.

    The stage-count sweep re-uses the previous count's solve: alongside the
    balanced split, each count also tries the previous best with its longest
    stage halved, so a good ``n``-stage plan seeds the ``n+1``-stage
    candidate instead of every count starting from scratch.
    """
    n_layers = ctx.model.n_layers
    best: list[int] | None = None
    best_time = math.inf
    previous: list[int] | None = None
    for n_stages in range(max(1, ctx.n_gpus), n_layers + 1):
        candidates = [_balanced_boundaries(n_layers, n_stages)]
        if previous is not None and len(previous) == n_stages - 2:
            derived = _split_longest_stage(previous, n_layers)
            if derived is not None:
                candidates.append(derived)
        round_best: list[int] | None = None
        round_time = math.inf
        for boundaries in candidates:
            step = ctx.score(boundaries)
            if step < round_time:
                round_best, round_time = boundaries, step
        if round_best is not None:
            previous = round_best
            if round_time < best_time:
                best, best_time = round_best, round_time
    if best is not None:
        best, best_time = _local_search(ctx, best, best_time)
    return best, best_time
