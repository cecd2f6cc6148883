"""Synthetic language-modelling corpus (WikiText-2 stand-in).

The convergence experiment (§4.6) fine-tunes GPT-2 on WikiText-2; offline,
we substitute a synthetic corpus with the statistical structure a small LM
can actually learn: a Zipfian unigram distribution blended with a sparse
first-order Markov transition matrix (so there is real sequential signal,
and the loss curve visibly decreases during fine-tuning).
"""

from __future__ import annotations

import bisect
import dataclasses
from collections.abc import Iterator

import numpy as np

__all__ = ["SyntheticCorpus", "Batch"]


@dataclasses.dataclass(frozen=True)
class Batch:
    """One LM training batch: inputs and shifted-by-one targets."""

    inputs: np.ndarray  # (batch, seq) int64
    targets: np.ndarray  # (batch, seq) int64


class SyntheticCorpus:
    """Deterministic synthetic token stream with learnable structure.

    Args:
        vocab_size: Token vocabulary.
        n_tokens: Corpus length.
        seed: Generation seed.
        zipf_exponent: Skew of the unigram distribution.
        markov_weight: Blend factor between Markov transitions (learnable
            structure) and the unigram background.
    """

    def __init__(
        self,
        vocab_size: int = 256,
        n_tokens: int = 100_000,
        *,
        seed: int = 0,
        zipf_exponent: float = 1.1,
        markov_weight: float = 0.7,
    ) -> None:
        if vocab_size < 4:
            raise ValueError(f"vocab_size too small: {vocab_size}")
        if n_tokens < 1:
            raise ValueError(f"n_tokens must be at least 1, got {n_tokens}")
        if not 0.0 <= markov_weight <= 1.0:
            raise ValueError(f"markov_weight must be in [0, 1], got {markov_weight}")
        self.vocab_size = vocab_size
        rng = np.random.default_rng(seed)

        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        unigram = ranks**-zipf_exponent
        unigram /= unigram.sum()

        # Sparse successor structure: each token prefers a handful of others.
        n_successors = 4
        successors = rng.integers(0, vocab_size, size=(vocab_size, n_successors))
        successor_probs = rng.dirichlet(np.ones(n_successors), size=vocab_size)

        # The same tokens as drawing each one with ``rng.choice(..., p=)``:
        # that call takes one uniform double and returns
        # ``searchsorted(cumsum(p) / cumsum(p)[-1], u, side="right")``, so
        # every token after the first costs exactly two doubles (the
        # Markov-or-unigram coin, then the pick) and all of them can be
        # drawn up front.  Only the Markov picks depend on the previous
        # token, so only they are walked one at a time.
        uniforms = rng.random(1 + 2 * (n_tokens - 1))
        markov = uniforms[1::2] < markov_weight
        picks = uniforms[2::2]
        unigram_cdf = unigram.cumsum()
        unigram_cdf /= unigram_cdf[-1]
        successor_cdf = successor_probs.cumsum(axis=1)
        successor_cdf /= successor_cdf[:, -1:]

        tokens = np.empty(n_tokens, dtype=np.int64)
        tokens[0] = unigram_cdf.searchsorted(uniforms[0], side="right")
        tokens[1:][~markov] = unigram_cdf.searchsorted(picks[~markov], side="right")
        # Memoryviews hand out Python scalars one at a time, with no
        # corpus-sized lists of boxed ints and floats.
        view = memoryview(tokens)
        succ = successors.tolist()
        cdfs = successor_cdf.tolist()
        for i, u in zip(memoryview(np.flatnonzero(markov)), memoryview(picks[markov])):
            prev = view[i]
            view[i + 1] = succ[prev][bisect.bisect_right(cdfs[prev], u)]
        self.tokens = tokens

    def batches(
        self, batch_size: int, seq_len: int, *, seed: int = 0
    ) -> Iterator[Batch]:
        """Yield an endless stream of random contiguous windows."""
        rng = np.random.default_rng(seed)
        limit = len(self.tokens) - seq_len - 1
        if limit <= 0:
            raise ValueError("corpus shorter than one sequence")
        while True:
            starts = rng.integers(0, limit, size=batch_size)
            inputs = np.stack([self.tokens[s : s + seq_len] for s in starts])
            targets = np.stack([self.tokens[s + 1 : s + seq_len + 1] for s in starts])
            yield Batch(inputs=inputs, targets=targets)
