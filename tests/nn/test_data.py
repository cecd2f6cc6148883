"""The synthetic corpus against a per-token ``rng.choice`` reference."""

import itertools

import numpy as np
import pytest

from repro.nn.data import SyntheticCorpus


def reference_tokens(
    vocab_size: int,
    n_tokens: int,
    seed: int,
    *,
    zipf_exponent: float = 1.1,
    markov_weight: float = 0.7,
) -> np.ndarray:
    """Draw the corpus one token at a time, each with ``rng.choice(..., p=)``."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    unigram = ranks**-zipf_exponent
    unigram /= unigram.sum()
    successors = rng.integers(0, vocab_size, size=(vocab_size, 4))
    successor_probs = rng.dirichlet(np.ones(4), size=vocab_size)
    tokens = np.empty(n_tokens, dtype=np.int64)
    tokens[0] = rng.choice(vocab_size, p=unigram)
    for i in range(1, n_tokens):
        if rng.random() < markov_weight:
            prev = tokens[i - 1]
            tokens[i] = rng.choice(successors[prev], p=successor_probs[prev])
        else:
            tokens[i] = rng.choice(vocab_size, p=unigram)
    return tokens


def reference_batches(tokens: np.ndarray, batch_size: int, seq_len: int, seed: int):
    rng = np.random.default_rng(seed)
    limit = len(tokens) - seq_len - 1
    while True:
        starts = rng.integers(0, limit, size=batch_size)
        yield (
            np.stack([tokens[s : s + seq_len] for s in starts]),
            np.stack([tokens[s + 1 : s + seq_len + 1] for s in starts]),
        )


@pytest.mark.parametrize("markov_weight", [0.0, 0.7, 1.0])
@pytest.mark.parametrize(
    "vocab_size,n_tokens,seed",
    [(128, 20_000, 0), (32, 2_000, 0), (64, 5_000, 3), (256, 10_000, 1), (4, 1, 5)],
)
def test_tokens_match_per_token_reference(vocab_size, n_tokens, seed, markov_weight):
    corpus = SyntheticCorpus(vocab_size, n_tokens, seed=seed, markov_weight=markov_weight)
    expected = reference_tokens(vocab_size, n_tokens, seed, markov_weight=markov_weight)
    assert corpus.tokens.dtype == np.int64
    assert np.array_equal(corpus.tokens, expected)


def test_zipf_exponent_matches_reference():
    corpus = SyntheticCorpus(64, 3_000, seed=2, zipf_exponent=0.6)
    assert np.array_equal(corpus.tokens, reference_tokens(64, 3_000, 2, zipf_exponent=0.6))


def test_batches_match_reference():
    corpus = SyntheticCorpus(128, 5_000, seed=0)
    expected = reference_batches(reference_tokens(128, 5_000, 0), 8, 32, seed=4)
    for batch, (inputs, targets) in itertools.islice(
        zip(corpus.batches(8, 32, seed=4), expected), 5
    ):
        assert np.array_equal(batch.inputs, inputs)
        assert np.array_equal(batch.targets, targets)


@pytest.mark.parametrize("n_tokens", [0, -3])
def test_empty_corpus_rejected(n_tokens):
    with pytest.raises(ValueError, match="n_tokens"):
        SyntheticCorpus(vocab_size=16, n_tokens=n_tokens)
