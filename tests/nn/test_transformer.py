"""Tests for the GPT model and synthetic corpus."""

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPTConfig, GPTModel

from tests.autograd.per_op import forward, loss


@pytest.fixture
def config():
    return GPTConfig(vocab_size=64, seq_len=16, dim=32, n_heads=4, n_blocks=2)


class TestGPTModel:
    def test_logits_shape(self, config):
        model = GPTModel(config)
        tokens = np.zeros((3, 16), dtype=np.int64)
        assert forward(model, tokens).shape == (3, 16, 64)

    def test_pipeline_layer_count(self, config):
        model = GPTModel(config)
        assert model.n_pipeline_layers == config.n_blocks + 2

    def test_initial_loss_near_uniform(self, config):
        model = GPTModel(config)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 64, size=(4, 16))
        targets = rng.integers(0, 64, size=(4, 16))
        assert loss(model, tokens, targets).item() == pytest.approx(np.log(64), rel=0.15)

    def test_sequence_longer_than_seq_len_rejected(self, config):
        tokens = np.zeros((1, config.seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match=r"index 16 .*\[0, 16\)"):
            forward(GPTModel(config), tokens)

    def test_deterministic_init(self, config):
        a, b = GPTModel(config, seed=3), GPTModel(config, seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_overfits_tiny_batch(self, config):
        """A real end-to-end learning test: loss drops on a fixed batch."""
        model = GPTModel(config, seed=0)
        opt = Adam(model.parameters(), lr=1e-2)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 64, size=(2, 16))
        targets = rng.integers(0, 64, size=(2, 16))
        first = None
        for _ in range(30):
            opt.zero_grad()
            value = loss(model, tokens, targets)
            if first is None:
                first = value.item()
            value.backward()
            opt.step()
        assert value.item() < first * 0.5


class TestSyntheticCorpus:
    def test_token_range(self):
        corpus = SyntheticCorpus(vocab_size=32, n_tokens=1000)
        assert corpus.tokens.min() >= 0
        assert corpus.tokens.max() < 32

    def test_deterministic(self):
        a = SyntheticCorpus(vocab_size=32, n_tokens=500, seed=1)
        b = SyntheticCorpus(vocab_size=32, n_tokens=500, seed=1)
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_batches_shapes_and_shift(self):
        corpus = SyntheticCorpus(vocab_size=32, n_tokens=2000)
        batch = next(corpus.batches(4, 10, seed=0))
        assert batch.inputs.shape == (4, 10)
        # Targets are inputs shifted by one within the corpus.
        np.testing.assert_array_equal(batch.inputs[:, 1:], batch.targets[:, :-1])

    def test_markov_structure_learnable(self):
        """Bigram statistics beat unigram: the corpus has sequential signal."""
        corpus = SyntheticCorpus(vocab_size=16, n_tokens=30_000, markov_weight=0.9)
        tokens = corpus.tokens
        # Empirical bigram conditional entropy < unigram entropy.
        unigram = np.bincount(tokens, minlength=16) / len(tokens)
        h_unigram = -np.sum(unigram[unigram > 0] * np.log(unigram[unigram > 0]))
        joint = np.zeros((16, 16))
        for a, b in zip(tokens[:-1], tokens[1:]):
            joint[a, b] += 1
        joint /= joint.sum()
        marginal = joint.sum(axis=1, keepdims=True)
        cond = np.divide(joint, marginal, out=np.zeros_like(joint), where=marginal > 0)
        h_cond = -np.sum(joint[cond > 0] * np.log(cond[cond > 0]))
        assert h_cond < 0.7 * h_unigram

    def test_corpus_too_short_rejected(self):
        corpus = SyntheticCorpus(vocab_size=16, n_tokens=5)
        with pytest.raises(ValueError):
            next(corpus.batches(1, 10))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(vocab_size=2)
        with pytest.raises(ValueError):
            SyntheticCorpus(markov_weight=1.5)
