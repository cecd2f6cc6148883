"""The fused transformer block against the per-op oracle, bit for bit."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.data import SyntheticCorpus
from repro.nn.layers import Linear
from repro.nn.transformer import GPTConfig, GPTModel, TransformerBlock
from repro.training.pipeline_train import MobiusScheduleTrainer

from tests.nn.composed_block import ComposedBlock, composed_model
from tests.training.reference import ReferenceTrainer


def _run_block(block, x_data, upstream):
    x = Tensor(x_data, requires_grad=True)
    out = block(x)
    out.backward(upstream)
    return out.data, x.grad


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("seq", [1, 7, 32])
@pytest.mark.parametrize("batch", [1, 2])
def test_block_matches_composed_oracle(batch, seq, n_heads):
    config = GPTConfig(seq_len=32, dim=16, n_heads=n_heads)
    fused = TransformerBlock(config, rng=np.random.default_rng(5))
    oracle = ComposedBlock(TransformerBlock(config, rng=np.random.default_rng(5)))
    rng = np.random.default_rng(seq * 10 + batch)
    x = rng.normal(size=(batch, seq, config.dim)).astype(np.float32)
    upstream = rng.normal(size=x.shape).astype(np.float32)

    fused_out, fused_dx = _run_block(fused, x, upstream)
    oracle_out, oracle_dx = _run_block(oracle, x, upstream)
    np.testing.assert_array_equal(fused_out, oracle_out)
    np.testing.assert_array_equal(fused_dx, oracle_dx)
    params = list(zip(fused.parameters(), oracle.parameters()))
    assert len(params) == 12
    for a, b in params:
        np.testing.assert_array_equal(a.grad, b.grad)


@pytest.mark.parametrize(
    ("n_gpus", "n_stages", "n_microbatches"),
    [(4, 4, 4), (2, 6, 4)],
    ids=["gpipe", "mobius"],
)
def test_training_steps_match_oracle(n_gpus, n_stages, n_microbatches):
    """The fused model on the stacked pipeline trainer against the per-op
    oracle model run one microbatch at a time."""
    config = GPTConfig(vocab_size=64, seq_len=16, dim=32, n_heads=4, n_blocks=4)
    fused_model = GPTModel(config, seed=7)
    oracle_model = composed_model(config, seed=7)
    fused = MobiusScheduleTrainer(
        fused_model, n_gpus, n_stages=n_stages, n_microbatches=n_microbatches
    )
    oracle = ReferenceTrainer(oracle_model, n_microbatches=n_microbatches)
    corpus = SyntheticCorpus(vocab_size=64, n_tokens=4000, seed=1)
    for _, batch in zip(range(3), corpus.batches(8, 16, seed=3)):
        assert fused.step(batch) == oracle.step(batch)
    for a, b in zip(fused_model.parameters(), oracle_model.parameters(), strict=True):
        np.testing.assert_array_equal(a.data, b.data)


class _CountNodes:
    def __init__(self, monkeypatch):
        self.count = 0
        original = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.count += 1
            original(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)


def test_block_forward_is_one_node(monkeypatch):
    config = GPTConfig(dim=16, n_heads=2)
    block = TransformerBlock(config, rng=np.random.default_rng(0))
    x = Tensor(np.ones((2, 5, 16)), requires_grad=True)
    counter = _CountNodes(monkeypatch)
    out = block(x)
    assert counter.count == 1
    assert out._parents == (x, *block.parameters())


def test_linear_forward_is_one_node(monkeypatch):
    layer = Linear(4, 3, rng=np.random.default_rng(0))
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    counter = _CountNodes(monkeypatch)
    layer(x)
    assert counter.count == 1
