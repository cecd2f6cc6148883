"""Tests for the Figure 13 convergence experiment."""

import pytest

from repro.nn.transformer import GPTConfig
from repro.training.convergence import run_convergence_experiment

SMALL = GPTConfig(vocab_size=64, seq_len=16, dim=32, n_heads=4, n_blocks=4)


@pytest.fixture(scope="module")
def result():
    return run_convergence_experiment(
        n_steps=15, config=SMALL, batch_size=8, gpipe_gpus=4, mobius_gpus=2
    )


class TestConvergence:
    def test_curves_overlap(self, result):
        """Figure 13: the loss curves of GPipe and Mobius almost coincide."""
        assert result.max_divergence() < 1e-2

    def test_loss_decreases(self, result):
        first, last = result.gpipe_loss[0], result.gpipe_loss[-1]
        assert last < first

    def test_both_systems_learn(self, result):
        assert result.gpipe_loss[-1] < result.gpipe_loss[0]
        assert result.mobius_loss[-1] < result.mobius_loss[0]

    def test_lengths_consistent(self, result):
        assert len(result.steps) == len(result.gpipe_loss) == len(result.mobius_loss)
        assert len(result.steps) == 15

    def test_different_gpu_counts_allowed(self):
        tiny = run_convergence_experiment(
            n_steps=2, config=SMALL, batch_size=6, gpipe_gpus=6, mobius_gpus=3
        )
        assert tiny.max_divergence() < 1e-2


def test_zero_steps_rejected():
    with pytest.raises(ValueError, match="n_steps"):
        run_convergence_experiment(
            n_steps=0, config=SMALL, batch_size=8, gpipe_gpus=4, mobius_gpus=2
        )
