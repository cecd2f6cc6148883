"""The §3.1 convergence guarantee: pipeline schedules == plain accumulation."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPTConfig, GPTModel
from repro.training.pipeline_train import MobiusScheduleTrainer, StagePartition

from tests.training.reference import ReferenceTrainer, split_batch

CONFIG = GPTConfig(vocab_size=64, seq_len=16, dim=32, n_heads=4, n_blocks=4)


@pytest.fixture
def batch():
    corpus = SyntheticCorpus(vocab_size=64, n_tokens=4000, seed=1)
    return next(corpus.batches(8, 16, seed=2))


class TestStagePartition:
    def test_uniform(self):
        partition = StagePartition.uniform(6, 3)
        assert partition.n_stages == 3
        ranges = [partition.stage_range(j) for j in range(3)]
        assert ranges == [(0, 2), (2, 4), (4, 6)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            StagePartition.uniform(3, 5)


class TestSplitBatch:
    def test_even_split(self, batch):
        micros = split_batch(batch, 4)
        assert len(micros) == 4
        assert all(m.inputs.shape[0] == 2 for m in micros)

    def test_uneven_rejected(self, batch):
        with pytest.raises(ValueError):
            split_batch(batch, 3)


class TestGradientEquivalence:
    def test_gpipe_matches_reference_exactly(self, batch):
        ref_model = GPTModel(CONFIG, seed=7)
        gpipe_model = GPTModel(CONFIG, seed=7)
        ref_loss = ReferenceTrainer(ref_model, n_microbatches=4).step(batch)
        gpipe_loss = MobiusScheduleTrainer(gpipe_model, 4, n_stages=4).step(batch)
        assert gpipe_loss == ref_loss
        for a, b in zip(ref_model.parameters(), gpipe_model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_mobius_matches_reference_exactly(self, batch):
        ref_model = GPTModel(CONFIG, seed=7)
        mobius_model = GPTModel(CONFIG, seed=7)
        ReferenceTrainer(ref_model, n_microbatches=4).step(batch)
        MobiusScheduleTrainer(mobius_model, 2, n_stages=6, n_microbatches=4).step(batch)
        for a, b in zip(ref_model.parameters(), mobius_model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_stage_count_does_not_change_math(self, batch):
        results = []
        for n_stages in (2, 3, 6):
            model = GPTModel(CONFIG, seed=7)
            MobiusScheduleTrainer(model, 2, n_stages=n_stages, n_microbatches=4).step(
                batch
            )
            results.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_multi_step_trajectories_stay_together(self, batch):
        gpipe_model = GPTModel(CONFIG, seed=7)
        mobius_model = GPTModel(CONFIG, seed=7)
        gpipe = MobiusScheduleTrainer(gpipe_model, 4, n_stages=4)
        mobius = MobiusScheduleTrainer(mobius_model, 4)
        corpus = SyntheticCorpus(vocab_size=64, n_tokens=4000, seed=1)
        for step, fresh in zip(range(5), corpus.batches(8, 16, seed=3)):
            a = gpipe.step(fresh)
            b = mobius.step(fresh)
            assert a == pytest.approx(b, abs=1e-4)


class TestMobiusSwapSemantics:
    def test_residency_never_exceeds_limit(self, batch):
        trainer = MobiusScheduleTrainer(
            GPTModel(CONFIG, seed=0), 2, n_stages=6, n_microbatches=4, resident_limit=2
        )
        trainer.step(batch)
        resident: dict[int, set] = {0: set(), 1: set()}
        for event in trainer.swap_events:
            if event.kind == "upload":
                resident[event.gpu].add(event.stage)
            else:
                resident[event.gpu].discard(event.stage)
            assert len(resident[event.gpu]) <= 2

    def test_gpipe_case_swaps_nothing(self, batch):
        """With one stage per GPU (GPipe), each stage is uploaded once and
        stays resident from its forward pass through its backward pass."""
        trainer = MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 4, n_stages=4)
        trainer.step(batch)
        uploads = [e for e in trainer.swap_events if e.kind == "upload"]
        assert [(e.stage, e.phase) for e in uploads] == [
            (stage, "forward") for stage in range(4)
        ]
        assert all(e.phase == "backward" for e in trainer.swap_events if e.kind == "free")

    def test_resident_limit_below_one_rejected(self):
        with pytest.raises(ValueError, match="resident_limit"):
            MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 2, resident_limit=0)

    def test_no_gpus_rejected(self):
        with pytest.raises(ValueError, match="n_gpus must be at least 1, got 0"):
            MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 0)

    def test_no_microbatches_rejected(self):
        with pytest.raises(ValueError, match="n_microbatches must be at least 1, got 0"):
            MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 2, n_microbatches=0)

    def test_indivisible_batch_rejected(self, batch):
        trainer = MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 2, n_microbatches=3)
        with pytest.raises(ValueError, match="batch size 8 not divisible by 3"):
            trainer.step(batch)
        assert trainer.swap_events == []

    def test_microbatches_default_to_gpu_count(self):
        trainer = MobiusScheduleTrainer(GPTModel(CONFIG, seed=0), 2)
        assert trainer.n_microbatches == 2

    def test_stages_map_round_robin(self, batch):
        trainer = MobiusScheduleTrainer(
            GPTModel(CONFIG, seed=0), 2, n_stages=6, n_microbatches=4
        )
        trainer.step(batch)
        for event in trainer.swap_events:
            assert event.gpu == event.stage % 2

    def test_every_swapped_stage_uploaded_twice(self, batch):
        """Swapped-out stages upload once for forward, once for backward;
        the resident tail uploads only once."""
        trainer = MobiusScheduleTrainer(
            GPTModel(CONFIG, seed=0), 2, n_stages=6, n_microbatches=4
        )
        trainer.step(batch)
        uploads: dict[int, int] = {}
        for event in trainer.swap_events:
            if event.kind == "upload":
                uploads[event.stage] = uploads.get(event.stage, 0) + 1
        for stage in range(4):  # swapped out (6 stages - 2 resident)
            assert uploads[stage] == 2
        for stage in (4, 5):  # resident tail
            assert uploads[stage] == 1


class TestStackedStages:
    """A step runs each stage once over the stacked microbatches, with the
    bits of the per-microbatch reference loop."""

    @pytest.mark.parametrize(("n_microbatches", "micro_size"), [(8, 1), (4, 2), (2, 4), (1, 8)])
    def test_matches_reference_for_every_split(self, batch, n_microbatches, micro_size):
        assert batch.inputs.shape[0] == n_microbatches * micro_size
        ref_model = GPTModel(CONFIG, seed=7)
        model = GPTModel(CONFIG, seed=7)
        reference = ReferenceTrainer(ref_model, n_microbatches=n_microbatches)
        trainer = MobiusScheduleTrainer(model, 2, n_stages=3, n_microbatches=n_microbatches)
        corpus = SyntheticCorpus(vocab_size=64, n_tokens=4000, seed=1)
        for _, fresh in zip(range(2), corpus.batches(8, 16, seed=3)):
            assert trainer.step(fresh) == reference.step(fresh)
        for a, b in zip(ref_model.parameters(), model.parameters(), strict=True):
            np.testing.assert_array_equal(a.data, b.data)

    def test_figure13_configuration(self):
        """Figure 13's model and batch, GPipe on 8 GPUs and Mobius on 4."""
        config = GPTConfig(vocab_size=128, seq_len=32, dim=64, n_heads=4, n_blocks=6)
        corpus = SyntheticCorpus(vocab_size=128, n_tokens=50_000, seed=0)
        batches = list(zip(range(2), corpus.batches(8, 32, seed=1)))
        for n_gpus, n_stages in ((8, 8), (4, None)):
            ref_model = GPTModel(config, seed=0)
            model = GPTModel(config, seed=0)
            reference = ReferenceTrainer(ref_model, n_microbatches=n_gpus)
            trainer = MobiusScheduleTrainer(model, n_gpus, n_stages, n_microbatches=n_gpus)
            assert trainer.partition.n_stages == 8
            for _, fresh in batches:
                assert trainer.step(fresh) == reference.step(fresh)
            for a, b in zip(ref_model.parameters(), model.parameters(), strict=True):
                np.testing.assert_array_equal(a.data, b.data)

    def test_graph_size_independent_of_microbatch_count(self, batch, monkeypatch):
        """One step builds the same number of graph nodes for any split, so
        no stage runs once per microbatch."""
        built = 0
        original = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            nonlocal built
            built += 1
            original(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        counts = []
        for n_microbatches in (1, 2, 4, 8):
            trainer = MobiusScheduleTrainer(
                GPTModel(CONFIG, seed=0), 2, n_stages=6, n_microbatches=n_microbatches
            )
            built = 0
            trainer.step(batch)
            counts.append(built)
        assert counts == [counts[0]] * 4
