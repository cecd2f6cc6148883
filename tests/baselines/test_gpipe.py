"""Tests for the GPipe and DeepSpeed-pipeline (1F1B) baselines."""

import pytest

from repro.baselines import gpipe
from repro.baselines.gpipe import (
    OutOfMemoryError,
    run_deepspeed_pipeline,
    run_gpipe,
)
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4, topo_4_4
from repro.models import zoo
from repro.models.zoo import gpt_3b, gpt_8b
from tests.helpers import compute_seconds


class TestMemoryBehaviour:
    def test_3b_fits_on_4_gpus(self):
        report = run_gpipe(gpt_3b(), topo_2_2(), microbatch_size=1)
        assert report.step_seconds > 0

    def test_8b_oom_on_4_gpus(self):
        """Figure 5: the 3B model is the largest GPipe can train."""
        with pytest.raises(OutOfMemoryError):
            run_gpipe(gpt_8b(), topo_2_2(), microbatch_size=1)

    def test_ds_pipeline_8b_oom(self):
        with pytest.raises(OutOfMemoryError):
            run_deepspeed_pipeline(gpt_8b(), topo_2_2(), microbatch_size=1)

    def test_oom_message_names_model(self):
        with pytest.raises(OutOfMemoryError, match="GPT-8B"):
            run_gpipe(gpt_8b(), topo_2_2(), microbatch_size=1)


def _status(run, model, topology) -> str:
    try:
        run(model, topology)
    except OutOfMemoryError:
        return "oom"
    return "ok"


@pytest.mark.parametrize("run", [run_gpipe, run_deepspeed_pipeline])
@pytest.mark.parametrize("topology", [topo_2_2, topo_1_3, topo_4, topo_4_4])
@pytest.mark.parametrize("model", sorted(zoo._FACTORIES))
def test_total_memory_precheck_keeps_every_status(model, topology, run, monkeypatch):
    """The precheck before the partition search only short-cuts an
    out-of-memory result the full path would reach too."""
    model, topology = zoo.model_by_name(model), topology()
    status = _status(run, model, topology)
    monkeypatch.setattr(gpipe, "_check_total_memory", lambda *args: None)
    assert _status(run, model, topology) == status


class TestSchedules:
    def test_one_stage_per_gpu(self, tiny_model, topo22):
        report = run_gpipe(tiny_model, topo22, microbatch_size=1)
        assert report.partition.n_stages == topo22.n_gpus

    def test_no_parameter_traffic(self, tiny_model, topo22):
        """GPipe keeps everything resident: only activations move."""
        report = run_gpipe(tiny_model, topo22, microbatch_size=1)
        kinds = {t.kind for t in report.trace.transfers}
        assert kinds <= {"activation"}

    def test_1f1b_matches_gpipe_compute(self, tiny_model, topo22):
        gpipe = run_gpipe(tiny_model, topo22, microbatch_size=1)
        onefb = run_deepspeed_pipeline(tiny_model, topo22, microbatch_size=1)
        assert compute_seconds(gpipe.trace) == pytest.approx(
            compute_seconds(onefb.trace), rel=1e-9
        )

    def test_1f1b_not_slower_than_gpipe(self, tiny_model, topo22):
        gpipe = run_gpipe(tiny_model, topo22, microbatch_size=1)
        onefb = run_deepspeed_pipeline(tiny_model, topo22, microbatch_size=1)
        assert onefb.step_seconds <= gpipe.step_seconds * 1.05

    def test_activation_traffic_scales_with_microbatches(self, tiny_model, topo22):
        few = run_gpipe(tiny_model, topo22, microbatch_size=1, n_microbatches=2)
        many = run_gpipe(tiny_model, topo22, microbatch_size=1, n_microbatches=4)
        assert many.trace.total_transfer_bytes() == pytest.approx(
            2 * few.trace.total_transfer_bytes(), rel=1e-6
        )

    def test_step_exceeds_critical_path(self, tiny_model, topo22):
        report = run_gpipe(tiny_model, topo22, microbatch_size=1)
        per_gpu = max(
            compute_seconds(report.trace, g) for g in range(topo22.n_gpus)
        )
        assert report.step_seconds >= per_gpu
