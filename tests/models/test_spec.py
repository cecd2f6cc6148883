"""Tests for model specs and the Table 3 zoo."""

import pytest

from repro.models.spec import FP16_BYTES, FP32_BYTES, LayerKind, build_gpt_like
from repro.models.zoo import (
    gpt2_small,
    gpt_3b,
    gpt_8b,
    gpt_15b,
    gpt_51b,
    model_by_name,
)


class TestBuildGptLike:
    def test_layer_inventory(self):
        model = build_gpt_like("m", n_blocks=4, hidden_dim=64, n_heads=4)
        kinds = [layer.kind for layer in model.layers]
        assert kinds[0] == LayerKind.EMBEDDING
        assert kinds[1:5] == [LayerKind.TRANSFORMER_BLOCK] * 4
        assert kinds[5] == LayerKind.FINAL_NORM
        assert kinds[6] == LayerKind.LM_HEAD

    def test_block_param_count_formula(self):
        h = 128
        model = build_gpt_like("m", n_blocks=1, hidden_dim=h, n_heads=4)
        block = model.layers[1]
        assert block.param_count == 12 * h * h + 13 * h

    def test_param_bytes_precisions(self):
        model = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=4)
        assert model.param_bytes(FP32_BYTES) == 2 * model.param_bytes(FP16_BYTES)

    def test_activation_scales_with_microbatch(self):
        model = build_gpt_like("m", n_blocks=1, hidden_dim=64, n_heads=4)
        block = model.layers[1]
        assert block.activation_bytes(4) == 4 * block.activation_bytes(1)

    def test_without_embedding(self):
        model = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=4, include_embedding=False)
        assert model.layers[0].kind == LayerKind.TRANSFORMER_BLOCK

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            build_gpt_like("m", n_blocks=0, hidden_dim=64, n_heads=4)
        with pytest.raises(ValueError):
            build_gpt_like("m", n_blocks=1, hidden_dim=4, n_heads=8)

    def test_bwd_flops_recompute_factor(self):
        model = build_gpt_like("m", n_blocks=1, hidden_dim=64, n_heads=4)
        block = model.layers[1]
        assert block.bwd_flops(1, recompute=True) == pytest.approx(
            3.0 * block.fwd_flops(1)
        )
        assert block.bwd_flops(1, recompute=False) == pytest.approx(
            2.0 * block.fwd_flops(1)
        )

    def test_layer_range_validation(self):
        model = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=4)
        assert len(model.layer_range(0, 2)) == 2
        with pytest.raises(ValueError):
            model.layer_range(2, 2)
        with pytest.raises(ValueError):
            model.layer_range(0, 99)


class TestSimilarityGroups:
    def test_blocks_share_one_group(self):
        model = build_gpt_like("m", n_blocks=10, hidden_dim=64, n_heads=4)
        groups = model.similarity_groups()
        # embedding, blocks, final norm, head.
        assert len(groups) == 4
        block_group = groups[(LayerKind.TRANSFORMER_BLOCK, 64, 4)]
        assert len(block_group) == 10

    def test_groups_cover_all_layers(self):
        model = gpt_8b()
        groups = model.similarity_groups()
        members = sorted(i for group in groups.values() for i in group)
        assert members == list(range(model.n_layers))


class TestTable3:
    @pytest.mark.parametrize(
        "factory, billions, heads, hidden, blocks, mbs",
        [
            (gpt_3b, 3, 32, 2048, 64, 2),
            (gpt_8b, 8, 32, 4096, 40, 2),
            (gpt_15b, 15, 64, 5120, 40, 1),
            (gpt_51b, 51, 80, 9216, 50, 1),
        ],
    )
    def test_shapes(self, factory, billions, heads, hidden, blocks, mbs):
        model = factory()
        assert model.n_heads == heads
        assert model.hidden_dim == hidden
        assert model.seq_len == 512
        assert model.default_microbatch_size == mbs
        n_blocks = sum(
            1 for l in model.layers if l.kind == LayerKind.TRANSFORMER_BLOCK
        )
        assert n_blocks == blocks
        # Parameter count lands near the nominal size (within 20%).
        assert model.param_count == pytest.approx(billions * 1e9, rel=0.20)

    def test_zoo_ordering(self):
        sizes = [m.param_count for m in (gpt_3b(), gpt_8b(), gpt_15b(), gpt_51b())]
        assert sizes == sorted(sizes)

    def test_model_by_name(self):
        assert model_by_name("15B").name == "GPT-15B"
        assert model_by_name("gpt-8b").name == "GPT-8B"
        with pytest.raises(KeyError):
            model_by_name("99B")

    def test_gpt2_small_shape(self):
        model = gpt2_small()
        assert model.hidden_dim == 768
        assert model.param_count == pytest.approx(124e6, rel=0.35)

    def test_dram_footprint_fits_paper_server(self):
        # The paper's server has 1.5 TB DRAM; the 51B model must fit.
        assert gpt_51b().dram_footprint_bytes() < 1.5e12


class TestViTBuilder:
    def test_vit_layer_inventory(self):
        from repro.models.spec import build_vit_like

        model = build_vit_like("v", n_blocks=4, hidden_dim=256, n_heads=8)
        kinds = [l.kind for l in model.layers]
        assert kinds[0] == LayerKind.EMBEDDING
        assert kinds[-1] == LayerKind.LM_HEAD
        assert kinds[1:-1] == [LayerKind.TRANSFORMER_BLOCK] * 4

    def test_vit_sequence_from_patch_grid(self):
        from repro.models.spec import build_vit_like

        model = build_vit_like(
            "v", n_blocks=1, hidden_dim=64, n_heads=4, image_size=224, patch_size=16
        )
        assert model.seq_len == 14 * 14 + 1

    def test_vit_patch_divisibility(self):
        from repro.models.spec import build_vit_like

        with pytest.raises(ValueError):
            build_vit_like("v", n_blocks=1, hidden_dim=64, n_heads=4, patch_size=15)

    def test_vit_huge_preset(self):
        from repro.models.zoo import vit_huge

        model = vit_huge()
        assert model.param_count == pytest.approx(632e6, rel=0.05)
        assert model_by_name("vit-h").name == "ViT-Huge"

    def test_vit_plans_and_simulates(self):
        from repro.core.api import MobiusConfig, run_mobius
        from repro.hardware.topology import topo_2_2
        from repro.models.spec import build_vit_like

        model = build_vit_like("v", n_blocks=6, hidden_dim=512, n_heads=8)
        report = run_mobius(
            model, topo_2_2(), MobiusConfig(partition_time_limit=0.5)
        )
        assert report.step_seconds > 0
