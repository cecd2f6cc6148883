"""Stage times are left folds, whatever the interpreter's ``sum()`` does.

Python 3.12's ``sum()`` compensates float rounding, so a plan built from
``sum()``-ed stage times would depend on the interpreter.  These tests pin
the 3.10/3.11 left-to-right bits on every interpreter.
"""

import dataclasses

from repro.core.partition import _SearchContext
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel, StageCost, ordered_sum
from repro.models.spec import build_gpt_like

# A compensated sum gives 1.0; the left fold loses the 1.0 to rounding.
CANCELLING = [1e16, 1.0, -1e16]


def test_ordered_sum_folds_left_to_right():
    assert ordered_sum(CANCELLING) == 0.0
    assert ordered_sum([]) == 0.0


def test_stage_times_are_left_folds():
    model = build_gpt_like("m", n_blocks=2, hidden_dim=256, n_heads=4)
    base = CostModel(RTX_3090TI, 1).layer_cost(model.layers[1])
    layers = tuple(
        dataclasses.replace(base, fwd_seconds=value, bwd_seconds=value) for value in CANCELLING
    )
    stage = StageCost(layers, input_activation_bytes=0)
    assert stage.fwd_seconds == 0.0
    assert stage.bwd_seconds == 0.0


def test_search_total_bwd_is_the_whole_model_stage_bwd():
    model = build_gpt_like("m", n_blocks=8, hidden_dim=1024, n_heads=8)
    cm = CostModel(RTX_3090TI, 2)
    ctx = _SearchContext(model, cm, 2, 2, 13.1e9, cm.usable_gpu_bytes())
    whole = cm.stage_cost(model, 0, model.n_layers)
    assert ctx.total_bwd.hex() == whole.bwd_seconds.hex()
