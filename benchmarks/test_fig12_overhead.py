"""Figure 12: profiling, MIP-solving and cross-mapping overheads."""

from benchmarks.conftest import show
from repro.experiments import fig12_overhead


def test_fig12(run_once):
    table = run_once(fig12_overhead.run, fast=True)
    show(table)
    profiling = dict(zip(table.column("model"), table.column("profiling")))
    # Paper: 8B and 15B profile in similar time thanks to layer similarity.
    assert abs(profiling["GPT-8B"] - profiling["GPT-15B"]) / profiling["GPT-8B"] < 0.3
    for row in table.rows:
        _model, prof, solve, mapping, _nodes, gap, unique = row
        # Overheads are seconds, negligible against hours of fine-tuning.
        assert prof < 60.0
        assert solve < 30.0
        assert mapping < 5.0
        assert gap == 0.0  # the partition search exhausts on every row
        assert unique == 4  # embedding, block, final norm, head
