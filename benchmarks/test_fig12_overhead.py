"""Figure 12: profiling time and the partition and mapping search work."""

from benchmarks.conftest import show
from repro.experiments import fig12_overhead
from repro.perf.bench import Stopwatch
from repro.perf.cache import cache_overridden


def test_fig12():
    # Cold: the figure's wall is the whole planning overhead of its rows.
    with cache_overridden(memory=False, disk=False):
        watch = Stopwatch()
        table = fig12_overhead.run(fast=True)
        seconds = watch.seconds
    show(table)
    # Overheads are seconds, negligible against hours of fine-tuning.
    assert seconds < 30.0
    profiling = dict(zip(table.column("model"), table.column("profiling")))
    # Paper: 8B and 15B profile in similar time thanks to layer similarity.
    assert abs(profiling["GPT-8B"] - profiling["GPT-15B"]) / profiling["GPT-8B"] < 0.3
    for row in table.rows:
        _model, prof, _nodes, schemes, _stages, gap, unique = row
        assert prof < 60.0
        # The 4 root-complex classes of Topo 1+3 stand for all 24 schemes.
        assert schemes == 4
        assert gap == 0.0  # the partition search exhausts on every row
        assert unique == 4  # embedding, block, final norm, head
