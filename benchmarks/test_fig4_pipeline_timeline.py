"""Figure 4: pipeline timeline, sequential vs cross mapping."""

from benchmarks.conftest import show
from repro.experiments import fig4_pipeline_timeline


def test_fig4(run_once):
    tables = run_once(fig4_pipeline_timeline.run)
    show(tables)
    table = tables[0]  # the summary; the two mapping timelines follow
    rows = {row[0]: row for row in table.rows}
    # Cross mapping never slows the pipeline and transfers at least as fast.
    assert rows["cross"][1] <= rows["sequential"][1] * 1.005
    assert rows["cross"][2] >= rows["sequential"][2] - 0.3
