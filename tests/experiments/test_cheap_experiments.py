"""Smoke tests for the fastest experiment harnesses (the benchmark suite
covers the rest with full shape assertions)."""

from repro.experiments import (
    fig2_deepspeed_cdf,
    fig4_pipeline_timeline,
    fig6_traffic,
    sec23_deepspeed_profile,
)


class TestCheapExperiments:
    def test_fig2_cdf_shape(self):
        table = fig2_deepspeed_cdf.run()
        cdf = table.column("cdf")
        assert cdf == sorted(cdf)  # monotone
        assert cdf[-1] == 1.0

    def test_fig6_fast(self):
        table = fig6_traffic.run(fast=True)
        assert len(table.rows) == 2
        for row in table.rows:
            assert float(row[6]) > 3 * float(row[7])  # DS moves much more

    def test_sec23_profile(self):
        table = sec23_deepspeed_profile.run()
        measured = dict(zip(table.column("metric"), table.column("measured")))
        assert float(measured["comm fraction of step"]) > 0.7

    def test_fig4_prints_both_mapping_charts(self):
        summary, *charts = fig4_pipeline_timeline.run()
        assert summary.column("mapping") == ["sequential", "cross"]
        assert [chart.title for chart in charts] == [
            "Figure 4a: sequential mapping timeline (15B, Topo 4+4)",
            "Figure 4b: cross mapping timeline (15B, Topo 4+4)",
        ]
        lanes = [f"gpu{gpu} {lane} |" for gpu in range(8) for lane in ("cmp", "com")]
        for chart in charts:
            bars = chart.column("timeline")
            assert [bar[: len(lane)] for bar, lane in zip(bars, lanes)] == lanes
            assert {len(bar) for bar in bars} == {len("gpu0 cmp ||") + 110}
            assert "=" in bars[0]  # GPU 0 computes
