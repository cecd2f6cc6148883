"""Tests for Gantt rendering and Chrome-trace export."""

import json

import pytest

from repro.analysis.timeline import ascii_gantt, to_chrome_trace
from tests.helpers import make_trace

GB = 1e9


@pytest.fixture
def trace():
    return make_trace(
        2,
        [(0, 0.0, 1.0, "F0"), (1, 0.5, 1.5, "F1")],
        [(0, 0.0, 0.5, GB, "param-upload", "U0"), (1, 1.0, 1.5, GB, "grad-offload", "G1")],
    )


class TestAsciiGantt:
    def test_has_rows_per_gpu(self, trace):
        chart = ascii_gantt(trace, width=40)
        assert "gpu0 cmp" in chart and "gpu1 cmp" in chart
        assert "gpu0 com" in chart and "gpu1 com" in chart

    def test_compute_glyphs_present(self, trace):
        chart = ascii_gantt(trace, width=40)
        row = next(l for l in chart.splitlines() if l.startswith("gpu0 cmp"))
        assert "=" in row

    def test_transfer_glyph_direction(self, trace):
        chart = ascii_gantt(trace, width=40)
        gpu0_com = next(l for l in chart.splitlines() if l.startswith("gpu0 com"))
        gpu1_com = next(l for l in chart.splitlines() if l.startswith("gpu1 com"))
        assert "v" in gpu0_com  # upload direction glyph
        assert "^" in gpu1_com  # offload glyph

    def test_bars_have_requested_width(self, trace):
        chart = ascii_gantt(trace, width=25)
        row = next(l for l in chart.splitlines() if l.startswith("gpu0 cmp"))
        bar = row.split("|")[1]
        assert len(bar) == 25

    def test_empty_trace(self):
        assert ascii_gantt(make_trace(1)) == "(empty trace)"

    def test_legend_toggle(self, trace):
        assert "legend" in ascii_gantt(trace)
        assert "legend" not in ascii_gantt(trace, label_kinds=False)


class TestChromeTrace:
    def test_valid_json_with_all_events(self, trace):
        payload = json.loads(to_chrome_trace(trace))
        events = payload["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        assert len(complete) == 4  # 2 compute + 2 transfers

    def test_durations_in_microseconds(self, trace):
        payload = json.loads(to_chrome_trace(trace))
        compute = [e for e in payload["traceEvents"] if e.get("cat") == "compute"]
        assert compute[0]["dur"] == pytest.approx(1e6)

    def test_transfer_args(self, trace):
        payload = json.loads(to_chrome_trace(trace))
        transfer = next(
            e for e in payload["traceEvents"] if e.get("cat") == "param-upload"
        )
        assert transfer["args"]["bytes"] == GB
        assert transfer["args"]["bandwidth_GBps"] == pytest.approx(2.0)

    def test_process_metadata(self, trace):
        payload = json.loads(to_chrome_trace(trace))
        names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M"
        ]
        assert names == ["GPU 0", "GPU 1"]
