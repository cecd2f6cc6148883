"""Trace timelines: ASCII Gantt charts and Chrome-trace export.

Figure 4 of the paper explains Mobius with a pipeline timeline (F/B compute
boxes and C stage-transfer boxes per GPU).  This module renders the same
view from a simulated :class:`~repro.sim.trace.Trace`:

* :func:`ascii_gantt` — a terminal Gantt chart, one row per GPU for compute
  and one for communication, so schedules can be eyeballed in CI logs;
* :func:`to_chrome_trace` — Chrome ``chrome://tracing`` / Perfetto JSON, for
  interactive inspection of larger traces.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.sim.trace import Trace

__all__ = ["ascii_gantt", "to_chrome_trace"]


def _bar(
    spans: Sequence[tuple[float, float, str]],
    makespan: float,
    width: int,
) -> str:
    """Render spans (start, end, glyph) onto a fixed-width character bar."""
    cells = [" "] * width
    for start, end, glyph in spans:
        lo = int(start / makespan * width)
        hi = max(lo + 1, int(end / makespan * width))
        for index in range(lo, min(hi, width)):
            cells[index] = glyph if cells[index] == " " else "#"
    return "".join(cells)


def ascii_gantt(trace: Trace, *, width: int = 100, label_kinds: bool = True) -> str:
    """Render a trace as an ASCII Gantt chart.

    One pair of rows per GPU: ``cmp`` (compute, drawn with ``=``) and
    ``com`` (communication; uploads ``^``, downloads/other ``v``,
    activations ``a``).  Overlapping communication renders as ``#``.

    Args:
        trace: A completed simulation trace.
        width: Chart width in characters.
        label_kinds: Include the glyph legend.
    """
    makespan = trace.makespan
    if makespan <= 0:
        return "(empty trace)"
    glyph_of_kind = {
        "param-upload": "v",
        "act-upload": "v",
        "allgather": "v",
        "shard-restore": "v",
        "activation": "a",
        "act-offload": "^",
        "grad-offload": "^",
        "reduce-scatter": "^",
    }
    lines = [f"step = {makespan:.3f}s, 1 column ~ {makespan / width * 1e3:.1f} ms"]
    for gpu in range(trace.n_gpus):
        compute = [
            (s.start, s.end, "=") for s in trace.compute if s.gpu == gpu
        ]
        comm = [
            (s.start, s.end, glyph_of_kind.get(s.kind, "v"))
            for s in trace.transfers
            if s.gpu == gpu
        ]
        lines.append(f"gpu{gpu} cmp |{_bar(compute, makespan, width)}|")
        lines.append(f"gpu{gpu} com |{_bar(comm, makespan, width)}|")
    if label_kinds:
        lines.append("legend: = compute, v download, ^ offload, a activation, # overlap")
    return "\n".join(lines)


def to_chrome_trace(trace: Trace) -> str:
    """Serialise a trace to Chrome-tracing JSON (open in Perfetto).

    Compute spans go on ``tid 0`` of each GPU's process; transfers on
    ``tid 1``.  Times are exported in microseconds as the format requires.
    """
    events = []
    for span in trace.compute:
        events.append(
            {
                "name": span.label or "compute",
                "cat": "compute",
                "ph": "X",
                "pid": span.gpu,
                "tid": 0,
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
            }
        )
    for span in trace.transfers:
        duration = span.end - span.start
        bandwidth = span.nbytes / duration if duration > 0 else 0.0
        events.append(
            {
                "name": span.label or span.kind or "transfer",
                "cat": span.kind or "transfer",
                "ph": "X",
                "pid": span.gpu,
                "tid": 1,
                "ts": span.start * 1e6,
                "dur": duration * 1e6,
                "args": {
                    "bytes": span.nbytes,
                    "bandwidth_GBps": bandwidth / 1e9,
                },
            }
        )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": gpu,
            "args": {"name": f"GPU {gpu}"},
        }
        for gpu in range(trace.n_gpus)
    ]
    return json.dumps({"traceEvents": metadata + events}, indent=None)
