"""Columnar trace storage: cache tokens, kind interning, pickling.

The storage rewrite (DESIGN.md §12) must be invisible through the public
``Trace`` API: ``compute``/``transfers`` materialize the recorded spans as
tuples, ``__mobius_fingerprint__`` is byte-identical (including the Python
numeric type of transfer byte counts), and every derived cache invalidates
on mutation via the store's generation counter.
"""

import pickle

import numpy as np
import pytest

from repro.perf.fingerprint import fingerprint
from repro.sim.trace import ComputeSpan, Trace, TransferSpan


def make_trace() -> Trace:
    trace = Trace(2)
    trace.add_compute(0, 0.0, 1.0, "fwd0")
    trace.add_compute(1, 0.5, 2.0, "fwd1")
    trace.add_transfer(0, 0.0, 0.5, 4_000_000, "param-upload", "w0")
    trace.add_transfer(1, 1.0, 1.5, 2_000_000, "grad-offload", "g1")
    trace.add_transfer(0, 1.5, 2.5, 1_000_000, "param-upload", "w2")
    return trace


class TestGenerationToken:
    """Satellite: caches key on a generation counter, not ``(id, len)``."""

    def test_append_invalidates_columns(self):
        trace = make_trace()
        before = trace._transfer_columns()
        assert len(before["nbytes"]) == 3
        trace.add_transfer(1, 2.0, 3.0, 500, "param-upload")
        after = trace._transfer_columns()
        assert len(after["nbytes"]) == 4
        assert after["nbytes"][-1] == 500

    def test_view_append_invalidates_kind_masks(self):
        trace = make_trace()
        assert trace.total_transfer_bytes(kinds=("grad-offload",)) == 2_000_000
        trace.add_transfer(0, 3.0, 4.0, 8, "grad-offload")
        assert trace.total_transfer_bytes(kinds=("grad-offload",)) == 2_000_008

    def test_materialized_spans_refresh_after_append(self):
        trace = make_trace()
        assert len(trace.transfers) == 3
        trace.add_transfer(0, 3.0, 4.0, 8, "x")
        assert len(trace.transfers) == 4
        assert trace.transfers[-1] == TransferSpan(0, 3.0, 4.0, 8, "x")


class TestKindInterning:
    """Satellite: per-kind cached masks replace the membership loop."""

    def test_mask_matches_kinds(self):
        trace = make_trace()
        mask = trace._kind_mask(("param-upload",))
        assert mask.tolist() == [True, False, True]
        both = trace._kind_mask(("param-upload", "grad-offload"))
        assert both.tolist() == [True, True, True]

    def test_unknown_kind_selects_nothing(self):
        trace = make_trace()
        assert trace._kind_mask(("allgather",)).tolist() == [False, False, False]
        assert trace.total_transfer_bytes(kinds=("allgather",)) == 0.0

    def test_mask_cache_reused_within_generation(self):
        trace = make_trace()
        first = trace._kind_mask(("param-upload",))
        second = trace._kind_mask(("param-upload",))
        assert first is second or np.array_equal(first, second)

    def test_kinds_survive_pickle(self):
        trace = make_trace()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.total_transfer_bytes(kinds=("grad-offload",)) == 2_000_000
        assert [span.kind for span in clone.transfers] == [
            "param-upload",
            "grad-offload",
            "param-upload",
        ]


class TestNumericTypePreservation:
    """Transfer byte counts round-trip the float64 column with their
    original Python type — the fingerprint encoding distinguishes int from
    float, and the pinned corpus fingerprints carry ints from the task layer.
    """

    def test_int_nbytes_materializes_as_int(self):
        trace = Trace(1)
        trace.add_transfer(0, 0.0, 1.0, 12345, "k")
        span = trace.transfers[0]
        assert type(span.nbytes) is int and span.nbytes == 12345

    def test_float_nbytes_materializes_as_float(self):
        trace = Trace(1)
        trace.add_transfer(0, 0.0, 1.0, 12345.0, "k")
        span = trace.transfers[0]
        assert type(span.nbytes) is float

    def test_fingerprint_distinguishes_int_from_float_bytes(self):
        int_trace, float_trace = Trace(1), Trace(1)
        int_trace.add_transfer(0, 0.0, 1.0, 7, "k")
        float_trace.add_transfer(0, 0.0, 1.0, 7.0, "k")
        assert fingerprint(int_trace) != fingerprint(float_trace)

    def test_pickle_preserves_numeric_type(self):
        trace = Trace(1)
        trace.add_transfer(0, 0.0, 1.0, 7, "k")
        trace.add_transfer(0, 1.0, 2.0, 7.5, "k")
        clone = pickle.loads(pickle.dumps(trace))
        assert fingerprint(clone) == fingerprint(trace)
        assert type(clone.transfers[0].nbytes) is int
        assert type(clone.transfers[1].nbytes) is float


class TestColumnarDigest:
    def test_equal_traces_equal_digests(self):
        assert make_trace().columnar_digest() == make_trace().columnar_digest()

    def test_any_field_changes_digest(self):
        base = make_trace().columnar_digest()
        changed = make_trace()
        changed.add_compute(0, 5.0, 6.0)
        assert changed.columnar_digest() != base

    def test_label_changes_digest(self):
        a, b = Trace(1), Trace(1)
        a.add_compute(0, 0.0, 1.0, "x")
        b.add_compute(0, 0.0, 1.0, "y")
        assert a.columnar_digest() != b.columnar_digest()


class TestViewListBehavior:
    """``compute``/``transfers`` are read-only tuples of span records."""

    def test_equality_against_lists_and_views(self):
        trace = make_trace()
        spans = (
            ComputeSpan(0, 0.0, 1.0, "fwd0"),
            ComputeSpan(1, 0.5, 2.0, "fwd1"),
        )
        assert trace.compute == spans
        assert trace.compute == make_trace().compute
        assert not (trace.compute == spans[:1])

    def test_slicing_and_indexing(self):
        trace = make_trace()
        assert trace.transfers[0].kind == "param-upload"
        assert [s.label for s in trace.transfers[1:]] == ["g1", "w2"]

    def test_invalid_spans_rejected(self):
        trace = Trace(1)
        with pytest.raises(ValueError, match="ends before"):
            trace.add_compute(0, 2.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            trace.add_compute(0, float("nan"), 1.0)
        with pytest.raises(ValueError, match="byte count"):
            trace.add_transfer(0, 0.0, 1.0, -5, "k")
