"""Columnar trace storage: kind interning, read-only columns, pickling.

The storage (DESIGN.md §12) must be invisible through the public ``Trace``
API: ``compute``/``transfers`` materialize the recorded spans as tuples,
``__mobius_fingerprint__`` is byte-identical (including the Python numeric
type of transfer byte counts), and a built trace cannot be written to.
"""

import pickle

import numpy as np
import pytest

from repro.perf.fingerprint import fingerprint
from repro.sim.trace import ComputeSpan, Trace
from tests import helpers

COMPUTE = [(0, 0.0, 1.0, "fwd0"), (1, 0.5, 2.0, "fwd1")]
TRANSFERS = [
    (0, 0.0, 0.5, 4_000_000, "param-upload", "w0"),
    (1, 1.0, 1.5, 2_000_000, "grad-offload", "g1"),
    (0, 1.5, 2.5, 1_000_000, "param-upload", "w2"),
]


def make_trace() -> Trace:
    return helpers.make_trace(2, COMPUTE, TRANSFERS)


class _Pickled:
    """Pickles as a ``Trace`` carrying ``state``, as a cache payload would."""

    def __init__(self, state: dict) -> None:
        self.state = state

    def __reduce__(self):
        return Trace.__new__, (Trace,), self.state


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
        trace = helpers.make_trace(1, transfers=[(0, 0.0, 1.0, 12345, "k")])
        span = trace.transfers[0]
        assert type(span.nbytes) is int and span.nbytes == 12345

    def test_float_nbytes_materializes_as_float(self):
        trace = helpers.make_trace(1, transfers=[(0, 0.0, 1.0, 12345.0, "k")])
        span = trace.transfers[0]
        assert type(span.nbytes) is float

    def test_fingerprint_distinguishes_int_from_float_bytes(self):
        int_trace = helpers.make_trace(1, transfers=[(0, 0.0, 1.0, 7, "k")])
        float_trace = helpers.make_trace(1, transfers=[(0, 0.0, 1.0, 7.0, "k")])
        assert fingerprint(int_trace) != fingerprint(float_trace)

    def test_pickle_preserves_numeric_type(self):
        trace = helpers.make_trace(
            1, transfers=[(0, 0.0, 1.0, 7, "k"), (0, 1.0, 2.0, 7.5, "k")]
        )
        clone = pickle.loads(pickle.dumps(trace))
        assert fingerprint(clone) == fingerprint(trace)
        assert type(clone.transfers[0].nbytes) is int
        assert type(clone.transfers[1].nbytes) is float


class TestColumnarDigest:
    def test_equal_traces_equal_digests(self):
        assert make_trace().columnar_digest() == make_trace().columnar_digest()

    def test_any_field_changes_digest(self):
        base = make_trace().columnar_digest()
        changed = helpers.make_trace(2, [*COMPUTE, (0, 5.0, 6.0)], TRANSFERS)
        assert changed.columnar_digest() != base

    def test_label_changes_digest(self):
        a = helpers.make_trace(1, [(0, 0.0, 1.0, "x")])
        b = helpers.make_trace(1, [(0, 0.0, 1.0, "y")])
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
        with pytest.raises(ValueError, match="ends before"):
            helpers.make_trace(1, [(0, 2.0, 1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            helpers.make_trace(1, [(0, float("nan"), 1.0)])
        with pytest.raises(ValueError, match="byte count"):
            helpers.make_trace(1, transfers=[(0, 0.0, 1.0, -5, "k")])


class TestBuiltOnce:
    """A built trace is fixed: its columns are read-only, and unpickling
    goes through the constructor and its checks."""

    def test_columns_are_read_only(self):
        columns = make_trace()._transfer_columns()
        with pytest.raises(ValueError, match="read-only"):
            columns["nbytes"][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            columns["kind_code"][:] = 0

    @pytest.mark.parametrize(
        "family,column,value,match",
        [
            ("compute", "end", float("nan"), "non-finite times"),
            ("transfers", "end", float("nan"), "non-finite times"),
            ("transfers", "nbytes", -1.0, "invalid byte count"),
        ],
    )
    def test_unpickling_a_bad_state_raises(self, family, column, value, match):
        state = make_trace().__getstate__()
        bad = np.array(state[family][column])
        bad[0] = value
        state[family] = {**state[family], column: bad}
        with pytest.raises(ValueError, match=match):
            pickle.loads(pickle.dumps(_Pickled(state)))

    def test_parent_state_shape_loads_and_fingerprints_the_same(self):
        trace = make_trace()
        # The layout pickled cache payloads carry: writable numpy columns,
        # and lists for the labels and kinds.
        state = {
            "n_gpus": 2,
            "compute": {
                "gpu": np.array([0, 1], dtype=np.int64),
                "start": np.array([0.0, 0.5]),
                "end": np.array([1.0, 2.0]),
                "label": ["fwd0", "fwd1"],
            },
            "transfers": {
                "gpu": np.array([0, 1, 0], dtype=np.int64),
                "start": np.array([0.0, 1.0, 1.5]),
                "end": np.array([0.5, 1.5, 2.5]),
                "nbytes": np.array([4e6, 2e6, 1e6]),
                "nbytes_int": np.array([True, True, True]),
                "kind_code": np.array([0, 1, 0], dtype=np.int32),
                "label": ["w0", "g1", "w2"],
                "kinds": ["param-upload", "grad-offload"],
            },
        }
        clone = pickle.loads(pickle.dumps(_Pickled(state)))
        assert fingerprint(clone) == fingerprint(trace)
        assert clone.columnar_digest() == trace.columnar_digest()
        own = trace.__getstate__()
        assert own.keys() == state.keys()
        for family in ("compute", "transfers"):
            assert own[family].keys() == state[family].keys()
