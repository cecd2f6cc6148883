"""Execution traces and their post-processing.

Every simulated training step produces a :class:`Trace`: the compute spans
(per GPU) and transfer spans (with byte counts and achieved bandwidth).
The analyses of §4.2 are all derived from traces:

* **bandwidth CDFs** (Figures 2, 7, 11, 16) — per-transfer average bandwidth,
  weighted by bytes transferred;
* **communication traffic** (Figure 6) — total bytes moved per step;
* **non-overlapped communication time** (Figure 8) — per-GPU communication
  intervals minus that GPU's compute intervals.

Storage is columnar (DESIGN.md §12): a trace is built once, from whole
columns, and never changes.  The task runner hands each execution's spans
to the :class:`Trace` constructor as parallel numpy columns — transfer kinds
interned as int codes — which it checks in one vectorized pass and keeps
read-only, so the ``_compute_columns``/``_transfer_columns`` views the
aggregate methods consume are the stored arrays themselves, and a trace of
a ~1M-event datacenter scenario does not hold a million Python span
objects.  ``trace.compute`` / ``trace.transfers`` materialize
:class:`ComputeSpan`/:class:`TransferSpan` records on demand as read-only
tuples; ``__mobius_fingerprint__`` encodes the same records in recording
order.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "ComputeSpan",
    "TransferSpan",
    "Trace",
    "merge_intervals",
    "subtract_intervals",
    "total_length",
]

Interval = tuple[float, float]


@dataclasses.dataclass(frozen=True)
class ComputeSpan:
    """One kernel execution on one GPU."""

    gpu: int
    start: float
    end: float
    label: str = ""


@dataclasses.dataclass(frozen=True)
class TransferSpan:
    """One completed transfer.

    Attributes:
        gpu: The GPU this transfer belongs to (for overlap accounting); for
            a GPU-to-GPU bounce this is the *destination* GPU, whose compute
            waits on it.
        kind: Free-form category, e.g. ``"stage-upload"``, ``"activation"``,
            ``"allgather"``, ``"grad-offload"``.
    """

    gpu: int
    start: float
    end: float
    nbytes: float
    kind: str = ""
    label: str = ""


def _merge_interval_arrays(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized interval union on parallel start/end arrays.

    Empty intervals (``end <= start``) are dropped; touching intervals
    merge, matching the historical list implementation.
    """
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    running_end = np.maximum.accumulate(ends)
    first = np.empty(starts.size, dtype=bool)
    first[0] = True
    np.greater(starts[1:], running_end[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    tails = np.append(heads[1:], starts.size) - 1
    return starts[heads], running_end[tails]


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Union a set of (start, end) intervals into disjoint sorted intervals."""
    pairs = np.array(list(intervals), dtype=float)
    if pairs.size == 0:
        return []
    starts, ends = _merge_interval_arrays(pairs[:, 0], pairs[:, 1])
    return list(zip(starts.tolist(), ends.tolist()))


def subtract_intervals(base: Sequence[Interval], holes: Sequence[Interval]) -> list[Interval]:
    """Set difference ``base \\ holes``; both inputs may overlap internally."""
    base = merge_intervals(base)
    holes = merge_intervals(holes)
    result: list[Interval] = []
    hole_index = 0
    for start, end in base:
        cursor = start
        while hole_index < len(holes) and holes[hole_index][1] <= cursor:
            hole_index += 1
        index = hole_index
        while index < len(holes) and holes[index][0] < end:
            hole_start, hole_end = holes[index]
            if hole_start > cursor:
                result.append((cursor, hole_start))
            cursor = max(cursor, hole_end)
            if cursor >= end:
                break
            index += 1
        if cursor < end:
            result.append((cursor, end))
    return result


def total_length(intervals: Iterable[Interval]) -> float:
    """Sum of interval lengths after merging overlaps."""
    pairs = np.array(list(intervals), dtype=float)
    if pairs.size == 0:
        return 0.0
    starts, ends = _merge_interval_arrays(pairs[:, 0], pairs[:, 1])
    return float(np.sum(ends - starts))


# ----------------------------------------------------------------------
# Columnar span storage
# ----------------------------------------------------------------------

#: Above this many rows, reading ``compute``/``transfers`` does not cache
#: the materialized span objects (a ~1M-row trace would otherwise pin
#: ~100s of MB).
_MATERIALIZE_CACHE_LIMIT = 1 << 17


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only numpy column; an array of ``dtype`` is not copied."""
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class _ColumnStore:
    """The columns of one span family, fixed when the trace is built.

    Each numeric column is an exact-length, read-only numpy array, and the
    labels are a tuple, so the derived values (materialized spans, per-kind
    masks) are computed at most once and never go stale.
    """

    #: (name, dtype) pairs for the numeric columns, in storage order.
    numeric_fields: tuple[tuple[str, object], ...] = ()
    #: The span family, as the validation errors name it.
    what = ""

    def __init__(self, columns: dict) -> None:
        #: Parallel read-only numpy columns over all rows, plus ``label``.
        self.columns = {
            name: _read_only(columns[name], dtype) for name, dtype in self.numeric_fields
        }
        self.columns["label"] = tuple(columns["label"])
        self._spans: tuple | None = None

    def check(self, n_gpus: int) -> None:
        """Reject rows that would silently corrupt the columnar analyses.

        One vectorized pass over every row; the first row that fails raises.
        """
        columns = self.columns
        gpu, start, end = columns["gpu"], columns["start"], columns["end"]
        in_range = (gpu >= 0) & (gpu < n_gpus)
        finite = np.isfinite(start) & np.isfinite(end)
        ok = in_range & finite & (end >= start)
        nbytes = columns.get("nbytes")
        if nbytes is not None:
            ok &= np.isfinite(nbytes) & (nbytes >= 0)
        if ok.all():
            return
        row = int(np.argmin(ok))
        label, first, last = columns["label"][row], float(start[row]), float(end[row])
        if not in_range[row]:
            raise ValueError(
                f"{self.what} span {label!r} is on gpu {int(gpu[row])}, "
                f"outside [0, {n_gpus})"
            )
        if not finite[row]:
            raise ValueError(
                f"{self.what} span {label!r} has non-finite times: [{first}, {last}]"
            )
        if last < first:
            raise ValueError(
                f"{self.what} span {label!r} ends before it starts: [{first}, {last}]"
            )
        raise ValueError(
            f"transfer span {label!r} has invalid byte count {float(nbytes[row])!r}"
        )

    def digest(self) -> str:
        """SHA-256 over the raw column bytes — a cheap bit-exact identity.

        Unlike ``__mobius_fingerprint__`` (which materializes span objects
        and is the pinned corpus contract), this hashes the columns
        directly, so it scales to ~1M-row traces; the parts of
        :meth:`Trace.columnar_digest`.
        """
        columns = self.columns
        sha = hashlib.sha256()
        for name, _ in self.numeric_fields:
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(columns[name]).tobytes())
        for label in columns["label"]:
            sha.update(b"\x1f")
            sha.update(label.encode())
        return sha.hexdigest()

    def materialized(self) -> tuple:
        """All rows as span objects; cached below the size threshold."""
        if self._spans is not None:
            return self._spans
        columns = self.columns
        rows = zip(
            *(columns[name].tolist() for name, _ in self.numeric_fields), columns["label"]
        )
        spans = tuple(self._make_span(row) for row in rows)
        if len(spans) <= _MATERIALIZE_CACHE_LIMIT:
            self._spans = spans
        return spans

    def export_state(self) -> dict:
        """Pickle payload: the numeric columns and a list of labels."""
        state = {name: self.columns[name] for name, _ in self.numeric_fields}
        state["label"] = list(self.columns["label"])
        return state


class _ComputeStore(_ColumnStore):
    numeric_fields = (("gpu", np.int64), ("start", np.float64), ("end", np.float64))
    what = "compute"

    def _make_span(self, row: tuple) -> ComputeSpan:
        gpu, start, end, label = row
        return ComputeSpan(gpu, start, end, label)


class _TransferStore(_ColumnStore):
    # `nbytes_int` preserves the Python numeric type of the recorded byte
    # count across the float64 column round-trip: historical traces carried
    # int byte counts from the task layer, and the fingerprint encoding
    # distinguishes int from float — materialized spans must restore the
    # original type bit for bit (byte counts are well under 2**53).
    numeric_fields = (
        ("gpu", np.int64),
        ("start", np.float64),
        ("end", np.float64),
        ("nbytes", np.float64),
        ("nbytes_int", np.bool_),
        ("kind_code", np.int32),
    )
    what = "transfer"

    def __init__(self, columns: dict) -> None:
        super().__init__(columns)
        # Transfer kinds are drawn from a handful of categories, interned
        # as int codes so kind filters are integer compares, not string
        # membership tests over an object array.
        self._kinds = tuple(columns["kinds"])
        self._kind_codes = {kind: code for code, kind in enumerate(self._kinds)}
        self._masks: dict[int, np.ndarray] = {}

    def _make_span(self, row: tuple) -> TransferSpan:
        gpu, start, end, nbytes, nbytes_int, code, label = row
        if nbytes_int:
            nbytes = int(nbytes)
        return TransferSpan(gpu, start, end, nbytes, self._kinds[code], label)

    def kind_mask(self, kinds: Iterable[str]) -> np.ndarray:
        """Boolean row mask selecting the given kinds, per-kind cached."""
        selected: np.ndarray | None = None
        for kind in kinds:
            code = self._kind_codes.get(kind)
            if code is None:
                continue  # kind never recorded: selects nothing
            mask = self._masks.get(code)
            if mask is None:
                mask = self._masks[code] = _read_only(
                    self.columns["kind_code"] == code, bool
                )
            selected = mask if selected is None else (selected | mask)
        if selected is None:
            return np.zeros(len(self.columns["label"]), dtype=bool)
        return selected

    def export_state(self) -> dict:
        state = super().export_state()
        state["kinds"] = list(self._kinds)
        return state


class Trace:
    """Recorded activity of one simulated training step, fixed once built.

    Args:
        n_gpus: Number of GPUs the trace covers.
        compute: Parallel ``gpu``/``start``/``end``/``label`` columns of
            the compute spans, in recording order.
        transfers: The same columns for the transfer spans plus ``nbytes``,
            ``nbytes_int`` (whether each byte count was a Python int),
            ``kind_code`` and ``kinds`` (the kind of each code, in
            first-use order).  A column that is already a numpy array of
            the stored dtype is kept, not copied, and made read-only.

    Raises:
        ValueError: ``n_gpus`` is not positive, or a span is on a GPU
            outside ``[0, n_gpus)``, has non-finite times, ends before it
            starts, or moves an invalid byte count; the first such row
            raises.
    """

    def __init__(self, n_gpus: int, *, compute: dict, transfers: dict) -> None:
        if n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive, got {n_gpus}")
        self.n_gpus = n_gpus
        self._compute_store = _ComputeStore(compute)
        self._transfer_store = _TransferStore(transfers)
        self._compute_store.check(n_gpus)
        self._transfer_store.check(n_gpus)

    # ------------------------------------------------------------------
    # Span records
    # ------------------------------------------------------------------

    @property
    def compute(self) -> tuple[ComputeSpan, ...]:
        return self._compute_store.materialized()

    @property
    def transfers(self) -> tuple[TransferSpan, ...]:
        return self._transfer_store.materialized()

    def __mobius_fingerprint__(self) -> tuple:
        """Canonical content for :func:`repro.perf.fingerprint.fingerprint`.

        Two traces fingerprint identically iff they recorded the same spans
        in the same order — the determinism contract the fault-injection
        tests assert (same seed + same fault schedule => identical trace).
        The encoding materializes span objects, so the bytes are unchanged
        from the historical list-of-spans layout (pinned in BENCH_sim.json).
        """
        return (
            self.n_gpus,
            self._compute_store.materialized(),
            self._transfer_store.materialized(),
        )

    def columnar_digest(self) -> str:
        """Bit-exact trace identity that never materializes span objects.

        Hashes the raw column buffers; O(bytes) with no per-span Python
        work, so it stays cheap at ~1M spans.  Used by the suite's cell
        result fingerprint and the dispatch-equivalence tests; the pinned
        corpus/chaos rows keep the span-object fingerprint above.
        """
        sha = hashlib.sha256()
        sha.update(f"trace/{self.n_gpus}".encode())
        sha.update(self._compute_store.digest().encode())
        sha.update(self._transfer_store.digest().encode())
        return sha.hexdigest()

    # ------------------------------------------------------------------
    # Pickling (content-addressed cache payloads)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "n_gpus": self.n_gpus,
            "compute": self._compute_store.export_state(),
            "transfers": self._transfer_store.export_state(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["n_gpus"], compute=state["compute"], transfers=state["transfers"]
        )

    # ------------------------------------------------------------------
    # Columnar views
    # ------------------------------------------------------------------

    def _transfer_columns(self) -> dict:
        """Parallel read-only numpy columns over the transfer spans."""
        return self._transfer_store.columns

    def _compute_columns(self) -> dict:
        """Parallel read-only numpy columns over the compute spans."""
        return self._compute_store.columns

    def _kind_mask(self, kinds: Iterable[str]) -> np.ndarray:
        return self._transfer_store.kind_mask(kinds)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End-to-end step time: the last compute or transfer completion."""
        compute_end = self._compute_columns()["end"]
        transfer_end = self._transfer_columns()["end"]
        ends = np.concatenate([compute_end, transfer_end])
        return float(ends.max()) if ends.size else 0.0

    def total_transfer_bytes(self, kinds: Iterable[str] | None = None) -> float:
        """Total bytes moved, optionally restricted to transfer ``kinds``."""
        nbytes = self._transfer_columns()["nbytes"]
        if kinds is not None:
            nbytes = nbytes[self._kind_mask(kinds)]
        return float(nbytes.sum())

    def bandwidth_samples(
        self, min_bytes: float = 0.0, *, kinds: Iterable[str] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-transfer (bandwidth, weight) samples for CDF plots.

        Args:
            min_bytes: Drop transfers at or below this size.
            kinds: Restrict to these transfer kinds.

        Returns:
            ``(bandwidths, weights)`` arrays; weights are bytes transferred,
            matching the paper's "fraction of data transferred at bandwidth
            <= x" CDFs.
        """
        columns = self._transfer_columns()
        durations = columns["end"] - columns["start"]
        mask = (columns["nbytes"] > min_bytes) & (durations > 0)
        if kinds is not None:
            mask &= self._kind_mask(kinds)
        return columns["nbytes"][mask] / durations[mask], columns["nbytes"][mask]

    def bandwidth_cdf(
        self,
        grid: Sequence[float],
        min_bytes: float = 0.0,
        *,
        kinds: Iterable[str] | None = None,
    ) -> np.ndarray:
        """Byte-weighted CDF of transfer bandwidth evaluated on ``grid``."""
        bandwidths, weights = self.bandwidth_samples(min_bytes, kinds=kinds)
        if len(bandwidths) == 0:
            return np.zeros(len(grid))
        order = np.argsort(bandwidths)
        sorted_bw = bandwidths[order]
        cum = np.cumsum(weights[order])
        cum = cum / cum[-1]
        indices = np.searchsorted(sorted_bw, np.asarray(grid, dtype=float), side="right")
        return np.where(indices > 0, cum[np.maximum(indices - 1, 0)], 0.0)

    def median_bandwidth(self, *, kinds: Iterable[str] | None = None) -> float:
        """Byte-weighted median transfer bandwidth."""
        bandwidths, weights = self.bandwidth_samples(kinds=kinds)
        if len(bandwidths) == 0:
            return 0.0
        order = np.argsort(bandwidths)
        cum = np.cumsum(weights[order])
        idx = int(np.searchsorted(cum, cum[-1] / 2.0))
        return float(bandwidths[order][min(idx, len(order) - 1)])

    # ------------------------------------------------------------------
    # Overlap analysis (Figure 8)
    # ------------------------------------------------------------------

    def _gpu_intervals(self, columns: dict, gpu: int) -> list[Interval]:
        mask = columns["gpu"] == gpu
        starts, ends = _merge_interval_arrays(
            columns["start"][mask], columns["end"][mask]
        )
        return list(zip(starts.tolist(), ends.tolist()))

    def gpu_compute_intervals(self, gpu: int) -> list[Interval]:
        return self._gpu_intervals(self._compute_columns(), gpu)

    def gpu_transfer_intervals(self, gpu: int) -> list[Interval]:
        return self._gpu_intervals(self._transfer_columns(), gpu)

    def non_overlapped_comm_seconds(self, gpu: int) -> float:
        """Seconds GPU ``gpu`` spends communicating while computing nothing."""
        comm = self.gpu_transfer_intervals(gpu)
        busy = self.gpu_compute_intervals(gpu)
        return total_length(subtract_intervals(comm, busy))

    def non_overlapped_comm_fraction(self) -> float:
        """Mean over GPUs of non-overlapped communication time / step time."""
        step = self.makespan
        if step <= 0:
            return 0.0
        fractions = [
            self.non_overlapped_comm_seconds(gpu) / step for gpu in range(self.n_gpus)
        ]
        return float(np.mean(fractions))
