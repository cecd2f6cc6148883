"""Small sums over traces and stage costs, and hand-built traces, shared by the tests."""

from repro.core.timing import PipelineTimings, evaluate_pipeline, stage_record
from repro.models.costmodel import StageCost
from repro.sim.trace import ComputeSpan, Trace, TransferSpan, total_length


def compute_seconds(trace: Trace, gpu: int | None = None) -> float:
    """Merged compute time of ``gpu``, or summed over every GPU."""
    gpus = range(trace.n_gpus) if gpu is None else (gpu,)
    return sum(total_length(trace.gpu_compute_intervals(g)) for g in gpus)


def mem_peak(stage: StageCost, m: int) -> int:
    """The larger of a stage's forward and backward footprints (Eq. 4)."""
    return max(stage.mem_fwd(m), stage.mem_bwd(m))


def stage_records(stages, m: int, bandwidth: float, gpu_memory: int) -> list:
    """:func:`stage_record` of each stage cost."""
    return [stage_record(stage, m, bandwidth, gpu_memory) for stage in stages]


def evaluate_costs(
    stages, n_gpus: int, m: int, bandwidth: float, gpu_memory: int, **kwargs
) -> PipelineTimings:
    """:func:`evaluate_pipeline` of stage costs, through their records."""
    records = stage_records(stages, m, bandwidth, gpu_memory)
    return evaluate_pipeline(records, n_gpus, m, bandwidth, gpu_memory, **kwargs)


def span_columns(compute=(), transfers=()) -> tuple[dict, dict]:
    """The ``Trace`` constructor's ``compute`` and ``transfers`` columns.

    ``compute`` holds ``(gpu, start, end[, label])`` tuples and ``transfers``
    holds ``(gpu, start, end, nbytes[, kind[, label]])`` tuples, each in
    recording order. Kinds are interned in first-use order, and a byte count
    keeps its Python type through ``nbytes_int``.
    """
    compute = [ComputeSpan(*span) for span in compute]
    transfers = [TransferSpan(*span) for span in transfers]
    kinds = list(dict.fromkeys(span.kind for span in transfers))

    def columns(spans, fields):
        return {field: [getattr(span, field) for span in spans] for field in fields}

    transfer_columns = columns(transfers, ("gpu", "start", "end", "nbytes", "label"))
    transfer_columns.update(
        nbytes_int=[isinstance(span.nbytes, int) for span in transfers],
        kind_code=[kinds.index(span.kind) for span in transfers],
        kinds=kinds,
    )
    return columns(compute, ("gpu", "start", "end", "label")), transfer_columns


def make_trace(n_gpus: int, compute=(), transfers=()) -> Trace:
    """A trace of the given span tuples (see :func:`span_columns`)."""
    compute_columns, transfer_columns = span_columns(compute, transfers)
    return Trace(n_gpus, compute=compute_columns, transfers=transfer_columns)
