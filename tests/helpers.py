"""Small sums over traces and stage costs, shared by the tests."""

from repro.models.costmodel import StageCost
from repro.sim.trace import Trace, total_length


def compute_seconds(trace: Trace, gpu: int | None = None) -> float:
    """Merged compute time of ``gpu``, or summed over every GPU."""
    gpus = range(trace.n_gpus) if gpu is None else (gpu,)
    return sum(total_length(trace.gpu_compute_intervals(g)) for g in gpus)


def mem_peak(stage: StageCost, m: int) -> int:
    """The larger of a stage's forward and backward footprints (Eq. 4)."""
    return max(stage.mem_fwd(m), stage.mem_bwd(m))
