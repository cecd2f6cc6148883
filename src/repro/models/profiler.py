"""Simulated model profiling with layer-similarity compression (§3.2).

The MIP partition algorithm needs per-layer compute times and memory
footprints.  On real hardware Mobius measures them by running each layer a
few times with prefetching disabled; profiling the whole model is slow, so
Mobius merges layers with identical structure ("layer similarity") and
profiles one representative per group.

Here, "measurement" reads the analytic cost model (optionally with
deterministic multiplicative noise, to exercise robustness of the
partitioner), and the profiling *wall time* is itself simulated — upload
time of the representative layer's parameters plus warm-up and measurement
runs — so Figure 12's profiling-overhead observations can be reproduced:

* profiling time tracks the number of *unique* layers, not total layers;
* models with similar hidden dimensions (8B vs 15B) profile in similar time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hardware.topology import PCIE_EFFECTIVE_BW
from repro.models.costmodel import CostModel, LayerCost
from repro.models.spec import ModelSpec

__all__ = ["ProfileReport", "Profiler"]


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Result of profiling one model.

    Attributes:
        model: The profiled model.
        layer_costs: One measured :class:`LayerCost` per model layer, in
            layer order (group representatives replicated across members).
        profiling_seconds: Simulated wall-clock time the profiling run took.
        n_unique_layers: Number of similarity groups actually measured.
    """

    model: ModelSpec
    layer_costs: tuple[LayerCost, ...]
    profiling_seconds: float
    n_unique_layers: int


class Profiler:
    """Simulates Mobius's profiling pass.

    Args:
        cost_model: Ground-truth layer costs (the "hardware").
        warmup_runs: Discarded executions per measured layer.
        measure_runs: Timed executions per measured layer.
        setup_seconds: Fixed per-profiling-session overhead (process launch,
            CUDA context, model load).
        per_layer_overhead_seconds: Fixed per-measured-layer overhead
            (allocation, synchronisation).
        upload_bandwidth: Bandwidth for staging each measured layer's
            parameters into GPU memory, bytes/s.
        noise: Relative measurement noise amplitude; 0 is exact.
        seed: RNG seed for the (deterministic) noise.
    """

    def __init__(
        self,
        cost_model: CostModel,
        *,
        warmup_runs: int = 2,
        measure_runs: int = 3,
        setup_seconds: float = 10.0,
        per_layer_overhead_seconds: float = 0.5,
        upload_bandwidth: float = PCIE_EFFECTIVE_BW,
        noise: float = 0.0,
        seed: int = 0,
    ) -> None:
        if warmup_runs < 0 or measure_runs <= 0:
            raise ValueError("need measure_runs > 0 and warmup_runs >= 0")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        self.cost_model = cost_model
        self.warmup_runs = warmup_runs
        self.measure_runs = measure_runs
        self.setup_seconds = setup_seconds
        self.per_layer_overhead_seconds = per_layer_overhead_seconds
        self.upload_bandwidth = upload_bandwidth
        self.noise = noise
        self.seed = seed

    def profile(self, model: ModelSpec, *, use_similarity: bool = True) -> ProfileReport:
        """Profile ``model``, measuring one layer per similarity group.

        Args:
            model: Model to profile.
            use_similarity: When ``False``, every layer is measured
                individually (the "basic way" of §3.2, for comparison).
        """
        rng = np.random.default_rng(self.seed)
        groups = (
            model.similarity_groups()
            if use_similarity
            else {("layer", i): [i] for i in range(model.n_layers)}
        )

        measured: dict[int, LayerCost] = {}
        wall = self.setup_seconds
        runs = self.warmup_runs + self.measure_runs
        for members in groups.values():
            representative = model.layers[members[0]]
            true_cost = self.cost_model.layer_cost(representative)
            wall += (
                self.per_layer_overhead_seconds
                + true_cost.param_bytes / self.upload_bandwidth
                + runs * (true_cost.fwd_seconds + true_cost.bwd_seconds)
            )
            factor = 1.0 + (self.noise * rng.uniform(-1.0, 1.0) if self.noise else 0.0)
            observed = dataclasses.replace(
                true_cost,
                fwd_seconds=true_cost.fwd_seconds * factor,
                bwd_seconds=true_cost.bwd_seconds * factor,
            )
            for index in members:
                measured[index] = dataclasses.replace(
                    observed, layer=model.layers[index]
                )

        layer_costs = tuple(measured[i] for i in range(model.n_layers))
        return ProfileReport(
            model=model,
            layer_costs=layer_costs,
            profiling_seconds=wall,
            n_unique_layers=len(groups),
        )
