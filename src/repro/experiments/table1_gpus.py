"""Table 1: performance and price comparison of 3090-Ti and A100."""

from __future__ import annotations

from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.hardware.gpu import A100, RTX_3090TI

__all__ = ["cells", "run"]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """No simulation cells: a pure spec-database lookup."""
    return ()


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Table 1 from the GPU spec database.

    ``fast`` changes nothing: the table simulates nothing.
    """
    table = ExperimentTable(
        title="Table 1: 3090-Ti vs A100",
        columns=("attribute", "3090-Ti", "A100"),
    )
    rows = [
        ("Price", f"${RTX_3090TI.price_usd:,.0f}", f"${A100.price_usd:,.0f}"),
        (
            "FP32 Performance",
            f"{RTX_3090TI.fp32_tflops:.0f} TFlops",
            f"{A100.fp32_tflops:.0f} TFlops",
        ),
        ("Tensor Cores", str(RTX_3090TI.tensor_cores), str(A100.tensor_cores)),
        (
            "GPUDirect P2P",
            "support" if RTX_3090TI.supports_p2p else "not support",
            "support" if A100.supports_p2p else "not support",
        ),
        (
            "High-bandwidth Connectivity",
            "support" if RTX_3090TI.supports_nvlink else "not support",
            "support" if A100.supports_nvlink else "not support",
        ),
    ]
    for row in rows:
        table.add_row(*row)
    table.notes.append(
        f"price ratio A100/3090-Ti = {A100.price_usd / RTX_3090TI.price_usd:.0f}x"
    )
    return table
