"""Per-step training price analysis (Figure 15b, §4.8).

Combines per-step times with server rental rates: the paper's punchline is
that Mobius on a commodity 4x3090-Ti server is ~42% slower per step than
DeepSpeed on an EC2 P3 data-center server but ~43% cheaper per step.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.pricing import ServerRental, per_step_price

__all__ = ["PricePoint"]


@dataclasses.dataclass(frozen=True)
class PricePoint:
    """One (system, server) cell of Figure 15."""

    system: str
    server: ServerRental
    step_seconds: float

    @property
    def step_price_usd(self) -> float:
        return per_step_price(self.server, self.step_seconds)
