"""Tests for per-step price analysis (Figure 15b)."""

import pytest

from repro.analysis.price import PricePoint
from repro.hardware.pricing import COMMODITY_4X3090TI, EC2_P3_8XLARGE


class TestPricePoints:
    def test_step_price(self):
        point = PricePoint("DeepSpeed", EC2_P3_8XLARGE, 3600.0)
        assert point.step_price_usd == pytest.approx(12.24)

    def test_commodity_cheaper_despite_slower(self):
        # Paper §4.8: +42% time but -43% price.
        ds_dc = PricePoint("DeepSpeed", EC2_P3_8XLARGE, 10.0)
        mobius_c = PricePoint("Mobius", COMMODITY_4X3090TI, 14.2)
        assert mobius_c.step_seconds > ds_dc.step_seconds
        assert mobius_c.step_price_usd < ds_dc.step_price_usd
