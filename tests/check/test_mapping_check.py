"""Tests for the contention-degree mapping checker (repro.check.mapping_check)."""

from __future__ import annotations

import pytest

from repro.check.mapping_check import check_mapping, optimal_contention
from repro.core.mapping import contention_degree
from repro.core.plan import Mapping
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4


class TestOptimalContention:
    def test_matches_exhaustive_search(self):
        topo = topo_2_2()
        best = optimal_contention(topo, n_stages=8)
        # Cross mapping on 2+2 alternates root complexes, e.g. (0, 2, 1, 3).
        assert best == pytest.approx(
            contention_degree(topo, Mapping((0, 2, 1, 3)), 8)
        )

    def test_single_root_complex_has_no_slack(self):
        # All four GPUs of topo_4 share one root complex: every permutation
        # has the same contention, so every mapping is optimal.
        topo = topo_4()
        best = optimal_contention(topo, n_stages=8)
        worst = contention_degree(topo, Mapping.sequential(4), 8)
        assert best == pytest.approx(worst)

    def test_rejects_large_servers(self):
        from repro.hardware.topology import commodity_server

        topo = commodity_server([3, 3, 3])
        with pytest.raises(ValueError, match="exact contention search"):
            optimal_contention(topo, n_stages=9)


class TestCheckMapping:
    def test_planner_mapping_is_optimal(self, planned_tiny):
        report, topology = planned_tiny
        plan = report.plan
        result = check_mapping(plan.mapping, topology, plan.n_stages)
        assert result.ok, result.render()

    def test_sequential_mapping_flagged_on_2_2(self):
        topo = topo_2_2()
        result = check_mapping(Mapping.sequential(4), topo, n_stages=8)
        codes = {f.code for f in result}
        assert codes == {"MAP-CONTENTION"}
        finding = result.findings[0]
        # Adjacent stages (0,1) land on GPUs 0 and 1 — same root complex.
        assert "(0,1)" in finding.message
        assert finding.slack is not None and finding.slack < 0

    def test_sequential_mapping_ok_on_asymmetric_server(self):
        # 1+3: GPU 0 is alone on its root complex; the identity permutation
        # may or may not be optimal — but the *optimal* one must pass.
        topo = topo_1_3()
        n_stages = 8
        for perm_result in [check_mapping(Mapping.sequential(4), topo, n_stages)]:
            for finding in perm_result:
                assert finding.code == "MAP-CONTENTION"
