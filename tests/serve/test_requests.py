"""Request content-addressing: solve keys, deadlines, and the memo-key pin."""

import dataclasses

import pytest

from repro.core.api import MobiusConfig, plan_mobius
from repro.perf.cache import cache_overridden, get_cache
from repro.serve.requests import Deadline, PlanRequest


def _request(tiny_model, topo22, **kwargs) -> PlanRequest:
    return PlanRequest(
        model=tiny_model,
        topology=topo22,
        config=MobiusConfig(partition_time_limit=1.0),
        **kwargs,
    )


class TestDeadline:
    def test_requires_positive_budget(self):
        with pytest.raises(ValueError, match="max_nodes"):
            Deadline(max_nodes=0)

    def test_folds_into_the_effective_config(self, tiny_model, topo22):
        request = _request(tiny_model, topo22, deadline=Deadline(max_nodes=7))
        assert request.effective_config().partition_max_nodes == 7
        assert request.config.partition_max_nodes is None  # original untouched

    def test_no_deadline_keeps_the_config(self, tiny_model, topo22):
        request = _request(tiny_model, topo22)
        assert request.effective_config() is request.config


class TestSolveKey:
    def test_tenant_excluded_for_cross_tenant_coalescing(self, tiny_model, topo22):
        a = _request(tiny_model, topo22, tenant="alpha")
        b = _request(tiny_model, topo22, tenant="beta")
        assert a.solve_key() == b.solve_key()

    def test_deadline_included(self, tiny_model, topo22):
        full = _request(tiny_model, topo22)
        tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
        assert full.solve_key() != tight.solve_key()

    def test_quality_key_ignores_the_deadline(self, tiny_model, topo22):
        full = _request(tiny_model, topo22)
        tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
        assert full.quality_key() == tight.quality_key()
        # The last-known-good key is the unbudgeted request's plan key.
        assert full.quality_key() == full.memo_key() != tight.memo_key()

    def test_only_a_budget_within_the_default_settles_the_quality_key(
        self, tiny_model, topo22
    ):
        from repro.core.partition import DEFAULT_MAX_NODES

        assert not _request(tiny_model, topo22).settles_quality_key()
        for budget, settles in ((1, True), (DEFAULT_MAX_NODES, True),
                                (DEFAULT_MAX_NODES + 1, False)):
            request = _request(tiny_model, topo22, deadline=Deadline(max_nodes=budget))
            assert request.settles_quality_key() is settles

    def test_real_config_changes_separate_keys(self, tiny_model, topo22):
        base = _request(tiny_model, topo22)
        other = dataclasses.replace(
            base, config=dataclasses.replace(base.config, n_microbatches=8)
        )
        assert base.memo_key() != other.memo_key()

    def test_frozen(self, tiny_model, topo22):
        request = _request(tiny_model, topo22)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.tenant = "other"


class TestMemoKeyPin:
    def test_memo_key_matches_plan_mobius_cache_key(self, tiny_model, topo22):
        """Pin the coupling: daemon-side lookups must hit plan_mobius entries.

        PlanRequest.memo_key() mirrors the exact memoize key used inside
        plan_mobius; if either side changes shape, the daemon silently
        stops seeing worker-computed plans — this test is the tripwire.
        """
        request = _request(tiny_model, topo22, deadline=Deadline(max_nodes=64))
        with cache_overridden():
            _, found_before = get_cache().lookup("plan", request.memo_key())
            assert not found_before
            report = plan_mobius(tiny_model, topo22, request.effective_config())
            value, found = get_cache().lookup("plan", request.memo_key())
            assert found
            assert value is report
