"""Planning is a function of its inputs, not of what the process planned before."""

from repro.core.api import MobiusConfig, plan_mobius
from repro.hardware.topology import commodity_server
from repro.models.zoo import gpt2_small
from repro.perf.cache import cache_overridden


def test_repeat_solve_matches_the_first_after_an_unrelated_plan():
    model = gpt2_small()
    config = MobiusConfig()
    with cache_overridden(memory=False, disk=False):
        first = plan_mobius(model, commodity_server([1, 2]), config)
        plan_mobius(model, commodity_server([2, 2]), config)
        repeat = plan_mobius(model, commodity_server([1, 2]), config)

    assert repeat.partition_result.nodes_explored == first.partition_result.nodes_explored
    assert repeat.plan.partition.boundaries == first.plan.partition.boundaries
