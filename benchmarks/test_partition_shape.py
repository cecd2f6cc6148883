"""The shape of the plans the §3.2 partition search returns.

§3.2 frames partitioning as a trade-off: more stages mean more activation
traffic, fewer stages larger uploads and less room to prefetch.  In this
cost model the trade-off barely binds.  For GPT-8B, 15B and 51B on every
paper topology the search exhausts and returns L - 1 stages: each layer
alone except one merged pair at the tail.  A cost-model change that makes
the trade-off bind moves these plans, and this check shows it.
"""

import pytest

from repro.core.api import plan_mobius
from repro.hardware import topology as topologies
from repro.models.zoo import gpt_8b, gpt_15b, gpt_51b


@pytest.mark.parametrize(
    "topology_name", ["topo_4", "topo_1_3", "topo_2_2", "topo_4_4", "datacenter_server"]
)
@pytest.mark.parametrize("factory", [gpt_8b, gpt_15b, gpt_51b], ids=lambda f: f.__name__)
def test_finest_split_but_one(factory, topology_name):
    model = factory()
    result = plan_mobius(model, getattr(topologies, topology_name)()).partition_result
    print(f"\n{model.name} on {topology_name}: {result.partition.n_stages} stages "
          f"of {model.n_layers} layers, {result.nodes_explored} nodes")
    assert result.optimal
    assert result.gap == 0.0
    assert result.partition.n_stages == model.n_layers - 1
