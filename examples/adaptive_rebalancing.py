"""Runtime adaptation under stream-rate perturbations (Section 3.7).

Distributes a workload, then repeatedly perturbs substream rates (as in
the Figure 10 experiment) and lets the adaptive redistribution re-balance
load and repair communication cost -- printing cost, load deviation and
migration counts per round.

Run:  python examples/adaptive_rebalancing.py
"""

import random

from repro.core import Cosmos, CosmosConfig
from repro.query import WorkloadParams, generate_workload
from repro.sim import CostModel, load_stddev
from repro.topology import (
    LatencyOracle,
    TransitStubParams,
    generate_transit_stub,
    select_roles,
)


def main() -> None:
    topology = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=4,
                          stubs_per_transit_node=4, stub_nodes=6),
        seed=1,
    )
    oracle = LatencyOracle(topology)
    sources, processors = select_roles(topology, 8, 16, seed=2)
    workload = generate_workload(
        WorkloadParams(num_substreams=1500, num_queries=500,
                       substreams_per_query=(10, 25)),
        sources, processors, seed=3,
    )
    cosmos = Cosmos(oracle, processors, workload.space,
                    CosmosConfig(k=4, vmax=60))
    cosmos.distribute(workload.queries)
    cost_model = CostModel(workload.space, oracle)

    rng = random.Random(7)
    pattern = ["I", "D", "I", "I", "D"]
    print(f"{'round':>5} {'perturb':>7} {'cost(k)':>9} {'stddev':>7}"
          f" {'migrations':>10}")
    for rnd, kind in enumerate(pattern, start=1):
        streams = rng.sample(range(len(workload.space)), 100)
        factor = 3.0 if kind == "I" else 1.0 / 3.0
        workload.space.perturb_rates(streams, factor)

        # statistics collection notices, then one adaptation round runs
        cosmos.refresh_statistics(workload)
        report = cosmos.adapt()

        placement = dict(cosmos.placement)
        cost = cost_model.weighted_cost(placement, workload.queries)
        std = load_stddev(placement, workload.queries, processors)
        print(f"{rnd:>5} {kind:>7} {cost / 1e3:>9.1f} {std:>7.2f}"
              f" {report.migrated_queries:>10}")


if __name__ == "__main__":
    main()
