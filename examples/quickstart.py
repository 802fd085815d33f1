"""Quickstart: distribute a continuous-query workload with COSMOS.

Builds a small WAN, generates a zipf-clustered query population, runs the
hierarchical initial distribution, and compares its weighted communication
cost against the naive place-at-proxy policy.

Run:  python examples/quickstart.py
"""

from repro.baselines import naive_placement
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
    # 1. a transit-stub WAN with 10 stream sources and 24 processors
    topology = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=4,
                          stubs_per_transit_node=4, stub_nodes=6),
        seed=1,
    )
    oracle = LatencyOracle(topology)
    sources, processors = select_roles(topology, 10, 24, seed=2)
    print(f"topology: {topology.n} nodes, "
          f"{len(sources)} sources, {len(processors)} processors")

    # 2. a query population with group hot spots (Section 4.1's workload)
    workload = generate_workload(
        WorkloadParams(num_substreams=2000, num_queries=1000,
                       substreams_per_query=(10, 20),
                       selectivity_range=(0.01, 0.05)),
        sources, processors, seed=3,
    )
    print(f"workload: {len(workload.queries)} queries over "
          f"{len(workload.space)} substreams")

    # 3. the COSMOS middleware: coordinator tree + hierarchical mapping
    cosmos = Cosmos(oracle, processors, workload.space,
                    CosmosConfig(k=4, vmax=60))
    placement = cosmos.distribute(workload.queries)
    print(f"coordinator tree height {cosmos.tree_height()}, "
          f"{cosmos.coordinator_count()} coordinators")

    # 4. measure: weighted communication cost and load balance
    cost_model = CostModel(workload.space, oracle)
    for name, pl in (
        ("naive (stay at proxy)", naive_placement(workload.queries)),
        ("COSMOS", placement),
    ):
        cost = cost_model.weighted_cost(pl, workload.queries)
        std = load_stddev(pl, workload.queries, processors)
        print(f"  {name:<22} cost = {cost / 1e3:9.1f}k   load stddev = {std:6.2f}")

    # 5. online insertion: a new query arrives and is routed level by level
    new_query = workload.new_queries(1, processors)[0]
    host = cosmos.insert(new_query)
    print(f"new query {new_query.query_id} routed to processor {host}")

    # 6. one adaptation round
    report = cosmos.adapt()
    print(f"adaptation: {report.migrated_queries} queries migrated, "
          f"{report.coordinator_moves} coordinator-level moves")


if __name__ == "__main__":
    main()
