"""Experiment configurations: bench-scale presets plus the paper-scale one.

The paper's simulation uses a 4096-node GT-ITM transit-stub topology with
100 sources, 256 processors, 20,000 substreams and 5,000-60,000 queries.
Pure-Python optimization at that scale takes hours, so the bench presets
shrink every dimension while preserving the ratios that drive the
phenomena (queries per processor, substream sampling fraction, group
count); ``paper_scale()`` retains the original numbers for anyone willing
to wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cosmos import Cosmos, CosmosConfig
from ..query.workload import Workload, WorkloadParams, generate_workload
from ..sim.metrics import CostModel
from ..topology.latency import LatencyOracle, select_roles
from ..topology.overlay import minimum_latency_spanning_tree
from ..topology.transit_stub import TransitStubParams, Topology, generate_transit_stub

__all__ = ["ExperimentConfig", "Testbed", "bench_scale", "paper_scale", "build_testbed"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to set up one simulation run."""

    topology: TransitStubParams
    num_sources: int
    num_processors: int
    workload: WorkloadParams
    cosmos: CosmosConfig = CosmosConfig()
    seed: int = 0

    def with_queries(self, num_queries: int) -> "ExperimentConfig":
        """Copy of this config with a different query-population size."""
        from dataclasses import replace

        return replace(self, workload=replace(self.workload, num_queries=num_queries))

    def with_k(self, k: int) -> "ExperimentConfig":
        """Copy of this config with a different cluster-size parameter."""
        from dataclasses import replace

        return replace(self, cosmos=replace(self.cosmos, k=k))


def bench_scale(num_queries: int = 1500) -> ExperimentConfig:
    """Scaled-down default used by the benchmark suite."""
    return ExperimentConfig(
        topology=TransitStubParams(
            transit_domains=3,
            transit_nodes=4,
            stubs_per_transit_node=4,
            stub_nodes=6,
        ),
        num_sources=10,
        num_processors=32,
        workload=WorkloadParams(
            num_substreams=4000,
            num_queries=num_queries,
            groups=20,
            substreams_per_query=(20, 40),
            selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=4, vmax=80, max_overlap_neighbors=30),
    )


def paper_scale(num_queries: int = 30000) -> ExperimentConfig:
    """The paper's simulation setup (slow in pure Python)."""
    return ExperimentConfig(
        topology=TransitStubParams.paper_scale(),
        num_sources=100,
        num_processors=256,
        workload=WorkloadParams(
            num_substreams=20000,
            num_queries=num_queries,
            groups=20,
            substreams_per_query=(100, 200),
        ),
        cosmos=CosmosConfig(k=4, vmax=150, max_overlap_neighbors=30),
    )


@dataclass
class Testbed:
    """A materialised experiment environment."""

    config: ExperimentConfig
    topology: Topology
    oracle: LatencyOracle
    sources: List[int]
    processors: List[int]
    workload: Workload
    cost_model: CostModel

    def new_cosmos(self, config: Optional[CosmosConfig] = None) -> Cosmos:
        """A fresh Cosmos instance over this testbed's resources."""
        return Cosmos(
            self.oracle,
            self.processors,
            self.workload.space,
            config or self.config.cosmos,
        )

    def cost(self, placement: Dict[int, int]) -> float:
        """Weighted communication cost of a placement (Section 4 metric)."""
        return self.cost_model.weighted_cost(placement, self.workload.queries)

    def stddev(self, placement: Dict[int, int]) -> float:
        """Capability-normalised load standard deviation of a placement."""
        from ..sim.metrics import load_stddev

        return load_stddev(placement, self.workload.queries, self.processors)


def build_testbed(config: ExperimentConfig) -> Testbed:
    """Generate topology, roles and workload for a config."""
    topo = generate_transit_stub(config.topology, seed=config.seed)
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(
        topo, config.num_sources, config.num_processors, seed=config.seed + 1
    )
    workload = generate_workload(
        config.workload, sources, processors, seed=config.seed + 2
    )
    cost_model = CostModel(workload.space, oracle)
    return Testbed(
        config=config,
        topology=topo,
        oracle=oracle,
        sources=sources,
        processors=processors,
        workload=workload,
        cost_model=cost_model,
    )
