"""COSMOS core: the graph-mapping query-distribution optimizer."""

from .coarsening import coarsen, merge_qvertices, rebuild_edges, uncoarsen_vertex
from .coordinator import AdaptationReport, Coordinator
from .cosmos import Cosmos, CosmosConfig
from .diffusion import diffusion_solution
from .fastcost import CostWorkspace
from .graphs import (
    DEFAULT_ALPHA,
    NetVertex,
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    build_query_graph,
    qvertex_from_query,
)
from .hierarchy import Cluster, CoordinatorTree, build_coordinator_tree
from .insertion import choose_target
from .mapping import MappingResult, greedy_mapping, map_graph, refine_mapping
from .rebalance import RebalanceStats, rebalance, refine_distribution

__all__ = [
    "DEFAULT_ALPHA",
    "CostWorkspace",
    "NetVertex",
    "NetworkGraph",
    "NVertex",
    "QueryGraph",
    "QVertex",
    "build_query_graph",
    "qvertex_from_query",
    "coarsen",
    "merge_qvertices",
    "rebuild_edges",
    "uncoarsen_vertex",
    "Cluster",
    "CoordinatorTree",
    "build_coordinator_tree",
    "MappingResult",
    "greedy_mapping",
    "map_graph",
    "refine_mapping",
    "choose_target",
    "diffusion_solution",
    "RebalanceStats",
    "rebalance",
    "refine_distribution",
    "Coordinator",
    "AdaptationReport",
    "Cosmos",
    "CosmosConfig",
]
