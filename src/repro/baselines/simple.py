"""Query-distribution baselines from the simulation study (Section 4.1).

* **Naive** -- every query runs at its own proxy (no optimization).
* **Random** -- every query runs at a uniformly random processor (the
  Figure 8 "Random" arrival policy).
* **Greedy** -- only the greedy initial mapping of Algorithm 2 on the
  *global* graphs.
* **Centralized** -- the full Algorithm 2 (greedy + refinement) on the
  global graphs: the paper's comparison point for the hierarchical
  scheme, limited in scalability.  It is a heuristic, not an optimum or
  a bound: on the small instances an exact solver could close it lands
  2.5-6.3 % above the optimal WEC.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..core.graphs import (
    DEFAULT_ALPHA,
    NetVertex,
    NetworkGraph,
    QueryGraph,
    build_query_graph,
    qvertex_from_query,
)
from ..core.mapping import greedy_mapping, map_graph
from ..query.interest import SubstreamSpace
from ..query.workload import QuerySpec
from ..topology.latency import LatencyOracle

__all__ = [
    "naive_placement",
    "random_placement",
    "global_network_graph",
    "global_query_graph",
    "greedy_placement",
    "centralized_placement",
]


def naive_placement(queries: Sequence[QuerySpec]) -> Dict[int, int]:
    """Allocate every query to its local (proxy) processor."""
    return {q.query_id: q.proxy for q in queries}


def random_placement(
    queries: Sequence[QuerySpec],
    processors: Sequence[int],
    seed: int = 0,
) -> Dict[int, int]:
    """Allocate queries to uniformly random processors."""
    rng = random.Random(seed)
    processors = list(processors)
    return {q.query_id: rng.choice(processors) for q in queries}


def global_network_graph(
    processors: Sequence[int],
    oracle: LatencyOracle,
    capabilities: Optional[Dict[int, float]] = None,
) -> NetworkGraph:
    """One network vertex per processor (the centralized view)."""
    capabilities = capabilities or {}
    return NetworkGraph(
        [
            NetVertex(
                vid=("p", p),
                site=p,
                capability=capabilities.get(p, 1.0),
                covers=frozenset([p]),
            )
            for p in processors
        ],
        oracle,
    )


def global_query_graph(
    queries: Sequence[QuerySpec],
    space: SubstreamSpace,
    ng: NetworkGraph,
    max_overlap_neighbors: int = 20,
) -> QueryGraph:
    """The global query graph over all atomic queries."""
    return build_query_graph(
        [qvertex_from_query(q, space) for q in queries],
        space,
        ng,
        max_overlap_neighbors,
    )


def _to_placement(qg: QueryGraph, ng: NetworkGraph, mapping) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for vid, qv in qg.qverts.items():
        processor = ng.site(mapping[vid])
        for query_id in qv.members:
            out[query_id] = processor
    return out


def greedy_placement(
    queries: Sequence[QuerySpec],
    processors: Sequence[int],
    space: SubstreamSpace,
    oracle: LatencyOracle,
    alpha: float = DEFAULT_ALPHA,
    capabilities: Optional[Dict[int, float]] = None,
) -> Dict[int, int]:
    """Greedy-only global mapping (the "Greedy" curve of Figure 6)."""
    ng = global_network_graph(processors, oracle, capabilities)
    qg = global_query_graph(queries, space, ng)
    mapping = greedy_mapping(qg, ng, alpha)
    return _to_placement(qg, ng, mapping)


def centralized_placement(
    queries: Sequence[QuerySpec],
    processors: Sequence[int],
    space: SubstreamSpace,
    oracle: LatencyOracle,
    alpha: float = DEFAULT_ALPHA,
    capabilities: Optional[Dict[int, float]] = None,
    max_outer: int = 4,
) -> Dict[int, int]:
    """Full centralized Algorithm 2 (the "Centralized" benchmark)."""
    ng = global_network_graph(processors, oracle, capabilities)
    qg = global_query_graph(queries, space, ng)
    result = map_graph(qg, ng, alpha, max_outer=max_outer)
    return _to_placement(qg, ng, result.mapping)
