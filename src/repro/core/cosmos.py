"""The COSMOS middleware facade.

Ties together the coordinator tree, the query-distribution algorithms and
the substream statistics into the interface the examples and experiments
use:

>>> cosmos = Cosmos(oracle, processors, workload.space, CosmosConfig(k=4))
>>> cosmos.distribute(workload.queries)      # initial distribution
>>> cosmos.insert(new_query)                 # online insertion
>>> cosmos.adapt()                           # one adaptation round
>>> cosmos.placement                         # query_id -> processor
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..query.interest import SubstreamSpace
from ..query.workload import QuerySpec, Workload
from ..topology.latency import LatencyOracle
from .coordinator import AdaptationReport, Coordinator
from .graphs import DEFAULT_ALPHA, qvertex_from_query
from .hierarchy import CoordinatorTree, build_coordinator_tree

__all__ = ["Cosmos", "CosmosConfig"]


@dataclass(frozen=True)
class CosmosConfig:
    """Tuning knobs of the middleware."""

    #: cluster size parameter of the coordinator tree (Section 3.3)
    k: int = 4
    #: maximum query-graph size per coordinator before coarsening
    vmax: int = 150
    #: load-imbalance tolerance (Eqn 3.1)
    alpha: float = DEFAULT_ALPHA
    #: cap on overlap edges kept per q-vertex
    max_overlap_neighbors: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (
            ("k", 2), ("vmax", 1), ("alpha", 0), ("max_overlap_neighbors", 0)
        ):
            if not getattr(self, name) >= low:
                raise ValueError(
                    f"{name}: must be >= {low}, got {getattr(self, name)!r}"
                )


class Cosmos:
    """COoperated and Self-tuning Management Of Streaming data."""

    def __init__(
        self,
        oracle: LatencyOracle,
        processors: Sequence[int],
        space: SubstreamSpace,
        config: CosmosConfig = CosmosConfig(),
        capabilities: Optional[Dict[int, float]] = None,
    ):
        self.oracle = oracle
        self.processors = list(processors)
        self.space = space
        self.config = config
        self.capabilities = capabilities or {}
        self.tree: CoordinatorTree = build_coordinator_tree(
            self.processors, oracle, k=config.k
        )
        self.root = Coordinator(
            self.tree.root,
            oracle,
            space,
            capabilities=self.capabilities,
            vmax=config.vmax,
            alpha=config.alpha,
            seed=config.seed,
            max_overlap_neighbors=config.max_overlap_neighbors,
        )
        self._known_queries: Dict[int, QuerySpec] = {}

    # ------------------------------------------------------------------
    @property
    def placement(self) -> Dict[int, int]:
        """Current query_id -> processor assignment."""
        return self.root.placement

    def distribute(self, queries: Sequence[QuerySpec]) -> Dict[int, int]:
        """Initial distribution of a query population (Sections 3.4-3.5)."""
        for q in queries:
            self._known_queries[q.query_id] = q
        coarse = self.root.collect(queries)
        self.root.distribute(coarse)
        return self.placement

    def adopt(self, queries: Sequence[QuerySpec], placement: Dict[int, int]) -> None:
        """Initialise the tree from an externally-chosen placement.

        Used when COSMOS takes over a system whose queries were allocated
        by another policy (or with inaccurate statistics, as in Figure 7):
        subsequent :meth:`adapt` rounds then improve from there.
        """
        for q in queries:
            self._known_queries[q.query_id] = q
        self.root.adopt(queries, placement)

    def insert(self, query: QuerySpec) -> int:
        """Online insertion of one new query (Section 3.6)."""
        self._known_queries[query.query_id] = query
        v = qvertex_from_query(query, self.space)
        return self.root.insert(v)

    def remove(self, query_id: int) -> bool:
        """Remove a departed query from the tree state and the placement.

        The inverse of :meth:`insert`, used by churn scenarios: the
        coordinator hierarchy strips the query from every (possibly
        coarse) vertex holding it so adaptation and insert routing stop
        accounting for it.  Returns False for unknown query ids.
        """
        self._known_queries.pop(query_id, None)
        found = self.root.remove_query(query_id)
        self.root.placement.pop(query_id, None)
        return found

    def adapt(self) -> AdaptationReport:
        """One adaptation round (Section 3.7)."""
        return self.root.adapt()

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _rebuild_root(self) -> None:
        """Rebuild the coordinator hierarchy over the mutated tree.

        The old placement is re-adopted: :meth:`Coordinator.adopt`
        silently drops entries whose host is no longer a cluster member,
        which is exactly what a crash needs -- orphaned queries leave the
        tree state and await re-insertion by the recovery policy.
        Coordinator rngs are seeded from tree-local facts, so a rebuild
        over an identical tree is bit-identical to the original.
        """
        old_placement = dict(self.root.placement)
        self.root = Coordinator(
            self.tree.root,
            self.oracle,
            self.space,
            capabilities=self.capabilities,
            vmax=self.config.vmax,
            alpha=self.config.alpha,
            seed=self.config.seed,
            max_overlap_neighbors=self.config.max_overlap_neighbors,
        )
        self.root.adopt(list(self._known_queries.values()), old_placement)

    def add_processor(self, node: int) -> None:
        """A processor joins at runtime (Section 3.3 incremental join).

        The node attaches to the closest leaf cluster (splitting it when
        it overflows) and the coordinator hierarchy is rebuilt over the
        mutated tree with the existing placement re-adopted; subsequent
        :meth:`insert` and :meth:`adapt` calls can then target the new
        member.
        """
        if node in self.processors:
            raise ValueError(f"processor {node} already in tree")
        self.processors.append(node)
        self.tree.join(node)
        self._rebuild_root()

    def remove_processor(self, node: int) -> List[int]:
        """A processor leaves (gracefully or by crash).

        Strips the node from the hierarchy and rebuilds the coordinator
        tree; placement entries pointing at the departed node are dropped
        by the re-adoption.  Returns the orphaned query ids (sorted) --
        the queries that were hosted there and now need re-placement via
        :meth:`insert`, which is the coordinator half of crash recovery.
        """
        if node not in self.processors:
            raise KeyError(f"processor {node} not in tree")
        orphans = sorted(
            q for q, host in self.root.placement.items() if host == node
        )
        self.processors.remove(node)
        self.tree.leave(node)
        self._rebuild_root()
        return orphans

    def refresh_statistics(self, workload: Workload, rates=None) -> None:
        """Statistics collection (Section 3.8): re-estimate query loads and
        per-source rates after stream-rate changes.

        ``rates`` optionally supplies *measured* per-substream rates (e.g.
        sampled from the discrete-event simulator's arrival process) in
        place of the space's nominal expected rates.
        """
        workload.refresh_loads(rates=rates)
        loads = {q.query_id: q.load for q in workload.queries}
        self.root.refresh_statistics(loads)

    def refresh_measured_loads(self, loads: Dict[int, float]) -> None:
        """Push per-query loads *measured* by running engines (Section 3.8)
        into the tree, updating the known query specs alongside the
        (possibly coarse) graph vertices."""
        for query_id, load in loads.items():
            spec = self._known_queries.get(query_id)
            if spec is not None:
                spec.load = load
        self.root.refresh_statistics(loads)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def response_time(self) -> float:
        """Critical-path optimization time (parallel coordinator model)."""
        return self.root.response_time()

    def total_time(self) -> float:
        """Total CPU seconds across every coordinator."""
        return self.root.total_time()

    def reset_timers(self) -> None:
        """Zero all coordinators' CPU-time accounting."""
        self.root.reset_timers()

    def tree_height(self) -> int:
        """Number of coordinator levels in the tree."""
        return self.tree.height()

    def coordinator_count(self) -> int:
        """Total number of coordinators in the tree."""
        return len(self.root.all_coordinators())
