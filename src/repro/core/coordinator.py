"""Per-coordinator state and the hierarchical optimization protocol.

Every coordinator owns

* a **network subgraph** over its children (leaf coordinators: the
  processors of their cluster; internal ones: one vertex per child
  cluster, weighted with the cluster's total capability and sited at the
  child coordinator's node);
* a **query subgraph** over the (possibly coarse) q-vertices currently
  assigned to its subtree, plus the n-vertices they reference;
* an **assignment** mapping each q-vertex to one child.

Three protocols run over the tree:

1. *Initial distribution* -- query graphs are coarsened bottom-up
   (Algorithm 1), then mapped top-down (Algorithm 2), uncoarsening one
   level per hop (Section 3.5).
2. *Online insertion* -- new queries route root-to-leaf, each hop picking
   the WEC-minimising feasible child (Section 3.6).
3. *Adaptive redistribution* -- each round, every coordinator re-balances
   its children with diffusion + Algorithm 3 and then refines; decisions
   propagate downward and physical migration happens only at the leaves
   (Section 3.7).

In the paper the coordinators are distributed processes that exchange
(coarsened) graphs; here they are objects in one process, so "retrieving
finer-grained information from the corresponding coordinator" is simply
following the coarse vertex's ``children`` references.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import registry as _obs
from ..query.interest import RateMap, SubstreamSpace
from ..query.workload import QuerySpec
from ..topology.latency import LatencyOracle
from .coarsening import (
    EdgeArrays,
    coarsen_cached,
    content_rng,
    merge_qvertices,
    qq_edges,
    rebuild_edges,
    uncoarsen_vertex,
)
from .graphs import (
    DEFAULT_ALPHA,
    Mapping,
    NetVertex,
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    VertexId,
    _overlap_edges,
    attach_overlap_edges,
    build_query_graph,
    qvertex_from_query,
    rate_nodes,
)
from .fastcost import CostWorkspace
from .hierarchy import Cluster
from .insertion import choose_target
from .mapping import map_graph
from .rebalance import RebalanceStats, rebalance, refine_distribution

__all__ = ["Coordinator", "AdaptationReport"]


def _flatten(v: QVertex) -> List[QVertex]:
    """Fully expand a coarse vertex to its atomic query vertices."""
    if not v.children:
        return [v]
    out: List[QVertex] = []
    for child in v.children:
        out.extend(_flatten(child))
    return out


class AdaptationReport:
    """Aggregate statistics of one adaptation round."""

    def __init__(self):
        self.migrated_queries: int = 0
        self.migrated_state: float = 0.0
        self.coordinator_moves: int = 0
        self.refinement_moves: int = 0

    def absorb(self, stats: RebalanceStats, refinement: int) -> None:
        """Fold one coordinator's rebalance statistics into the report."""
        self.coordinator_moves += stats.moved_vertices
        self.refinement_moves += refinement


class Coordinator:
    """One node of the coordinator tree (Section 3.3)."""

    def __init__(
        self,
        cluster: Cluster,
        oracle: LatencyOracle,
        space: SubstreamSpace,
        capabilities: Optional[Dict[int, float]] = None,
        vmax: int = 150,
        alpha: float = DEFAULT_ALPHA,
        seed: int = 0,
        placement: Optional[Dict[int, int]] = None,
        max_overlap_neighbors: int = 20,
    ):
        self.cluster = cluster
        self.name: VertexId = ("coord", cluster.cluster_id)
        self.oracle = oracle
        self.space = space
        self.vmax = vmax
        self.alpha = alpha
        self.capabilities = capabilities or {}
        # rng seeded from *tree-local* facts (level, median, first member)
        # rather than the process-global cluster_id counter: two Cosmos
        # instances built in one process must behave identically, which is
        # what makes repeated simulator runs reproduce bit-identical traces
        stable_id = (
            cluster.level * 1_000_003 + cluster.coordinator
        ) * 1_000_003 + min(cluster.members)
        self.rng = random.Random(seed ^ stable_id)
        self._seed = seed
        self._stable_id = stable_id
        self.max_overlap_neighbors = max_overlap_neighbors
        #: query_id -> processor; shared by the whole tree (leaves write it)
        self.placement: Dict[int, int] = placement if placement is not None else {}

        self.children: List[Coordinator] = [
            type(self)(
                child, oracle, space, capabilities, vmax, alpha, seed,
                self.placement, max_overlap_neighbors,
            )
            for child in cluster.children
        ]
        self.is_leaf = not self.children
        self.ng = self._build_network_graph()

        #: the (possibly coarse) vertices currently at this level
        self.vertices: Dict[VertexId, QVertex] = {}
        self.qg: QueryGraph = QueryGraph()
        self.assignment: Mapping = {}
        #: CPU seconds spent in this coordinator's own optimization work
        self.cpu_time: float = 0.0
        # lazy routing state for online insertion (per-child masks/loads)
        self._child_masks = None
        self._loads: Dict[VertexId, float] = {}
        self._total_weight: float = 0.0
        # atomic query id -> vid of the vertex of ``self.vertices`` holding
        # it.  Valid while ``_owners_of is self.vertices``: rebinding
        # ``self.vertices`` (distribute, adopt, an adaptation round) makes
        # it stale by construction and the next removal rebuilds it;
        # insert, removal and ``_replace_pair`` keep a valid index current
        # in place, so unlike the routing state it survives removals.
        self._owners: Dict[int, VertexId] = {}
        self._owners_of: Optional[Dict[VertexId, QVertex]] = None
        # incremental-adaptation state: the previous round's move count
        # (0 + no changes => the round can be skipped) and dirtiness flags
        # set by statistics refresh / query removal / rate perturbation.
        # The cost workspace is not among them: a round builds its own
        # and drops it (``_workspace``)
        self._last_moves: Optional[int] = None
        self._stats_dirty = False
        self._edges_stale = False
        self._graph_mutations = 0
        self._rates_gen = space.rates_generation
        # True when the whole subtree reproduced itself last round (every
        # level skipped) and no mutation has touched it since; adaptation
        # then does not even recurse into it.
        self._subtree_quiet = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _capability(self, node: int) -> float:
        return self.capabilities.get(node, 1.0)

    def _build_network_graph(self) -> NetworkGraph:
        if self.is_leaf:
            vertices = [
                NetVertex(
                    vid=("p", node),
                    site=node,
                    capability=self._capability(node),
                    covers=frozenset([node]),
                )
                for node in self.cluster.members
            ]
        else:
            vertices = []
            for child in self.children:
                descendants = child.cluster.descendants()
                vertices.append(
                    NetVertex(
                        vid=child.name,
                        site=child.cluster.coordinator,
                        capability=sum(self._capability(p) for p in descendants),
                        covers=frozenset(descendants),
                    )
                )
        return NetworkGraph(vertices, self.oracle)

    def _child_by_vid(self, vid: VertexId) -> "Coordinator":
        for child in self.children:
            if child.name == vid:
                return child
        raise KeyError(vid)

    def all_coordinators(self) -> List["Coordinator"]:
        """This coordinator plus every descendant (pre-order)."""
        out = [self]
        for child in self.children:
            out.extend(child.all_coordinators())
        return out

    def response_time(self) -> float:
        """Critical-path optimization time (subtrees run in parallel)."""
        if self.is_leaf:
            return self.cpu_time
        return self.cpu_time + max(c.response_time() for c in self.children)

    def total_time(self) -> float:
        """Total CPU time over all coordinators in the subtree."""
        return self.cpu_time + sum(c.total_time() for c in self.children)

    def reset_timers(self) -> None:
        """Zero CPU-time accounting across the subtree."""
        for c in self.all_coordinators():
            c.cpu_time = 0.0

    # ------------------------------------------------------------------
    # phase 1a: bottom-up query graph hierarchy (Section 3.4)
    # ------------------------------------------------------------------
    def collect(self, queries: Sequence[QuerySpec]) -> List[QVertex]:
        """Build the query-graph hierarchy; returns this subtree's coarse
        vertex set (what would be "submitted to the parent coordinator").

        Every leaf starts from the queries whose proxy its cluster holds.
        """
        return self._collect(self._leaf_buckets(queries, lambda q: q.proxy))

    def _leaf_buckets(
        self,
        queries: Sequence[QuerySpec],
        node_of: Callable[[QuerySpec], Optional[int]],
    ) -> Dict["Coordinator", List[QuerySpec]]:
        """Each leaf of the subtree -> the queries with ``node_of(query)``
        in its cluster, in population order (one pass over ``queries``)."""
        buckets: Dict[Coordinator, List[QuerySpec]] = {}
        at_node: Dict[int, List[List[QuerySpec]]] = {}
        for c in self.all_coordinators():
            if c.is_leaf:
                bucket = buckets[c] = []
                for node in c.cluster.members:
                    at_node.setdefault(node, []).append(bucket)
        for q in queries:
            for bucket in at_node.get(node_of(q), ()):
                bucket.append(q)
        return buckets

    def _collect(
        self, buckets: Dict["Coordinator", List[QuerySpec]]
    ) -> List[QVertex]:
        """:meth:`collect` over queries already split per leaf."""
        t0 = time.perf_counter()
        if self.is_leaf:
            incoming = [
                qvertex_from_query(q, self.space) for q in buckets[self]
            ]
        else:
            incoming = []
            for child in self.children:
                incoming.extend(child._collect(buckets))
            t0 = time.perf_counter()  # exclude children's time from ours

        if len(incoming) > self.vmax:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.coarsen_invocations")
                _obs.ACTIVE.inc("opt.coarsen_input_vertices", len(incoming))
            # no graph: coarsening reads the q-q edges and the n-vertex count
            edges = _overlap_edges(
                incoming, self.space, self.max_overlap_neighbors
            )
            result = self._coarsen(incoming, edges, len(rate_nodes(incoming)))
        else:
            result = list(incoming)
        self.cpu_time += time.perf_counter() - t0
        return result

    def _coarsen(
        self, vertices: List[QVertex], edges: EdgeArrays, n_count: int
    ) -> List[QVertex]:
        """Coarsen ``vertices`` (Algorithm 1) to this coordinator's ``vmax``.

        ``edges`` are their q-q edges and ``n_count`` the n-vertices of
        their graph.  The rng is derived from the input content (not the
        coordinator's sequential stream), so a coarsening run is a pure
        function of its inputs.
        """
        rng = content_rng(self._seed, self._stable_id, vertices)
        return coarsen_cached(
            vertices, edges, n_count, self.vmax, self.space,
            origin=self.name, rng=rng,
        )

    # ------------------------------------------------------------------
    # phase 1b: top-down initial distribution (Section 3.5)
    # ------------------------------------------------------------------
    def distribute(self, vertices: Sequence[QVertex]) -> None:
        """Map ``vertices`` onto this coordinator's children, recurse.

        Vertices are mapped at the granularity received (one-level
        uncoarsened by the parent); all member queries of a vertex land on
        the vertex's target, which is what keeps per-coordinator work
        bounded by ``vmax`` regardless of the total query count.
        """
        t0 = time.perf_counter()
        self.vertices = {v.vid: v for v in vertices}
        self.qg = build_query_graph(
            list(self.vertices.values()), self.space, self.ng,
            self.max_overlap_neighbors,
        )
        self._reset_incremental_state()
        result = map_graph(self.qg, self.ng, alpha=self.alpha)
        self.assignment = result.mapping
        self._invalidate_routing_state()
        self.cpu_time += time.perf_counter() - t0

        if self.is_leaf:
            self._write_placement()
        else:
            for child in self.children:
                assigned = [
                    self.vertices[vid]
                    for vid, target in self.assignment.items()
                    if target == child.name and vid in self.vertices
                ]
                expanded: List[QVertex] = []
                for v in assigned:
                    expanded.extend(uncoarsen_vertex(v))
                child.distribute(expanded)

    def _write_placement(self) -> None:
        for vid, target in self.assignment.items():
            if vid not in self.vertices:
                continue
            processor = self.ng.site(target)
            for query_id in self.vertices[vid].members:
                self.placement[query_id] = processor

    # ------------------------------------------------------------------
    # phase 1c: adopting an externally-given placement
    # ------------------------------------------------------------------
    def adopt(
        self, queries: Sequence[QuerySpec], placement: Dict[int, int]
    ) -> List[QVertex]:
        """Initialise coordinator state from an existing placement.

        Models the Figure 7 scenario: queries were allocated by some other
        (possibly random) policy and the tree must adapt from there.  Each
        leaf takes the queries placed inside its cluster verbatim; coarse
        summaries flow upward exactly as in :meth:`collect`, but the
        assignment reflects the given placement instead of a fresh
        mapping.  Returns this subtree's (possibly coarse) vertex set.
        """
        return self._adopt(
            self._leaf_buckets(queries, lambda q: placement.get(q.query_id)),
            placement,
        )

    def _adopt(
        self,
        buckets: Dict["Coordinator", List[QuerySpec]],
        placement: Dict[int, int],
    ) -> List[QVertex]:
        """:meth:`adopt` over queries already split per leaf."""
        vertices = []
        self.assignment = {}
        if self.is_leaf:
            for q in buckets[self]:
                host = placement[q.query_id]
                v = qvertex_from_query(q, self.space)
                vertices.append(v)
                self.assignment[v.vid] = ("p", host)
                self.placement[q.query_id] = host
        else:
            for child in self.children:
                child_vertices = child._adopt(buckets, placement)
                vertices.extend(child_vertices)
                for v in child_vertices:
                    self.assignment[v.vid] = child.name
        self.vertices = {v.vid: v for v in vertices}
        self.qg = build_query_graph(
            vertices, self.space, self.ng, self.max_overlap_neighbors
        )

        self._reset_incremental_state()
        self._invalidate_routing_state()
        if len(vertices) > self.vmax:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.coarsen_invocations")
                _obs.ACTIVE.inc("opt.coarsen_input_vertices", len(vertices))
            return self._coarsen(
                vertices, qq_edges(self.qg), len(self.qg.nverts)
            )
        return list(vertices)

    # ------------------------------------------------------------------
    # phase 2: online insertion (Section 3.6)
    # ------------------------------------------------------------------
    def insert(self, v: QVertex) -> int:
        """Route a new query vertex down to a processor; returns it.

        Routing uses only coarse per-child information (each child's
        aggregate interest mask and load), exactly the property that makes
        the scheme fast: scoring a query is O(children + referenced
        sources), independent of how many queries the system holds.  The
        estimated WEC delta of placing the vertex at child ``t`` is

            sum_src rate * d(t, src) + sum_proxy rate * d(t, proxy)
            + sum_{c != t} overlap(v, mask_c) * d(t, c),

        the last term being the sharing penalty for sitting away from the
        children that already host overlapping queries.
        """
        t0 = time.perf_counter()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.inc("opt.insert_hops")
        self._subtree_quiet = False
        self._ensure_routing_state()
        w = v.weight
        total_q = self._total_weight + w
        total_c = self.ng.total_capability()

        # child aggregates change with every insert and belong to no
        # vertex, so there is no index array to reuse: the one-pair form
        # (unpack only the intersection) is the cheapest exact estimate
        overlaps = {
            c: self.space.overlap_rate(v.mask, mask)
            for c, mask in self._child_masks.items()
        }
        rated = [*v.source_rates.items(), *v.proxy_rates.items()]
        best = None
        best_cost = float("inf")
        fallback = None
        fallback_violation = float("inf")
        for t in self.ng.ids():
            site = self.ng.site(t)
            cost = 0.0
            for node, rate in rated:
                cost += rate * self.oracle(site, node)
            for c, ov in overlaps.items():
                if c != t and ov > 0:
                    cost += ov * self.oracle(site, self.ng.site(c))
            limit = (1.0 + self.alpha) * self.ng.capability(t) * total_q / total_c
            if self._loads[t] + w <= limit + 1e-9:
                if cost < best_cost:
                    best_cost = cost
                    best = t
            violation = self._loads[t] + w - limit
            if violation < fallback_violation:
                fallback_violation = violation
                fallback = t
        target = best if best is not None else fallback

        self.vertices[v.vid] = v
        self._index_members(v)
        self.assignment[v.vid] = target
        self._child_masks[target] |= v.mask
        self._loads[target] += w
        self._total_weight += w
        self.cpu_time += time.perf_counter() - t0

        if self.is_leaf:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.insertions")
            processor = self.ng.site(target)
            for query_id in v.members:
                self.placement[query_id] = processor
            return processor
        return self._child_by_vid(target).insert(v)

    def remove_query(self, query_id: int) -> bool:
        """Remove one atomic query from this subtree's state (Section 3.6
        in reverse: query departure).

        Departure retraces the arrival route: only the coordinators on the
        root-to-leaf path of the query's host hold it, so only they are
        visited (the whole subtree is swept only for an id the placement
        does not know).  The query may sit inside a coarse vertex at upper
        levels; coarse vertices are stripped of the departed member in
        place (weight, mask and rate maps re-aggregated from the remaining
        children) so later adaptation rounds and insert routing no longer
        account for it.  Vertex *objects* are shared between adjacent
        levels (a child's vertices are the parent vertices' ``children``),
        so one strip cascades into every level holding the same coarse
        object -- all of them on the path; each level still drops vanished
        vertices from its own dictionaries.  Returns False when the query
        is unknown to this subtree.
        """
        host = self.placement.get(query_id)
        visited = (
            self.all_coordinators() if host is None else self._path_to(host)
        )
        found = False
        for coord in visited:
            if coord._remove_query_level(query_id):
                found = True
        if found:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.removals")
            # a level sharing a coarse object its ancestor stripped had
            # its vertex cleaned without noticing (its own owner search
            # misses), yet its cached per-child masks/loads still count
            # the departed query -- invalidate routing state on every
            # visited level (lazily rebuilt on next insert); nothing off
            # the path ever counted the query
            for coord in visited:
                coord._invalidate_routing_state()
        return found

    def _path_to(self, host: int) -> List["Coordinator"]:
        """The coordinators from this one down to the leaf covering
        processor ``host`` (just this one when ``host`` is not below)."""
        path = [self]
        coord = self
        while not coord.is_leaf:
            vid = coord.ng.covering_vertex(host)
            if vid is None:
                break
            coord = coord._child_by_vid(vid)
            path.append(coord)
        return path

    def _owner_index(self) -> Dict[int, VertexId]:
        """The member -> owner-vid index, rebuilt if ``vertices`` was
        rebound since it was built."""
        if self._owners_of is not self.vertices:
            self._owners = {
                query_id: vid
                for vid, v in self.vertices.items()
                for query_id in v.members
            }
            self._owners_of = self.vertices
        return self._owners

    def _index_members(self, v: QVertex) -> None:
        """Record ``v`` (just stored in ``vertices``) as its members' owner."""
        if self._owners_of is self.vertices:
            for query_id in v.members:
                self._owners[query_id] = v.vid

    def _remove_query_level(self, query_id: int) -> bool:
        """Drop ``query_id`` from this level's own state."""
        t0 = time.perf_counter()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.inc("opt.remove_hops")
        owner_vid = self._owner_index().pop(query_id, None)
        v = self.vertices.get(owner_vid)
        # an owner an ancestor's cascade already stripped no longer lists
        # the query: this level misses (no edge refresh, not dirtied)
        found = v is not None and query_id in v.members
        if found:
            if v.members == (query_id,):
                # the query's last trace at this level: drop the vertex
                # and any n-vertices its departure leaves isolated
                del self.vertices[owner_vid]
                self.assignment.pop(owner_vid, None)
                if owner_vid in self.qg.qverts:
                    nbrs = [
                        n for n in self.qg.neighbors(owner_vid)
                        if n in self.qg.nverts
                    ]
                    self.qg.remove_vertex(owner_vid)
                    for n in nbrs:
                        if not self.qg.degree(n):
                            self.qg.remove_vertex(n)
            else:
                before = v.mask
                _strip_member(v, query_id)
                if owner_vid in self.qg.qverts:
                    self._refresh_stripped_edges(v, before & ~v.mask)
            # the graph changed under last round's converged state --
            # the next adaptation round must not be skipped
            self._stats_dirty = True
            self._subtree_quiet = False
        self.cpu_time += time.perf_counter() - t0
        return found

    def _ensure_routing_state(self) -> None:
        """(Re)build the per-child aggregate masks and loads if stale."""
        if getattr(self, "_child_masks", None) is not None:
            return
        self._child_masks = {t: 0 for t in self.ng.ids()}
        self._loads = {t: 0.0 for t in self.ng.ids()}
        self._total_weight = 0.0
        for vid, v in self.vertices.items():
            target = self.assignment.get(vid)
            if target is None or target not in self.ng.vertices:
                continue
            self._child_masks[target] |= v.mask
            self._loads[target] += v.weight
            self._total_weight += v.weight

    def _invalidate_routing_state(self) -> None:
        self._child_masks = None

    def _reset_incremental_state(self) -> None:
        """Called after a wholesale graph replacement (distribute/adopt)."""
        self._last_moves = None
        self._stats_dirty = False
        self._edges_stale = False
        self._graph_mutations = 0
        self._subtree_quiet = False

    def _workspace(self) -> CostWorkspace:
        """A fresh cost workspace for this round's graph (the round drops
        it: only that round reads its latency table)."""
        return CostWorkspace(self.qg, self.ng)

    def _sync_graph(self, vertices: List[QVertex]) -> bool:
        """Bring ``self.qg`` in line with this round's vertex set.

        Returns whether anything structural changed.  This is the
        delta-maintenance replacement for the per-round
        ``build_query_graph``: departed vertices are removed (dropping
        n-vertices they leave isolated), newcomers are attached with q-n
        edges from their rate maps plus one batched top-k overlap pass,
        and a periodic full edge re-estimation bounds drift from
        localized attachment.
        """
        qg = self.qg
        want = {v.vid: v for v in vertices}
        current = qg.qverts
        if not current and not want:
            self._edges_stale = False
            return False
        added = [v for v in vertices if v.vid not in current]
        removed = [vid for vid in current if vid not in want]
        live = len(want)

        if (
            self._edges_stale
            or not current
            or not want
            or len(added) + len(removed) > live // 2
        ):
            # wholesale replacement (first round after distribute at a
            # leaf flips coarse vertices to atoms; rate perturbation
            # staled every edge; ...): rebuild from scratch.  A vertex
            # that leaves the graph releases its index array (another
            # level that still reads it re-unpacks the same bits)
            for v in current.values():
                if want.get(v.vid) is not v:
                    v.drop_indices()
            self.qg = build_query_graph(
                vertices, self.space, self.ng, self.max_overlap_neighbors
            )
            self._edges_stale = False
            self._graph_mutations = 0
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.graph_rebuilds")
            return True

        changed = False
        for vid in removed:
            current[vid].drop_indices()
            nbrs = [n for n in qg.neighbors(vid) if n in qg.nverts]
            qg.remove_vertex(vid)
            for n in nbrs:
                if not qg.degree(n):
                    qg.remove_vertex(n)
            changed = True
        # rebind same-vid vertices to this round's objects (content-equal
        # in the protocols that re-create vertex objects)
        for vid, v in want.items():
            cur = current.get(vid)
            if cur is not None and cur is not v:
                cur.drop_indices()
                current[vid] = v
        if added:
            changed = True
            for v in added:
                qg.add_qvertex(v)
                for node, rate in [*v.source_rates.items(),
                                   *v.proxy_rates.items()]:
                    nvid = ("n", node)
                    if nvid not in qg.nverts:
                        clu = self.ng.covering_vertex(node)
                        qg.add_nvertex(NVertex(vid=nvid, node=node, clu=clu))
                    qg.add_edge(v.vid, nvid, rate)
            qlist = list(qg.qverts.values())
            new_rows = list(range(len(qlist) - len(added), len(qlist)))
            attach_overlap_edges(
                qg, qlist, new_rows, self.space, self.max_overlap_neighbors
            )
        if changed:
            self._graph_mutations += len(added) + len(removed)
            if self._graph_mutations > max(32, live):
                # deterministic compaction: re-estimate every edge from
                # vertex aggregate state
                rebuild_edges(qg, self.space, self.max_overlap_neighbors)
                self._graph_mutations = 0
                if _obs.ACTIVE is not None:
                    _obs.ACTIVE.inc("opt.edge_compactions")
        return changed

    def _assignment_view(self) -> Mapping:
        """Assignment restricted to vertices still in the graph."""
        return {
            vid: t for vid, t in self.assignment.items() if vid in self.qg.qverts
        }

    def _maybe_compress(self) -> None:
        """Bound graph growth from insertions.

        When the graph exceeds ``3 * vmax`` q-vertices, merge pairs that
        are mapped to the *same* child (so the assignment stays well
        defined) until the size is back under ``2 * vmax``.
        """
        if len(self.qg.qverts) <= 3 * self.vmax:
            return
        by_target: Dict[VertexId, List[VertexId]] = {}
        for vid in self.qg.qverts:
            by_target.setdefault(self.assignment[vid], []).append(vid)
        goal = 2 * self.vmax
        # lumps must stay small enough for the re-balancer to move them:
        # cap merged weight at a fraction of the smallest child's share
        total_q = sum(v.weight for v in self.vertices.values())
        total_c = self.ng.total_capability()
        min_share = min(
            self.ng.capability(t) * total_q / total_c for t in self.ng.ids()
        )
        weight_cap = 0.25 * min_share if min_share > 0 else float("inf")
        for target, vids in by_target.items():
            if len(self.qg.qverts) <= goal:
                break
            vids = [v for v in vids if v in self.qg.qverts]
            # merge in pairwise rounds, smallest weights first: a vertex
            # merged in one round is not merged again until the next, so
            # coarse vertices stay balanced and movable
            while len(vids) >= 2 and len(self.qg.qverts) > goal:
                vids.sort(key=lambda x: self.vertices[x].weight)
                survivors: List[VertexId] = []
                i = 0
                merged_any = False
                while i + 1 < len(vids) and len(self.qg.qverts) > goal:
                    a, b = vids[i], vids[i + 1]
                    if (self.vertices[a].weight + self.vertices[b].weight
                            > weight_cap):
                        survivors.extend(vids[i:])
                        i = len(vids)
                        break
                    merged = merge_qvertices(
                        self.vertices[a], self.vertices[b], origin=self.name
                    )
                    self._replace_pair(a, b, merged, target)
                    survivors.append(merged.vid)
                    merged_any = True
                    i += 2
                survivors.extend(vids[i:])
                if not merged_any:
                    break
                vids = survivors

    def _replace_pair(
        self, a: VertexId, b: VertexId, merged: QVertex, target: VertexId
    ) -> None:
        neighbor_edges: Dict[VertexId, float] = {}
        for old in (a, b):
            for nbr, w in self.qg.neighbors(old).items():
                if nbr in (a, b):
                    continue
                neighbor_edges[nbr] = neighbor_edges.get(nbr, 0.0) + w
        self.qg.remove_vertex(a)
        self.qg.remove_vertex(b)
        # the pair lives on only as ``merged.children`` (the rule
        # ``coarsening._merge`` applies): it must not pin its index arrays
        self.vertices.pop(a).drop_indices()
        self.vertices.pop(b).drop_indices()
        del self.assignment[a], self.assignment[b]
        self.qg.add_qvertex(merged)
        self.vertices[merged.vid] = merged
        self._index_members(merged)
        self.assignment[merged.vid] = target
        # q-q overlaps re-estimated exactly from the merged mask, in one
        # batch; edges are still set in ``neighbor_edges`` order
        qnbrs = [nbr for nbr in neighbor_edges if nbr in self.qg.qverts]
        neighbor_edges.update(zip(qnbrs, self.space.overlap_rates([(
            merged.indices, [self.qg.qverts[nbr].indices for nbr in qnbrs]
        )]).tolist()))
        self.qg.set_edges(merged.vid, neighbor_edges.items())

    # ------------------------------------------------------------------
    # phase 3: adaptive redistribution (Section 3.7)
    # ------------------------------------------------------------------
    def adapt(self, report: Optional[AdaptationReport] = None) -> AdaptationReport:
        """Run one adaptation round over the whole subtree.

        Call on the root coordinator; migration counts compare the leaf
        placements before and after the round (queries physically move
        only once all decisions are made).
        """
        t_round = time.perf_counter()
        report = report or AdaptationReport()
        before = dict(self.placement)
        self._adapt_level(self.vertices.values(), report)
        for query_id, processor in self.placement.items():
            old = before.get(query_id)
            if old is not None and old != processor:
                report.migrated_queries += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.observe(
                "opt.adapt_round_s", time.perf_counter() - t_round
            )
        return report

    def _adapt_level(
        self, vertices, report: AdaptationReport
    ) -> None:
        t0 = time.perf_counter()
        vertices = list(vertices)
        if self.is_leaf:
            # adaptation at the leaf works on atomic queries: load
            # re-balancing needs fine-grained movable units, and atomic
            # vertex ids are stable across rounds (migration accounting)
            flat: List[QVertex] = []
            for v in vertices:
                flat.extend(_flatten(v))
            vertices = flat
        old_assignment = self._assignment_view()
        changed = self._sync_graph(vertices)
        self.vertices = {v.vid: v for v in vertices}

        # a level whose graph did not change, whose statistics are
        # untouched and whose previous round converged (zero moves) will
        # reproduce last round's assignment exactly -- skip the phases
        # (the subtree below may still be dirty, so always recurse)
        skipped = (
            not changed and not self._stats_dirty and self._last_moves == 0
        )
        if skipped:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.adapt_skips")
            self.cpu_time += time.perf_counter() - t0
        else:
            # carry over assignments for vertices we already knew;
            # greedily place newcomers
            self.assignment = {}
            pinned = self.qg.pinned_mapping(self.ng)
            self.assignment.update(pinned)
            loads = {vid: 0.0 for vid in self.ng.ids()}
            newcomers: List[QVertex] = []
            for v in vertices:
                old = old_assignment.get(v.vid)
                if old is None and self.is_leaf and v.members:
                    # continuity: an atomic query already running on one
                    # of this leaf's processors stays there unless
                    # rebalanced
                    host = self.placement.get(v.members[0])
                    if host is not None and ("p", host) in self.ng.vertices:
                        old = ("p", host)
                if old is not None and old in self.ng.vertices:
                    self.assignment[v.vid] = old
                    loads[old] += v.weight
                else:
                    newcomers.append(v)
            ws = self._workspace()
            if newcomers:
                limits = self.qg.capacity_limits(self.ng, self.alpha)
                ws.init_positions(self.assignment)
                for v in sorted(newcomers, key=lambda x: -x.weight):
                    target, _ = choose_target(self.ng, v, loads, limits, ws)
                    self.assignment[v.vid] = target
                    loads[target] += v.weight
                    ws.set_position(v.vid, target)

            # phase A: diffusion-guided load re-balancing (Algorithm 3);
            # both phases share one cost workspace
            original = dict(self.assignment)
            stats = rebalance(
                self.qg, self.ng, self.assignment, alpha=self.alpha,
                rng=self.rng, workspace=ws,
            )
            # phase B: distribution refinement
            refinement = refine_distribution(
                self.qg, self.ng, self.assignment, original,
                alpha=self.alpha, rng=self.rng, workspace=ws,
            )
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.inc("opt.adapt_levels")
                _obs.ACTIVE.inc("opt.diffusion_moves", stats.moved_vertices)
                _obs.ACTIVE.inc("opt.refinement_moves", refinement)
            report.absorb(stats, refinement)
            report.migrated_state += stats.moved_state
            self._last_moves = stats.moved_vertices + refinement
            self._stats_dirty = False
            if not self.is_leaf:
                # bound vertex-set growth from online insertions (atomic
                # inserted vertices pile up at every level otherwise)
                self._maybe_compress()
            self._invalidate_routing_state()
            self.cpu_time += time.perf_counter() - t0

        if self.is_leaf:
            if not skipped:
                self._write_placement()
            self._subtree_quiet = skipped
        elif skipped and all(c._subtree_quiet for c in self.children):
            # the whole subtree reproduced itself last round and nothing
            # has touched it since: descending would only re-derive the
            # identical state level by level.  Not recursing is what
            # makes a converged tree's adaptation round O(dirty), not
            # O(total queries).
            self._subtree_quiet = True
        else:
            for child in self.children:
                assigned = [
                    self.vertices[vid]
                    for vid, target in self.assignment.items()
                    if target == child.name and vid in self.vertices
                ]
                expanded: List[QVertex] = []
                for v in assigned:
                    expanded.extend(uncoarsen_vertex(v))
                child._adapt_level(expanded, report)
            self._subtree_quiet = skipped and all(
                c._subtree_quiet for c in self.children
            )

    def _refresh_stripped_edges(self, v: QVertex, stripped: int) -> None:
        """Re-estimate a just-stripped vertex's edges in place.

        Before delta maintenance, edges touching a stripped coarse vertex
        went stale until the next wholesale graph rebuild -- which no
        longer happens every round.  q-n edges are reset to the stripped
        vertex's re-aggregated rate maps (dropping n-vertices that become
        isolated).  A q-q overlap changes only where the neighbour's mask
        meets the ``stripped`` bits, so only those are re-estimated: every
        other weight is already the exact rate of the unchanged
        intersection -- unless this level's edges are stale or the rates
        moved since they were estimated, when every neighbour is.
        """
        qg = self.qg
        if self._edges_stale or self._rates_gen != self.space.rates_generation:
            stripped = -1
        rates: Dict[VertexId, float] = {}
        for node, rate in v.source_rates.items():
            nvid = ("n", node)
            rates[nvid] = rates.get(nvid, 0.0) + rate
        for node, rate in v.proxy_rates.items():
            nvid = ("n", node)
            rates[nvid] = rates.get(nvid, 0.0) + rate
        nbrs = qg.neighbors(v.vid)
        qnbrs = [
            nbr for nbr in nbrs
            if nbr in qg.qverts and qg.qverts[nbr].mask & stripped
        ]
        overlaps = dict(zip(qnbrs, self.space.overlap_rates([(
            v.indices, [qg.qverts[nbr].indices for nbr in qnbrs]
        )]).tolist()))
        # every current edge gets its new weight, in row order; a q-n
        # edge whose rate fell to zero goes, and with it an n-vertex it
        # leaves isolated
        reweighed = [
            (nbr, rates.pop(nbr, 0.0) if nbr in qg.nverts
             else overlaps.get(nbr, w))
            for nbr, w in nbrs.items()
        ]
        qg.set_edges(v.vid, reweighed)
        for nbr, new in reweighed:
            if new == 0.0 and nbr in qg.nverts and not qg.degree(nbr):
                qg.remove_vertex(nbr)
        for nvid, rate in rates.items():
            # rate-map nodes that had no edge yet (only ones whose
            # n-vertex this graph already tracks, as in rebuild_edges)
            if rate > 0 and nvid in qg.nverts:
                qg.add_edge(v.vid, nvid, rate)

    # ------------------------------------------------------------------
    # statistics refresh (Section 3.8)
    # ------------------------------------------------------------------
    def refresh_statistics(self, query_loads: Dict[int, float]) -> None:
        """Propagate fresh per-query loads into every vertex of the tree.

        The cheap common case -- only per-query loads moved -- updates
        atom weights and re-sums exactly the coarse vertices whose
        members changed (weights are read live by the optimizer, so no
        graph mutation is needed).  When the substream space's rates were
        perturbed since the last refresh, per-source rate maps are
        re-derived everywhere and every coordinator's edges are marked
        stale (re-estimated by the next adaptation round's graph sync).
        Either way the routing state of every coordinator whose weights
        moved is invalidated, so the next insert checks Eqn 3.1 against
        the refreshed loads.
        """
        rates_changed = self.space.rates_generation != self._rates_gen
        if rates_changed:
            memo: Dict[VertexId, None] = {}
            for coord in self.all_coordinators():
                for v in coord.vertices.values():
                    _refresh_vertex(v, query_loads, self.space, memo)
                coord._stats_dirty = True
                coord._edges_stale = True
                coord._subtree_quiet = False
                coord._rates_gen = self.space.rates_generation
                coord._invalidate_routing_state()
            return
        changed_qids = set(query_loads)
        memo2: Dict[int, bool] = {}
        for coord in self.all_coordinators():
            dirty = False
            for v in coord.vertices.values():
                if _refresh_weights(v, changed_qids, query_loads, memo2):
                    dirty = True
            if dirty:
                coord._stats_dirty = True
                coord._subtree_quiet = False
                # cached per-child loads summed the old weights
                coord._invalidate_routing_state()


def _strip_member(v: QVertex, query_id: int) -> None:
    """Remove one atomic member from a coarse vertex, in place.

    Recurses into the child holding the member, drops it, and re-aggregates
    weight / mask / rate maps / state from the surviving children (the same
    aggregation :func:`~repro.core.coarsening.merge_qvertices` builds).
    """
    keep: List[QVertex] = []
    for child in v.children:
        if query_id in child.members:
            if child.members == (query_id,):
                continue
            _strip_member(child, query_id)
        keep.append(child)
    v.children = tuple(keep)
    v.members = tuple(m for c in keep for m in c.members)
    v.weight = sum(c.weight for c in keep)
    v.state_size = sum(c.state_size for c in keep)
    mask = 0
    for c in keep:
        mask |= c.mask
    if mask != v.mask:
        # the cached index array unpacked the old bits: release it now,
        # not when a reader next looks
        v.mask = mask
        v.drop_indices()
    v.source_rates = RateMap.summed(c.source_rates for c in keep)
    v.proxy_rates = RateMap.summed(c.proxy_rates for c in keep)


def _refresh_weights(
    v: QVertex,
    changed_qids,
    query_loads: Dict[int, float],
    memo: Dict[int, bool],
) -> bool:
    """Weight-only refresh; returns whether ``v``'s weight changed.

    Skips whole subtrees with no refreshed member; coarse weights are
    re-summed only along paths where an atom actually changed.  Memoised
    by object identity because vertex objects are shared across levels.
    """
    r = memo.get(id(v))
    if r is not None:
        return r
    if not v.children:
        ch = False
        if v.members and v.members[0] in changed_qids:
            new = query_loads[v.members[0]]
            if v.weight != new:
                v.weight = new
                ch = True
        memo[id(v)] = ch
        return ch
    if not any(m in changed_qids for m in v.members):
        memo[id(v)] = False
        return False
    ch = False
    for c in v.children:
        if _refresh_weights(c, changed_qids, query_loads, memo):
            ch = True
    if ch:
        v.weight = sum(c.weight for c in v.children)
    memo[id(v)] = ch
    return ch


def _refresh_vertex(
    v: QVertex,
    query_loads: Dict[int, float],
    space: SubstreamSpace,
    memo: Dict[VertexId, None],
) -> None:
    if v.vid in memo:
        return
    memo[v.vid] = None
    if v.children:
        for child in v.children:
            _refresh_vertex(child, query_loads, space, memo)
        v.weight = sum(c.weight for c in v.children)
        v.source_rates = RateMap.summed(c.source_rates for c in v.children)
    else:
        if v.members and v.members[0] in query_loads:
            v.weight = query_loads[v.members[0]]
        v.source_rates = space.rates_by_source(v.mask)
