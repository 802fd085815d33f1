"""The graph-mapping model of Section 3.1.

Two graphs:

* :class:`NetworkGraph` -- one vertex per mapping target (a processor, or
  a child coordinator's whole cluster in the hierarchical scheme), weighted
  by computational capability; the "edge weights" are latencies between the
  vertices' representative sites.  Every latency is read from the
  :class:`~repro.topology.latency.LatencyOracle` the graph holds -- its
  lazily computed per-node rows -- so no quadratic structure is
  materialised.
* :class:`QueryGraph` -- q-vertices (queries, weighted by CPU load) and
  n-vertices (sources and proxies, weight 0).  Edges carry stream rates:
  q-n edges are source-request or result-delivery rates; q-q edges are the
  *overlap* rates that make the pub/sub sharing visible to the optimizer
  (the feature that lets Scheme 3 beat Scheme 2 in Table 2).

A *mapping* assigns every query-graph vertex to a network-graph vertex;
n-vertices are pinned (network constraint).  Quality is the **Weighted
Edge Cut** (Eqn 3.2) subject to the load-balance constraint (Eqn 3.1).

Incremental maintenance
-----------------------

Mutations are journalled: every structural change appends a compact delta
op, and a consumer that caches derived state (the ``CostWorkspace`` in
``fastcost``) replays the suffix of the journal since its last sync
instead of rebuilding from scratch.  The WEC snapshot
(:class:`GraphArrays`) caches nothing: it is built for one evaluation.

Construction is the exception: :func:`build_query_graph` estimates a whole
graph's edges as arrays and installs them in bulk, writing no journal
record (nobody holds a cursor into a graph that does not exist yet), and
``rebuild_edges`` swaps a live graph's edge set as one ``("clear",)`` step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy import sparse

from ..obs import registry as _obs
from ..query.interest import SubstreamSpace, index_array
from ..query.workload import QuerySpec

__all__ = [
    "NetVertex",
    "NetworkGraph",
    "QVertex",
    "NVertex",
    "QueryGraph",
    "GraphArrays",
    "Mapping",
    "qvertex_from_query",
    "build_query_graph",
    "attach_overlap_edges",
    "stable_vertex_key",
    "DEFAULT_ALPHA",
    "JOURNAL_LIMIT",
]

#: The paper's load-imbalance tolerance (Section 3.1.1).
DEFAULT_ALPHA = 0.1

#: Journal entries kept before the oldest half is trimmed; consumers whose
#: cursor falls off the retained suffix rebuild from scratch.
JOURNAL_LIMIT = 65536

VertexId = Hashable


@dataclass(frozen=True)
class NetVertex:
    """A mapping target: a processor or a child cluster.

    ``site`` is the representative topology node (the processor itself, or
    the cluster's median coordinator) used for distance computations;
    ``covers`` is the set of processor/topology nodes the vertex stands
    for, used to pin n-vertices.
    """

    vid: VertexId
    site: int
    capability: float
    covers: FrozenSet[int]


class NetworkGraph:
    """The set of mapping targets plus the latency oracle between sites.

    ``oracle`` is the only source of topology latency: the cost kernels
    (:class:`GraphArrays`, :class:`~repro.core.fastcost.CostWorkspace`)
    read its ``row(site)`` arrays.
    """

    def __init__(self, vertices: Iterable[NetVertex], oracle):
        self.vertices: Dict[VertexId, NetVertex] = {v.vid: v for v in vertices}
        if not self.vertices:
            raise ValueError("network graph needs at least one vertex")
        self.oracle = oracle
        self._covering: Dict[int, VertexId] = {}
        for v in self.vertices.values():
            for node in v.covers:
                self._covering[node] = v.vid

    def site(self, vid: VertexId) -> int:
        """Representative topology node of a vertex."""
        return self.vertices[vid].site

    def capability(self, vid: VertexId) -> float:
        """Computational capability of a vertex (``c_j`` of Eqn 3.1)."""
        return self.vertices[vid].capability

    def total_capability(self) -> float:
        """Sum of all vertex capabilities (``Wn`` of Eqn 3.1)."""
        return sum(v.capability for v in self.vertices.values())

    def covering_vertex(self, node: int) -> Optional[VertexId]:
        """The vertex whose cluster covers topology node ``node``, if any."""
        return self._covering.get(node)

    def ids(self) -> List[VertexId]:
        """All vertex ids, in insertion order."""
        return list(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class QVertex:
    """A query vertex: one query, or a coarsened group of queries.

    ``source_rates`` / ``proxy_rates`` aggregate the member queries'
    requested per-source rates and per-proxy result rates; together with
    the interest ``mask`` they are sufficient to rebuild every edge of the
    query graph at any coarsening level.
    """

    vid: VertexId
    weight: float
    mask: int
    source_rates: Dict[int, float]
    proxy_rates: Dict[int, float]
    state_size: float = 1.0
    #: atomic query ids represented by this (possibly coarse) vertex
    members: Tuple[int, ...] = ()
    #: finer-grained vertices this vertex was coarsened from
    children: Tuple["QVertex", ...] = ()
    #: name of the coordinator that created this (coarse) vertex
    origin: Optional[Hashable] = None
    # (mask object, ``index_array`` of it) behind ``indices``.  One slot on
    # purpose: an eleventh instance attribute pushes CPython's per-instance
    # storage into the next size class (+300 B on every vertex)
    _idx: Optional[Tuple[int, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def indices(self) -> np.ndarray:
        """Ascending set-bit indices of ``mask`` (read-only; cached).

        The operand of :meth:`SubstreamSpace.overlap_rates`.  The cache
        lives and dies with the vertex, so the memory it holds is bounded
        by the live vertex set, and it is validated against the *identity*
        of the mask it was unpacked from: ints are immutable, so the same
        object means the same bits, and any reassignment of ``mask``
        (stripping a member, re-aggregation) is picked up without the
        writer having to know about the cache.  Stored as ``int32``: half
        the resident bytes of ``intp`` for a few percent of gather time.
        """
        cached = self._idx
        if cached is None or cached[0] is not self.mask:
            cached = self._idx = (
                self.mask, index_array(self.mask).astype(np.int32)
            )
        return cached[1]

    def drop_indices(self) -> None:
        """Release the cached ``indices`` (re-unpacked on next use)."""
        self._idx = None

    def load_density(self) -> float:
        """Weight per unit of migratable state (Algorithm 3's tie-breaker)."""
        return self.weight / self.state_size if self.state_size > 0 else float("inf")

    def copy(self) -> "QVertex":
        """Shallow copy with private rate maps (safe to mutate)."""
        return replace(
            self,
            source_rates=dict(self.source_rates),
            proxy_rates=dict(self.proxy_rates),
        )


def stable_vertex_key(qv: QVertex) -> str:
    """A tie-break key that is stable across optimizer runs.

    Coarse vertex ids embed a process-global counter, so ``str(vid)``
    orderings differ between two otherwise identical optimizer runs (e.g.
    the incremental and the full-rebuild reference).  The member tuple is
    content-derived and survives re-coarsening, so exact-tie decisions
    keyed on it are reproducible.
    """
    if qv.members:
        return str(tuple(sorted(qv.members)))
    return str(qv.vid)


@dataclass(frozen=True)
class NVertex:
    """An n-vertex: a source or proxy pinned to a topology node.

    ``clu`` is the network-graph vertex covering the node, or ``None`` when
    the node lies outside every child cluster of the current coordinator
    (the paper's ``unknown``); such vertices keep their own site as their
    position and are not mapping targets.
    """

    vid: VertexId
    node: int
    clu: Optional[VertexId] = None


Mapping = Dict[VertexId, VertexId]


class QueryGraph:
    """q-vertices + n-vertices + weighted edges (adjacency maps).

    Besides the adjacency maps the graph keeps a *canonical edge store*
    (``_edges``, an insertion-ordered dict keyed by the edge's canonical
    endpoint pair) and a *mutation journal*.  The journal records one
    compact op per structural change:

    ``("+q", vid)``
        a q-vertex was added;
    ``("+n", vid, clu, node)``
        an n-vertex was added (self-contained: the vertex may be removed
        again later in the same journal suffix);
    ``("-v", vid)``
        a vertex was removed (its per-edge removal ops precede it);
    ``("e", a, b, w)``
        edge ``(a, b)`` now has absolute weight ``w`` (``0.0`` = removed);
        the pair is in canonical key direction;
    ``("clear",)``
        all edges dropped — consumers rebuild.

    ``_version == _jbase + len(_journal)`` always holds; a consumer holding
    cursor ``c`` obtained from :meth:`journal_cursor` can later fetch the
    exact delta via :meth:`journal_since`.
    """

    def __init__(self):
        self.qverts: Dict[VertexId, QVertex] = {}
        self.nverts: Dict[VertexId, NVertex] = {}
        self.adj: Dict[VertexId, Dict[VertexId, float]] = {}
        #: canonical edge store; insertion order == GraphArrays edge order
        self._edges: Dict[Tuple[VertexId, VertexId], float] = {}
        #: bumped on every structural mutation
        self._version: int = 0
        self._jbase: int = 0
        self._journal: List[tuple] = []

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def _record(self, op: tuple) -> None:
        self._journal.append(op)
        self._version += 1
        if len(self._journal) > JOURNAL_LIMIT:
            drop = len(self._journal) // 2
            del self._journal[:drop]
            self._jbase += drop

    def journal_cursor(self) -> int:
        """Opaque cursor capturing the graph's current mutation point."""
        return self._version

    def journal_since(self, cursor: int) -> Optional[List[tuple]]:
        """Ops recorded since ``cursor``, or ``None`` if trimmed away."""
        if cursor < self._jbase:
            return None
        return self._journal[cursor - self._jbase:]

    def _ekey(self, a: VertexId, b: VertexId) -> Tuple[VertexId, VertexId]:
        """Canonical key direction for edge ``(a, b)``.

        An existing edge keeps its stored direction; a new mixed q-n edge
        puts the q endpoint first (so distance-matrix rows are only ever
        needed for mapping-target sites and n-n edges).
        """
        if (a, b) in self._edges:
            return (a, b)
        if (b, a) in self._edges:
            return (b, a)
        if a in self.qverts or b not in self.qverts:
            return (a, b)
        return (b, a)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_qvertex(self, v: QVertex) -> None:
        """Add a q-vertex; raises ``ValueError`` on a duplicate id."""
        if v.vid in self.qverts or v.vid in self.nverts:
            raise ValueError(f"duplicate vertex id {v.vid!r}")
        self.qverts[v.vid] = v
        self.adj.setdefault(v.vid, {})
        self._record(("+q", v.vid))

    def add_nvertex(self, v: NVertex) -> None:
        """Add an n-vertex; raises ``ValueError`` on a duplicate id."""
        if v.vid in self.qverts or v.vid in self.nverts:
            raise ValueError(f"duplicate vertex id {v.vid!r}")
        self.nverts[v.vid] = v
        self.adj.setdefault(v.vid, {})
        self._record(("+n", v.vid, v.clu, v.node))

    def add_edge(self, a: VertexId, b: VertexId, weight: float) -> None:
        """Accumulate ``weight`` onto the undirected edge ``(a, b)``.

        Self-edges and non-positive weights are ignored; an endpoint the
        graph does not hold raises ``KeyError`` and changes nothing.
        """
        if a == b:
            return
        if weight <= 0:
            return
        # both rows are looked up before anything is written: an endpoint
        # the graph does not hold raises ``KeyError`` on a graph untouched
        row_a, row_b = self.adj[a], self.adj[b]
        key = self._ekey(a, b)
        total = self._edges.get(key, 0.0) + weight
        self._edges[key] = total
        row_a[b] = total
        row_b[a] = total
        self._record(("e", key[0], key[1], total))

    def set_edge(self, a: VertexId, b: VertexId, weight: float) -> None:
        """Set the undirected edge ``(a, b)`` to exactly ``weight``.

        A non-positive weight removes the edge; self-edges, no-op removals
        and value-equal overwrites are ignored (no version bump).  An
        endpoint the graph does not hold raises ``KeyError`` and changes
        nothing.
        """
        if a == b:
            return
        key = self._ekey(a, b)
        if weight <= 0:
            if self._edges.pop(key, None) is None:
                return
            del self.adj[a][b]
            del self.adj[b][a]
            self._record(("e", key[0], key[1], 0.0))
            return
        if self._edges.get(key) == weight:
            return
        row_a, row_b = self.adj[a], self.adj[b]  # KeyError before any write
        self._edges[key] = weight
        row_a[b] = weight
        row_b[a] = weight
        self._record(("e", key[0], key[1], weight))

    def remove_vertex(self, vid: VertexId) -> None:
        """Remove a vertex and every edge incident to it."""
        for nbr in list(self.adj.get(vid, {})):
            del self.adj[nbr][vid]
            key = (vid, nbr) if (vid, nbr) in self._edges else (nbr, vid)
            del self._edges[key]
            self._record(("e", key[0], key[1], 0.0))
        self.adj.pop(vid, None)
        self.qverts.pop(vid, None)
        self.nverts.pop(vid, None)
        self._record(("-v", vid))

    # ------------------------------------------------------------------
    # bulk construction (whole vertex / edge sets, not journaled per item)
    # ------------------------------------------------------------------
    def _install_vertices(
        self, qverts: Iterable[QVertex], nverts: Iterable[NVertex]
    ) -> None:
        """Add whole vertex sets, q-vertices first, without journal records.

        For a graph under construction only: no consumer can hold a cursor
        into a graph that does not exist yet, so there is nobody to tell.
        Raises ``ValueError`` on a duplicate id, like :meth:`add_qvertex`.
        """
        adj = self.adj
        for store, verts in ((self.qverts, qverts), (self.nverts, nverts)):
            for v in verts:
                if v.vid in adj:
                    raise ValueError(f"duplicate vertex id {v.vid!r}")
                store[v.vid] = v
                adj[v.vid] = {}

    def _install_edges(
        self,
        vids: Sequence[VertexId],
        heads: Sequence[int],
        tails: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        """Install a whole edge set onto an empty edge store, unjournaled.

        Edge ``t`` joins ``vids[heads[t]]`` to ``vids[tails[t]]``, stored in
        that direction.  The result is what one ``set_edge`` per edge in
        order ``t`` leaves behind: ``_edges`` in order ``t`` and every
        ``adj`` row in the order its vertex's edges appear in ``t`` -- that
        order is :class:`GraphArrays` edge order and the order every float
        sum over a neighbourhood runs in.  The caller passes distinct
        pairs, no self-edge and positive weights.  Every vertex is checked
        before anything is written (``KeyError`` naming a missing one).
        """
        adj = self.adj
        self._require(vids)
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if not weights.size:
            return
        vid_of = vids.__getitem__
        # one float object per edge, shared by _edges and both adj halves
        wlist = weights.tolist()
        self._edges.update(zip(
            zip(map(vid_of, heads.tolist()), map(vid_of, tails.tolist())),
            wlist,
        ))
        # both half-edges of every edge, edge-major; a stable sort by owner
        # then lists each vertex's neighbours in install order
        owner = np.empty(2 * weights.size, dtype=np.int64)
        owner[0::2] = heads
        owner[1::2] = tails
        order = np.argsort(owner, kind="stable")
        edge = order >> 1
        other = np.where(order & 1, heads[edge], tails[edge])
        halves = zip(
            map(vid_of, other.tolist()), map(wlist.__getitem__, edge.tolist())
        )
        degree = np.bincount(owner, minlength=len(vids))
        for vid, deg in zip(vids, degree.tolist()):
            if deg:
                adj[vid].update(itertools.islice(halves, deg))

    def _replace_edges(
        self,
        vids: Sequence[VertexId],
        heads: Sequence[int],
        tails: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        """Swap in a whole new edge set on a live graph: one journal step.

        The single ``("clear",)`` record is appended *after* the last edge
        is in place, so a cursor can sit before the swap or after it, never
        between the record and the edges; every consumer rebuilds on it.
        """
        self._require(vids)
        for vid in self.adj:
            self.adj[vid] = {}
        self._edges.clear()
        self._install_edges(vids, heads, tails, weights)
        self._record(("clear",))

    def _require(self, vids: Iterable[VertexId]) -> None:
        """``KeyError`` naming the first of ``vids`` the graph does not hold."""
        for vid in vids:
            if vid not in self.adj:
                raise KeyError(vid)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def total_qweight(self) -> float:
        """Sum of all q-vertex weights (``Wq`` of Eqn 3.1)."""
        return sum(v.weight for v in self.qverts.values())

    def neighbors(self, vid: VertexId) -> Dict[VertexId, float]:
        """Adjacency map ``{neighbour: edge weight}`` of a vertex."""
        return self.adj.get(vid, {})

    def edges(self) -> List[Tuple[VertexId, VertexId, float]]:
        """All undirected edges as ``(a, b, weight)``, each edge once.

        Canonical store order: edge insertion order, stored direction.
        """
        return [(a, b, w) for (a, b), w in self._edges.items()]

    def vertex_count(self) -> int:
        """Total number of vertices (q plus n)."""
        return len(self.qverts) + len(self.nverts)

    # ------------------------------------------------------------------
    # mapping quality
    # ------------------------------------------------------------------
    def position(self, vid: VertexId, mapping: Mapping, ng: NetworkGraph) -> int:
        """Topology site a vertex occupies under ``mapping``.

        q-vertices sit at the site of their mapped network vertex; pinned
        n-vertices at the site of their covering cluster; external
        n-vertices at their own node.
        """
        if vid in self.qverts:
            return ng.site(mapping[vid])
        nv = self.nverts[vid]
        if nv.clu is not None:
            return ng.site(nv.clu)
        return nv.node

    def wec(self, mapping: Mapping, ng: NetworkGraph) -> float:
        """Weighted Edge Cut of a mapping (Eqn 3.2, undirected edges once).

        Gathers it from a :class:`GraphArrays` snapshot built for this
        call.  ``tests/reference/scalar_kernels.py`` keeps the
        pure-Python definition.
        """
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.inc("opt.wec_evaluations")
        return GraphArrays(self, ng).wec(mapping)

    def loads(self, mapping: Mapping, ng: NetworkGraph) -> Dict[VertexId, float]:
        """Per-network-vertex query load under a mapping."""
        loads = {vid: 0.0 for vid in ng.ids()}
        for qid, q in self.qverts.items():
            loads[mapping[qid]] += q.weight
        return loads

    def capacity_limits(
        self, ng: NetworkGraph, alpha: float = DEFAULT_ALPHA
    ) -> Dict[VertexId, float]:
        """Eqn 3.1 load ceilings: ``(1 + alpha) * c_j * Wq / Wn``."""
        total_q = self.total_qweight()
        total_c = ng.total_capability()
        return {
            vid: (1.0 + alpha) * ng.capability(vid) * total_q / total_c
            for vid in ng.ids()
        }

    def satisfies_load_constraint(
        self, mapping: Mapping, ng: NetworkGraph, alpha: float = DEFAULT_ALPHA
    ) -> bool:
        """Whether every network vertex is within its Eqn 3.1 ceiling."""
        limits = self.capacity_limits(ng, alpha)
        loads = self.loads(mapping, ng)
        return all(loads[vid] <= limits[vid] + 1e-9 for vid in ng.ids())

    def pinned_mapping(self, ng: NetworkGraph) -> Mapping:
        """The network-constraint part of a mapping (n-vertices only)."""
        out: Mapping = {}
        for vid, nv in self.nverts.items():
            if nv.clu is not None:
                out[vid] = nv.clu
        return out


class GraphArrays:
    """Read-only array snapshot of one (query graph, network graph) pair.

    The object API of :class:`QueryGraph` is dictionary-based and
    convenient to mutate; a WEC evaluation only *reads* the graph, and at
    10k queries per-edge Python iteration dominates it.  ``GraphArrays``
    is built once, for one evaluation, and holds:

    * the *site universe* -- the target sites, then the sites of the
      n-vertices -- with a dense inter-site distance matrix :attr:`D`;
    * vertex slots: q-vertices, then n-vertices, in graph order, with
      every n-vertex's site index (its covering target's site, or its own
      node when no target covers it);
    * the edges as endpoint-slot and weight arrays in canonical
      ``_edges`` order.

    The WEC reads ``D`` at row = the first endpoint's site, column = the
    second's: ``D[i]`` is ``ng.oracle.row(sites[i])`` restricted to the
    site universe, with ``D[i, i] = 0``.  The oracle is not symmetric in
    the last bits, so the row rule is part of the value.
    """

    def __init__(self, qg: QueryGraph, ng: NetworkGraph):
        targets = ng.ids()
        self.target_index: Dict[VertexId, int] = {
            t: i for i, t in enumerate(targets)
        }
        site_pos: Dict[int, int] = {}

        def intern(site: int) -> int:
            return site_pos.setdefault(site, len(site_pos))

        self.target_site_idx = np.asarray(
            [intern(ng.site(t)) for t in targets], dtype=np.int64
        )
        self._qvids = list(qg.qverts)
        nq = len(self._qvids)
        self._nsite_idx = np.asarray(
            [
                intern(ng.site(nv.clu) if nv.clu is not None else nv.node)
                for nv in qg.nverts.values()
            ],
            dtype=np.int64,
        )
        sites = list(site_pos)

        slot = {
            vid: s
            for s, vid in enumerate(itertools.chain(qg.qverts, qg.nverts))
        }
        ne = len(qg._edges)
        self.edge_u = np.fromiter(
            (slot[a] for a, _ in qg._edges), dtype=np.int64, count=ne
        )
        self.edge_v = np.fromiter(
            (slot[b] for _, b in qg._edges), dtype=np.int64, count=ne
        )
        self.edge_w = np.fromiter(qg._edges.values(), dtype=float, count=ne)

        # rows: every target site, and the site of every n-vertex that
        # heads an edge (n-n edges); the rest of D is never read
        heads = self.edge_u[self.edge_u >= nq] - nq
        rows = np.union1d(self.target_site_idx, self._nsite_idx[heads])
        self.D = np.zeros((len(sites), len(sites)))
        columns = np.asarray(sites, dtype=np.int64)
        for i in rows.tolist():
            self.D[i] = np.asarray(ng.oracle.row(sites[i]))[columns]
            self.D[i, i] = 0.0

    def positions(self, mapping: Mapping) -> np.ndarray:
        """Site-universe index of every vertex slot under ``mapping``.

        q-vertices occupy the site of their mapped target; n-vertices sit
        at their pinned site.  Raises ``KeyError`` when a q-vertex is
        missing from the mapping, like the reference path.
        """
        tindex = self.target_index
        ti = np.fromiter(
            (tindex[mapping[vid]] for vid in self._qvids),
            dtype=np.int64,
            count=len(self._qvids),
        )
        return np.concatenate([self.target_site_idx[ti], self._nsite_idx])

    def wec(self, mapping: Mapping) -> float:
        """Weighted Edge Cut of ``mapping`` (vectorised Eqn 3.2)."""
        if self.edge_w.size == 0:
            return 0.0
        pos = self.positions(mapping)
        contrib = self.edge_w * self.D[pos[self.edge_u], pos[self.edge_v]]
        return float(np.add.reduce(contrib))


def qvertex_from_query(q: QuerySpec, space: SubstreamSpace) -> QVertex:
    """Atomic q-vertex for one query."""
    return QVertex(
        vid=("q", q.query_id),
        weight=q.load,
        mask=q.mask,
        source_rates=space.rates_by_source(q.mask),
        proxy_rates={q.proxy: q.result_rate},
        state_size=q.state_size,
        members=(q.query_id,),
    )


def build_query_graph(
    qvertices: Iterable[QVertex],
    space: SubstreamSpace,
    ng: Optional[NetworkGraph] = None,
    max_overlap_neighbors: int = 20,
) -> QueryGraph:
    """Assemble a query graph from q-vertices.

    * an n-vertex is created for every source / proxy node referenced by
      any q-vertex; its ``clu`` is resolved against ``ng`` when given;
    * q-n edges get the aggregated request / result rates;
    * q-q overlap edges get ``rate(mask_a AND mask_b)``; to keep the graph
      sparse each q-vertex keeps at most ``max_overlap_neighbors`` heaviest
      overlap edges (candidates found via a substream incidence matrix, so
      disjoint queries never pay a comparison).

    The graph is filled in bulk (:func:`_estimate_edges`) and starts with
    an empty journal: nobody can hold a cursor into it yet.
    """
    g = QueryGraph()
    qlist = list(qvertices)
    nodes = set()
    for qv in qlist:
        nodes.update(qv.source_rates)
        nodes.update(qv.proxy_rates)
    g._install_vertices(qlist, [
        NVertex(
            vid=("n", node), node=node,
            clu=ng.covering_vertex(node) if ng is not None else None,
        )
        for node in sorted(nodes)
    ])
    g._install_edges(*_estimate_edges(g, space, max_overlap_neighbors))
    return g


def _estimate_edges(
    g: QueryGraph, space: SubstreamSpace, max_neighbors: int
) -> Tuple[List[VertexId], np.ndarray, np.ndarray, np.ndarray]:
    """Every edge of ``g``, estimated from its vertices' aggregate state.

    Returns ``(vids, heads, tails, weights)`` for
    :meth:`QueryGraph._install_edges` in the order the edges have always
    been installed in, which every downstream float sum depends on: the
    q-n edges, q-vertex by q-vertex in graph order (source rates, then
    proxy rates), followed by the overlap edges in first-setter order.
    ``g`` itself is only read.
    """
    qlist = list(g.qverts.values())
    vids = [*g.qverts, *g.nverts]
    parts = [_rate_edges(g, qlist)]
    if len(qlist) >= 2:
        parts.append(_overlap_edges(qlist, space, max_neighbors))
    heads, tails, weights = (np.concatenate(column) for column in zip(*parts))
    return vids, heads, tails, weights


def _rate_edges(
    g: QueryGraph, qlist: List[QVertex]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q-n edges of ``g`` from its q-vertices' rate maps.

    Endpoints index ``qlist`` followed by ``g.nverts``.  A non-positive
    rate is ignored, so is a node ``g`` tracks no n-vertex for, and a node
    that is both source and proxy of one vertex gets one edge carrying the
    sum, at the position of the first.
    """
    nq = len(qlist)
    slot = {vid: nq + k for k, vid in enumerate(g.nverts)}
    nodes: List[int] = []
    rates: List[float] = []
    counts: List[int] = []
    shared = False
    for qv in qlist:
        source, proxy = qv.source_rates, qv.proxy_rates
        nodes.extend(source)
        nodes.extend(proxy)
        rates.extend(source.values())
        rates.extend(proxy.values())
        counts.append(len(source) + len(proxy))
        shared = shared or not source.keys().isdisjoint(proxy)
    heads = np.repeat(np.arange(nq, dtype=np.int64), counts)
    # rate-map node x <-> n-vertex ("n", x)
    tails = np.fromiter(
        map(slot.get, zip(itertools.repeat("n"), nodes), itertools.repeat(-1)),
        np.int64, len(nodes),
    )
    weights = np.array(rates, dtype=float)
    keep = ~(weights <= 0) & (tails >= 0)
    if not keep.all():
        heads, tails, weights = heads[keep], tails[keep], weights[keep]
    if shared:
        pairs, first, inverse = np.unique(
            heads * (nq + len(g.nverts)) + tails,
            return_index=True, return_inverse=True,
        )
        # a pair occurs at most twice (once per rate map), so its weight
        # is the one commutative sum of the two
        totals = np.zeros(pairs.size)
        np.add.at(totals, inverse, weights)
        first.sort()
        heads, tails, weights = heads[first], tails[first], totals[inverse[first]]
    return heads, tails, weights


def _overlap_edges(
    qlist: List[QVertex], space: SubstreamSpace, max_neighbors: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q-q overlap edges among ``qlist`` (endpoints index it).

    Each vertex keeps its ``max_neighbors`` heaviest overlaps; an
    unordered pair belongs to whichever row selects it first.
    """
    nq = len(qlist)
    heads, tails, weights = _select_topk(
        np.arange(nq, dtype=np.int64),
        _overlap_product(qlist, space),
        max_neighbors,
    )
    _, first = np.unique(
        np.minimum(heads, tails) * nq + np.maximum(heads, tails),
        return_index=True,
    )
    first.sort()
    return heads[first], tails[first], weights[first]


def _incidence_matrix(
    qlist: List[QVertex], space: SubstreamSpace
) -> sparse.csr_matrix:
    """CSR query x substream incidence matrix (rows follow ``qlist``).

    Per-row indices are the vertices' cached ``indices`` (ascending), so
    the matrix is canonical without an extra sort and no mask is unpacked
    twice, however often overlap edges are attached.
    """
    indptr = np.zeros(len(qlist) + 1, dtype=np.int64)
    per_row = [qv.indices for qv in qlist]
    for i, arr in enumerate(per_row):
        indptr[i + 1] = indptr[i] + arr.size
    if per_row:
        indices = np.concatenate(per_row).astype(np.int32, copy=False)
    else:
        indices = np.empty(0, dtype=np.int32)
    data = np.ones(indices.size)
    return sparse.csr_matrix(
        (data, indices, indptr), shape=(len(qlist), len(space))
    )


def _overlap_product(
    qlist: List[QVertex],
    space: SubstreamSpace,
    rows: Optional[Sequence[int]] = None,
) -> sparse.csr_matrix:
    """Pairwise overlap rates as one sparse matrix product.

    With ``A`` the query x substream incidence matrix, the full pairwise
    overlap-rate matrix is ``A diag(rates) A^T``; ``rows`` restricts the
    left factor to those rows of ``qlist`` (one CSR row per entry).
    """
    incidence = _incidence_matrix(qlist, space)
    weighted = incidence.multiply(space.rates[np.newaxis, :]).tocsr()
    if rows is not None:
        weighted = weighted[rows]
    return (weighted @ incidence.T).tocsr()


def _select_topk(
    rows: np.ndarray, overlap: sparse.csr_matrix, max_neighbors: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's ``max_neighbors`` heaviest overlaps, for all rows at once.

    ``overlap`` holds one row per entry of ``rows`` (global q indices).
    Returns ``(row ids, column ids, weights)``, row after row.  Rows are
    canonicalised (sorted indices) first so the tie-breaking of the top-k
    selection is deterministic regardless of how the product was computed
    (full matrix vs row slice).  A row within the cap keeps that order; a
    row above it is cut by ``np.argpartition`` on its own negated weights
    and keeps the order that call returns -- on exact ties at the boundary
    a sort picks different members, and the order is the order the edges
    are installed in, so the per-row call is part of the graph's identity.
    """
    overlap.sort_indices()
    local = np.repeat(np.arange(rows.size), np.diff(overlap.indptr))
    heads = rows[local]
    keep = (overlap.indices != heads) & (overlap.data > 0)
    heads = heads[keep]
    tails = overlap.indices[keep].astype(np.int64)
    weights = overlap.data[keep]
    counts = np.bincount(local[keep], minlength=rows.size)
    capped = np.flatnonzero(counts > max_neighbors)
    if capped.size:
        ends = np.cumsum(counts)
        negated = -weights
        position = np.arange(weights.size)
        pieces = []
        done = 0
        for start, end in zip(
            (ends[capped] - counts[capped]).tolist(), ends[capped].tolist()
        ):
            pieces.append(position[done:start])
            pieces.append(start + np.argpartition(
                negated[start:end], max_neighbors - 1
            )[:max_neighbors])
            done = end
        pieces.append(position[done:])
        pick = np.concatenate(pieces)
        heads, tails, weights = heads[pick], tails[pick], weights[pick]
    return heads, tails, weights


def attach_overlap_edges(
    g: QueryGraph,
    qlist: List[QVertex],
    new_rows: Sequence[int],
    space: SubstreamSpace,
    max_neighbors: int = 20,
) -> None:
    """Attach overlap edges for a *subset* of q-vertices in one product.

    ``new_rows`` are indices into ``qlist`` (which must enumerate every
    q-vertex of ``g``, in graph order).  Each listed row is scored against
    the full query population -- one row-sliced sparse product instead of a
    per-pair ``overlap_rate`` loop -- and keeps its ``max_neighbors``
    heaviest overlaps, selected exactly as at build time.  The graph is
    live, so the handful of edges go through journaled ``set_edge``; an
    edge the graph already has is left as it is.
    """
    if len(qlist) < 2 or not len(new_rows):
        return
    rows = list(new_rows)
    heads, tails, weights = _select_topk(
        np.asarray(rows, dtype=np.int64),
        _overlap_product(qlist, space, rows),
        max_neighbors,
    )
    adj = g.adj
    for i, j, w in zip(heads.tolist(), tails.tolist(), weights.tolist()):
        a, b = qlist[i].vid, qlist[j].vid
        if b not in adj[a]:
            g.set_edge(a, b, w)
