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

The edge store
--------------

:class:`QueryGraph` holds each edge once: vertex slots, three edge arrays
(endpoint slots and weights, in insertion order) and per-vertex incidence
rows in that same order.  Every reader works on that store in place --
the WEC reduces over the edge arrays, coarsening takes its q-q edges
from them, and the cost kernels' per-vertex neighbour arrays are gathered
from the rows and cached on the graph until an incident edge is written.
No consumer keeps a mirror it would have to be told about: a cost
workspace re-reads positions from the slot table when it starts a pass
(:meth:`QueryGraph.positions`).

Construction is bulk: :func:`build_query_graph` estimates a whole graph's
edges as arrays and appends them in one step, and ``rebuild_edges`` swaps
a live graph's edge set, compacting its slots and edges.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from scipy import sparse

from ..obs import registry as _obs
from ..query.interest import RateMap, SubstreamSpace, index_array
from ..query.workload import QuerySpec

__all__ = [
    "NetVertex",
    "NetworkGraph",
    "QVertex",
    "NVertex",
    "QueryGraph",
    "Mapping",
    "qvertex_from_query",
    "build_query_graph",
    "attach_overlap_edges",
    "rate_nodes",
    "stable_vertex_key",
    "DEFAULT_ALPHA",
]

#: The paper's load-imbalance tolerance (Section 3.1.1).
DEFAULT_ALPHA = 0.1

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
    (:meth:`QueryGraph.wec`, :class:`~repro.core.fastcost.CostWorkspace`)
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
    query graph at any coarsening level.  Both are read-only
    :class:`~repro.query.interest.RateMap` s: the constructor converts any
    mapping it is given, and a re-aggregation assigns a new map.
    """

    vid: VertexId
    weight: float
    mask: int
    source_rates: RateMap
    proxy_rates: RateMap
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

    def __post_init__(self):
        if type(self.source_rates) is not RateMap:
            self.source_rates = RateMap(self.source_rates)
        if type(self.proxy_rates) is not RateMap:
            self.proxy_rates = RateMap(self.proxy_rates)

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
    """q-vertices + n-vertices + weighted undirected edges, each edge held once.

    **Vertex slots.**  Every vertex, q or n, owns an integer slot
    (:meth:`slot`), handed out in insertion order.  A removed vertex leaves
    a dead slot behind; a vid added again gets a fresh one.

    **Edge arrays.**  Edge ``k`` joins slots ``_eu[k]`` and ``_ev[k]``
    (C ``int``, stored direction) with weight ``_ew[k]`` (C ``double``),
    in ``array`` objects: a scalar read or write is O(1) Python work,
    growth is amortised, and vector reads take a numpy view of the buffer
    for the length of one expression.  A new edge appends, an update
    writes in place, a removal leaves a tombstone (endpoints ``-1``).  A
    new q-n edge stores its q endpoint first.  :meth:`_replace_edges`
    compacts slots and edges.

    **Incidence rows.**  Slot ``s`` lists its neighbours' slots in
    ``_nbr[s]`` and the joining edges in ``_eid[s]`` (parallel
    ``array('i')`` rows, 8 bytes per half-edge).  An edge enters both
    endpoints' rows when it is appended and leaves both when it is
    removed; an update leaves the rows alone; a bulk install fills them by
    a stable sort on owner.  So **a vertex's row lists its incident edges
    in global edge order** -- the order an insertion-ordered adjacency
    dict kept beside an insertion-ordered edge dict would have
    (``tests/reference/graph_build.py::DictGraph``), and the order every
    float sum over a neighbourhood runs in.

    Per slot, the neighbour slots and weights the cost kernels gather are
    cached (:meth:`neighbour_arrays`) and dropped on any write to an
    incident edge.
    """

    def __init__(self):
        self.qverts: Dict[VertexId, QVertex] = {}
        self.nverts: Dict[VertexId, NVertex] = {}
        self._slot: Dict[VertexId, int] = {}
        #: slot -> vid (``None``: dead slot)
        self._vids: List[Optional[VertexId]] = []
        self._nbr: List[Optional[array]] = []
        self._eid: List[Optional[array]] = []
        self._cached: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        self._eu = array("i")
        self._ev = array("i")
        self._ew = array("d")
        #: tombstoned edges
        self._dead = 0

    # ------------------------------------------------------------------
    # slots and the edge store
    # ------------------------------------------------------------------
    def slot(self, vid: VertexId) -> int:
        """The slot of a vertex the graph holds (``KeyError`` otherwise)."""
        return self._slot[vid]

    @property
    def slot_count(self) -> int:
        """Slots handed out since the last compaction, dead ones included."""
        return len(self._vids)

    def _add_slot(self, vid: VertexId) -> None:
        if vid in self._slot:
            raise ValueError(f"duplicate vertex id {vid!r}")
        self._slot[vid] = len(self._vids)
        self._vids.append(vid)
        self._nbr.append(array("i"))
        self._eid.append(array("i"))
        self._cached.append(None)

    def _find(self, sa: int, sb: int) -> int:
        """Index of the edge joining slots ``sa`` and ``sb``, or ``-1``
        (scans the shorter of the two rows)."""
        if len(self._nbr[sb]) < len(self._nbr[sa]):
            sa, sb = sb, sa
        row = self._nbr[sa]
        if sb in row:
            return self._eid[sa][row.index(sb)]
        return -1

    def _append(
        self, a: VertexId, b: VertexId, sa: int, sb: int, weight: float
    ) -> int:
        """Store a new edge ``(a, b)``, a mixed q-n edge q endpoint first."""
        if not (a in self.qverts or b not in self.qverts):
            sa, sb = sb, sa
        k = len(self._ew)
        self._eu.append(sa)
        self._ev.append(sb)
        self._ew.append(weight)
        for s, t in ((sa, sb), (sb, sa)):
            self._nbr[s].append(t)
            self._eid[s].append(k)
            self._cached[s] = None
        return k

    def _unlink(self, k: int, s: int) -> None:
        """Take edge ``k`` out of slot ``s``'s row."""
        eids = self._eid[s]
        i = eids.index(k)
        del eids[i]
        del self._nbr[s][i]
        self._cached[s] = None

    def _drop(self, k: int, sa: int, sb: int) -> None:
        """Tombstone edge ``k``, which joins slots ``sa`` and ``sb``."""
        self._unlink(k, sa)
        self._unlink(k, sb)
        self._eu[k] = self._ev[k] = -1
        self._dead += 1

    def _write(self, k: int, sa: int, sb: int, weight: float) -> None:
        """Set live edge ``k``'s weight in place (rows keep their order)."""
        self._ew[k] = weight
        self._cached[sa] = self._cached[sb] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_qvertex(self, v: QVertex) -> None:
        """Add a q-vertex; raises ``ValueError`` on a duplicate id."""
        self._add_slot(v.vid)
        self.qverts[v.vid] = v

    def add_nvertex(self, v: NVertex) -> None:
        """Add an n-vertex; raises ``ValueError`` on a duplicate id."""
        self._add_slot(v.vid)
        self.nverts[v.vid] = v

    def add_edge(self, a: VertexId, b: VertexId, weight: float) -> None:
        """Accumulate ``weight`` onto the undirected edge ``(a, b)``.

        Self-edges and non-positive weights are ignored; an endpoint the
        graph does not hold raises ``KeyError`` and changes nothing.
        """
        if a == b or weight <= 0:
            return
        sa, sb = self._slot[a], self._slot[b]
        k = self._find(sa, sb)
        if k < 0:
            self._append(a, b, sa, sb, weight)
        else:
            self._write(k, sa, sb, self._ew[k] + weight)

    def set_edge(self, a: VertexId, b: VertexId, weight: float) -> None:
        """Set the undirected edge ``(a, b)`` to exactly ``weight``.

        A non-positive weight removes the edge; self-edges, no-op removals
        and value-equal overwrites are ignored.  An endpoint the graph
        does not hold raises ``KeyError`` and changes nothing.
        """
        if a != b:
            self._set(a, b, weight, None)

    def set_edges(
        self, a: VertexId, weights: Iterable[Tuple[VertexId, float]]
    ) -> None:
        """:meth:`set_edge` ``(a, b, w)`` for every ``(b, w)`` of
        ``weights``, in order, on a vertex ``a`` the graph holds.

        ``a``'s row is indexed once, so each write costs O(1) however
        many neighbours ``a`` has.
        """
        sa = self._slot[a]
        known = dict(zip(self._nbr[sa], self._eid[sa]))
        for b, w in weights:
            if b != a:
                self._set(a, b, w, known)

    def _set(
        self, a: VertexId, b: VertexId, weight: float,
        known: Optional[Dict[int, int]],
    ) -> None:
        """:meth:`set_edge`; ``known`` (``a``'s row as neighbour slot ->
        edge, kept current here) replaces the row scan when given."""
        if weight <= 0:
            sa, sb = self._slot.get(a), self._slot.get(b)
            if sa is None or sb is None:
                return
            k = self._find(sa, sb) if known is None else known.pop(sb, -1)
            if k >= 0:
                self._drop(k, sa, sb)
            return
        sa, sb = self._slot[a], self._slot[b]
        k = self._find(sa, sb) if known is None else known.get(sb, -1)
        if k < 0:
            k = self._append(a, b, sa, sb, weight)
            if known is not None:
                known[sb] = k
        elif self._ew[k] != weight:
            self._write(k, sa, sb, weight)

    def remove_vertex(self, vid: VertexId) -> None:
        """Remove a vertex and every edge incident to it (an id the graph
        does not hold is ignored)."""
        self.qverts.pop(vid, None)
        self.nverts.pop(vid, None)
        s = self._slot.pop(vid, None)
        if s is None:
            return
        eids = self._eid[s]
        for t, k in zip(self._nbr[s], eids):
            self._unlink(k, t)
            self._eu[k] = self._ev[k] = -1
        self._dead += len(eids)
        self._vids[s] = self._nbr[s] = self._eid[s] = self._cached[s] = None

    # ------------------------------------------------------------------
    # bulk construction (whole vertex / edge sets)
    # ------------------------------------------------------------------
    def _install_vertices(
        self, qverts: Iterable[QVertex], nverts: Iterable[NVertex]
    ) -> None:
        """Add whole vertex sets, q-vertices first.

        Raises ``ValueError`` on a duplicate id, like :meth:`add_qvertex`.
        """
        for store, verts in ((self.qverts, qverts), (self.nverts, nverts)):
            for v in verts:
                self._add_slot(v.vid)
                store[v.vid] = v

    def _install_edges(
        self,
        vids: Sequence[VertexId],
        heads: Sequence[int],
        tails: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        """Append a whole edge set in one step.

        Edge ``t`` joins ``vids[heads[t]]`` to ``vids[tails[t]]``, stored
        in that direction.  The result is what one ``set_edge`` per edge
        in order ``t`` leaves behind: the edges appended in order ``t`` and
        every row extended in that order (a stable sort of the half-edges
        by owner).  The caller passes pairs the graph does not hold yet,
        distinct, no self-edge and positive weights.  Every vertex is
        checked before anything is written (``KeyError`` naming a missing
        one).
        """
        slots = np.fromiter(
            map(self._slot.__getitem__, vids), dtype=np.int64, count=len(vids)
        )
        weights = np.asarray(weights, dtype=float)
        m = weights.size
        if not m:
            return
        heads = slots[np.asarray(heads, dtype=np.int64)]
        tails = slots[np.asarray(tails, dtype=np.int64)]
        k0 = len(self._ew)
        self._eu.frombytes(heads.astype(np.intc).tobytes())
        self._ev.frombytes(tails.astype(np.intc).tobytes())
        self._ew.frombytes(weights.tobytes())
        # both half-edges of every edge, edge-major; a stable sort by owner
        # then lists each slot's new neighbours in edge order
        owner = np.empty(2 * m, dtype=np.int64)
        owner[0::2] = heads
        owner[1::2] = tails
        order = np.argsort(owner, kind="stable")
        edge = order >> 1
        other = np.where(order & 1, heads[edge], tails[edge])
        nbr_bytes = other.astype(np.intc).tobytes()
        eid_bytes = (edge + k0).astype(np.intc).tobytes()
        counts = np.bincount(owner)
        touched = np.flatnonzero(counts)
        stops = np.cumsum(counts)[touched] * 4
        starts = stops - counts[touched] * 4
        for s, lo, hi in zip(touched.tolist(), starts.tolist(), stops.tolist()):
            self._nbr[s].frombytes(nbr_bytes[lo:hi])
            self._eid[s].frombytes(eid_bytes[lo:hi])
            self._cached[s] = None

    def _replace_edges(
        self,
        vids: Sequence[VertexId],
        heads: Sequence[int],
        tails: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        """Swap in a whole new edge set on a live graph, compacting.

        Dead slots and tombstoned edges are dropped: live vertices are
        renumbered in slot order, and the new edges are installed as by
        :meth:`_install_edges` into fresh arrays.  Every vertex is checked
        before anything is written.
        """
        self._require(vids)
        live = [vid for vid in self._vids if vid is not None]
        self._slot = {vid: s for s, vid in enumerate(live)}
        self._vids = live
        self._nbr = [array("i") for _ in live]
        self._eid = [array("i") for _ in live]
        self._cached = [None] * len(live)
        self._eu, self._ev, self._ew = array("i"), array("i"), array("d")
        self._dead = 0
        self._install_edges(vids, heads, tails, weights)

    def _require(self, vids: Iterable[VertexId]) -> None:
        """``KeyError`` naming the first of ``vids`` the graph does not hold."""
        for vid in vids:
            if vid not in self._slot:
                raise KeyError(vid)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def total_qweight(self) -> float:
        """Sum of all q-vertex weights (``Wq`` of Eqn 3.1)."""
        return sum(v.weight for v in self.qverts.values())

    def degree(self, vid: VertexId) -> int:
        """Number of edges at a vertex (0 for an id the graph does not hold)."""
        s = self._slot.get(vid)
        return 0 if s is None else len(self._nbr[s])

    def neighbors(self, vid: VertexId) -> Dict[VertexId, float]:
        """``{neighbour: edge weight}`` of a vertex, in row order (empty
        for an id the graph does not hold)."""
        s = self._slot.get(vid)
        if s is None:
            return {}
        return dict(zip(map(self._vids.__getitem__, self._nbr[s]),
                        map(self._ew.__getitem__, self._eid[s])))

    def neighbour_arrays(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbour slots (C ``int``) and edge weights of live slot ``s``,
        in row order; cached until an edge at ``s`` is written.  Read-only."""
        cached = self._cached[s]
        if cached is None:
            cached = self._cached[s] = (
                np.array(self._nbr[s], dtype=np.intc),
                np.frombuffer(self._ew)[np.frombuffer(self._eid[s], np.intc)],
            )
        return cached

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live edges as ``(head slots, tail slots, weights)`` numpy
        copies, in edge order and stored direction."""
        u = np.array(self._eu, dtype=np.intc)
        v = np.array(self._ev, dtype=np.intc)
        w = np.array(self._ew, dtype=float)
        if self._dead:
            live = u >= 0
            return u[live], v[live], w[live]
        return u, v, w

    def edges(self) -> List[Tuple[VertexId, VertexId, float]]:
        """All undirected edges as ``(a, b, weight)``, each edge once, in
        edge order and stored direction."""
        u, v, w = self.edge_arrays()
        vid = self._vids.__getitem__
        return list(zip(map(vid, u.tolist()), map(vid, v.tolist()), w.tolist()))

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

    def positions(self, target_of, ng: NetworkGraph) -> np.ndarray:
        """Topology site of every slot, as :meth:`position` places it.

        ``target_of(vid)`` names a q-vertex's network vertex (``None``:
        unplaced); unplaced q-vertices and dead slots read ``-1``.
        """
        site = {t: v.site for t, v in ng.vertices.items()}
        site[None] = -1
        slot = self._slot.__getitem__
        pos = np.full(len(self._vids), -1, dtype=np.int64)
        pos[list(map(slot, self.qverts))] = [
            site[target_of(vid)] for vid in self.qverts
        ]
        pos[list(map(slot, self.nverts))] = [
            nv.node if nv.clu is None else site[nv.clu]
            for nv in self.nverts.values()
        ]
        return pos

    def wec(self, mapping: Mapping, ng: NetworkGraph) -> float:
        """Weighted Edge Cut of a mapping (Eqn 3.2, undirected edges once).

        Read in place from the edge arrays: edge ``k`` costs its weight
        times the latency in row = its first endpoint's site, column = its
        second's (``0`` on equal sites; the oracle is not symmetric in the
        last bits, so the row rule is part of the value), summed by one
        ``np.add.reduce`` in edge order.  ``KeyError`` if an edge exists
        and a q-vertex is missing from ``mapping``.  Rows are read for
        every target site and every head site: scalar oracle lookups
        answer from whichever rows are cached, so that set is part of the
        behaviour.  ``tests/reference/scalar_kernels.py`` keeps the
        pure-Python definition.
        """
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.inc("opt.wec_evaluations")
        u, v, w = self.edge_arrays()
        pu = pv = np.empty(0, dtype=np.int64)
        if w.size:
            pos = self.positions(mapping.__getitem__, ng)
            pu, pv = pos[u], pos[v]
        rows = np.union1d([ng.site(t) for t in ng.ids()], pu)
        columns, col = np.unique(pv, return_inverse=True)
        dist = np.empty((rows.size, columns.size))
        for r, site in enumerate(rows.tolist()):
            dist[r] = np.asarray(ng.oracle.row(site))[columns]
        d = dist[np.searchsorted(rows, pu), col]
        d[pu == pv] = 0.0
        return float(np.add.reduce(w * d))

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


def qvertex_from_query(q: QuerySpec, space: SubstreamSpace) -> QVertex:
    """Atomic q-vertex for one query.

    The mask is unpacked once: the rate maps are summed from that unpack
    and it seeds the vertex's ``indices`` cache.
    """
    idx = index_array(q.mask).astype(np.int32)
    v = QVertex(
        vid=("q", q.query_id),
        weight=q.load,
        mask=q.mask,
        source_rates=space.rates_by_source(q.mask, idx),
        proxy_rates=RateMap.from_lists([q.proxy], [q.result_rate]),
        state_size=q.state_size,
        members=(q.query_id,),
    )
    v._idx = (q.mask, idx)
    return v


def rate_nodes(qvertices: Iterable[QVertex]) -> Set[int]:
    """Every source / proxy node the q-vertices' rate maps name: the
    n-vertices of their query graph."""
    nodes: Set[int] = set()
    for qv in qvertices:
        nodes.update(qv.source_rates)
        nodes.update(qv.proxy_rates)
    return nodes


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
    * q-q overlap edges get the rate of ``mask_a AND mask_b``, summed
      left to right from ``0.0`` in ascending substream order (the sparse
      product's order, :func:`_overlap_product`) -- not numpy's pairwise
      order of ``SubstreamSpace.rate`` / ``overlap_rates``, so the two may
      differ in the last bits; to keep the graph sparse each q-vertex
      keeps at most ``max_overlap_neighbors`` heaviest overlap edges
      (candidates found via a substream incidence matrix, so disjoint
      queries never pay a comparison).

    The graph is filled in bulk (:func:`_estimate_edges`): its edge
    arrays are allocated at exactly the edge count.
    """
    g = QueryGraph()
    qlist = list(qvertices)
    g._install_vertices(qlist, [
        NVertex(
            vid=("n", node), node=node,
            clu=ng.covering_vertex(node) if ng is not None else None,
        )
        for node in sorted(rate_nodes(qlist))
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
    source = [qv.source_rates for qv in qlist]
    proxy = [qv.proxy_rates for qv in qlist]
    maps = [m for pair in zip(source, proxy) for m in pair]
    nodes = np.frombuffer(b"".join([m.nodes for m in maps]), np.intc)
    weights = np.frombuffer(b"".join([m.rates for m in maps]))
    counts = [len(s.nodes) + len(p.nodes) for s, p in zip(source, proxy)]
    shared = any(
        any(map(s.nodes.__contains__, p.nodes)) for s, p in zip(source, proxy)
    )
    heads = np.repeat(np.arange(nq, dtype=np.int64), counts)
    # rate-map node x <-> n-vertex ("n", x)
    tails = np.fromiter(
        map(slot.get, zip(itertools.repeat("n"), nodes.tolist()),
            itertools.repeat(-1)),
        np.int64, nodes.size,
    )
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
    left factor to those rows of ``qlist`` (one CSR row per entry).  The
    product accumulates each entry over the left row's substreams in
    ascending order, so an overlap is the sequential sum ``((0.0 + r_1) +
    r_2) + ...`` of its rates, which is not the pairwise sum
    :meth:`SubstreamSpace.overlap_rates` returns for the same pair
    (``tests/test_segment_sums.py`` pins both orders).
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
    heaviest overlaps, selected exactly as at build time.  The edges go
    onto the live graph row by row, each row in one ``set_edges``; an
    edge the graph already has -- from before or from an earlier row --
    is left as it is.
    """
    if len(qlist) < 2 or not len(new_rows):
        return
    rows = list(new_rows)
    heads, tails, weights = _select_topk(
        np.asarray(rows, dtype=np.int64),
        _overlap_product(qlist, space, rows),
        max_neighbors,
    )
    picks = zip(heads.tolist(), tails.tolist(), weights.tolist())
    for i, row in itertools.groupby(picks, key=lambda pick: pick[0]):
        a = qlist[i].vid
        have = g.neighbors(a)
        g.set_edges(a, [
            (qlist[j].vid, w) for _, j, w in row if qlist[j].vid not in have
        ])
