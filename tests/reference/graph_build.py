"""Query-graph construction, one edge at a time, and the dict model of
the edge store.

The definition of the graph :func:`repro.core.graphs.build_query_graph`
and :func:`repro.core.coarsening.rebuild_edges` must produce: vertices
through ``add_qvertex`` / ``add_nvertex``, q-n edges through accumulating
``add_edge``, overlap edges through one top-k selection per row and
``set_edge`` under a first-setter-wins check against the live adjacency.
The builders fill either store: a production
:class:`~repro.core.graphs.QueryGraph` or a :class:`DictGraph`.  Edge
order and every row's order are part of the definition (the WEC reduces
in edge order; every float sum over a neighbourhood runs in row order).
"""

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.graphs import (
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    _overlap_product,
)
from repro.query.interest import SubstreamSpace


class DictGraph:
    """The dict model of a query graph's edge store.

    ``_edges`` is an insertion-ordered dict keyed by the stored endpoint
    pair, ``adj`` one insertion-ordered ``{neighbour: weight}`` row per
    vertex, and every mutation writes both together: a new edge is
    inserted at the end of ``_edges`` and of both rows, an update writes
    in place, a removal deletes from all three.  A new mixed q-n edge is
    stored q endpoint first.  Whatever sequence of these mutations runs,
    each row therefore lists its vertex's edges in ``_edges`` order -- the
    identity :class:`~repro.core.graphs.QueryGraph` is built on, which
    keeps one copy of each edge and its incidence rows in that order.
    """

    def __init__(self):
        self.qverts: Dict = {}
        self.nverts: Dict = {}
        self.adj: Dict = {}
        self._edges: Dict = {}

    def _add(self, store, v) -> None:
        if v.vid in self.adj:
            raise ValueError(f"duplicate vertex id {v.vid!r}")
        store[v.vid] = v
        self.adj[v.vid] = {}

    def add_qvertex(self, v: QVertex) -> None:
        self._add(self.qverts, v)

    def add_nvertex(self, v: NVertex) -> None:
        self._add(self.nverts, v)

    def _key(self, a, b):
        if (a, b) in self._edges:
            return (a, b)
        if (b, a) in self._edges:
            return (b, a)
        if a in self.qverts or b not in self.qverts:
            return (a, b)
        return (b, a)

    def add_edge(self, a, b, weight: float) -> None:
        if a == b or weight <= 0:
            return
        row_a, row_b = self.adj[a], self.adj[b]
        key = self._key(a, b)
        total = self._edges.get(key, 0.0) + weight
        self._edges[key] = row_a[b] = row_b[a] = total

    def set_edge(self, a, b, weight: float) -> None:
        if a == b:
            return
        key = self._key(a, b)
        if weight <= 0:
            if self._edges.pop(key, None) is not None:
                del self.adj[a][b]
                del self.adj[b][a]
            return
        if self._edges.get(key) == weight:
            return
        row_a, row_b = self.adj[a], self.adj[b]
        self._edges[key] = row_a[b] = row_b[a] = weight

    def set_edges(self, a, weights) -> None:
        for b, w in weights:
            self.set_edge(a, b, w)

    def remove_vertex(self, vid) -> None:
        for nbr in list(self.adj.get(vid, {})):
            del self.adj[nbr][vid]
            key = (vid, nbr) if (vid, nbr) in self._edges else (nbr, vid)
            del self._edges[key]
        self.adj.pop(vid, None)
        self.qverts.pop(vid, None)
        self.nverts.pop(vid, None)

    def _replace_edges(self, vids, heads, tails, weights) -> None:
        for vid in vids:
            if vid not in self.adj:
                raise KeyError(vid)
        self._edges.clear()
        for vid in self.adj:
            self.adj[vid] = {}
        for h, t, w in zip(heads, tails, weights):
            a, b = vids[h], vids[t]
            self._edges[(a, b)] = self.adj[a][b] = self.adj[b][a] = float(w)

    def neighbors(self, vid) -> Dict:
        return self.adj.get(vid, {})

    def edges(self):
        return [(a, b, w) for (a, b), w in self._edges.items()]


def vertex_order(g) -> List:
    """Every vertex of either store, in insertion order (for a
    :class:`QueryGraph`: its live slots, which compaction keeps in
    order)."""
    if isinstance(g, DictGraph):
        return list(g.adj)
    return [vid for vid in g._vids if vid is not None]


def dict_model(g: QueryGraph) -> DictGraph:
    """The :class:`DictGraph` of ``g``'s vertices and its edges replayed
    in edge order, each inserted into the edge dict and both rows (stored
    direction kept)."""
    out = DictGraph()
    for vid in vertex_order(g):
        if vid in g.qverts:
            out.add_qvertex(g.qverts[vid])
        else:
            out.add_nvertex(g.nverts[vid])
    for a, b, w in g.edges():
        out._edges[(a, b)] = out.adj[a][b] = out.adj[b][a] = w
    return out


def build_query_graph(
    qvertices: Iterable[QVertex],
    space: SubstreamSpace,
    ng: Optional[NetworkGraph] = None,
    max_overlap_neighbors: int = 20,
    select=None,
    graph_cls=QueryGraph,
):
    """``select``: see :func:`attach_topk`; ``graph_cls``: the store to
    fill (:class:`QueryGraph` or :class:`DictGraph`)."""
    g = graph_cls()
    qlist = list(qvertices)
    for qv in qlist:
        g.add_qvertex(qv)
    nodes = set()
    for qv in qlist:
        nodes.update(qv.source_rates)
        nodes.update(qv.proxy_rates)
    for node in sorted(nodes):
        clu = ng.covering_vertex(node) if ng is not None else None
        g.add_nvertex(NVertex(vid=("n", node), node=node, clu=clu))
    _add_edges(g, qlist, space, max_overlap_neighbors, select)
    return g


def clear_edges(g) -> None:
    """Drop every edge of ``g``, keeping all vertices (in order)."""
    g._replace_edges([], [], [], [])


def rebuild_edges(
    g: QueryGraph, space: SubstreamSpace, max_overlap_neighbors: int = 20
) -> None:
    clear_edges(g)
    _add_edges(g, list(g.qverts.values()), space, max_overlap_neighbors)


def _add_edges(
    g: QueryGraph,
    qlist: List[QVertex],
    space: SubstreamSpace,
    max_neighbors: int,
    select=None,
) -> None:
    for qv in qlist:
        for rates in (qv.source_rates, qv.proxy_rates):
            for node, rate in rates.items():
                if ("n", node) in g.nverts:
                    g.add_edge(qv.vid, ("n", node), rate)
    if len(qlist) >= 2:
        attach_topk(
            g, qlist, range(len(qlist)), _overlap_product(qlist, space),
            max_neighbors, select,
        )


def attach_overlap_edges(
    g: QueryGraph,
    qlist: List[QVertex],
    new_rows: Sequence[int],
    space: SubstreamSpace,
    max_neighbors: int = 20,
) -> None:
    if len(qlist) < 2 or not len(new_rows):
        return
    rows = list(new_rows)
    attach_topk(g, qlist, rows, _overlap_product(qlist, space, rows), max_neighbors)


def attach_topk(g, qlist, rows, overlap, max_neighbors, select=None) -> None:
    """Keep each row's ``max_neighbors`` heaviest overlaps as edges.

    ``select(ws, k)`` picks ``k`` positions of a row's weights; the default
    is the call whose output order is part of the graph's identity.
    """
    if select is None:
        def select(ws, k):
            return np.argpartition(-ws, k - 1)[:k]
    overlap.sort_indices()
    for r, i in enumerate(rows):
        start, end = overlap.indptr[r], overlap.indptr[r + 1]
        js = overlap.indices[start:end]
        ws = overlap.data[start:end]
        keep = (js != i) & (ws > 0)
        js, ws = js[keep], ws[keep]
        if js.size > max_neighbors:
            top = select(ws, max_neighbors)
            js, ws = js[top], ws[top]
        a = qlist[i].vid
        for j, w in zip(js, ws):
            b = qlist[int(j)].vid
            if b not in g.neighbors(a):
                g.set_edge(a, b, float(w))


def to_query_graph(work) -> QueryGraph:
    """The graph of a coarsening work graph (``qverts``, ``nverts``,
    ``adj`` dicts, as in :mod:`reference.pair_coarsening`), one
    ``set_edge`` per edge."""
    out = QueryGraph()
    for qv in work.qverts.values():
        out.add_qvertex(qv)
    for nv in work.nverts.values():
        out.add_nvertex(nv)
    done = set()
    for a, nbrs in work.adj.items():
        for b, w in nbrs.items():
            if b not in done:
                out.set_edge(a, b, w)
        done.add(a)
    return out
