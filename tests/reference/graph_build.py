"""Query-graph construction, one journaled edge at a time.

The definition of the graph :func:`repro.core.graphs.build_query_graph`
and :func:`repro.core.coarsening.rebuild_edges` must produce: vertices
through ``add_qvertex`` / ``add_nvertex``, q-n edges through accumulating
``add_edge``, overlap edges through one top-k selection per row and
``set_edge`` under a first-setter-wins check against the live adjacency.  ``adj`` and ``_edges`` insertion orders are part of
the definition (they fix :class:`GraphArrays` slot order and every float
sum over a neighbourhood); the journal these leave behind is not.
"""

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.graphs import (
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    _overlap_product,
)
from repro.query.interest import SubstreamSpace


def build_query_graph(
    qvertices: Iterable[QVertex],
    space: SubstreamSpace,
    ng: Optional[NetworkGraph] = None,
    max_overlap_neighbors: int = 20,
    select=None,
) -> QueryGraph:
    """``select``: see :func:`attach_topk`."""
    g = QueryGraph()
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


def clear_edges(g: QueryGraph) -> None:
    """Drop every edge of ``g``, keeping all vertices, as one journaled
    ``("clear",)`` step (a synced ``CostWorkspace`` then rebuilds)."""
    for vid in g.adj:
        g.adj[vid] = {}
    g._edges.clear()
    g._record(("clear",))


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
        adj_a = g.adj[a]
        for j, w in zip(js, ws):
            b = qlist[int(j)].vid
            if b not in adj_a:
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
