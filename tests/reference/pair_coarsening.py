"""Algorithm 1's matching and collapse, one vertex and one pair at a time.

The definition of what :mod:`repro.core.coarsening` must produce, on a
work graph of its own (vertex dicts and adjacency dicts): a heavy-edge
matching pass that walks each q-vertex's neighbour dict, and a collapse
that merges the matched pairs one by one while the graph is above
``vmax``, re-estimating each q-q edge of a merged vertex with one scalar
``overlap_rate`` -- including neighbours that a later pair of the same
pass collapses again -- and summing its q-n edges ``a`` then ``b``.
:func:`collect` is ``Coordinator.collect`` as first written: every leaf
scans the whole population and every coarsening coordinator builds its
full query graph one edge at a time.

Production matches with one ``lexsort`` over q-q edge arrays, collapses a
whole pass at once and estimates every surviving coarse edge once, in one
batched kernel; ``tests/test_fastpath_parity.py`` and
``tests/test_reference_parity.py`` hold the two side by side.
"""

import random
from typing import Dict, List, Optional, Set

from repro.core import coarsening
from repro.core.coarsening import content_rng, plan_key
from repro.core.graphs import QueryGraph, QVertex, qvertex_from_query

from reference import graph_build


class WorkGraph:
    """The graph a reference run mutates: vertices and adjacency only."""

    def __init__(self, g: QueryGraph):
        self.qverts = dict(g.qverts)
        self.nverts = dict(g.nverts)
        self.adj = {vid: dict(nbrs) for vid, nbrs in g.adj.items()}

    def vertex_count(self) -> int:
        return len(self.qverts) + len(self.nverts)


def match_pass(work, order):
    """One heavy-edge matching pass over ``order``.

    Visits q-vertices in the given order; each unmatched vertex pairs
    with its heaviest-edged unmatched q-neighbour.  Ties break toward the
    neighbour appearing earliest in ``order``.  Returns disjoint pairs.
    """
    rank = {vid: r for r, vid in enumerate(order)}
    matched = set()
    pairs = []
    for vid in order:
        if vid in matched:
            continue
        best = None
        best_key = None
        for nbr, w in work.adj[vid].items():
            if nbr not in work.qverts or nbr in matched or nbr == vid:
                continue
            key = (w, -rank[nbr])
            if best is None or key > best_key:
                best, best_key = nbr, key
        if best is None:
            continue
        pairs.append((vid, best))
        matched.add(vid)
        matched.add(best)
    return pairs


def collapse_pairs(work, pairs, space, origin, vmax) -> List[QVertex]:
    """Merge matched pairs one at a time while the graph is above ``vmax``
    (the stop rule); returns the merged vertices.

    Neighbour edges of a collapsed pair are unioned; q-q edges are then
    re-estimated exactly from the merged interest mask (the paper's
    bit-vector estimation), q-n weights summed ``a`` then ``b``.
    """
    qverts, adj = work.qverts, work.adj
    merged = []
    for a, b in pairs:
        if work.vertex_count() <= vmax:
            break
        w_new = coarsening.merge_qvertices(
            qverts.pop(a), qverts.pop(b), origin=origin
        )
        nbr_edges: Dict = {}
        for old in (a, b):
            for nbr, w in adj.pop(old).items():
                if nbr == a or nbr == b:
                    continue
                del adj[nbr][old]
                nbr_edges[nbr] = nbr_edges.get(nbr, 0.0) + w
        mine = adj[w_new.vid] = {}
        for nbr, w in nbr_edges.items():
            if nbr in qverts:
                w = space.overlap_rate(w_new.mask, qverts[nbr].mask)
            if w > 0:
                mine[nbr] = adj[nbr][w_new.vid] = w
        qverts[w_new.vid] = w_new
        merged.append(w_new)
    return merged


def coarsen_work(
    g: QueryGraph,
    vmax: int,
    space,
    origin=None,
    rng: Optional[random.Random] = None,
    log: Optional[List[Set[frozenset]]] = None,
) -> WorkGraph:
    """Algorithm 1 on a :class:`WorkGraph` of ``g`` (``g`` is only read).

    Rounds shuffle the q-vertex ids, match and collapse until the graph
    fits in ``vmax`` or no pair is left.  ``log`` receives, per pass, the
    q-q edges at the vertices the pass created (unordered pairs of member
    keys): the edges a pass has to estimate.
    """
    rng = rng or random.Random(0)
    work = WorkGraph(g)
    while work.vertex_count() > vmax:
        qids = list(work.qverts)
        rng.shuffle(qids)
        pairs = match_pass(work, qids)
        if not pairs:
            break
        merged = collapse_pairs(work, pairs, space, origin, vmax)
        if log is not None:
            log.append({
                frozenset((plan_key(v), plan_key(work.qverts[nbr])))
                for v in merged
                for nbr in work.adj[v.vid]
                if nbr in work.qverts
            })
    return work


def coarsen(g, vmax, space, origin=None, rng=None, log=None) -> QueryGraph:
    """The reference :func:`repro.core.coarsening.coarsen`."""
    return graph_build.to_query_graph(
        coarsen_work(g, vmax, space, origin, rng, log)
    )


def counters(log: List[Set[frozenset]], merges: int) -> Dict[str, int]:
    """The ``opt.coarsen_*`` counters a run with this pass log must
    report (``merges``: the merge steps it took)."""
    return {
        "opt.coarsen_passes": len(log),
        "opt.coarsen_merges": merges,
        "opt.coarsen_overlap_pairs": sum(map(len, log)),
    }


def collect(coord, queries) -> List[QVertex]:
    """``Coordinator.collect`` on this module's engine."""
    if coord.is_leaf:
        incoming = [
            qvertex_from_query(q, coord.space)
            for q in queries
            if q.proxy in coord.cluster.members
        ]
    else:
        incoming = [
            v for child in coord.children for v in collect(child, queries)
        ]
    if len(incoming) <= coord.vmax:
        return list(incoming)
    g = graph_build.build_query_graph(
        incoming, coord.space, coord.ng, coord.max_overlap_neighbors
    )
    rng = content_rng(coord._seed, coord._stable_id, g.qverts.values())
    work = coarsen_work(g, coord.vmax, coord.space, coord.name, rng)
    return list(work.qverts.values())
