"""Query graph coarsening (Algorithm 1).

Repeatedly collapses matched q-vertex pairs -- preferring the heaviest
incident edge, since heavily-connected vertices are likely to be mapped to
the same network vertex anyway -- until the graph has at most ``vmax``
vertices or no pair is left.

Only q-vertices merge.  The paper's q/n and n/n merge rules are not
performed here: the mapping layer pins every n-vertex to its cluster, so
folding a q-vertex into an n-vertex adds nothing a zero-distance
preference does not already express, and n-vertices staying apart is the
strictest reading of the cluster constraint (see :func:`coarsen`).

A coarse vertex carries enough aggregate state (interest mask, per-source
and per-proxy rate maps, children) that its edges are re-estimated exactly
and it can later be uncoarsened one level.  All of it happens on a
:class:`_WorkGraph` -- plain vertex and adjacency dicts, no mutation
journal -- that is turned into a :class:`QueryGraph` once, at the end.
Matching runs as array operations (:func:`_match_pass_arrays`) and a
whole matching pass collapses at a time (:func:`_collapse_pass`: every
surviving coarse edge estimated once per pass).  The dict-based matcher
and the pair-by-pair collapse with one scalar estimate per neighbour
define the identical graph; they are the oracle in
``tests/reference/pair_coarsening.py`` (``tests/test_fastpath_parity.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..obs import registry as _obs
from ..query.interest import SubstreamSpace
from .graphs import QueryGraph, QVertex, VertexId, _estimate_edges

__all__ = [
    "coarsen",
    "coarsen_cached",
    "content_rng",
    "plan_key",
    "uncoarsen_vertex",
    "rebuild_edges",
]

_coarse_ids = itertools.count()


def plan_key(v: QVertex) -> Tuple[int, ...]:
    """Content-derived identity of a coarsening input (sorted members)."""
    return tuple(sorted(v.members))


def content_rng(seed: int, stable_id: int, g: QueryGraph) -> random.Random:
    """An rng derived from ``(seed, coordinator, graph content)``.

    Coarsening consumes randomness (the per-round shuffle); deriving it
    from the input's member sets instead of a shared sequential stream
    makes each invocation a pure function of its inputs, whatever ran
    before it on the coordinator.  Hashing uses blake2b over canonical
    int tuples, so it is independent of ``PYTHONHASHSEED``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str((seed, stable_id)).encode())
    for v in g.qverts.values():
        h.update(str(plan_key(v)).encode())
    return random.Random(int.from_bytes(h.digest(), "big"))


def _merge_rate_maps(a: Dict[int, float], b: Dict[int, float]) -> Dict[int, float]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def merge_qvertices(
    u: QVertex, v: QVertex, origin: Optional[Hashable] = None
) -> QVertex:
    """Collapse two q-vertices into a coarse one (lines 8-11)."""
    return QVertex(
        vid=("c", next(_coarse_ids)),
        weight=u.weight + v.weight,
        mask=u.mask | v.mask,
        source_rates=_merge_rate_maps(u.source_rates, v.source_rates),
        proxy_rates=_merge_rate_maps(u.proxy_rates, v.proxy_rates),
        state_size=u.state_size + v.state_size,
        members=u.members + v.members,
        children=(u, v),
        origin=origin,
    )


def rebuild_edges(
    g: QueryGraph, space: SubstreamSpace, max_overlap_neighbors: int = 20
) -> None:
    """Re-estimate all edges of ``g`` from vertex aggregate state.

    q-n edges come from the vertices' rate maps (nodes ``g`` tracks no
    n-vertex for are skipped); q-q overlap edges from interest-mask AND
    (the paper's bit-vector estimation).  The new edge set is estimated
    first and swapped in as one journal step.
    """
    g._replace_edges(*_estimate_edges(g, space, max_overlap_neighbors))


class _WorkGraph:
    """The graph a coarsening run mutates: vertices and adjacency only.

    A run rewrites most of the graph and keeps nothing but the final
    vertices, so it carries none of :class:`QueryGraph`'s canonical edge
    store, mutation journal or version.  :meth:`to_query_graph` builds the
    public result once, from the final (at most ``vmax``-vertex) state.
    """

    __slots__ = ("qverts", "nverts", "adj")

    def __init__(self, g: QueryGraph):
        self.qverts = dict(g.qverts)
        self.nverts = dict(g.nverts)
        self.adj = {vid: dict(nbrs) for vid, nbrs in g.adj.items()}

    def vertex_count(self) -> int:
        return len(self.qverts) + len(self.nverts)

    def to_query_graph(self) -> QueryGraph:
        out = QueryGraph()
        out._install_vertices(self.qverts.values(), self.nverts.values())
        # every edge once, from whichever endpoint ``adj`` lists first; a
        # mixed edge is stored q endpoint first, as ``set_edge`` would
        vids = list(self.adj)
        index = {vid: i for i, vid in enumerate(vids)}
        qverts = self.qverts
        heads: List[int] = []
        tails: List[int] = []
        weights: List[float] = []
        for i, (a, nbrs) in enumerate(self.adj.items()):
            for b, w in nbrs.items():
                j = index[b]
                if j > i and w > 0:
                    q_first = a in qverts or b not in qverts
                    heads.append(i if q_first else j)
                    tails.append(j if q_first else i)
                    weights.append(w)
        out._install_edges(vids, heads, tails, weights)
        return out


def _match_pass_arrays(
    work: _WorkGraph, order: List[VertexId]
) -> List[Tuple[VertexId, VertexId]]:
    """One heavy-edge matching pass over ``order``.

    Visits q-vertices in the given order; each unmatched vertex pairs
    with its heaviest-edged unmatched q-neighbour.  Ties break toward the
    neighbour appearing earliest in ``order``.  Returns disjoint pairs.
    Candidate filtering and the heaviest-edge argmax run as numpy
    operations over a CSR snapshot of the q-q subgraph instead of
    per-edge Python tuples.
    """
    rank = {vid: r for r, vid in enumerate(order)}
    nq = len(order)
    # CSR over q-q edges only, vertex index = rank in `order`
    indptr = np.zeros(nq + 1, dtype=np.int64)
    flat_idx: List[int] = []
    flat_w: List[float] = []
    qverts = work.qverts
    for r, vid in enumerate(order):
        count = 0
        for nbr, w in work.adj[vid].items():
            if nbr in qverts and nbr != vid:
                flat_idx.append(rank[nbr])
                flat_w.append(w)
                count += 1
        indptr[r + 1] = indptr[r] + count
    if not flat_idx:
        return []
    indices = np.asarray(flat_idx, dtype=np.int64)
    weights = np.asarray(flat_w, dtype=float)

    matched = np.zeros(nq, dtype=bool)
    pairs: List[Tuple[VertexId, VertexId]] = []
    for r in range(nq):
        if matched[r]:
            continue
        lo, hi = indptr[r], indptr[r + 1]
        cand = indices[lo:hi]
        if cand.size == 0:
            continue
        free = ~matched[cand]
        if not free.any():
            continue
        cand = cand[free]
        cw = weights[lo:hi][free]
        # heaviest edge first; ties toward the earliest-ranked neighbour
        best = cand[np.lexsort((cand, -cw))[0]]
        pairs.append((order[r], order[int(best)]))
        matched[r] = True
        matched[best] = True
    return pairs


def _merge_pair(
    qverts: Dict[VertexId, QVertex],
    a: VertexId,
    b: VertexId,
    origin: Optional[Hashable],
) -> QVertex:
    """Take ``a`` and ``b`` out of ``qverts``; return their merged vertex
    (not yet inserted)."""
    u, v = qverts.pop(a), qverts.pop(b)
    # the pair lives on only as the merged vertex's ``children``: nothing
    # estimates overlaps against it again unless a later uncoarsening
    # brings it back, so it must not pin its index array
    u.drop_indices()
    v.drop_indices()
    return merge_qvertices(u, v, origin=origin)


def _collapse_pass(
    work: _WorkGraph,
    pairs: List[Tuple[VertexId, VertexId]],
    space: SubstreamSpace,
    origin: Optional[Hashable],
    vmax: int,
) -> None:
    """Collapse one matching pass (disjoint ``pairs``) as a whole.

    The first ``vertex_count - vmax`` pairs merge, in pair order (same
    coarse ids as merging them one by one).  Every old endpoint is then
    mapped to its representative and each merged vertex takes the union
    of its pair's neighbour sets through that map: q-n weights are summed
    ``a`` then ``b``; a q-q edge is estimated from the two final masks by
    :meth:`SubstreamSpace.overlap_rates` -- once, by whichever endpoint
    comes first in pair order -- so an edge between two vertices merged
    in this pass costs one estimate instead of the three a pair-by-pair
    collapse spends on its intermediate states.

    The result equals the pair-by-pair collapse's (merge one pair, union
    its neighbour edges, re-estimate each q-q edge with a scalar
    ``overlap_rate``; stop at ``vmax``) because an edge touching a
    merged vertex depends on the two final masks only, the kernel is
    symmetric in its operands (either way round it sums the ascending
    intersection), and q-vertex order (survivors, then merged vertices in
    creation order) is the same.  It relies on what holds for every graph
    the optimizer builds: q-q edges join interests that share a
    positive-rate substream, so a union of them never estimates to zero.
    """
    pairs = pairs[: work.vertex_count() - vmax]
    qverts, adj = work.qverts, work.adj
    rep: Dict[VertexId, VertexId] = {}
    merged: List[QVertex] = []
    for a, b in pairs:
        w_new = _merge_pair(qverts, a, b, origin)
        rep[a] = rep[b] = w_new.vid
        merged.append(w_new)
    for w_new in merged:
        qverts[w_new.vid] = w_new
        adj[w_new.vid] = {}

    estimates = 0
    for (a, b), w_new in zip(pairs, merged):
        wid = w_new.vid
        mine = adj[wid]
        # q-neighbours whose edge to ``w_new`` no earlier vertex has set
        todo: List[VertexId] = []
        for old in (a, b):
            for nbr, w in adj.pop(old).items():
                r = rep.get(nbr)
                if r is None:
                    del adj[nbr][old]
                    if nbr in qverts:
                        if nbr not in mine:
                            mine[nbr] = 0.0
                            todo.append(nbr)
                    else:
                        mine[nbr] = adj[nbr][wid] = mine.get(nbr, 0.0) + w
                elif r != wid and r not in mine:
                    mine[r] = 0.0
                    todo.append(r)
        if todo:
            rates = space.overlap_rates(
                w_new.indices, [qverts[nbr].indices for nbr in todo]
            )
            for nbr, w in zip(todo, rates):
                if w > 0:
                    mine[nbr] = adj[nbr][wid] = w
                else:
                    del mine[nbr]
            estimates += len(todo)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.inc("opt.coarsen_passes")
        _obs.ACTIVE.inc("opt.coarsen_merges", len(merged))
        _obs.ACTIVE.inc("opt.coarsen_overlap_pairs", estimates)


def _coarsen_work(
    g: QueryGraph,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable],
    rng: Optional[random.Random],
) -> _WorkGraph:
    """:func:`coarsen` up to, not including, the result graph."""
    rng = rng or random.Random(0)
    work = _WorkGraph(g)
    qverts = work.qverts
    while work.vertex_count() > vmax:
        qids = list(qverts)
        rng.shuffle(qids)
        pairs = _match_pass_arrays(work, qids)
        if not pairs:
            break  # nothing left to collapse (graph may stay above vmax)
        _collapse_pass(work, pairs, space, origin, vmax)
    return work


def coarsen(
    g: QueryGraph,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable] = None,
    rng: Optional[random.Random] = None,
) -> QueryGraph:
    """Algorithm 1: coarsen ``g`` until it has at most ``vmax`` vertices.

    Each round shuffles the q-vertices, computes one heavy-edge matching
    pass over them (heavily-connected vertices are likely to be mapped to
    the same network vertex anyway) and collapses the matched pairs;
    rounds repeat until the graph fits in ``vmax`` or no pair is left.

    ``g`` is not modified; a new graph is returned.  Only q-vertices are
    collapsed with each other in this implementation of the n-vertex rule:
    q/n merges are realised by the mapping layer pinning the n-vertex, so
    collapsing q into n is equivalent to a zero-distance preference, and
    keeping them separate loses no information while keeping the
    uncoarsening bookkeeping simple.  n-vertices therefore never merge
    (the strictest reading of the cluster constraint).
    """
    return _coarsen_work(g, vmax, space, origin, rng).to_query_graph()


def coarsen_cached(
    g: QueryGraph,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable] = None,
    rng: Optional[random.Random] = None,
) -> List[QVertex]:
    """:func:`coarsen`'s coarse vertices, without building their graph.

    ``collect`` and ``adopt`` keep only the vertex list, so the result
    graph is never assembled.
    """
    return list(_coarsen_work(g, vmax, space, origin, rng).qverts.values())


def uncoarsen_vertex(v: QVertex) -> List[QVertex]:
    """Expand a coarse vertex one level (its direct children).

    Atomic vertices expand to themselves.
    """
    if not v.children:
        return [v]
    return list(v.children)
