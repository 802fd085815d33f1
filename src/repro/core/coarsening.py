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
and it can later be uncoarsened one level.  The engine
(:func:`_coarsen_arrays`) works on a vertex list and q-q edge arrays
only: matching reads nothing else, a merged vertex's aggregates come from
:func:`merge_qvertices` alone, and n-vertices enter as a count.  A pass
matches with one ``lexsort`` and a greedy walk (:func:`_match`), merges
its pairs, remaps the edges through a representative array and
re-estimates every coarse edge at a merged vertex once, in one batched
call of :meth:`SubstreamSpace.overlap_rates_grouped` (:func:`_collapse`).
The dict-based matcher and the pair-by-pair collapse with one scalar
estimate per neighbour define the identical vertices and edges; they are
the oracle in ``tests/reference/pair_coarsening.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import registry as _obs
from ..query.interest import RateMap, SubstreamSpace
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


def content_rng(
    seed: int, stable_id: int, qverts: Iterable[QVertex]
) -> random.Random:
    """An rng derived from ``(seed, coordinator, input q-vertices)``.

    Coarsening consumes randomness (the per-round shuffle); deriving it
    from the input's member sets instead of a shared sequential stream
    makes each invocation a pure function of its inputs, whatever ran
    before it on the coordinator.  Hashing uses blake2b over canonical
    int tuples, so it is independent of ``PYTHONHASHSEED``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str((seed, stable_id)).encode())
    for v in qverts:
        h.update(str(plan_key(v)).encode())
    return random.Random(int.from_bytes(h.digest(), "big"))


def merge_qvertices(
    u: QVertex, v: QVertex, origin: Optional[Hashable] = None
) -> QVertex:
    """Collapse two q-vertices into a coarse one (lines 8-11)."""
    return QVertex(
        vid=("c", next(_coarse_ids)),
        weight=u.weight + v.weight,
        mask=u.mask | v.mask,
        source_rates=RateMap.merged(u.source_rates, v.source_rates),
        proxy_rates=RateMap.merged(u.proxy_rates, v.proxy_rates),
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
    first and swapped in as one step, which compacts the graph's slots
    and edge arrays.
    """
    g._replace_edges(*_estimate_edges(g, space, max_overlap_neighbors))


#: edges as arrays: two endpoint-position arrays and the weights
EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def qq_edges(g: QueryGraph) -> EdgeArrays:
    """``g``'s q-q edges as arrays, read from its edge store in edge order
    and stored direction; endpoints are positions in ``g.qverts``."""
    u, v, w = g.edge_arrays()
    qpos = np.full(g.slot_count, -1, dtype=np.int64)
    qpos[[g.slot(vid) for vid in g.qverts]] = np.arange(len(g.qverts))
    a, b = qpos[u], qpos[v]
    qq = (a >= 0) & (b >= 0)
    return a[qq], b[qq], w[qq]


def _match(order: List[int], edges: EdgeArrays) -> List[Tuple[int, int]]:
    """One heavy-edge matching pass, visiting vertex positions in ``order``.

    Each unmatched vertex pairs with its heaviest-edged unmatched
    neighbour, ties toward the neighbour earliest in ``order``.  One
    ``lexsort`` lists every vertex's candidates in that preference, so the
    greedy walk takes the first free one.  Returns disjoint pairs.
    """
    u, v, w = edges
    nq = len(order)
    if not w.size:
        return []
    rank = np.empty(nq, dtype=np.int64)
    rank[order] = np.arange(nq)
    src = rank[np.concatenate((u, v))]
    dst = rank[np.concatenate((v, u))]
    ordered = np.lexsort((dst, -np.concatenate((w, w)), src))
    candidates = dst[ordered].tolist()
    ends = np.cumsum(np.bincount(src, minlength=nq)).tolist()
    matched = [False] * nq
    pairs: List[Tuple[int, int]] = []
    lo = 0
    for r, hi in enumerate(ends):
        if not matched[r]:
            for c in candidates[lo:hi]:
                if not matched[c]:
                    matched[r] = matched[c] = True
                    pairs.append((order[r], order[c]))
                    break
        lo = hi
    return pairs


def _merge(
    verts: List[QVertex],
    pairs: List[Tuple[int, int]],
    origin: Optional[Hashable],
) -> Tuple[List[QVertex], np.ndarray, int]:
    """Merge ``pairs`` in order; returns ``(vertices, rep, survivors)``.

    The new list is the unpaired vertices in their order, then the merged
    ones in pair order; ``rep[i]`` is old position ``i``'s new position
    and the first ``survivors`` positions are the unpaired ones.
    """
    nq = len(verts)
    paired = np.zeros(nq, dtype=bool)
    paired[np.asarray(pairs, dtype=np.int64).ravel()] = True
    kept = np.flatnonzero(~paired)
    survivors = kept.size
    rep = np.empty(nq, dtype=np.int64)
    rep[kept] = np.arange(survivors)
    out = [verts[i] for i in kept.tolist()]
    for a, b in pairs:
        rep[a] = rep[b] = len(out)
        x, y = verts[a], verts[b]
        # the pair lives on only as the merged vertex's ``children``:
        # nothing estimates overlaps against it again unless a later
        # uncoarsening brings it back, so it must not pin its index array
        x.drop_indices()
        y.drop_indices()
        out.append(merge_qvertices(x, y, origin=origin))
    return out, rep, survivors


def _collapse(
    verts: List[QVertex],
    rep: np.ndarray,
    survivors: int,
    edges: EdgeArrays,
    space: SubstreamSpace,
) -> Tuple[EdgeArrays, int]:
    """The q-q edges after a merge step, and how many were estimated.

    Endpoints are remapped through ``rep`` and self-edges dropped.  An
    edge between two survivors keeps its weight; every distinct pair with
    a merged endpoint is re-estimated once, from the two final masks, in
    one :meth:`SubstreamSpace.overlap_rates_grouped` call (probe: the
    merged endpoint, the later one if both are).  A zero estimate drops
    the edge.
    """
    u, v, w = edges
    a, b = rep[u], rep[v]
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    live = hi != lo
    fresh = live & (hi >= survivors)
    stay = live & ~fresh
    n = len(verts)
    probe, other = np.divmod(np.unique(hi[fresh] * n + lo[fresh]), n)
    rates = np.empty(0)
    if probe.size:
        starts = np.flatnonzero(np.diff(probe, prepend=-1))
        bounds = [*starts.tolist(), probe.size]
        others = other.tolist()
        indices = [x.indices for x in verts]
        groups = zip(probe[starts].tolist(), bounds, bounds[1:])
        rates = space.overlap_rates_grouped(
            (indices[p], [indices[o] for o in others[start:end]])
            for p, start, end in groups
        )
    positive = rates > 0
    return (
        (
            np.concatenate((lo[stay], other[positive])),
            np.concatenate((hi[stay], probe[positive])),
            np.concatenate((w[stay], rates[positive])),
        ),
        probe.size,
    )


def _coarsen_arrays(
    verts: Sequence[QVertex],
    edges: EdgeArrays,
    n_count: int,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable],
    rng: Optional[random.Random],
) -> Tuple[List[QVertex], EdgeArrays]:
    """Algorithm 1 on arrays: ``(coarse vertices, their q-q edges)``.

    ``edges`` are the input's q-q edges (positions in ``verts``), the only
    ones matching reads; ``n_count`` n-vertices count toward ``vmax`` but
    never merge.
    """
    rng = rng or random.Random(0)
    verts = list(verts)
    while True:
        # the stop rule: merge until the graph has at most vmax vertices
        excess = len(verts) + n_count - vmax
        if excess <= 0:
            break
        order = list(range(len(verts)))
        rng.shuffle(order)
        pairs = _match(order, edges)[:excess]
        if not pairs:
            break  # nothing left to collapse (graph may stay above vmax)
        verts, rep, survivors = _merge(verts, pairs, origin)
        edges, estimated = _collapse(verts, rep, survivors, edges, space)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.inc("opt.coarsen_passes")
            _obs.ACTIVE.inc("opt.coarsen_merges", len(pairs))
            _obs.ACTIVE.inc("opt.coarsen_overlap_pairs", estimated)
    return verts, edges


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
    verts, (u, v, w) = _coarsen_arrays(
        g.qverts.values(), qq_edges(g), len(g.nverts), vmax, space, origin,
        rng,
    )

    def rate_edges(x: QVertex) -> Dict[VertexId, float]:
        # an input vertex's q-n edges are g's; a merged vertex's are its
        # children's summed (a two-term sum: exact in either order)
        if x.vid in g.qverts:
            return {
                n: wt for n, wt in g.neighbors(x.vid).items() if n in g.nverts
            }
        a, b = x.children
        out = rate_edges(a)
        for n, wt in rate_edges(b).items():
            out[n] = out.get(n, 0.0) + wt
        return out

    vids = [*(x.vid for x in verts), *g.nverts]
    slot = {vid: i for i, vid in enumerate(vids)}
    heads, tails, weights = u.tolist(), v.tolist(), w.tolist()
    for i, x in enumerate(verts):
        for n, wt in rate_edges(x).items():
            heads.append(i)
            tails.append(slot[n])
            weights.append(wt)
    out = QueryGraph()
    out._install_vertices(verts, g.nverts.values())
    out._install_edges(vids, heads, tails, weights)
    return out


def coarsen_cached(
    verts: Sequence[QVertex],
    edges: EdgeArrays,
    n_count: int,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable] = None,
    rng: Optional[random.Random] = None,
) -> List[QVertex]:
    """:func:`coarsen`'s coarse vertices, from the input's q-vertices, its
    q-q ``edges`` and its n-vertex count alone.

    ``collect`` and ``adopt`` keep only the vertex list, so neither the
    input graph nor the result graph is ever assembled.
    """
    return _coarsen_arrays(verts, edges, n_count, vmax, space, origin, rng)[0]


def uncoarsen_vertex(v: QVertex) -> List[QVertex]:
    """Expand a coarse vertex one level (its direct children).

    Atomic vertices expand to themselves.
    """
    if not v.children:
        return [v]
    return list(v.children)
