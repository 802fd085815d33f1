"""Query graph coarsening (Algorithm 1).

Repeatedly collapses matched vertex pairs -- preferring the heaviest
incident edge, since heavily-connected vertices are likely to be mapped to
the same network vertex anyway -- until the graph has at most ``vmax``
vertices.  Constraints from the paper:

* an n-vertex may only merge with an n-vertex of the *same* child cluster
  (two n-vertices pinned to different clusters must stay separable);
* an n-vertex with unknown cluster (external node) never merges with
  another n-vertex;
* merging a q-vertex into an n-vertex yields an n-vertex (``is_n(w)``),
  keeping the cluster tag.

The coarse graph's vertices carry enough aggregate state (interest mask,
per-source and per-proxy rate maps, children) that edges can be
re-estimated exactly and the vertex can later be uncoarsened one level.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..query.interest import SubstreamSpace
from .graphs import NetworkGraph, NVertex, QueryGraph, QVertex, VertexId

__all__ = [
    "CoarseVertex",
    "CoarsePlan",
    "coarsen",
    "coarsen_cached",
    "content_rng",
    "plan_key",
    "vertex_sig",
    "uncoarsen_vertex",
    "rebuild_edges",
]

_coarse_ids = itertools.count()

PlanKey = Tuple[int, ...]


def plan_key(v: QVertex) -> PlanKey:
    """Content-derived identity of a coarsening input (sorted members)."""
    return tuple(sorted(v.members))


def vertex_sig(v: QVertex) -> Tuple:
    """Content signature of a coarsening input.

    Two vertices with equal signatures produce bit-identical coarsening
    aggregates, so a recorded plan whose input signatures all match can be
    reused wholesale.
    """
    return (
        plan_key(v),
        v.weight,
        v.mask,
        v.state_size,
        tuple(sorted(v.source_rates.items())),
        tuple(sorted(v.proxy_rates.items())),
    )


def content_rng(seed: int, stable_id: int, g: QueryGraph) -> random.Random:
    """An rng derived from ``(seed, coordinator, graph content)``.

    Coarsening consumes randomness (the per-round shuffle); deriving it
    from the input content instead of a shared sequential stream makes
    each invocation a pure function of its inputs — the property that
    lets a cached plan stand in for a fresh run, and that keeps the
    incremental and full-rebuild optimizer modes on identical coarse
    graphs.  Hashing uses blake2b over canonical int tuples, so it is
    independent of ``PYTHONHASHSEED``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str((seed, stable_id)).encode())
    for v in g.qverts.values():
        h.update(str(plan_key(v)).encode())
    return random.Random(int.from_bytes(h.digest(), "big"))


@dataclass
class CoarsePlan:
    """Recorded outcome of one coarsening invocation.

    ``sigs`` fingerprints every input vertex; ``steps`` lists the merge
    operations in execution order as ``(key_a, key_b)`` member-key pairs;
    ``output`` is the resulting coarse vertex list.  A plan whose input
    signatures all match the current inputs can be replayed without
    re-running matching or edge re-estimation; with partial reuse only
    the steps untouched by dirty inputs are replayed and the remainder is
    re-coarsened.
    """

    vmax: int
    sigs: Dict[PlanKey, Tuple]
    steps: List[Tuple[PlanKey, PlanKey]] = field(default_factory=list)
    output: List[QVertex] = field(default_factory=list)


@dataclass
class CoarseVertex:
    """Bookkeeping wrapper: a coarse q-vertex plus its pinned n-part.

    When a q-vertex merges with an n-vertex the collapsed vertex must stay
    an n-vertex (it is pinned to the n-vertex's cluster) while still
    carrying query load.  ``pinned_node``/``clu`` record the n-part.
    """

    qvertex: QVertex
    pinned_node: Optional[int] = None
    clu: Optional[VertexId] = None

    @property
    def is_n(self) -> bool:
        """Whether the collapsed vertex carries a pinned n-part."""
        return self.pinned_node is not None


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

    q-n edges come from the vertices' rate maps; q-q overlap edges from
    interest-mask AND (the paper's bit-vector estimation).
    """
    g.clear_edges()
    from .graphs import _add_overlap_edges

    qlist = list(g.qverts.values())
    for qv in qlist:
        for node, rate in qv.source_rates.items():
            nvid = ("n", node)
            if nvid in g.nverts:
                g.add_edge(qv.vid, nvid, rate)
        for node, rate in qv.proxy_rates.items():
            nvid = ("n", node)
            if nvid in g.nverts:
                g.add_edge(qv.vid, nvid, rate)
    _add_overlap_edges(g, qlist, space, max_overlap_neighbors)


def _match_pass_reference(
    work: QueryGraph, order: List[VertexId]
) -> List[Tuple[VertexId, VertexId]]:
    """One heavy-edge matching pass over ``order`` (dict reference path).

    Visits q-vertices in the given order; each unmatched vertex pairs
    with its heaviest-edged unmatched q-neighbour.  Ties break toward the
    neighbour appearing earliest in ``order``.  Returns disjoint pairs.
    """
    rank = {vid: r for r, vid in enumerate(order)}
    matched = set()
    pairs: List[Tuple[VertexId, VertexId]] = []
    for vid in order:
        if vid in matched:
            continue
        best = None
        best_key = None
        for nbr, w in work.neighbors(vid).items():
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


def _match_pass_arrays(
    work: QueryGraph, order: List[VertexId]
) -> List[Tuple[VertexId, VertexId]]:
    """One heavy-edge matching pass (array fast path).

    Same matching rule as :func:`_match_pass_reference`, but candidate
    filtering and the heaviest-edge argmax run as numpy operations over a
    CSR snapshot of the q-q subgraph instead of per-edge Python tuples.
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
        for nbr, w in work.neighbors(vid).items():
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


def _collapse_pairs(
    work: QueryGraph,
    pairs: List[Tuple[VertexId, VertexId]],
    space: SubstreamSpace,
    origin: Optional[Hashable],
    vmax: int,
    fast: bool = True,
    steps_out: Optional[List[Tuple[PlanKey, PlanKey]]] = None,
) -> bool:
    """Merge matched pairs in order until ``vmax`` is reached (lines 8-11).

    Neighbour edges of a collapsed pair are unioned; q-q edges are then
    re-estimated exactly from the merged interest mask (the paper's
    bit-vector estimation) -- in one batched
    :meth:`SubstreamSpace.overlap_rates` pass over the vertices' cached
    index arrays on the ``fast`` path, one scalar ``overlap_rate`` per
    neighbour on the reference path.  Returns whether any merge happened.
    """
    merged_any = False
    for a, b in pairs:
        if work.vertex_count() <= vmax:
            break
        if a not in work.qverts or b not in work.qverts:
            continue
        u, v = work.qverts[a], work.qverts[b]
        if steps_out is not None:
            steps_out.append((plan_key(u), plan_key(v)))
        w_new = merge_qvertices(u, v, origin=origin)

        # collect union of neighbour edges before removal
        nbr_edges: Dict[VertexId, float] = {}
        for old in (a, b):
            for nbr, w in work.neighbors(old).items():
                if nbr in (a, b):
                    continue
                nbr_edges[nbr] = nbr_edges.get(nbr, 0.0) + w
        work.remove_vertex(a)
        work.remove_vertex(b)
        work.add_qvertex(w_new)
        # the pair lives on only as ``w_new.children``: nothing estimates
        # overlaps against it again unless a later uncoarsening brings it
        # back, so it must not pin its index array
        u.drop_indices()
        v.drop_indices()
        if fast:
            qnbrs = [nbr for nbr in nbr_edges if nbr in work.qverts]
            qrates = space.overlap_rates(
                w_new.indices, [work.qverts[nbr].indices for nbr in qnbrs]
            )
            for nbr, w in zip(qnbrs, qrates):
                work.set_edge(w_new.vid, nbr, w)
            for nbr, w in nbr_edges.items():
                if nbr not in work.qverts:
                    work.set_edge(w_new.vid, nbr, w)
        else:
            for nbr, w in nbr_edges.items():
                if nbr in work.qverts:
                    # re-estimate overlap exactly from the merged mask
                    w = space.overlap_rate(w_new.mask, work.qverts[nbr].mask)
                work.set_edge(w_new.vid, nbr, w)
        merged_any = True
    return merged_any


def coarsen(
    g: QueryGraph,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable] = None,
    rng: Optional[random.Random] = None,
    ng: Optional[NetworkGraph] = None,
    fast: bool = True,
    steps_out: Optional[List[Tuple[PlanKey, PlanKey]]] = None,
    warm_steps: Optional[Sequence[Tuple[PlanKey, PlanKey]]] = None,
) -> QueryGraph:
    """Algorithm 1: coarsen ``g`` until it has at most ``vmax`` vertices.

    Each round shuffles the q-vertices, computes one heavy-edge matching
    pass over them (heavily-connected vertices are likely to be mapped to
    the same network vertex anyway) and collapses the matched pairs;
    rounds repeat until the graph fits in ``vmax`` or no pair is left.
    ``fast`` selects the numpy matching kernel
    (:func:`_match_pass_arrays`); the dict-based reference
    (:func:`_match_pass_reference`) implements the identical rule and
    produces the identical graph for the same ``rng``.

    ``g`` is not modified; a new graph is returned.  Only q-vertices are
    collapsed with each other in this implementation of the n-vertex rule:
    q/n merges are realised by the mapping layer pinning the n-vertex, so
    collapsing q into n is equivalent to a zero-distance preference, and
    keeping them separate loses no information while keeping the
    uncoarsening bookkeeping simple.  n-vertices therefore never merge
    (the strictest reading of the cluster constraint).
    """
    rng = rng or random.Random(0)
    match_pass = _match_pass_arrays if fast else _match_pass_reference

    # working copy
    work = QueryGraph()
    for qv in g.qverts.values():
        work.add_qvertex(qv)
    for nv in g.nverts.values():
        work.add_nvertex(nv)
    for a, b, w in g.edges():
        work.set_edge(a, b, w)

    if warm_steps:
        # replay still-valid merge steps from a previous plan before any
        # fresh matching; each step is resolved through a member-key ->
        # vid map that grows as merges produce new vertices
        kv = {plan_key(v): v.vid for v in work.qverts.values()}
        for ka, kb in warm_steps:
            if work.vertex_count() <= vmax:
                break
            va, vb = kv.get(ka), kv.get(kb)
            if (
                va is None or vb is None
                or va not in work.qverts or vb not in work.qverts
            ):
                continue
            if _collapse_pairs(
                work, [(va, vb)], space, origin, vmax, fast,
                steps_out=steps_out,
            ):
                merged = next(reversed(work.qverts.values()))
                kv[plan_key(merged)] = merged.vid

    while work.vertex_count() > vmax:
        qids = list(work.qverts)
        rng.shuffle(qids)
        pairs = match_pass(work, qids)
        if not pairs:
            break  # nothing left to collapse (graph may stay above vmax)
        if not _collapse_pairs(
            work, pairs, space, origin, vmax, fast, steps_out=steps_out
        ):
            break
    return work


def _replay_steps(
    inputs: Dict[PlanKey, QVertex],
    steps: Sequence[Tuple[PlanKey, PlanKey]],
    origin: Optional[Hashable],
) -> List[QVertex]:
    """Re-apply recorded merge steps to content-equal fresh inputs.

    Merging is the only part of coarsening whose output feeds downstream
    consumers (``collect``/``adopt`` keep just the vertex list), so a full
    plan hit skips matching and edge re-estimation entirely and re-runs
    the merges in recorded order.  Aggregates are order-dependent float
    sums, so identical inputs merged in the identical order reproduce the
    scratch result bit for bit — with ``children`` pointing at the *live*
    input objects, which is what keeps later statistics refreshes exact.
    """
    cur = dict(inputs)
    for ka, kb in steps:
        u = cur.pop(ka)
        v = cur.pop(kb)
        merged = merge_qvertices(u, v, origin=origin)
        cur[plan_key(merged)] = merged
    return list(cur.values())


def coarsen_cached(
    g: QueryGraph,
    vmax: int,
    space: SubstreamSpace,
    origin: Optional[Hashable] = None,
    rng: Optional[random.Random] = None,
    fast: bool = True,
    plan: Optional[CoarsePlan] = None,
    mode: str = "replay",
) -> Tuple[List[QVertex], CoarsePlan, str]:
    """Coarsen with plan reuse; returns ``(vertices, plan, reused)``.

    ``reused`` is ``"full"`` when every input signature matched and the
    recorded steps were replayed outright, ``"partial"`` when only the
    steps untouched by dirty inputs were warm-started (``mode ==
    "partial"``), ``"none"`` for a scratch run.  ``mode == "off"``
    disables reuse but still records a plan for the next round.
    """
    inputs = {plan_key(v): v for v in g.qverts.values()}
    sigs = {k: vertex_sig(v) for k, v in inputs.items()}
    if (
        plan is not None
        and mode != "off"
        and plan.vmax == vmax
        and plan.sigs == sigs
    ):
        return _replay_steps(inputs, plan.steps, origin), plan, "full"

    warm: Optional[List[Tuple[PlanKey, PlanKey]]] = None
    if plan is not None and mode == "partial" and plan.vmax == vmax:
        # a step is replayable iff both operands derive from inputs whose
        # signatures are unchanged; dirty inputs never enter `avail`, so
        # every step downstream of one is excluded automatically
        avail = {k for k, s in sigs.items() if plan.sigs.get(k) == s}
        warm = []
        for ka, kb in plan.steps:
            if ka in avail and kb in avail:
                warm.append((ka, kb))
                avail.discard(ka)
                avail.discard(kb)
                avail.add(tuple(sorted(ka + kb)))

    steps: List[Tuple[PlanKey, PlanKey]] = []
    coarse = coarsen(
        g, vmax, space, origin=origin, rng=rng, fast=fast,
        steps_out=steps, warm_steps=warm,
    )
    out = list(coarse.qverts.values())
    new_plan = CoarsePlan(vmax=vmax, sigs=sigs, steps=steps, output=list(out))
    return out, new_plan, "partial" if warm else "none"


def uncoarsen_vertex(v: QVertex) -> List[QVertex]:
    """Expand a coarse vertex one level (its direct children).

    Atomic vertices expand to themselves.
    """
    if not v.children:
        return [v]
    return list(v.children)
