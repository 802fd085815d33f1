"""Online new-query insertion (Section 3.6).

A new query is routed from the root down: at every coordinator the new
q-vertex is attached to the coordinator's (coarse) query graph, edge
weights are estimated from interest bit vectors, and the vertex is mapped
to the child that minimises the resulting WEC without breaking the load
constraint.  The root only ever inspects its own ``vmax``-bounded graph,
which is what makes the scheme fast enough for very high query-arrival
rates.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..query.interest import SubstreamSpace
from .graphs import NetworkGraph, NVertex, QueryGraph, QVertex, VertexId
from .mapping import _attach_cost

__all__ = ["attach_vertex", "choose_target"]


def attach_vertex(
    qg: QueryGraph,
    v: QVertex,
    space: SubstreamSpace,
    ng: Optional[NetworkGraph] = None,
    max_overlap_neighbors: int = 20,
) -> None:
    """Add ``v`` to ``qg`` with estimated edges.

    * q-n edges to the sources/proxies in the vertex's rate maps (missing
      n-vertices are created and pinned against ``ng`` when possible);
    * q-q overlap edges against every existing q-vertex, keeping the
      ``max_overlap_neighbors`` heaviest.
    """
    qg.add_qvertex(v)
    for node, rate in list(v.source_rates.items()) + list(v.proxy_rates.items()):
        nvid = ("n", node)
        if nvid not in qg.nverts:
            clu = ng.covering_vertex(node) if ng is not None else None
            qg.add_nvertex(NVertex(vid=nvid, node=node, clu=clu))
        qg.add_edge(v.vid, nvid, rate)

    others = [other for other in qg.qverts.values() if other.vid != v.vid]
    rates = space.overlap_rates(v.indices, [other.indices for other in others])
    overlaps = [(ov, other.vid) for ov, other in zip(rates, others) if ov > 0]
    overlaps.sort(key=lambda t: -t[0])
    for ov, other_id in overlaps[:max_overlap_neighbors]:
        qg.set_edge(v.vid, other_id, ov)


def choose_target(
    qg: QueryGraph,
    ng: NetworkGraph,
    v: QVertex,
    positions: Dict[VertexId, int],
    loads: Dict[VertexId, float],
    limits: Dict[VertexId, float],
    workspace=None,
) -> Tuple[VertexId, bool]:
    """The WEC-minimising feasible target for a (newly attached) vertex.

    Returns ``(target, feasible)``; when no child can accommodate the
    vertex the least-violating one is returned with ``feasible = False``.
    When a :class:`~repro.core.fastcost.CostWorkspace` is passed the costs
    of all targets come from one vectorised evaluation (``positions`` is
    then ignored; the workspace's position array is authoritative).
    """
    if workspace is not None:
        costs = workspace.attach_costs(v.vid)
        tindex = workspace.target_index

        def cost_of(t: VertexId) -> float:
            return float(costs[tindex[t]])

    else:

        def cost_of(t: VertexId) -> float:
            return _attach_cost(qg, v.vid, t, positions, ng)

    candidates = [
        t for t in ng.ids() if loads[t] + v.weight <= limits[t] + 1e-9
    ]
    if candidates:
        target = min(candidates, key=lambda t: (cost_of(t), str(t)))
        return target, True
    target = min(
        ng.ids(), key=lambda t: (loads[t] + v.weight - limits[t], str(t))
    )
    return target, False
