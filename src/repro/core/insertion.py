"""Greedy placement of one vertex on a coordinator's network graph.

A coordinator's adaptation round (Section 3.7) first re-places the
vertices it has no assignment for -- queries inserted since the last
round, or coarse vertices new at this level -- one at a time, heaviest
first: each goes to the feasible target that minimises its attach cost
(the WEC it adds given where its neighbours already sit), or to the
least-violating target when none can take it.  The attach costs of all
targets come from one vectorised evaluation of the coordinator's
:class:`~repro.core.fastcost.CostWorkspace`.

Online insertion itself (``Coordinator.insert``, Section 3.6) does not
attach the query to a graph: it routes the query down the tree on
per-child aggregate interest masks and loads, and the next adaptation
round gives it its graph vertex.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .fastcost import CostWorkspace
from .graphs import NetworkGraph, QVertex, VertexId

__all__ = ["choose_target"]


def choose_target(
    ng: NetworkGraph,
    v: QVertex,
    loads: Dict[VertexId, float],
    limits: Dict[VertexId, float],
    workspace: CostWorkspace,
) -> Tuple[VertexId, bool]:
    """The WEC-minimising feasible target for a vertex of ``workspace``'s graph.

    Returns ``(target, feasible)``; when no target can accommodate the
    vertex the least-violating one is returned with ``feasible = False``.
    The workspace's position array is authoritative for where the
    vertex's neighbours sit.
    """
    costs = workspace.attach_costs(v.vid)
    tindex = workspace.target_index
    candidates = [
        t for t in ng.ids() if loads[t] + v.weight <= limits[t] + 1e-9
    ]
    if candidates:
        target = min(candidates, key=lambda t: (float(costs[tindex[t]]), str(t)))
        return target, True
    target = min(
        ng.ids(), key=lambda t: (loads[t] + v.weight - limits[t], str(t))
    )
    return target, False
