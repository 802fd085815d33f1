"""Algorithm 3's flow realisation as a scan over candidate lists.

The definition of what :func:`repro.core.rebalance.rebalance` must leave
behind -- ``assignment``, :class:`RebalanceStats` and the rng state: after
every move the candidates of the drawn flow's source child are listed
again, filtered to the movable ones, scored through a per-vertex row cache
and narrowed to the benefit window, its dirty part and the densest member.
A cached row is the batch kernel's (``attach_costs_batch``) while it is
primed and no neighbour has moved, the single-vertex kernel's
(``attach_costs``) once it was invalidated; the two differ in summation
order, so which one produced a row is part of the definition.
"""

import random
from typing import Dict, List, Optional

import numpy as np

from repro.core.diffusion import diffusion_solution
from repro.core.fastcost import CostWorkspace
from repro.core.graphs import (
    DEFAULT_ALPHA,
    Mapping,
    NetworkGraph,
    QueryGraph,
    VertexId,
    stable_vertex_key,
)
from repro.core.rebalance import DEFAULT_BENEFIT_WINDOW, RebalanceStats


def single_row(ws: CostWorkspace, vid: VertexId) -> np.ndarray:
    """The single-vertex attach-cost kernel, spelled out: the placed
    neighbours' latency columns, gathered and weighted by one matvec
    (what ``CostWorkspace.attach_costs`` must return, to the bit)."""
    nbrs = ws.qg.neighbors(vid)
    idx = np.asarray([ws.qg.slot(n) for n in nbrs], dtype=np.int64)
    w = np.asarray(list(nbrs.values()), dtype=float)
    if idx.size == 0:
        return np.zeros(len(ws.targets))
    p = ws.pos[idx]
    mask = p >= 0
    if not mask.any():
        return np.zeros(len(ws.targets))
    return ws.by_node[p[mask]].T @ w[mask]


def rebalance(
    qg: QueryGraph,
    ng: NetworkGraph,
    assignment: Mapping,
    alpha: float = DEFAULT_ALPHA,
    benefit_window: float = DEFAULT_BENEFIT_WINDOW,
    rng: Optional[random.Random] = None,
    stats: Optional[RebalanceStats] = None,
    workspace: Optional[CostWorkspace] = None,
    recompute=None,
) -> RebalanceStats:
    """``recompute(ws, v)`` re-evaluates an invalidated row; the default is
    the single-vertex kernel (swap it to mutation-check the parity tests)."""
    if recompute is None:
        recompute = single_row
    rng = rng or random.Random(0)
    stats = stats or RebalanceStats()

    loads = qg.loads(assignment, ng)
    total_c = ng.total_capability()
    total_q = qg.total_qweight()
    if total_q <= 0:
        return stats
    targets = {
        vid: ng.capability(vid) * total_q / total_c for vid in ng.ids()
    }
    floor = 1e-3 * (total_q / max(1, len(ng)))
    if all(
        loads[t] <= (1.0 + alpha) * targets[t] + floor for t in targets
    ):
        return stats
    flows = diffusion_solution(loads, targets, floor=floor)
    stats.flows_requested = len(flows)

    ws = workspace or CostWorkspace(qg, ng)
    ws.init_positions(assignment)
    tindex = ws.target_index
    by_source: Dict[VertexId, List[VertexId]] = {}
    for vid in qg.qverts:
        by_source.setdefault(assignment[vid], []).append(vid)

    prime = list(dict.fromkeys(
        v for i, _ in flows for v in by_source.get(i, ())
    ))
    rows = ws.attach_costs_batch(prime)
    row_cache: Dict[VertexId, np.ndarray] = {
        v: rows[k] for k, v in enumerate(prime)
    }

    def cost_row(v: VertexId) -> np.ndarray:
        row = row_cache.get(v)
        if row is None:
            row = row_cache[v] = recompute(ws, v)
        return row

    pairs = list(flows)
    rng.shuffle(pairs)
    remaining = dict(flows)
    while pairs:
        i, j = pairs[rng.randrange(len(pairs))]
        m_ij = remaining[(i, j)]
        candidates = [v for v in by_source.get(i, []) if assignment[v] == i]
        movable = [
            v for v in candidates if m_ij > 0.9 * qg.qverts[v].weight
            and qg.qverts[v].weight > 0
        ]
        if not movable:
            remaining[(i, j)] = 0.0
            pairs.remove((i, j))
            continue
        ti_i, ti_j = tindex[i], tindex[j]
        benefits = {}
        for v in movable:
            costs = cost_row(v)
            benefits[v] = float(costs[ti_i] - costs[ti_j])
        best_benefit = max(benefits.values())
        span = abs(best_benefit) if best_benefit != 0 else 1.0
        window = [
            v for v, b in benefits.items()
            if b >= best_benefit - benefit_window * span
        ]
        dirty_window = [v for v in window if v in stats.dirty]
        pool = dirty_window or window
        chosen = max(
            pool,
            key=lambda v: (
                qg.qverts[v].load_density(),
                stable_vertex_key(qg.qverts[v]),
            ),
        )

        qv = qg.qverts[chosen]
        assignment[chosen] = j
        ws.set_position(chosen, j)
        row_cache.pop(chosen, None)
        for nb in qg.neighbors(chosen):
            row_cache.pop(nb, None)
        by_source[i].remove(chosen)
        by_source.setdefault(j, []).append(chosen)
        if chosen not in stats.dirty:
            stats.moved_state += qv.state_size
        stats.dirty.add(chosen)
        stats.moved_vertices += 1
        stats.moved_weight += qv.weight
        remaining[(i, j)] = m_ij - qv.weight
        if remaining[(i, j)] <= floor:
            stats.flows_satisfied += 1
            pairs.remove((i, j))
    return stats
