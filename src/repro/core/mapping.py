"""Graph mapping (Algorithm 2): greedy initial mapping + gain refinement.

The initial mapping:

(a) pins every covered n-vertex to the child that manages its node;
(b) places q-vertices in descending weight order onto the feasible target
    that minimises the current WEC, falling back to the least-violating
    target when nothing fits (finding a feasible mapping is NP-complete;
    the greedy does not guarantee one).

The refinement is Kernighan-Lin-flavoured: repeatedly move the q-vertex
with the maximum ``gain`` (WEC reduction), allowing negative-gain moves to
climb out of local minima, locking each vertex after it moves once per
pass, and restoring the best mapping seen at the start of every outer
iteration.

Implementation: a full |Vq| x |Vn| attach-cost matrix is maintained
incrementally (a vertex's row only changes when one of its *neighbours*
moves), so each refinement step is one masked argmax over the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .fastcost import CostWorkspace
from .graphs import (
    DEFAULT_ALPHA,
    Mapping,
    NetworkGraph,
    QueryGraph,
    VertexId,
)

__all__ = ["MappingResult", "greedy_mapping", "refine_mapping", "map_graph"]


@dataclass
class MappingResult:
    """Outcome of a mapping run."""

    mapping: Mapping
    wec: float
    feasible: bool
    #: number of refinement moves applied
    moves: int = 0


def _attach_cost(
    qg: QueryGraph,
    vid: VertexId,
    target: VertexId,
    pos: Dict[VertexId, int],
    ng: NetworkGraph,
) -> float:
    """Scalar attach cost (reference implementation, used by tests)."""
    site = ng.site(target)
    total = 0.0
    for nbr, w in qg.neighbors(vid).items():
        p = pos.get(nbr)
        if p is not None:
            total += w * ng.site_distance(site, p)
    return total


def greedy_mapping(
    qg: QueryGraph, ng: NetworkGraph, alpha: float = DEFAULT_ALPHA,
    workspace: Optional[CostWorkspace] = None,
) -> Mapping:
    """The greedy initial mapping (steps (a) and (b) above)."""
    ws = workspace or CostWorkspace(qg, ng)
    mapping: Mapping = dict(qg.pinned_mapping(ng))
    ws.init_positions(mapping)
    for vid in qg.qverts:
        ws.clear_position(vid)  # unplaced vertices contribute nothing

    limits = qg.capacity_limits(ng, alpha)
    limit_arr = np.asarray([limits[t] for t in ws.targets])
    loads = np.zeros(len(ws.targets))
    weights = {vid: qv.weight for vid, qv in qg.qverts.items()}

    order = sorted(qg.qverts, key=lambda v: -weights[v])
    for vid in order:
        w = weights[vid]
        costs = ws.attach_costs(vid)
        feasible = loads + w <= limit_arr + 1e-9
        if feasible.any():
            masked = np.where(feasible, costs, np.inf)
            ti = int(np.argmin(masked))
        else:
            ti = int(np.argmin(loads + w - limit_arr))
        target = ws.targets[ti]
        mapping[vid] = target
        loads[ti] += w
        ws.set_position(vid, target)
    return mapping


def refine_mapping(
    qg: QueryGraph,
    ng: NetworkGraph,
    mapping: Mapping,
    alpha: float = DEFAULT_ALPHA,
    max_outer: int = 8,
    workspace: Optional[CostWorkspace] = None,
) -> MappingResult:
    """Iterative gain-guided improvement (lines 2-20 of Algorithm 2)."""
    ws = workspace or CostWorkspace(qg, ng)
    mapping = dict(mapping)
    limits = qg.capacity_limits(ng, alpha)
    limit_arr = np.asarray([limits[t] for t in ws.targets])
    n_targets = len(ws.targets)

    qvids = list(qg.qverts)
    nq = len(qvids)
    if nq == 0 or n_targets == 1:
        wec = qg.wec(mapping, ng)
        return MappingResult(
            mapping=mapping, wec=wec,
            feasible=qg.satisfies_load_constraint(mapping, ng, alpha),
        )
    qrow = {vid: r for r, vid in enumerate(qvids)}
    w_arr = np.asarray([qg.qverts[v].weight for v in qvids])
    tindex = ws.target_index

    min_wec = qg.wec(mapping, ng)
    min_mapping = dict(mapping)
    total_moves = 0

    for _ in range(max_outer):
        mapping = dict(min_mapping)
        ws.init_positions(mapping)
        loads_map = qg.loads(mapping, ng)
        loads = np.asarray([loads_map[t] for t in ws.targets])
        current = np.asarray([tindex[mapping[v]] for v in qvids])
        current_wec = min_wec
        improved = False

        # full attach-cost matrix; row r valid until a neighbour of r moves
        cost = np.empty((nq, n_targets))
        for r, vid in enumerate(qvids):
            cost[r] = ws.attach_costs(vid)

        matched = np.zeros(nq, dtype=bool)
        rows_idx = np.arange(nq)
        while not matched.all():
            # legality: fits, or improves the source's violation
            fits = loads[None, :] + w_arr[:, None] <= limit_arr[None, :] + 1e-9
            src_violation = loads[current] - limit_arr[current]
            violated = src_violation > 1e-9
            if violated.any():
                improves = (
                    loads[None, :] + w_arr[:, None] - limit_arr[None, :]
                    < src_violation[:, None] - 1e-9
                )
                legal = fits | (improves & violated[:, None])
            else:
                legal = fits
            legal[rows_idx, current] = False
            legal[matched, :] = False
            if not legal.any():
                break
            gains = cost[rows_idx, current][:, None] - cost
            gains = np.where(legal, gains, -np.inf)
            flat = int(np.argmax(gains))
            r, ti = divmod(flat, n_targets)
            best_gain = gains[r, ti]
            if best_gain == -np.inf:
                break
            vid = qvids[r]
            si = current[r]
            target = ws.targets[ti]
            mapping[vid] = target
            loads[si] -= w_arr[r]
            loads[ti] += w_arr[r]
            current[r] = ti
            ws.set_position(vid, target)
            matched[r] = True
            total_moves += 1
            current_wec -= float(best_gain)
            # refresh the rows of the moved vertex's q-neighbours; `qrow`
            # membership doubles as the q-vertex test (a long-lived
            # workspace no longer keeps q slots contiguous at the front)
            for nb in ws.neighbour_indices(vid):
                rr = qrow.get(ws.vids[nb])
                if rr is not None:
                    cost[rr] = ws.attach_costs_idx(nb)
            if current_wec < min_wec - 1e-9:
                min_wec = current_wec
                min_mapping = dict(mapping)
                improved = True
        if not improved:
            break

    feasible = qg.satisfies_load_constraint(min_mapping, ng, alpha)
    return MappingResult(
        mapping=min_mapping, wec=min_wec, feasible=feasible, moves=total_moves
    )


def map_graph(
    qg: QueryGraph,
    ng: NetworkGraph,
    alpha: float = DEFAULT_ALPHA,
    max_outer: int = 8,
) -> MappingResult:
    """Algorithm 2 end to end: greedy initial mapping then refinement."""
    ws = CostWorkspace(qg, ng)
    initial = greedy_mapping(qg, ng, alpha, workspace=ws)
    return refine_mapping(
        qg, ng, initial, alpha=alpha, max_outer=max_outer, workspace=ws
    )
