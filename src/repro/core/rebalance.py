"""Adaptive query redistribution (Section 3.7, Algorithm 3).

Two phases per coordinator per adaptation round:

1. **Load re-balancing** -- a Hu & Blake diffusion solution prescribes how
   much load to shift between each pair of children; Algorithm 3 realises
   the flows by moving concrete q-vertices, preferring (a) vertices whose
   move *benefit* (WEC reduction) is within ``x%`` of the best, (b) among
   those, *dirty* vertices (already picked this round -- moving them again
   costs no extra migration since physical migration happens only after
   all decisions), and (c) among those, the highest *load density*
   (weight / state size), which moves the most load per byte of operator
   state.
2. **Distribution refinement** -- revisit q-vertices in random order and
   (1) move a vertex back to its original location when that keeps load
   balance and does not hurt the WEC, or (2) move it anywhere that lowers
   the WEC without breaking balance.

Both phases evaluate move benefits through a
:class:`~repro.core.fastcost.CostWorkspace`, so the cost of a vertex
against *every* candidate target is one vectorised gather + matvec
instead of a per-neighbour Python loop per target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from .diffusion import diffusion_solution
from .fastcost import CostWorkspace
from .graphs import (
    DEFAULT_ALPHA,
    Mapping,
    NetworkGraph,
    QueryGraph,
    VertexId,
    stable_vertex_key,
)

__all__ = ["RebalanceStats", "rebalance", "refine_distribution"]

#: Algorithm 3's benefit window (the paper sets x = 10).
DEFAULT_BENEFIT_WINDOW = 0.10


@dataclass
class RebalanceStats:
    """Observability for one coordinator-level rebalance.

    ``dirty`` collects the vertices moved at least once this round; a
    dirty vertex can be moved again for free because physical migration
    happens only after all decisions are made.
    """

    moved_vertices: int = 0
    moved_weight: float = 0.0
    moved_state: float = 0.0
    refinement_moves: int = 0
    flows_requested: int = 0
    flows_satisfied: int = 0
    dirty: Set[VertexId] = field(default_factory=set)


def rebalance(
    qg: QueryGraph,
    ng: NetworkGraph,
    assignment: Mapping,
    alpha: float = DEFAULT_ALPHA,
    benefit_window: float = DEFAULT_BENEFIT_WINDOW,
    rng: Optional[random.Random] = None,
    stats: Optional[RebalanceStats] = None,
    workspace: Optional[CostWorkspace] = None,
) -> RebalanceStats:
    """Algorithm 3: realise the diffusion flows with vertex moves.

    Parameters
    ----------
    qg, ng:
        The coordinator's query and network graphs.
    assignment:
        Current q-vertex -> child mapping; **modified in place**.
    alpha:
        Load-imbalance tolerance of Eqn 3.1.
    benefit_window:
        Fraction ``x`` of the best benefit within which a candidate is
        still considered "among the best" (tie pool for the dirty /
        load-density preferences).
    rng:
        Source of randomness for flow visiting order.
    stats:
        Optional pre-existing stats object to accumulate into.
    workspace:
        Optional pre-built cost workspace over ``(qg, ng)`` to reuse
        (positions are re-seeded from ``assignment``).

    Returns
    -------
    RebalanceStats
        Move statistics for the round (also reflected in ``assignment``).
    """
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
    # ignore noise-level flows (< 0.1% of the average target load); the
    # floor is applied inside the solver so they are never materialised
    floor = 1e-3 * (total_q / max(1, len(ng)))
    # Section 3.7 trigger: re-balancing runs only while some child
    # violates the load constraint (Eqn 3.1).  A feasible assignment
    # always has residual sub-alpha imbalance (loads are discrete), and
    # chasing it moves vertices back and forth forever -- the constraint
    # is the paper's own stopping criterion, and quiescing here is what
    # lets converged coordinators skip whole adaptation rounds.
    if all(
        loads[t] <= (1.0 + alpha) * targets[t] + floor for t in targets
    ):
        return stats
    flows = diffusion_solution(loads, targets, floor=floor)
    stats.flows_requested = len(flows)

    ws = workspace or CostWorkspace(qg, ng)
    ws.init_positions(assignment)
    tindex = ws.target_index
    qverts = qg.qverts
    by_source: Dict[VertexId, List[VertexId]] = {}
    for vid in qverts:
        by_source.setdefault(assignment[vid], []).append(vid)

    # The candidate universe -- every vertex on the source side of a flow;
    # only those ever move, so it is closed under the moves below -- lives
    # in arrays, one slot per vertex, and one flow step is a handful of
    # masks over them instead of a scan of the source child's vertex list.
    # ``costs`` holds every slot's attach-cost row, primed in one
    # vectorised batch.  A row depends only on its vertex's neighbours'
    # positions, so a move stales O(degree) rows, not all of them, and a
    # stale row is recomputed only when its vertex is next scored -- by the
    # single-vertex kernel: the two kernels sum in different orders, so
    # which one produced a row is part of the result.
    universe = [v for i in dict.fromkeys(i for i, _ in flows)
                for v in by_source.get(i, ())]
    n = len(universe)
    members = [qverts[v] for v in universe]
    costs = ws.attach_costs_batch(universe)
    ws_index = [qg.slot(v) for v in universe]
    # graph slot -> universe slot; n-vertices and q-vertices outside the
    # universe share the spare slot ``n`` (staled, never read)
    slot_of = np.full(qg.slot_count, n, dtype=np.int64)
    slot_of[ws_index] = np.arange(n)
    stale = np.zeros(n + 1, dtype=bool)
    weight = np.fromiter((qv.weight for qv in members), float, count=n)
    # a vertex is movable for a flow if the flow can absorb ~all of its
    # weight (the paper: m_ij larger than 90% of its weight)
    threshold = 0.9 * weight
    weighty = weight > 0
    density = np.fromiter(
        (qv.load_density() for qv in members), float, count=n
    )
    child = np.fromiter(
        (tindex[assignment[v]] for v in universe), np.int64, count=n
    )
    dirty = np.fromiter((v in stats.dirty for v in universe), bool, count=n)
    # rank within a child's vertex list (arrivals queue up behind); read
    # only when density and tie-break key both tie
    arrival = np.arange(n)
    arrivals = n

    pairs = list(flows)
    rng.shuffle(pairs)
    remaining = dict(flows)
    while pairs:
        i, j = pairs[rng.randrange(len(pairs))]
        m_ij = remaining[(i, j)]
        ti_i, ti_j = tindex[i], tindex[j]
        movable = np.flatnonzero(
            (child == ti_i) & weighty & (threshold < m_ij)
        )
        if not movable.size:
            remaining[(i, j)] = 0.0
            pairs.remove((i, j))
            continue
        redo = movable[stale[movable]].tolist()
        if redo:
            ws.fill_rows(costs, redo, map(ws_index.__getitem__, redo))
            stale[redo] = False
        benefits = costs[movable, ti_i] - costs[movable, ti_j]
        best_benefit = float(benefits.max())
        span = abs(best_benefit) if best_benefit != 0 else 1.0
        pool = movable[benefits >= best_benefit - benefit_window * span]
        dirty_pool = pool[dirty[pool]]
        if dirty_pool.size:
            pool = dirty_pool
        pool_density = density[pool]
        densest = pool[pool_density == pool_density.max()]
        if densest.size > 1:
            densest = densest[np.argsort(arrival[densest])]
            k = max(
                densest.tolist(), key=lambda k: stable_vertex_key(members[k])
            )
        else:
            k = int(densest[0])

        chosen, qv = universe[k], members[k]
        assignment[chosen] = j
        ws.set_position(chosen, j)
        stale[k] = True
        stale[slot_of[ws.neighbour_indices(chosen)]] = True
        child[k] = ti_j
        arrival[k] = arrivals
        arrivals += 1
        if not dirty[k]:
            stats.moved_state += qv.state_size
            dirty[k] = True
            stats.dirty.add(chosen)
        stats.moved_vertices += 1
        stats.moved_weight += qv.weight
        remaining[(i, j)] = m_ij - qv.weight
        if remaining[(i, j)] <= floor:
            stats.flows_satisfied += 1
            pairs.remove((i, j))
    return stats


def refine_distribution(
    qg: QueryGraph,
    ng: NetworkGraph,
    assignment: Mapping,
    original: Mapping,
    alpha: float = DEFAULT_ALPHA,
    rng: Optional[random.Random] = None,
    workspace: Optional[CostWorkspace] = None,
) -> int:
    """The distribution-refinement phase; returns the number of moves.

    ``original`` is the assignment at the start of the adaptation round
    (used for the "map back to its original location" rule, which undoes
    migrations that turned out unnecessary).  ``assignment`` is modified
    in place.  Candidate targets for every vertex are scored in one
    vectorised cost evaluation rather than a per-target neighbour loop;
    pass ``workspace`` to reuse a cost workspace built for the same
    ``(qg, ng)`` pair (positions are re-seeded from ``assignment``).
    """
    rng = rng or random.Random(0)
    ws = workspace or CostWorkspace(qg, ng)
    ws.init_positions(assignment)
    tindex = ws.target_index
    n_targets = len(ws.targets)

    limits_map = qg.capacity_limits(ng, alpha)
    limits = np.asarray([limits_map[t] for t in ws.targets])
    loads_map = qg.loads(assignment, ng)
    loads = np.asarray([loads_map[t] for t in ws.targets])
    moves = 0
    # equal-share targets: refinement must not undo the re-balancing phase,
    # so a move may neither push the destination above its ceiling nor
    # hollow the source below its fair share by more than alpha
    total_q = qg.total_qweight()
    total_c = ng.total_capability()
    share = np.asarray(
        [ng.capability(t) * total_q / total_c for t in ws.targets]
    )

    order = list(qg.qverts)
    rng.shuffle(order)
    # one vectorised pass computes every vertex's cost row up front; a
    # move only changes the rows of the moved vertex's neighbours, so
    # those few are marked stale and re-evaluated individually
    batch = ws.attach_costs_batch(order)
    # graph slots whose row ``batch`` no longer holds
    stale: Set[int] = set()
    # exact pre-filter: a vertex whose best target (load feasibility
    # aside) beats its current position by nothing cannot move under
    # rule 2, and with no distinct "home" rule 1 cannot fire either --
    # near equilibrium that is almost every vertex, and skipping them
    # here avoids per-vertex numpy work entirely
    hi_all = np.asarray([tindex[assignment[v]] for v in order], dtype=np.int64)
    immobile = (
        batch[np.arange(len(order)), hi_all] - batch.min(axis=1) <= 1e-9
    )
    for k, vid in enumerate(order):
        here = assignment[vid]
        slot = qg.slot(vid)
        if (
            slot not in stale
            and immobile[k]
            and original.get(vid, here) == here
        ):
            continue
        qv = qg.qverts[vid]
        hi = tindex[here]
        w = qv.weight

        # the source side of the feasibility test is target-independent
        source_ok = loads[hi] - w >= (1.0 - alpha) * share[hi] - 1e-9
        if not source_ok:
            continue
        fits = loads + w <= limits + 1e-9

        costs = ws.attach_costs_idx(slot) if slot in stale else batch[k]

        def apply(ti: int, target: VertexId) -> None:
            nonlocal moves, hi
            loads[hi] -= w
            assignment[vid] = target
            loads[ti] += w
            ws.set_position(vid, target)
            stale.update(ws.neighbour_indices(vid).tolist())
            moves += 1

        # rule 1: go home if free
        home = original.get(vid)
        if home is not None and home != here:
            home_i = tindex.get(home)
            if home_i is not None and fits[home_i]:
                if costs[hi] - costs[home_i] >= -1e-9:
                    apply(home_i, home)
                    continue
        # rule 2: strict WEC improvement anywhere legal
        gains = costs[hi] - costs
        gains = np.where(fits, gains, -np.inf)
        gains[hi] = -np.inf
        ti = int(np.argmax(gains))
        if gains[ti] > 1e-9:
            apply(ti, ws.targets[ti])
    return moves
