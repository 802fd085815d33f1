"""Vectorised attach-cost computation for the mapping algorithms.

The inner loop of Algorithm 2 (and of online insertion and Algorithm 3)
evaluates, for a q-vertex ``v`` and every candidate target ``t``,

    cost(v, t) = sum over neighbours u of  w(v,u) * d(site(t), pos(u)).

:class:`CostWorkspace` addresses vertices by their
:class:`~repro.core.graphs.QueryGraph` slots: it keeps every slot's
position (topology node id) in one numpy array and copies one latency row
per target from the network graph's oracle -- ``d(site(t), p)`` is
``oracle.row(site(t))[p]``, the row of the target's site -- into one
node-major table, ``by_node[p, t]``, so a node's latencies to every target
sit side by side.  A vertex's neighbour slots and weights come from the
graph's edge store, which caches them per vertex until an incident edge
is written, so the evaluation is one row gather plus a matrix-vector
product over all targets at once, with no per-neighbour Python iteration.
While every vertex is placed (a count the position writers keep) the
gather needs no mask.

A workspace outlives graph mutations without being told about them: it
holds no vertex index of its own, and :meth:`CostWorkspace.init_positions`
re-reads the slot table, so a reused workspace returns bit-identical cost
vectors to a freshly built one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .graphs import Mapping, NetworkGraph, QueryGraph, VertexId

__all__ = ["CostWorkspace"]


class CostWorkspace:
    """Fast attach-cost evaluation for one (query graph, network graph).

    Positions are tracked in :attr:`pos` (topology node id per graph
    slot, ``-1`` = unplaced): seed them with :meth:`init_positions` at the
    start of a pass and call :meth:`set_position` whenever a vertex moves
    so neighbour gathers stay correct.
    """

    def __init__(self, qg: QueryGraph, ng: NetworkGraph):
        self.qg = qg
        self.ng = ng
        self.targets: List[VertexId] = list(ng.ids())
        self.target_index: Dict[VertexId, int] = {
            t: i for i, t in enumerate(self.targets)
        }

        #: ``by_node[p, i]`` is ``d(site(target i), p)``: the oracle's row
        #: from target ``i``'s site, stored as column ``i``, so one node's
        #: latencies to every target are one contiguous row
        oracle = ng.oracle
        self.by_node = np.empty((oracle.topology.n, len(self.targets)))
        for i, t in enumerate(self.targets):
            self.by_node[:, i] = oracle.row(ng.site(t))

        #: current position (topology node id or -1) per graph slot
        self.pos = np.full(qg.slot_count, -1, dtype=np.int64)
        #: live slots at ``-1`` (all of them until positions are seeded);
        #: while it is 0 no neighbour needs masking
        self._unplaced = qg.slot_count

    # ------------------------------------------------------------------
    def init_positions(self, mapping: Mapping) -> None:
        """Seed positions from a (possibly partial) mapping: one per
        current graph slot, n-vertices at their pinned sites."""
        qg = self.qg
        self.pos = qg.positions(mapping.get, self.ng)
        dead = qg.slot_count - len(qg.qverts) - len(qg.nverts)
        self._unplaced = int(np.count_nonzero(self.pos < 0)) - dead

    def set_position(self, vid: VertexId, target: VertexId) -> None:
        """Record that ``vid`` now occupies ``target``'s site."""
        s = self.qg.slot(vid)
        if self.pos[s] < 0:
            self._unplaced -= 1
        self.pos[s] = self.ng.site(target)

    def clear_position(self, vid: VertexId) -> None:
        """Mark ``vid`` unplaced; it then contributes no cost."""
        s = self.qg.slot(vid)
        if self.pos[s] >= 0:
            self._unplaced += 1
        self.pos[s] = -1

    # ------------------------------------------------------------------
    def attach_costs(self, vid: VertexId) -> np.ndarray:
        """Vector of attach costs of ``vid`` for every target.

        Neighbours without a position (not yet placed) contribute zero.
        """
        return self.attach_costs_idx(self.qg.slot(vid))

    def attach_costs_idx(self, i: int) -> np.ndarray:
        """Like :meth:`attach_costs` but addressed by graph slot.

        One gather of the placed neighbours' rows of :attr:`by_node`;
        transposed, they are a column-major ``(targets x neighbours)``
        matrix, the operand a target-major table's column gather would
        hand the matrix-vector product, so the sums run in that order.
        """
        idx, w = self.qg.neighbour_arrays(i)
        if idx.size == 0:
            return np.zeros(len(self.targets))
        p = self.pos.take(idx)
        if self._unplaced:
            # only while some vertex is unplaced (greedy placement): drop
            # the neighbours without a position
            placed = p >= 0
            n_placed = np.count_nonzero(placed)
            if n_placed == 0:
                return np.zeros(len(self.targets))
            if n_placed < p.size:
                p, w = p[placed], w[placed]
        return self.by_node.take(p, axis=0).T @ w

    def fill_rows(
        self, out: np.ndarray, rows: Iterable[int], slots: Iterable[int]
    ) -> None:
        """``out[r] = attach_costs_idx(s)`` for each ``(r, s)`` of
        ``zip(rows, slots)``: the single-vertex kernel, row by row."""
        if self._unplaced:
            for r, s in zip(rows, slots):
                out[r] = self.attach_costs_idx(s)
            return
        arrays = self.qg.neighbour_arrays
        by_node, pos = self.by_node, self.pos
        for r, s in zip(rows, slots):
            idx, w = arrays(s)
            if idx.size:
                out[r] = by_node.take(pos.take(idx), axis=0).T @ w
            else:
                out[r] = 0.0

    def attach_costs_batch(self, vids: Sequence[VertexId]) -> np.ndarray:
        """Attach-cost rows for many vertices in one vectorised pass.

        Row ``k`` equals :meth:`attach_costs` of ``vids[k]`` up to float
        summation order (one segmented sum over the concatenated
        neighbour arrays instead of a dot product per vertex).  The scan
        phases of re-balancing and refinement evaluate every vertex once
        against every target; batching turns those from thousands of
        small gather+matvec calls into a single gather and one
        ``reduceat``.
        """
        out = np.zeros((len(vids), len(self.targets)))
        if not vids:
            return out
        qg = self.qg
        nbrs = [qg.neighbour_arrays(qg.slot(v)) for v in vids]
        counts = np.asarray([a[0].size for a in nbrs], dtype=np.int64)
        if not counts.any():
            return out
        idx_cat = np.concatenate([a[0] for a in nbrs if a[0].size])
        w_cat = np.concatenate([a[1] for a in nbrs if a[1].size])
        p = self.pos[idx_cat]
        valid = p >= 0
        w_eff = np.where(valid, w_cat, 0.0)
        contrib = self.by_node.take(np.where(valid, p, 0), axis=0)
        contrib *= w_eff[:, None]
        starts = np.zeros(len(vids), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        nz = np.flatnonzero(counts)
        out[nz] = np.add.reduceat(contrib, starts[nz], axis=0)
        return out

    def neighbour_indices(self, vid: VertexId) -> np.ndarray:
        """Graph slots of ``vid``'s neighbours (cached array)."""
        return self.qg.neighbour_arrays(self.qg.slot(vid))[0]
