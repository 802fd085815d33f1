"""Vectorised attach-cost computation for the mapping algorithms.

The inner loop of Algorithm 2 (and of online insertion and Algorithm 3)
evaluates, for a q-vertex ``v`` and every candidate target ``t``,

    cost(v, t) = sum over neighbours u of  w(v,u) * d(site(t), pos(u)).

:class:`CostWorkspace` assigns every vertex an integer index, keeps all
positions (topology node ids) in one numpy array, copies one latency row
per target from the network graph's oracle -- ``d(site(t), p)`` is
``oracle.row(site(t))[p]``, the row of the target's site -- and caches
per-vertex neighbour index/weight arrays, so the evaluation is one
fancy-indexing gather plus a matrix-vector product over all targets at
once, with no per-neighbour Python iteration.

A workspace can outlive graph mutations: it remembers a journal cursor of
its :class:`~repro.core.graphs.QueryGraph` and :meth:`sync` replays the
delta — invalidating the neighbour caches of touched vertices, appending
slots for new vertices, tombstoning removed ones — instead of being
reconstructed.  Because attach costs gather through the *live* adjacency
dicts, a synced workspace returns bit-identical cost vectors to a freshly
built one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .graphs import Mapping, NetworkGraph, QueryGraph, VertexId

__all__ = ["CostWorkspace"]


class CostWorkspace:
    """Fast attach-cost evaluation for one (query graph, network graph).

    Positions are tracked in :attr:`pos` (topology node id per vertex
    index, ``-1`` = unplaced); call :meth:`set_position` whenever a vertex
    moves so neighbour gathers stay correct.
    """

    def __init__(self, qg: QueryGraph, ng: NetworkGraph):
        self.qg = qg
        self.ng = ng
        self.targets: List[VertexId] = list(ng.ids())
        self.target_index: Dict[VertexId, int] = {
            t: i for i, t in enumerate(self.targets)
        }
        self.target_sites = np.asarray(
            [ng.site(t) for t in self.targets], dtype=np.int64
        )

        # integer indexing over all vertices (q first, then n)
        self.vids: List[VertexId] = list(qg.qverts) + list(qg.nverts)
        self.vindex: Dict[VertexId, int] = {v: i for i, v in enumerate(self.vids)}
        self.nq = len(qg.qverts)

        #: ``rows[i]`` is the oracle's row from target ``i``'s site,
        #: indexed by topology node id
        oracle = ng.oracle
        self.rows = np.empty((len(self.targets), oracle.topology.n))
        for i, t in enumerate(self.targets):
            self.rows[i, :] = oracle.row(ng.site(t))

        # static neighbour structure
        self._nbr_idx: List[Optional[np.ndarray]] = [None] * len(self.vids)
        self._nbr_w: List[Optional[np.ndarray]] = [None] * len(self.vids)

        #: current position (topology node id or -1) per vertex index
        self.pos = np.full(len(self.vids), -1, dtype=np.int64)

        #: journal cursor of the last sync; vertices tombstoned since build
        self._cursor = qg.journal_cursor()
        self._dead: Set[VertexId] = set()

    # ------------------------------------------------------------------
    def init_positions(self, mapping: Mapping) -> None:
        """Seed positions from a (possibly partial) mapping."""
        self.pos.fill(-1)
        qverts = self.qg.qverts
        nverts = self.qg.nverts
        for vid, i in self.vindex.items():
            if vid in qverts:
                target = mapping.get(vid)
                if target is not None:
                    self.pos[i] = self.ng.site(target)
            else:
                nv = nverts.get(vid)
                if nv is not None:
                    node = self.ng.site(nv.clu) if nv.clu is not None else nv.node
                    self.pos[i] = node
                # tombstoned vertices stay unplaced (contribute nothing)

    def set_position(self, vid: VertexId, target: VertexId) -> None:
        """Record that ``vid`` now occupies ``target``'s site."""
        self.pos[self.vindex[vid]] = self.ng.site(target)

    def clear_position(self, vid: VertexId) -> None:
        """Mark ``vid`` unplaced; it then contributes no cost."""
        self.pos[self.vindex[vid]] = -1

    def add_vertex(self, vid: VertexId) -> None:
        """Register a vertex added to the graph after construction.

        A vertex re-added after removal revives its tombstoned slot.
        """
        i = self.vindex.get(vid)
        if i is None:
            i = len(self.vids)
            self.vindex[vid] = i
            self.vids.append(vid)
            self._nbr_idx.append(None)
            self._nbr_w.append(None)
            self.pos = np.append(self.pos, -1)
        elif vid in self._dead:
            self._dead.discard(vid)
            self._nbr_idx[i] = None
            self._nbr_w[i] = None
            self.pos[i] = -1
        else:
            return
        if vid in self.qg.nverts:
            nv = self.qg.nverts[vid]
            node = self.ng.site(nv.clu) if nv.clu is not None else nv.node
            self.pos[i] = node

    def invalidate_vertex(self, vid: VertexId) -> None:
        """Drop cached neighbour arrays (call after edges change)."""
        i = self.vindex.get(vid)
        if i is not None:
            self._nbr_idx[i] = None
            self._nbr_w[i] = None

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def ensure_synced(self) -> None:
        """Bring the workspace up to date with its graph (no-op if so)."""
        if self._cursor != self.qg.journal_cursor():
            self.sync()

    def sync(self) -> None:
        """Replay the graph's journal since the last sync.

        Edge ops invalidate both endpoints' neighbour caches; vertex adds
        allocate (or revive) slots; removals tombstone.  Falls back to a
        full :meth:`_rebuild` when the journal was trimmed, the graph was
        cleared wholesale, or tombstones outnumber live slots.
        """
        ops = self.qg.journal_since(self._cursor)
        if ops is None or any(op[0] == "clear" for op in ops):
            self._rebuild()
            return
        for op in ops:
            tag = op[0]
            if tag == "e":
                self.invalidate_vertex(op[1])
                self.invalidate_vertex(op[2])
            elif tag == "+q" or tag == "+n":
                self.add_vertex(op[1])
            elif tag == "-v":
                vid = op[1]
                i = self.vindex.get(vid)
                if i is not None and vid not in self._dead:
                    self._dead.add(vid)
                    self.pos[i] = -1
                    self._nbr_idx[i] = None
                    self._nbr_w[i] = None
        self._cursor = self.qg.journal_cursor()
        dead = len(self._dead)
        if dead > 64 and dead > len(self.vids) - dead:
            self._rebuild()

    def _rebuild(self) -> None:
        """Re-index every vertex from scratch (distance rows are kept)."""
        qg = self.qg
        self.vids = list(qg.qverts) + list(qg.nverts)
        self.vindex = {v: i for i, v in enumerate(self.vids)}
        self.nq = len(qg.qverts)
        self._nbr_idx = [None] * len(self.vids)
        self._nbr_w = [None] * len(self.vids)
        self.pos = np.full(len(self.vids), -1, dtype=np.int64)
        self._dead = set()
        self._cursor = qg.journal_cursor()

    def _neighbour_arrays(self, i: int):
        if self._nbr_idx[i] is None:
            nbrs = self.qg.neighbors(self.vids[i])
            self._nbr_idx[i] = np.asarray(
                [self.vindex[n] for n in nbrs], dtype=np.int64
            )
            self._nbr_w[i] = np.asarray(list(nbrs.values()), dtype=float)
        return self._nbr_idx[i], self._nbr_w[i]

    # ------------------------------------------------------------------
    def attach_costs(self, vid: VertexId) -> np.ndarray:
        """Vector of attach costs of ``vid`` for every target.

        Neighbours without a position (not yet placed) contribute zero.
        """
        return self.attach_costs_idx(self.vindex[vid])

    def attach_costs_idx(self, i: int) -> np.ndarray:
        """Like :meth:`attach_costs` but addressed by vertex index."""
        idx, w = self._neighbour_arrays(i)
        if idx.size == 0:
            return np.zeros(len(self.targets))
        p = self.pos[idx]
        placed = p >= 0
        n_placed = np.count_nonzero(placed)
        if n_placed == 0:
            return np.zeros(len(self.targets))
        if n_placed < p.size:
            # rare: in the optimizer's loops every neighbour is placed, and
            # the masked copies would equal ``p`` and ``w`` themselves
            p, w = p[placed], w[placed]
        return self.rows[:, p] @ w

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
        nbrs = [self._neighbour_arrays(self.vindex[v]) for v in vids]
        counts = np.asarray([a[0].size for a in nbrs], dtype=np.int64)
        if not counts.any():
            return out
        idx_cat = np.concatenate([a[0] for a in nbrs if a[0].size])
        w_cat = np.concatenate([a[1] for a in nbrs if a[1].size])
        p = self.pos[idx_cat]
        valid = p >= 0
        w_eff = np.where(valid, w_cat, 0.0)
        contrib = self.rows[:, np.where(valid, p, 0)] * w_eff
        starts = np.zeros(len(vids), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        nz = np.flatnonzero(counts)
        out[nz] = np.add.reduceat(contrib, starts[nz], axis=1).T
        return out

    def neighbour_indices(self, vid: VertexId) -> np.ndarray:
        """Vertex indices of ``vid``'s neighbours (cached array)."""
        idx, _ = self._neighbour_arrays(self.vindex[vid])
        return idx
