"""Shortest-path latency computation over a :class:`Topology`.

The COSMOS optimizer needs transfer latencies ``d(ni, nj)`` between the
*relevant* nodes only (sources, processors, proxies) -- not all 4096
routers.  :class:`LatencyOracle` therefore runs Dijkstra once per relevant
node and caches the distance rows.  Rows are computed lazily so callers can
pass the full topology and only pay for the nodes they ask about.
:class:`SyntheticOracle` answers the same interface from random 2-D
coordinates, for synthetic workloads that need no router graph.
"""

from __future__ import annotations

import heapq
from array import array
from types import SimpleNamespace
from typing import Dict, List, Sequence

import numpy as np

from .transit_stub import Topology

__all__ = ["dijkstra", "LatencyOracle", "SyntheticOracle", "select_roles"]


def dijkstra(topo: Topology, source: int) -> List[float]:
    """Single-source shortest path latencies from ``source``.

    Unreachable nodes get ``float('inf')``.
    """
    dist = [float("inf")] * topo.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, lat in topo.adjacency[u]:
            nd = d + lat
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class LatencyOracle:
    """Lazy all-pairs latency oracle over a topology.

    ``oracle(u, v)`` returns the shortest-path latency between two nodes.
    Distance rows are computed on first use and memoised as ``array('d')``
    (8 bytes per entry, readable through the buffer protocol).

    ``oracle(u, v)`` reads row ``u`` if it is cached, else row ``v`` if that
    one is, else computes row ``u``.  Dijkstra sums a path from its source
    end, so d(u, v) and d(v, u) can differ in the last bits: an answer
    depends on which rows earlier calls cached, and changing the rule
    changes the optimizer's output.
    """

    def __init__(self, topo: Topology):
        self._topo = topo
        self._rows: Dict[int, array] = {}

    @property
    def topology(self) -> Topology:
        return self._topo

    def row(self, u: int) -> array:
        """Distance row from ``u`` to every node in the topology."""
        if u not in self._rows:
            self._rows[u] = array("d", dijkstra(self._topo, u))
        return self._rows[u]

    def __call__(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        if u in self._rows:
            return self._rows[u][v]
        if v in self._rows:
            return self._rows[v][u]
        return self.row(u)[v]

    def median(self, members: Sequence[int]) -> int:
        """The member with minimum total latency to all other members.

        This is the paper's cluster-parent selection rule (Section 3.3).
        Ties break toward the smaller node id for determinism.
        """
        if not members:
            raise ValueError("median of an empty member set")
        best = None
        best_total = float("inf")
        for u in members:
            total = 0.0
            row = self.row(u)
            for v in members:
                total += row[v]
            if total < best_total or (total == best_total and (best is None or u < best)):
                best_total = total
                best = u
        assert best is not None
        return best


class SyntheticOracle(LatencyOracle):
    """Latency oracle over random 2-D coordinates, without a graph.

    Latency is the Euclidean distance between node coordinates, so a row
    is one vectorised norm instead of a Dijkstra run.  ``topology`` only
    carries the node count ``n``.
    """

    def __init__(self, n: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.coords = rng.uniform(0.0, 100.0, size=(n, 2))
        super().__init__(SimpleNamespace(n=n))

    def row(self, u: int) -> np.ndarray:
        """Distances from ``u`` to every node (cached)."""
        if u not in self._rows:
            self._rows[u] = np.linalg.norm(self.coords - self.coords[u], axis=1)
        return self._rows[u]

    def __call__(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return float(self.row(u)[v])


def select_roles(
    topo: Topology,
    num_sources: int,
    num_processors: int,
    seed: int = 0,
    rng=None,
):
    """Pick source and processor nodes from the stub nodes of a topology.

    Mirrors the paper's setup: "Among these nodes, 100 nodes are chosen as
    the data stream sources, and 256 nodes are selected as the stream
    processors, and the remaining nodes act as the routers."  Sources and
    processors are disjoint and drawn from stub (edge) nodes, which is
    where end systems live in a transit-stub network.

    An explicit ``rng`` (``random.Random`` or ``numpy.random.Generator``)
    takes precedence over ``seed``, for end-to-end seeding of simulator
    runs.  Returns ``(sources, processors)`` as sorted lists of node ids.
    """
    from .transit_stub import _as_python_random

    rng = _as_python_random(seed, rng)
    pool = list(topo.stub_nodes) if topo.stub_nodes else list(range(topo.n))
    need = num_sources + num_processors
    if need > len(pool):
        raise ValueError(
            f"need {need} end systems but topology only has {len(pool)} stub nodes"
        )
    chosen = rng.sample(pool, need)
    sources = sorted(chosen[:num_sources])
    processors = sorted(chosen[num_sources:])
    return sources, processors
