"""Overlay construction over a physical topology.

The pub/sub broker network in COSMOS is an application-level overlay: a
subset of nodes (the processors plus the sources) connected by logical
links whose cost is the underlying shortest-path latency.  Brokers form an
acyclic overlay (a tree), which is the standard Siena deployment and what
makes reverse-path subscription forwarding well defined.

:func:`minimum_latency_spanning_tree` builds a Prim MST over the latency
metric closure of the selected nodes, which is a good approximation of the
latency-efficient overlays real systems build.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .latency import LatencyOracle

__all__ = ["OverlayTree", "minimum_latency_spanning_tree"]


@dataclass
class OverlayTree:
    """An undirected tree over a set of overlay nodes.

    ``links[u]`` maps neighbour -> latency.  The tree is the unit the
    pub/sub layer routes on; :meth:`path` answers routing questions, and
    the network built over the tree
    (:meth:`~repro.pubsub.network.PubSubNetwork.path_latency`) answers
    path latencies.
    """

    nodes: List[int]
    links: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def add_link(self, u: int, v: int, latency: float) -> None:
        self.links.setdefault(u, {})[v] = latency
        self.links.setdefault(v, {})[u] = latency

    def neighbors(self, u: int) -> Dict[int, float]:
        return self.links.get(u, {})

    def degree(self, u: int) -> int:
        return len(self.links.get(u, {}))

    def edges(self) -> List[Tuple[int, int, float]]:
        out = []
        for u, nbrs in self.links.items():
            for v, lat in nbrs.items():
                if u < v:
                    out.append((u, v, lat))
        return out

    def path(self, src: int, dst: int) -> List[int]:
        """The unique tree path from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        parent: Dict[int, int] = {src: src}
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                break
            for v in self.links.get(u, {}):
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        if dst not in parent:
            raise ValueError(f"{dst} not reachable from {src} in overlay tree")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def is_tree(self) -> bool:
        """Check acyclicity + connectivity over ``nodes``."""
        if not self.nodes:
            return True
        edge_count = len(self.edges())
        if edge_count != len(self.nodes) - 1:
            return False
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            u = stack.pop()
            for v in self.links.get(u, {}):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.nodes)


def minimum_latency_spanning_tree(
    members: Sequence[int], oracle: LatencyOracle
) -> OverlayTree:
    """Prim's MST over the latency metric closure of ``members``.

    Runs in O(m^2) time with a heap over the m selected members, which is
    fine for the few hundred overlay nodes the experiments use.
    """
    members = list(dict.fromkeys(members))  # dedupe, keep order
    if not members:
        return OverlayTree(nodes=[])
    tree = OverlayTree(nodes=list(members))
    if len(members) == 1:
        return tree

    in_tree = {members[0]}
    # (latency, u_in_tree, v_out)
    heap: List[Tuple[float, int, int]] = []
    for v in members[1:]:
        heapq.heappush(heap, (oracle(members[0], v), members[0], v))
    while len(in_tree) < len(members):
        lat, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        tree.add_link(u, v, lat)
        in_tree.add(v)
        for w in members:
            if w not in in_tree:
                heapq.heappush(heap, (oracle(v, w), v, w))
    return tree
