"""The coordinator tree (Section 3.3).

Processors are clustered bottom-up by transfer latency: each level groups
the previous level's coordinators into close-by clusters of size between
``k`` and ``3k - 1`` (the root's cluster may be smaller), and the cluster
*median* -- the member with minimum total latency to the others -- becomes
the parent coordinator.  This mirrors the NICE-style scheme of Banerjee et
al. that the paper adapts.

The tree also supports incremental joins (a new processor attaches to the
closest leaf cluster, splitting it when it exceeds ``3k - 1``), which the
runtime uses when processors arrive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..topology.latency import LatencyOracle

__all__ = ["Cluster", "CoordinatorTree", "build_coordinator_tree"]

_cluster_ids = itertools.count()


@dataclass
class Cluster:
    """One cluster at one level of the tree."""

    cluster_id: int
    level: int
    #: topology node acting as this cluster's coordinator (the median)
    coordinator: int
    #: member coordinators (topology nodes) of the level below
    members: List[int]
    #: child clusters (empty at level 1, whose members are processors)
    children: List["Cluster"] = field(default_factory=list)

    def descendants(self) -> List[int]:
        """All processors covered by this cluster."""
        if not self.children:
            return list(self.members)
        out: List[int] = []
        for child in self.children:
            out.extend(child.descendants())
        return out

    def size(self) -> int:
        """Number of direct members (not descendants)."""
        return len(self.members)


@dataclass
class CoordinatorTree:
    """The cluster hierarchy of Section 3.3.

    ``root`` is the top cluster; ``k`` the paper's cluster-size parameter
    (leaves hold between ``k`` and ``3k - 1`` processors); ``oracle``
    answers inter-node latencies; ``processors`` lists every member.
    """

    root: Cluster
    k: int
    oracle: LatencyOracle
    processors: List[int]

    def leaf_clusters(self) -> List[Cluster]:
        """All childless clusters (the ones that own processors)."""
        out = []
        stack = [self.root]
        while stack:
            c = stack.pop()
            if not c.children:
                out.append(c)
            else:
                stack.extend(c.children)
        return out

    def height(self) -> int:
        """Number of coordinator levels (root's level; leaves are 1)."""
        return self.root.level

    def cluster_of_processor(self, node: int) -> Cluster:
        """The leaf cluster holding ``node``; raises ``KeyError`` if absent."""
        for leaf in self.leaf_clusters():
            if node in leaf.members:
                return leaf
        raise KeyError(f"processor {node} not in tree")

    def join(self, node: int) -> None:
        """Incrementally add a processor to the closest leaf cluster.

        If the cluster grows beyond ``3k - 1`` it is split in two around
        the two mutually-farthest members; medians are re-elected.
        """
        self.processors.append(node)
        leaves = self.leaf_clusters()
        best = min(leaves, key=lambda c: self.oracle(node, c.coordinator))
        best.members.append(node)
        best.coordinator = self.oracle.median(best.members)
        if best.size() >= 3 * self.k:
            self._split(best)

    def leave(self, node: int) -> None:
        """Remove a processor from the hierarchy (departure or crash).

        The inverse of :meth:`join`: the processor is stripped from its
        leaf cluster and the cluster median re-elected; a leaf emptied by
        the departure is pruned from its parent, and every internal
        cluster's member list (the coordinators of its children) is
        refreshed bottom-up with medians re-elected.  Leaves are allowed
        to shrink below ``k`` -- the paper merges undersized clusters
        lazily, and the runtime's adaptation rounds tolerate small
        clusters, so no eager merge is performed.
        """
        if node not in self.processors:
            raise KeyError(f"processor {node} not in tree")
        if len(self.processors) == 1:
            raise ValueError("cannot remove the last processor")
        self.processors.remove(node)
        leaf = self.cluster_of_processor(node)
        leaf.members.remove(node)
        if leaf.members:
            leaf.coordinator = self.oracle.median(leaf.members)
        else:
            parent = self._parent_of(leaf)
            # leaf cannot be the root here: other processors remain, so
            # they live in sibling leaves under some parent
            parent.children.remove(leaf)
        self._refresh_internal(self.root)
        # a root left with a single child is a pure pass-through level:
        # collapse it so the hierarchy height reflects the real fan-out
        while len(self.root.children) == 1:
            self.root = self.root.children[0]

    def _refresh_internal(self, cluster: Cluster) -> None:
        """Recompute internal member lists/medians after a mutation."""
        for child in cluster.children:
            self._refresh_internal(child)
        if cluster.children:
            cluster.members = [c.coordinator for c in cluster.children]
            cluster.coordinator = self.oracle.median(cluster.members)

    def _split(self, cluster: Cluster) -> None:
        members = cluster.members
        # seeds: the two farthest-apart members
        seed_a, seed_b, far = members[0], members[1], -1.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                d = self.oracle(members[i], members[j])
                if d > far:
                    far = d
                    seed_a, seed_b = members[i], members[j]
        part_a, part_b = [seed_a], [seed_b]
        for m in members:
            if m in (seed_a, seed_b):
                continue
            if self.oracle(m, seed_a) <= self.oracle(m, seed_b):
                part_a.append(m)
            else:
                part_b.append(m)
        # rebalance so both halves have at least k members
        for src, dst in ((part_a, part_b), (part_b, part_a)):
            while len(dst) < self.k and len(src) > self.k:
                moved = min(src, key=lambda m: self.oracle(m, dst[0]))
                src.remove(moved)
                dst.append(moved)
        cluster.members = part_a
        cluster.coordinator = self.oracle.median(part_a)
        sibling = Cluster(
            cluster_id=next(_cluster_ids),
            level=cluster.level,
            coordinator=self.oracle.median(part_b),
            members=part_b,
        )
        parent = self._parent_of(cluster)
        if parent is None:
            # cluster is the root: grow the tree by one level
            new_root = Cluster(
                cluster_id=next(_cluster_ids),
                level=cluster.level + 1,
                coordinator=0,
                members=[],
                children=[cluster, sibling],
            )
            new_root.members = [cluster.coordinator, sibling.coordinator]
            new_root.coordinator = self.oracle.median(new_root.members)
            self.root = new_root
        else:
            parent.children.append(sibling)
            parent.members = [c.coordinator for c in parent.children]
            parent.coordinator = self.oracle.median(parent.members)

    def _parent_of(self, cluster: Cluster) -> Optional[Cluster]:
        stack = [self.root]
        while stack:
            c = stack.pop()
            if cluster in c.children:
                return c
            stack.extend(c.children)
        return None


def _cluster_members(
    members: List[int], k: int, oracle: LatencyOracle
) -> List[List[int]]:
    """Greedy latency-based clustering into groups of size in [k, 3k-1].

    Repeatedly seed a cluster with the unassigned node that is farthest
    from everything already clustered, then pull in its k-1 nearest
    unassigned nodes.  The final remainder (< k nodes) merges into the
    last cluster, which stays below the 3k-1 bound because we stop seeding
    when fewer than 2k nodes remain.
    """
    if len(members) <= 1:
        return [list(members)]
    unassigned = sorted(members)
    clusters: List[List[int]] = []
    while len(unassigned) >= 2 * k:
        seed = unassigned[0]
        rest = sorted(unassigned[1:], key=lambda m: (oracle(seed, m), m))
        group = [seed] + rest[: k - 1]
        for m in group:
            unassigned.remove(m)
        clusters.append(group)
    if unassigned:
        clusters.append(unassigned)
    return clusters


def build_coordinator_tree(
    processors: Sequence[int], oracle: LatencyOracle, k: int = 4
) -> CoordinatorTree:
    """Build the full tree bottom-up from a static processor set."""
    if k < 2:
        raise ValueError("cluster size parameter k must be >= 2")
    processors = list(processors)
    if not processors:
        raise ValueError("cannot build a tree without processors")

    level = 1
    current: List[Cluster] = []
    for group in _cluster_members(list(processors), k, oracle):
        current.append(
            Cluster(
                cluster_id=next(_cluster_ids),
                level=level,
                coordinator=oracle.median(group),
                members=group,
            )
        )

    while len(current) > 1:
        level += 1
        coords = [c.coordinator for c in current]
        groups = _cluster_members(coords, k, oracle)
        nxt: List[Cluster] = []
        for group in groups:
            children = [c for c in current if c.coordinator in group]
            nxt.append(
                Cluster(
                    cluster_id=next(_cluster_ids),
                    level=level,
                    coordinator=oracle.median(group),
                    members=list(group),
                    children=children,
                )
            )
        current = nxt

    root = current[0]
    if root.children == [] and len(processors) > 0 and root.level == 1:
        # single-leaf tree: wrap in a root so the recursion below is uniform
        pass
    return CoordinatorTree(root=root, k=k, oracle=oracle, processors=processors)
