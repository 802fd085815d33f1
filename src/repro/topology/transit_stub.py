"""Transit-stub random topology generation.

The paper generates its simulation network with the Transit-Stub model of
the GT-ITM topology generator (4096 nodes).  GT-ITM itself is a C tool that
is not available here, so this module implements the same structural model:

* a small number of *transit domains* (backbone ASes) whose routers are
  densely connected with high-latency long-haul links;
* each transit router attaches several *stub domains* (edge networks) whose
  routers are connected with low-latency links;
* extra random intra-domain edges control redundancy.

Latencies are drawn per link class (intra-stub, stub-transit,
intra-transit, transit-transit), which gives the hierarchical latency
structure the paper's evaluation relies on: nodes inside one stub are close,
nodes in different transit domains are far.

The output is a plain :class:`Topology` value object: adjacency lists with
symmetric edge latencies.  All randomness flows through a caller-provided
seed so experiments are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "TransitStubParams",
    "Topology",
    "generate_transit_stub",
]


@dataclass(frozen=True)
class TransitStubParams:
    """Parameters of the transit-stub model.

    Total node count is roughly
    ``transit_domains * transit_nodes * (1 + stubs_per_transit_node *
    stub_nodes)``.  The defaults give a small topology suitable for unit
    tests; :func:`paper_scale` returns the 4096-node configuration used in
    the paper's simulation study.
    """

    transit_domains: int = 2
    transit_nodes: int = 4
    stubs_per_transit_node: int = 3
    stub_nodes: int = 4
    #: probability of an extra random edge inside a stub domain
    stub_extra_edge_prob: float = 0.2
    #: probability of an edge between two routers of the same transit domain
    transit_edge_prob: float = 0.6
    #: latency ranges (milliseconds) per link class
    intra_stub_latency: Tuple[float, float] = (1.0, 5.0)
    stub_transit_latency: Tuple[float, float] = (5.0, 20.0)
    intra_transit_latency: Tuple[float, float] = (20.0, 60.0)
    transit_transit_latency: Tuple[float, float] = (60.0, 150.0)

    def node_count(self) -> int:
        """Number of nodes the generator will produce for these params."""
        transit = self.transit_domains * self.transit_nodes
        stubs = transit * self.stubs_per_transit_node * self.stub_nodes
        return transit + stubs

    @staticmethod
    def paper_scale() -> "TransitStubParams":
        """The 4096-node configuration matching the paper's simulation.

        4 transit domains x 4 transit routers x 16 stubs x 16 stub routers
        = 16 transit + 4080 stub ~= 4096 nodes.
        """
        return TransitStubParams(
            transit_domains=4,
            transit_nodes=4,
            stubs_per_transit_node=16,
            stub_nodes=16,
        )


@dataclass
class Topology:
    """An undirected weighted network topology.

    Attributes
    ----------
    n:
        Number of nodes, identified by the integers ``0..n-1``.
    adjacency:
        ``adjacency[u]`` is a list of ``(v, latency_ms)`` pairs.  Symmetric.
    transit_nodes / stub_nodes:
        Node-id partitions by role.
    stub_of:
        For stub nodes, the id of the stub domain they belong to (useful for
        locality-aware processor selection).
    """

    n: int
    adjacency: List[List[Tuple[int, float]]]
    transit_nodes: List[int] = field(default_factory=list)
    stub_nodes: List[int] = field(default_factory=list)
    stub_of: Dict[int, int] = field(default_factory=dict)

    def add_edge(self, u: int, v: int, latency: float) -> None:
        """Insert a symmetric edge; duplicate edges keep the smaller latency."""
        if u == v:
            raise ValueError("self loops are not allowed")
        for i, (w, lat) in enumerate(self.adjacency[u]):
            if w == v:
                if latency < lat:
                    self.adjacency[u][i] = (v, latency)
                    for j, (x, _) in enumerate(self.adjacency[v]):
                        if x == u:
                            self.adjacency[v][j] = (u, latency)
                            break
                return
        self.adjacency[u].append((v, latency))
        self.adjacency[v].append((u, latency))

    def has_edge(self, u: int, v: int) -> bool:
        return any(w == v for w, _ in self.adjacency[u])

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def neighbors(self, u: int) -> Sequence[Tuple[int, float]]:
        return self.adjacency[u]


def _uniform(rng: random.Random, bounds: Tuple[float, float]) -> float:
    lo, hi = bounds
    return rng.uniform(lo, hi)


def _as_python_random(seed: int, rng) -> random.Random:
    """Normalise ``(seed, rng)`` to one :class:`random.Random`.

    ``rng`` may be a :class:`random.Random` (used directly) or a
    :class:`numpy.random.Generator` (a stream is derived from one draw),
    so a single seeded generator can reproducibly drive topology,
    workload and tuple arrivals end to end.  ``None`` keeps the legacy
    ``seed`` behaviour bit-for-bit.
    """
    if rng is None:
        return random.Random(seed)
    if isinstance(rng, random.Random):
        return rng
    return random.Random(int(rng.integers(0, 2 ** 63)))


def generate_transit_stub(
    params: TransitStubParams = TransitStubParams(), seed: int = 0, rng=None
) -> Topology:
    """Generate a connected transit-stub topology.

    The construction guarantees connectivity:

    * transit routers of one domain are chained in a ring plus random
      chords (``transit_edge_prob``);
    * transit domains are connected pairwise (one inter-domain link per
      domain pair);
    * each stub domain is a chain plus random chords, and its first router
      links to its parent transit router.

    An explicit ``rng`` (``random.Random`` or ``numpy.random.Generator``)
    takes precedence over ``seed``; see :func:`_as_python_random`.
    """
    rng = _as_python_random(seed, rng)
    n = params.node_count()
    topo = Topology(n=n, adjacency=[[] for _ in range(n)])

    next_id = 0
    domains: List[List[int]] = []
    for _ in range(params.transit_domains):
        domain = list(range(next_id, next_id + params.transit_nodes))
        next_id += params.transit_nodes
        domains.append(domain)
        topo.transit_nodes.extend(domain)
        # ring for connectivity
        for i, u in enumerate(domain):
            v = domain[(i + 1) % len(domain)]
            if u != v and not topo.has_edge(u, v):
                topo.add_edge(u, v, _uniform(rng, params.intra_transit_latency))
        # random chords
        for i in range(len(domain)):
            for j in range(i + 2, len(domain)):
                if rng.random() < params.transit_edge_prob:
                    topo.add_edge(
                        domain[i], domain[j],
                        _uniform(rng, params.intra_transit_latency),
                    )

    # inter-domain links: connect every pair of transit domains once
    for i in range(len(domains)):
        for j in range(i + 1, len(domains)):
            u = rng.choice(domains[i])
            v = rng.choice(domains[j])
            topo.add_edge(u, v, _uniform(rng, params.transit_transit_latency))

    # stub domains
    stub_id = 0
    for domain in domains:
        for transit_router in domain:
            for _ in range(params.stubs_per_transit_node):
                stub = list(range(next_id, next_id + params.stub_nodes))
                next_id += params.stub_nodes
                topo.stub_nodes.extend(stub)
                for u in stub:
                    topo.stub_of[u] = stub_id
                # chain for connectivity
                for a, b in zip(stub, stub[1:]):
                    topo.add_edge(a, b, _uniform(rng, params.intra_stub_latency))
                # random chords
                for i in range(len(stub)):
                    for j in range(i + 2, len(stub)):
                        if rng.random() < params.stub_extra_edge_prob:
                            topo.add_edge(
                                stub[i], stub[j],
                                _uniform(rng, params.intra_stub_latency),
                            )
                # uplink to the transit router
                topo.add_edge(
                    stub[0], transit_router,
                    _uniform(rng, params.stub_transit_latency),
                )
                stub_id += 1

    return topo
