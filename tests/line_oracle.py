"""A latency oracle for hand-built network graphs in tests.

:func:`line_network` puts a :class:`~repro.topology.latency.LatencyOracle`
over a path topology ``0 - 1 - ... - (n - 1)`` with unit links, so the
latency between nodes ``a`` and ``b`` is ``|a - b|`` exactly (Dijkstra
sums whole numbers of 1.0).
"""

from repro.core.graphs import NetworkGraph
from repro.topology.latency import LatencyOracle
from repro.topology.transit_stub import Topology

#: node ids ``0..LINE_NODES - 1``: every site and source the suites place
LINE_NODES = 128


def line_oracle(n: int = LINE_NODES) -> LatencyOracle:
    """Oracle with ``oracle(a, b) == abs(a - b)`` for ``a, b < n``."""
    topo = Topology(n=n, adjacency=[[] for _ in range(n)])
    for u in range(n - 1):
        topo.add_edge(u, u + 1, 1.0)
    return LatencyOracle(topo)


def line_network(vertices) -> NetworkGraph:
    """A network graph over ``vertices`` whose latencies are ``|a - b|``."""
    return NetworkGraph(vertices, line_oracle())
