"""The optimizer's cost kernels as plain Python loops.

The definitions ``src/`` vectorises: the Weighted Edge Cut of Eqn 3.2
(``QueryGraph.wec`` reduces it over the edge arrays), the attach cost of
one vertex at one target and the vertex positions it reads
(``CostWorkspace.attach_costs`` evaluates every target at once), and Hu &
Blake diffusion as a generic least-squares solve (``diffusion_solution``
uses the closed form for the complete graph).  Every latency is one
scalar call of the network graph's oracle, ``ng.oracle(a, b)``.
"""

import itertools
from typing import Dict, Hashable

import numpy as np

from repro.core.diffusion import Flows, _surplus
from repro.core.graphs import Mapping, NetworkGraph, QueryGraph, VertexId


def wec(qg: QueryGraph, mapping: Mapping, ng: NetworkGraph) -> float:
    """Weighted Edge Cut of a mapping, each undirected edge once."""
    total = 0.0
    pos = positions(qg, mapping, ng)
    for a, b, w in qg.edges():
        total += w * ng.oracle(pos[a], pos[b])
    return total


def positions(
    qg: QueryGraph, mapping: Mapping, ng: NetworkGraph
) -> Dict[VertexId, int]:
    """Topology positions of all vertices under a mapping."""
    return {
        vid: qg.position(vid, mapping, ng)
        for vid in itertools.chain(qg.qverts, qg.nverts)
    }


def attach_cost(
    qg: QueryGraph,
    vid: VertexId,
    target: VertexId,
    pos: Dict[VertexId, int],
    ng: NetworkGraph,
) -> float:
    """Cost of ``vid`` at ``target``: its placed neighbours' edge weights
    times their latency from the target's site."""
    site = ng.site(target)
    total = 0.0
    for nbr, w in qg.neighbors(vid).items():
        p = pos.get(nbr)
        if p is not None:
            total += w * ng.oracle(site, p)
    return total


def diffusion_solution(
    loads: Dict[Hashable, float],
    targets: Dict[Hashable, float],
    floor: float = 0.0,
) -> Flows:
    """Minimal-norm load flows from an explicit ``K_n`` Laplacian.

    ``lstsq`` picks the minimum-norm solution of the singular system
    (nullspace = constants; ``b`` sums to zero so one exists); flows are
    extracted with a Python double loop.
    """
    n = len(loads)
    if n <= 1:
        return {}
    nodes, b = _surplus(loads, targets)

    laplacian = n * np.eye(n) - np.ones((n, n))
    x, *_ = np.linalg.lstsq(laplacian, b, rcond=None)

    threshold = max(floor, 1e-12)
    flows: Flows = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            f = x[i] - x[j]
            if f > threshold:
                flows[(nodes[i], nodes[j])] = f
    return flows
