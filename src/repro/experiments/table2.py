"""Table 2: the worked graph-mapping example of Section 3.1.

Reconstructs the Figure 5 instance -- two data sources, two processors,
four queries, with Q1's requested data containing Q3's (hence an overlap
edge between Q1 and Q3) -- and evaluates the WEC of the paper's three
mapping schemes:

* Scheme 1: every query at its local processor;
* Scheme 2: optimal if the Q1/Q3 sharing is ignored;
* Scheme 3: the sharing-aware optimum (smallest WEC).

The exact edge latencies of Figure 5 are not fully legible in the paper,
so the instance here is rebuilt from the described structure; the *claim*
the table supports -- WEC(scheme 3) < WEC(scheme 2) < WEC(scheme 1) -- is
what the bench asserts and reports.  The instance is also exported for
the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.graphs import (
    NetVertex,
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
)
from ..core.mapping import map_graph
from ..topology.latency import LatencyOracle
from ..topology.transit_stub import Topology

__all__ = ["Table2Instance", "build_instance", "run"]

# topology node ids for the example
S1, S2, N1, N2 = 0, 1, 2, 3

#: the links of the example network (Figure 5(a)-like): each processor
#: is close to one source and far from the other.  Every pair's shortest
#: path is its direct link (S1-S2 ties at 6.0 through either processor),
#: so the oracle's latency of a pair is the link's.
_LINKS = (
    (S1, N1, 1.0),
    (S1, N2, 5.0),
    (S2, N1, 5.0),
    (S2, N2, 1.0),
    (N1, N2, 5.0),
    (S1, S2, 6.0),
)


def _oracle() -> LatencyOracle:
    topo = Topology(n=4, adjacency=[[] for _ in range(4)])
    for u, v, latency in _LINKS:
        topo.add_edge(u, v, latency)
    return LatencyOracle(topo)


@dataclass
class Table2Instance:
    ng: NetworkGraph
    qg: QueryGraph
    schemes: Dict[str, Dict]  # scheme name -> mapping


def build_instance() -> Table2Instance:
    """The Figure 5 query/network graphs."""
    ng = NetworkGraph(
        [
            NetVertex(vid="n1", site=N1, capability=1.0, covers=frozenset([N1])),
            NetVertex(vid="n2", site=N2, capability=1.0, covers=frozenset([N2])),
        ],
        _oracle(),
    )

    qg = QueryGraph()
    # Q1 requests 10 bit/s from s1, result 1 bit/s to its proxy n1
    # Q2 requests 10 bit/s from s2, result 1 bit/s to n1
    # Q3 requests  5 bit/s from s1 (contained in Q1's data!) and sends a
    #    *heavy* 10 bit/s result to its proxy n2 -- so that, ignoring the
    #    sharing edge, n2 is Q3's best host (scheme 2), while the sharing
    #    with Q1 flips the optimum to n1 (scheme 3)
    # Q4 requests  5 bit/s from s2, result 1 bit/s to n2
    specs = [
        ("Q1", {S1: 10.0}, {N1: 1.0}),
        ("Q2", {S2: 10.0}, {N1: 1.0}),
        ("Q3", {S1: 5.0}, {N2: 10.0}),
        ("Q4", {S2: 5.0}, {N2: 1.0}),
    ]
    for name, src, prox in specs:
        qg.add_qvertex(
            QVertex(
                vid=name,
                weight=0.1,
                mask=0,
                source_rates=src,
                proxy_rates=prox,
                members=(),
            )
        )
    for node in (S1, S2, N1, N2):
        clu = ng.covering_vertex(node)
        qg.add_nvertex(NVertex(vid=("n", node), node=node, clu=clu))
    for name, src, prox in specs:
        for node, rate in src.items():
            qg.add_edge(name, ("n", node), rate)
        for node, rate in prox.items():
            qg.add_edge(name, ("n", node), rate)
    # the sharing edge: Q1's requested data contains Q3's, so the edge
    # weight equals Q3's source edge weight (Section 3.1.2)
    qg.add_edge("Q1", "Q3", 5.0)

    pinned = qg.pinned_mapping(ng)
    schemes = {
        "scheme1": {**pinned, "Q1": "n1", "Q2": "n1", "Q3": "n2", "Q4": "n2"},
        "scheme2": {**pinned, "Q1": "n1", "Q4": "n1", "Q2": "n2", "Q3": "n2"},
        "scheme3": {**pinned, "Q1": "n1", "Q3": "n1", "Q2": "n2", "Q4": "n2"},
    }
    return Table2Instance(ng=ng, qg=qg, schemes=schemes)


def run() -> Dict[str, float]:
    """WEC of the three schemes plus what Algorithm 2 finds."""
    inst = build_instance()
    out = {
        name: inst.qg.wec(mapping, inst.ng)
        for name, mapping in inst.schemes.items()
    }
    result = map_graph(inst.qg, inst.ng)
    out["algorithm2"] = result.wec
    # with the paper's alpha = 0.1 the 2+2 load split is tight, so the
    # one-vertex-at-a-time refinement cannot pass through the infeasible
    # 3+1 intermediate state; a relaxed alpha shows the sharing-aware
    # optimum is exactly scheme 3
    relaxed = map_graph(inst.qg, inst.ng, alpha=1.5)
    out["algorithm2_relaxed"] = relaxed.wec
    return out


def format_results(results: Dict[str, float]) -> str:
    lines = ["Table 2: mapping schemes on the Figure 5 example (WEC)"]
    for name in (
        "scheme1", "scheme2", "scheme3", "algorithm2", "algorithm2_relaxed"
    ):
        lines.append(f"  {name:<19} WEC = {results[name]:.1f}")
    ordered = (
        results["scheme3"] < results["scheme2"] < results["scheme1"]
    )
    lines.append(f"  scheme3 < scheme2 < scheme1: {ordered}")
    lines.append(
        "  Algorithm 2 (relaxed alpha) reaches or beats scheme 3:"
        f" {results['algorithm2_relaxed'] <= results['scheme3'] + 1e-9}"
    )
    return "\n".join(lines)
