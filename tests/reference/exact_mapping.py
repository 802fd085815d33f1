"""The exact optimum of the mapping problem on toy instances, by brute force.

Every quality figure in the repo compares heuristics with each other
(centralized Algorithm 2, its greedy half, COSMOS); none is an optimum
or a bound.  :func:`exact_mapping` is one: it enumerates all P^Q
assignments of a query graph's q-vertices to the network graph's
targets (Q <= 8 and P <= 4, so at most 65,536), keeps those within
Eqn 3.1's rows ``qg.capacity_limits(ng, alpha)`` and returns the least
Weighted Edge Cut (Eqn 3.2) among them.

Both are evaluated the way ``QueryGraph`` evaluates one mapping, only
for many mappings at once: loads are added in q-vertex order from
``0.0`` and checked with the ``1e-9`` slack of
``satisfies_load_constraint``; an edge costs its weight times the
latency in row = its first endpoint's site (``0`` on equal sites), and
a mapping's edges are reduced in edge order along one contiguous row,
as ``QueryGraph.wec`` reduces them.  The WEC returned is
``qg.wec`` of the best mapping itself.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.graphs import DEFAULT_ALPHA, Mapping, NetworkGraph, QueryGraph

#: assignments evaluated per vectorised step (bounds the memory of one)
_CHUNK = 4096


@dataclass
class ExactResult:
    """The optimum over every Eqn 3.1-feasible assignment."""

    #: whether any assignment is within every load ceiling
    feasible: bool
    #: least WEC of a feasible assignment (``inf`` when there is none)
    wec: float
    #: an assignment attaining it (q-vertices only; ``None`` when none)
    mapping: Optional[Mapping]


def exact_mapping(
    qg: QueryGraph, ng: NetworkGraph, alpha: float = DEFAULT_ALPHA
) -> ExactResult:
    """Least-WEC Eqn 3.1-feasible mapping of ``qg`` onto ``ng``, exactly."""
    qids = list(qg.qverts)
    targets = ng.ids()
    q, p = len(qids), len(targets)
    if q > 8 or p > 4:
        raise ValueError(f"{q} q-vertices on {p} targets: brute force "
                         "serves at most 8 on 4")
    weights = [qg.qverts[vid].weight for vid in qids]
    ceilings = qg.capacity_limits(ng, alpha)
    limits = np.array([ceilings[t] for t in targets]) + 1e-9
    sites = np.array([ng.site(t) for t in targets])
    q_slots = np.array([qg.slot(vid) for vid in qids], dtype=np.int64)
    # n-vertices sit where any mapping puts them; q slots are filled in
    fixed = qg.positions(lambda vid: None, ng)
    heads, tails, w = qg.edge_arrays()
    # latency in row = head site, column = tail site, over every site
    # either end can take
    known = np.union1d(sites, fixed[fixed >= 0])
    dist = np.array([np.asarray(ng.oracle.row(int(s)))[known] for s in known])
    np.fill_diagonal(dist, 0.0)

    best = (np.inf, -1)
    feasible = False
    for lo in range(0, p ** q, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, p ** q))
        # assignment ``code``: q-vertex i on target digit i of code, base p
        choice = codes[:, None] // p ** np.arange(q) % p
        loads = np.zeros((codes.size, p))
        rows = np.arange(codes.size)
        for i, weight in enumerate(weights):
            loads[rows, choice[:, i]] += weight
        ok = (loads <= limits).all(axis=1)
        if not ok.any():
            continue
        feasible = True
        pos = np.repeat(fixed[None, :], int(ok.sum()), axis=0)
        pos[:, q_slots] = sites[choice[ok]]
        pu = np.searchsorted(known, pos[:, heads])
        pv = np.searchsorted(known, pos[:, tails])
        wec = np.add.reduce(w * dist[pu, pv], axis=1)
        k = int(np.argmin(wec))
        if wec[k] < best[0]:
            best = (wec[k], int(codes[ok][k]))
    if not feasible:
        return ExactResult(False, float("inf"), None)
    code = best[1]
    mapping = {vid: targets[code // p ** i % p] for i, vid in enumerate(qids)}
    return ExactResult(True, qg.wec(mapping, ng), mapping)
