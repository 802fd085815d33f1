"""The dict model of a query vertex's rate maps.

``QVertex.source_rates`` / ``proxy_rates`` were insertion-ordered
``{node: rate}`` dicts, built by the functions below; production builds
:class:`~repro.query.interest.RateMap` arrays instead.  Key order and
every float are part of the definition -- the q-n edges of a query graph
are installed in rate-map order, and every re-aggregation is a float sum
-- so production must list the same items, in the same order and to the
bit, after every operation (``tests/test_resident_state.py``).

:class:`Vertex` carries the model maps through the optimizer's three
aggregations: a merge (``coarsening.merge_qvertices``), a strip
(``coordinator._strip_member``) and a rate refresh
(``coordinator._refresh_vertex``).
"""

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.query.interest import SubstreamSpace, index_array

RateDict = Dict[int, float]


def rates_by_source(space: SubstreamSpace, mask: int) -> RateDict:
    """Per-source rates of ``mask``: ascending sources, each summed over
    the mask's substreams in ascending order."""
    idx = index_array(mask)
    if idx.size == 0:
        return {}
    srcs = space.source_of[idx]
    totals = np.zeros(int(srcs.max()) + 1)
    np.add.at(totals, srcs, space.rates[idx])
    return {int(s): float(totals[s]) for s in np.nonzero(totals)[0]}


def merged(a: RateDict, b: RateDict) -> RateDict:
    """``a`` updated by ``b``: ``a``'s nodes first, sums for shared ones."""
    out = dict(a)
    for node, rate in b.items():
        out[node] = out.get(node, 0.0) + rate
    return out


def summed(maps: Iterable[RateDict]) -> RateDict:
    """Left fold of ``maps`` from an empty dict."""
    out: RateDict = {}
    for m in maps:
        for node, rate in m.items():
            out[node] = out.get(node, 0.0) + rate
    return out


class Vertex:
    """A q-vertex as far as its rate maps go."""

    def __init__(self, vid, members: Tuple[int, ...], mask: int,
                 source: RateDict, proxy: RateDict,
                 children: Tuple["Vertex", ...] = ()):
        self.vid = vid
        self.members = members
        self.mask = mask
        self.source = source
        self.proxy = proxy
        self.children = children


def atom(q, space: SubstreamSpace) -> Vertex:
    """``qvertex_from_query``'s maps."""
    return Vertex(("q", q.query_id), (q.query_id,), q.mask,
                  rates_by_source(space, q.mask), {q.proxy: q.result_rate})


def merge(u: Vertex, v: Vertex, vid) -> Vertex:
    """``merge_qvertices``'s maps."""
    return Vertex(vid, u.members + v.members, u.mask | v.mask,
                  merged(u.source, v.source), merged(u.proxy, v.proxy),
                  (u, v))


def strip(v: Vertex, query_id: int) -> None:
    """``_strip_member``: drop one member, re-aggregate from the
    surviving children."""
    keep: List[Vertex] = []
    for child in v.children:
        if query_id in child.members:
            if child.members == (query_id,):
                continue
            strip(child, query_id)
        keep.append(child)
    v.children = tuple(keep)
    v.members = tuple(m for c in keep for m in c.members)
    mask = 0
    for c in keep:
        mask |= c.mask
    v.mask = mask
    v.source = summed(c.source for c in keep)
    v.proxy = summed(c.proxy for c in keep)


def refresh(v: Vertex, space: SubstreamSpace,
            memo: Optional[Dict] = None) -> None:
    """``_refresh_vertex``'s source maps after a rate change: re-derived
    at the atoms, re-summed above them (each vid once)."""
    memo = {} if memo is None else memo
    if v.vid in memo:
        return
    memo[v.vid] = None
    if v.children:
        for child in v.children:
            refresh(child, space, memo)
        v.source = summed(c.source for c in v.children)
    else:
        v.source = rates_by_source(space, v.mask)
