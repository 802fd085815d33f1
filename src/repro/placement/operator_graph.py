"""Global shared operator graph (the two-phase baseline, phase 1).

The operator-placement comparator of Section 4.2 first collects *all*
queries at a central site and builds one global operator graph with
NiagaraCQ-style sharing ([12]): identical selections over the same stream
are evaluated once, and each query's join consumes the shared filtered
streams.  Vertices carry output-rate estimates so phase 2 (network-aware
placement, [3]) can weigh edges by rate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "OpVertex",
    "OperatorGraph",
    "PrototypeQuery",
    "build_operator_graph",
]

_op_ids = itertools.count()


@dataclass
class PrototypeQuery:
    """A prototype-study query (Section 4.2's random query generator).

    ``inputs`` are stream names; ``selections`` are hashable predicate
    descriptors (stream, attr, op, value); joins are on timestamps.
    """

    query_id: int
    proxy: int
    inputs: Tuple[str, ...]
    selections: Tuple[Tuple[str, str, str, float], ...]
    #: per-input rate (bytes/s)
    input_rates: Dict[str, float]
    #: estimated selectivity of each selection predicate
    selectivities: Dict[Tuple[str, str, str, float], float]
    #: estimated join output rate (bytes/s)
    output_rate: float = 1.0


@dataclass
class OpVertex:
    """One operator in the global graph."""

    op_id: int
    kind: str  # "source" | "select" | "join" | "sink"
    #: stream or predicate descriptor for display/grouping
    label: str
    #: fixed topology node for sources and sinks, else None
    pinned: Optional[int] = None
    #: output rate estimate (bytes/s)
    out_rate: float = 0.0
    #: queries this operator serves (sharing!)
    queries: List[int] = field(default_factory=list)


class OperatorGraph:
    """Directed operator graph with rate-weighted edges."""

    def __init__(self):
        self.vertices: Dict[int, OpVertex] = {}
        #: (producer, consumer) -> rate
        self.edges: Dict[Tuple[int, int], float] = {}

    def add_vertex(self, v: OpVertex) -> int:
        self.vertices[v.op_id] = v
        return v.op_id

    def add_edge(self, producer: int, consumer: int, rate: float) -> None:
        key = (producer, consumer)
        self.edges[key] = max(self.edges.get(key, 0.0), rate)

    def neighbors(self, op_id: int) -> List[Tuple[int, float]]:
        out = []
        for (a, b), rate in self.edges.items():
            if a == op_id:
                out.append((b, rate))
            elif b == op_id:
                out.append((a, rate))
        return out

    def movable(self) -> List[int]:
        return [i for i, v in self.vertices.items() if v.pinned is None]


def _covers(outer: Tuple[str, str, str, float], inner: Tuple[str, str, str, float]) -> bool:
    """Predicate containment: every tuple passing ``inner`` passes ``outer``.

    Both predicates are on the same (stream, attr).  ``a > 5`` is covered
    by ``a > 3``; ``a < 5`` by ``a < 8``; mixed directions never cover.
    """
    _, _, op_o, val_o = outer
    _, _, op_i, val_i = inner
    if op_o in (">", ">=") and op_i in (">", ">="):
        if val_o < val_i:
            return True
        return val_o == val_i and (op_o == op_i or op_i == ">")
    if op_o in ("<", "<=") and op_i in ("<", "<="):
        if val_o > val_i:
            return True
        return val_o == val_i and (op_o == op_i or op_i == "<")
    return False


def build_operator_graph(
    queries: Sequence[PrototypeQuery],
    stream_sources: Dict[str, int],
    stream_rates: Dict[str, float],
) -> OperatorGraph:
    """Phase 1: the shared global operator graph (NiagaraCQ-style, [12]).

    * one source vertex per referenced stream (pinned to its source node);
    * one *shared* selection vertex per distinct (stream, predicate);
      queries with no selection on an input consume the source directly;
    * a new selection is stacked under the *tightest existing covering*
      selection on the same (stream, attribute), so covered predicates
      read the already-filtered stream instead of the raw source.  The
      covering search scans the existing selections -- the O(n^2) global
      graph generation the paper's Section 1.1 calls out as unscalable;
    * one join vertex per multi-input query (joins are query-private: the
      random join predicates rarely coincide, as in the paper's workload);
    * one sink vertex per query (pinned to the proxy).
    """
    g = OperatorGraph()
    source_vertex: Dict[str, int] = {}
    select_vertex: Dict[Tuple, int] = {}
    #: (stream, attr) -> list of predicate keys (for the covering scan)
    by_stream_attr: Dict[Tuple[str, str], List[Tuple]] = {}

    def source_for(stream: str) -> int:
        if stream not in source_vertex:
            vid = g.add_vertex(
                OpVertex(
                    op_id=next(_op_ids),
                    kind="source",
                    label=stream,
                    pinned=stream_sources[stream],
                    out_rate=stream_rates.get(stream, 1.0),
                )
            )
            source_vertex[stream] = vid
        return source_vertex[stream]

    for q in queries:
        upstream: Dict[str, Tuple[int, float]] = {}
        for stream in q.inputs:
            src = source_for(stream)
            rate = stream_rates.get(stream, 1.0)
            sels = [s for s in q.selections if s[0] == stream]
            if not sels:
                upstream[stream] = (src, rate)
                continue
            prev, prev_rate = src, rate
            for sel in sels:
                key = sel
                if key not in select_vertex:
                    # covering scan over all existing predicates on the
                    # same (stream, attribute): consume from the tightest
                    # covering selection instead of `prev` when that
                    # yields a lower input rate
                    feed, feed_rate = prev, prev_rate
                    for other in by_stream_attr.get((sel[0], sel[1]), []):
                        if _covers(other, sel):
                            other_rate = g.vertices[select_vertex[other]].out_rate
                            if other_rate < feed_rate:
                                feed = select_vertex[other]
                                feed_rate = other_rate
                    out_rate = min(
                        feed_rate, rate * q.selectivities.get(sel, 0.5)
                    )
                    vid = g.add_vertex(
                        OpVertex(
                            op_id=next(_op_ids),
                            kind="select",
                            label=f"sigma[{sel[1]}{sel[2]}{sel[3]}]@{stream}",
                            out_rate=out_rate,
                        )
                    )
                    select_vertex[key] = vid
                    by_stream_attr.setdefault((sel[0], sel[1]), []).append(key)
                    g.add_edge(feed, vid, feed_rate)
                vid = select_vertex[key]
                g.vertices[vid].queries.append(q.query_id)
                prev_rate = g.vertices[vid].out_rate
                prev = vid
            upstream[stream] = (prev, prev_rate)

        sink = g.add_vertex(
            OpVertex(
                op_id=next(_op_ids),
                kind="sink",
                label=f"user:{q.query_id}",
                pinned=q.proxy,
                queries=[q.query_id],
            )
        )
        if len(q.inputs) >= 2:
            join = g.add_vertex(
                OpVertex(
                    op_id=next(_op_ids),
                    kind="join",
                    label=f"join:{q.query_id}",
                    out_rate=q.output_rate,
                    queries=[q.query_id],
                )
            )
            for stream, (up, rate) in upstream.items():
                g.add_edge(up, join, rate)
            g.add_edge(join, sink, q.output_rate)
        else:
            (up, rate) = next(iter(upstream.values()))
            g.add_edge(up, sink, rate)
    return g
