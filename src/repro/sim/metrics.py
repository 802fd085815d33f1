"""Evaluation metrics (Section 4).

The paper reports two system-level metrics:

* **weighted communication cost** -- per-unit-time traffic x latency.
  Every substream travels once from its source to each *distinct*
  processor hosting at least one interested query (co-location is the
  only sharing), and every query's result stream travels from its host to
  its proxy, each over the shortest topology path whose latency the
  :class:`~repro.topology.latency.LatencyOracle` answers.  On a large WAN
  the paths from a source to scattered processors share few links, so
  this matches the paper's link-level metric.  Result delivery from a
  proxy to its local user is identical under every scheme and is
  excluded, as in the paper.
* **load standard deviation** -- stddev of per-processor query load
  (normalised by capability), the load-balance indicator of Figures 7-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..query.interest import SubstreamSpace, iter_bits
from ..query.workload import QuerySpec
from ..topology.latency import LatencyOracle

__all__ = ["CostModel", "load_stddev"]


@dataclass
class CostModel:
    """Measures the weighted communication cost of a placement."""

    space: SubstreamSpace
    oracle: LatencyOracle

    def weighted_cost(
        self, placement: Dict[int, int], queries: Sequence[QuerySpec]
    ) -> float:
        """Source delivery cost + result delivery cost of a placement."""
        interested: Dict[int, set] = {}
        for q in queries:
            host = placement[q.query_id]
            for sid in iter_bits(q.mask):
                interested.setdefault(sid, set()).add(host)

        total = self._source_cost(interested)
        for q in queries:
            host = placement[q.query_id]
            if host != q.proxy:
                total += q.result_rate * self.oracle(host, q.proxy)
        return total

    def _source_cost(self, interested: Dict[int, set]) -> float:
        """Source-delivery cost, one oracle row gather per source."""
        # group substreams by source so each row is fetched once
        by_source: Dict[int, List[int]] = {}
        for sid in interested:
            by_source.setdefault(int(self.space.source_of[sid]), []).append(sid)
        total = 0.0
        rates = self.space.rates
        for source, sids in by_source.items():
            row = np.asarray(self.oracle.row(source))
            for sid in sids:
                hosts = np.fromiter(
                    interested[sid], dtype=np.int64, count=len(interested[sid])
                )
                total += float(rates[sid]) * float(row[hosts].sum())
        return total


def load_stddev(
    placement: Dict[int, int],
    queries: Sequence[QuerySpec],
    processors: Sequence[int],
    capabilities: Optional[Dict[int, float]] = None,
) -> float:
    """Standard deviation of per-processor load (capability-normalised).

    Accumulation is one ``bincount`` over processor indices rather than a
    per-query dictionary update.
    """
    capabilities = capabilities or {}
    index = {p: i for i, p in enumerate(processors)}
    hosts = np.fromiter(
        (index[placement[q.query_id]] for q in queries),
        dtype=np.int64,
        count=len(queries),
    )
    weights = np.fromiter(
        (q.load for q in queries), dtype=float, count=len(queries)
    )
    loads = np.bincount(hosts, weights=weights, minlength=len(processors))
    caps = np.fromiter(
        (capabilities.get(p, 1.0) for p in processors),
        dtype=float,
        count=len(processors),
    )
    return float(np.std(loads / caps))
