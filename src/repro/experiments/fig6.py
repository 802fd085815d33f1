"""Figure 6: initial query distribution quality and running time.

Compares four initial-distribution schemes over a growing query
population:

* Naive        -- queries stay at their proxies;
* Greedy       -- global greedy mapping only;
* Hierarchical -- COSMOS (coarsen bottom-up, map top-down);
* Centralized  -- global Algorithm 2 (greedy + refinement on the global
  graph: the paper's reference scheme, a heuristic rather than an
  optimum).

Figure 6(a) reports the weighted communication cost of each scheme;
Figure 6(b) the response time (critical path) and total CPU time of the
hierarchical scheme against the centralized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..obs.timing import Stopwatch
from ..baselines.simple import (
    centralized_placement,
    greedy_placement,
    naive_placement,
)
from .config import ExperimentConfig, bench_scale, build_testbed

__all__ = ["Fig6Row", "run"]


@dataclass
class Fig6Row:
    """One x-axis point of Figures 6(a) and 6(b)."""

    num_queries: int
    cost_naive: float
    cost_greedy: float
    cost_hierarchical: float
    cost_centralized: float
    #: Figure 6(b): seconds
    time_centralized: float
    time_hierarchical_response: float
    time_hierarchical_total: float


def run(
    config: ExperimentConfig = None,
    query_counts: Sequence[int] = (500, 1000, 2000, 4000),
) -> List[Fig6Row]:
    """Run the Figure 6 sweep; one row per query count."""
    config = config or bench_scale()
    rows: List[Fig6Row] = []
    for n in query_counts:
        bed = build_testbed(config.with_queries(n))
        queries = bed.workload.queries

        pl_naive = naive_placement(queries)
        pl_greedy = greedy_placement(
            queries, bed.processors, bed.workload.space, bed.oracle
        )

        cosmos = bed.new_cosmos()
        cosmos.reset_timers()
        pl_hier = dict(cosmos.distribute(queries))
        t_resp = cosmos.response_time()
        t_total = cosmos.total_time()

        watch = Stopwatch()
        pl_cent = centralized_placement(
            queries, bed.processors, bed.workload.space, bed.oracle, max_outer=4
        )
        t_cent = watch.elapsed()

        rows.append(
            Fig6Row(
                num_queries=n,
                cost_naive=bed.cost(pl_naive),
                cost_greedy=bed.cost(pl_greedy),
                cost_hierarchical=bed.cost(pl_hier),
                cost_centralized=bed.cost(pl_cent),
                time_centralized=t_cent,
                time_hierarchical_response=t_resp,
                time_hierarchical_total=t_total,
            )
        )
    return rows


def format_rows(rows: Sequence[Fig6Row]) -> str:
    lines = [
        "Figure 6(a): weighted communication cost (x1000) vs #queries",
        f"{'#q':>6} {'Naive':>10} {'Greedy':>10} {'Hier':>10} {'Central':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r.num_queries:>6} {r.cost_naive / 1e3:>10.1f}"
            f" {r.cost_greedy / 1e3:>10.1f} {r.cost_hierarchical / 1e3:>10.1f}"
            f" {r.cost_centralized / 1e3:>10.1f}"
        )
    lines.append("")
    lines.append("Figure 6(b): optimization time (s) vs #queries")
    lines.append(f"{'#q':>6} {'Cen.Total':>10} {'Hie.Total':>10} {'Hie.Resp':>10}")
    for r in rows:
        lines.append(
            f"{r.num_queries:>6} {r.time_centralized:>10.2f}"
            f" {r.time_hierarchical_total:>10.2f}"
            f" {r.time_hierarchical_response:>10.2f}"
        )
    return "\n".join(lines)
