"""Figure 10: perturbation of stream rates.

At runtime the rates of a batch of random substreams increase ("I") or
decrease ("D"), shifting both communication cost and processor load
(query load is proportional to input rate).  Three responses:

* No-Adaptive -- keep the initial placement;
* Adaptive    -- COSMOS adaptation round after each perturbation;
* Remapping   -- rerun the *centralized* mapping from scratch (better
  quality but, as the paper measures, ~7x more query migrations).

Reported per perturbation: weighted communication cost, load standard
deviation, and cumulative query migrations of Adaptive vs Remapping.

Load statistics can come from the static rate model (the original path)
or be *measured* from the discrete-event simulator's arrival process
(``load_source="sim"``), which adds realistic sampling noise to the
numbers adaptation reacts to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..baselines.simple import centralized_placement
from .config import ExperimentConfig, bench_scale, build_testbed

__all__ = ["Fig10Series", "run", "PERTURBATION_PATTERN"]

#: The paper's I/D sequence along the x-axis of Figure 10.
PERTURBATION_PATTERN = ("I", "D", "I", "I", "I", "I", "I", "D", "D", "I")


@dataclass
class Fig10Series:
    steps: List[int] = field(default_factory=list)
    pattern: List[str] = field(default_factory=list)
    no_adaptive_cost: List[float] = field(default_factory=list)
    adaptive_cost: List[float] = field(default_factory=list)
    remapping_cost: List[float] = field(default_factory=list)
    no_adaptive_std: List[float] = field(default_factory=list)
    adaptive_std: List[float] = field(default_factory=list)
    remapping_std: List[float] = field(default_factory=list)
    adaptive_migrations: int = 0
    remapping_migrations: int = 0

    def migration_ratio(self) -> float:
        if self.adaptive_migrations == 0:
            return float("inf")
        return self.remapping_migrations / self.adaptive_migrations


def run(
    config: ExperimentConfig = None,
    pattern: Sequence[str] = PERTURBATION_PATTERN,
    perturbed_streams: int = 160,
    increase_factor: float = 3.0,
    load_source: str = "static",
    measure_duration: float = 60.0,
) -> Fig10Series:
    """Perturb ``perturbed_streams`` random substreams per step.

    The bench default (160) keeps the paper's ratio: 800 perturbed out of
    20,000 substreams = 4%.

    ``load_source`` selects where the refreshed load statistics come
    from after each perturbation:

    * ``"static"`` (default, the original path) -- the space's nominal
      expected rates, i.e. the optimizer is told the exact new rates;
    * ``"sim"`` -- rates *measured* by sampling the discrete-event
      simulator's Poisson tuple-arrival process over ``measure_duration``
      simulated seconds (:func:`repro.sim.workload.measure_rates`), so
      adaptation reacts to noisy observations the way a deployed system
      would (Section 3.8's statistics collection).
    """
    if load_source not in ("static", "sim"):
        raise ValueError(f"unknown load source {load_source!r}")
    config = config or bench_scale()
    bed = build_testbed(config)
    queries = bed.workload.queries
    rng = random.Random(config.seed + 10)
    measure_rng = np.random.default_rng(config.seed + 10)

    cosmos = bed.new_cosmos()
    cosmos.distribute(queries)
    pl_static = dict(cosmos.placement)
    remapped = dict(pl_static)
    remapped_prev = dict(pl_static)

    series = Fig10Series()

    def snapshot(step: int, label: str) -> None:
        series.steps.append(step)
        series.pattern.append(label)
        series.no_adaptive_cost.append(bed.cost(pl_static))
        series.no_adaptive_std.append(bed.stddev(pl_static))
        placement = dict(cosmos.placement)
        series.adaptive_cost.append(bed.cost(placement))
        series.adaptive_std.append(bed.stddev(placement))
        series.remapping_cost.append(bed.cost(remapped))
        series.remapping_std.append(bed.stddev(remapped))

    snapshot(0, "-")
    for step, kind in enumerate(pattern, start=1):
        streams = rng.sample(range(len(bed.workload.space)), perturbed_streams)
        factor = increase_factor if kind == "I" else 1.0 / increase_factor
        bed.workload.space.perturb_rates(streams, factor)

        # statistics collection notices the change (Section 3.8)
        if load_source == "sim":
            from ..sim.workload import measure_rates

            measured = measure_rates(
                bed.workload.space, measure_duration, measure_rng
            )
            cosmos.refresh_statistics(bed.workload, rates=measured)
        else:
            cosmos.refresh_statistics(bed.workload)

        report = cosmos.adapt()
        series.adaptive_migrations += report.migrated_queries

        remapped = centralized_placement(
            queries, bed.processors, bed.workload.space, bed.oracle, max_outer=2
        )
        series.remapping_migrations += sum(
            1
            for q in queries
            if remapped_prev.get(q.query_id) != remapped[q.query_id]
        )
        remapped_prev = dict(remapped)
        snapshot(step, kind)
    return series


def format_series(s: Fig10Series) -> str:
    lines = [
        "Figure 10: perturbation of stream rates",
        f"{'step':>4} {'type':>4} | {'NoAd cost':>10} {'Adap cost':>10}"
        f" {'Remap cost':>10} | {'NoAd std':>8} {'Adap std':>8} {'Remap std':>9}",
    ]
    for i, step in enumerate(s.steps):
        lines.append(
            f"{step:>4} {s.pattern[i]:>4} | {s.no_adaptive_cost[i] / 1e3:>10.1f}"
            f" {s.adaptive_cost[i] / 1e3:>10.1f} {s.remapping_cost[i] / 1e3:>10.1f}"
            f" | {s.no_adaptive_std[i]:>8.2f} {s.adaptive_std[i]:>8.2f}"
            f" {s.remapping_std[i]:>9.2f}"
        )
    lines.append(
        f"migrations: adaptive={s.adaptive_migrations}"
        f" remapping={s.remapping_migrations}"
        f" ratio={s.migration_ratio():.1f}x"
    )
    return "\n".join(lines)
