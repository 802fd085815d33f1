"""The paper's simulation workload generator (Section 4.1).

Setup reproduced:

* 20,000 substreams randomly distributed to 100 sources, rates U(1, 10)
  bytes/s;
* ``g = 20`` groups of user queries, each group with its own data hot
  spots: group ``j`` has a private random permutation of the substreams and
  queries of that group pick substreams with zipfian probability
  (theta = 0.8) over the permuted ranks;
* each query requests uniformly 100-200 substreams;
* a query's CPU load is proportional to its input stream rate;
* each query's proxy is a random processor.

All sizes are parameters so the scaled-down bench presets and the paper-
scale preset share one code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .interest import SubstreamSpace, mask_of, on_rate_grid

__all__ = ["QuerySpec", "WorkloadParams", "Workload", "generate_workload"]


@dataclass
class QuerySpec:
    """One continuous query as the optimizer sees it."""

    query_id: int
    proxy: int
    mask: int
    group: int
    #: CPU time consumed per unit time on a capability-1 processor
    load: float
    #: rate (bytes/s) of the query's result stream, on the rate grid
    result_rate: float
    #: size of the query's operator state (for migration cost accounting)
    state_size: float

    def __post_init__(self):
        self.result_rate = float(on_rate_grid(self.result_rate))

    def input_rate(self, space: SubstreamSpace) -> float:
        return space.rate(self.mask)


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the workload generator; defaults are bench-scale."""

    num_substreams: int = 2000
    num_queries: int = 1000
    groups: int = 20
    zipf_theta: float = 0.8
    substreams_per_query: tuple = (100, 200)
    rate_range: tuple = (1.0, 10.0)
    #: load = load_factor * input_rate
    load_factor: float = 0.01
    #: result rate = selectivity * input rate, selectivity uniform in range
    selectivity_range: tuple = (0.05, 0.3)
    state_size_range: tuple = (1.0, 100.0)

    @staticmethod
    def paper_scale(num_queries: int = 30000) -> "WorkloadParams":
        return WorkloadParams(num_substreams=20000, num_queries=num_queries)


@dataclass
class Workload:
    """A generated query population over a substream space."""

    space: SubstreamSpace
    queries: List[QuerySpec]
    params: WorkloadParams
    #: per-group zipf probability vectors (over permuted substream ids)
    group_perms: List[np.ndarray] = field(default_factory=list, repr=False)
    _rng: random.Random = field(default_factory=random.Random, repr=False)
    _np_rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _zipf_weights: Optional[np.ndarray] = field(default=None, repr=False)
    _next_id: int = 0

    def by_id(self, query_id: int) -> QuerySpec:
        for q in self.queries:
            if q.query_id == query_id:
                return q
        raise KeyError(query_id)

    def new_queries(self, count: int, processors: Sequence[int]) -> List[QuerySpec]:
        """Generate ``count`` additional queries from the same hot spots.

        Used by the Figure 8 experiment (1,500 new queries per interval).
        The new queries are appended to :attr:`queries`.
        """
        log_weights = np.log(self._zipf_weights)
        processors = list(processors)
        fresh = [
            _make_query(
                self._alloc_id(), self.space, self.params, self.group_perms,
                log_weights, processors, self._rng, self._np_rng,
            )
            for _ in range(count)
        ]
        self.queries.extend(fresh)
        return fresh

    def refresh_loads(self, rates=None) -> None:
        """Recompute query loads after substream rates changed.

        The paper sets query workload proportional to input stream rate, so
        a rate perturbation (Figure 10) shifts processor loads; this method
        models the statistics-collection layer noticing that.  When
        ``rates`` is given (a per-substream rate vector, e.g. measured by
        :func:`repro.sim.workload.measure_rates`), loads derive from those
        measurements instead of the nominal expected rates.
        """
        for q in self.queries:
            q.load = self.params.load_factor * self.space.rate(q.mask, rates)

    def _alloc_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1


def _zipf_probabilities(n: int, theta: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-theta)
    return weights / weights.sum()


def _make_query(
    query_id: int,
    space: SubstreamSpace,
    params: WorkloadParams,
    group_perms: List[np.ndarray],
    log_weights: np.ndarray,
    processors: List[int],
    rng: random.Random,
    np_rng: np.random.Generator,
) -> QuerySpec:
    """One query; ``log_weights`` is ``np.log`` of the zipf probabilities
    (taken once per batch, like the ``processors`` list)."""
    group = rng.randrange(len(group_perms))
    lo, hi = params.substreams_per_query
    k = rng.randint(lo, min(hi, len(space)))
    # Gumbel top-k trick == weighted sampling without replacement: the k
    # permuted ranks with the largest (log p + Gumbel noise) keys.
    noise = np_rng.gumbel(size=len(space))
    keys = log_weights + noise
    ranks = np.argpartition(-keys, k - 1)[:k]
    substreams = np.sort(group_perms[group][ranks])
    mask = mask_of(substreams.tolist())
    # ascending substreams: the terms and order ``space.rate(mask)`` sums
    input_rate = float(space.rates[substreams].sum())
    selectivity = rng.uniform(*params.selectivity_range)
    return QuerySpec(
        query_id=query_id,
        proxy=rng.choice(processors),
        mask=mask,
        group=group,
        load=params.load_factor * input_rate,
        result_rate=selectivity * input_rate,
        state_size=rng.uniform(*params.state_size_range),
    )


def generate_workload(
    params: WorkloadParams,
    sources: Sequence[int],
    processors: Sequence[int],
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Workload:
    """Generate a full workload (substream space + query population).

    An explicit ``rng`` (:class:`numpy.random.Generator`) takes precedence
    over ``seed`` and drives *all* randomness -- the substream space, the
    group permutations and the per-query draws -- so one generator seeds a
    whole simulation end to end.
    """
    if rng is None:
        py_rng = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        space = SubstreamSpace.random(
            params.num_substreams, sources, rate_range=params.rate_range,
            seed=seed,
        )
    else:
        np_rng = rng
        py_rng = random.Random(int(np_rng.integers(0, 2 ** 63)))
        space = SubstreamSpace.random(
            params.num_substreams, sources, rate_range=params.rate_range,
            rng=np_rng,
        )
    rng = py_rng
    group_perms = [
        np_rng.permutation(params.num_substreams) for _ in range(params.groups)
    ]
    zipf_weights = _zipf_probabilities(params.num_substreams, params.zipf_theta)
    workload = Workload(
        space=space,
        queries=[],
        params=params,
        group_perms=group_perms,
    )
    workload._rng = rng
    workload._np_rng = np_rng
    workload._zipf_weights = zipf_weights
    workload._next_id = 0
    workload.new_queries(params.num_queries, processors)
    return workload
