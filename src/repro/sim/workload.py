"""Executable workloads for the discrete-event cluster simulator.

The optimizer's workload (:mod:`repro.query.workload`) describes queries
abstractly -- an interest mask over substreams plus estimated rates.  The
simulator needs queries the per-processor engines can *run*, so this
module generates the paper's query class in executable form: each
substream is one named stream (``S<sid>``) carrying integer ``value``
readings, and each query is a real CQL selection (one input) or window
band join (two inputs) over those streams, paired with the
:class:`~repro.query.workload.QuerySpec` the coordinator hierarchy
optimizes.

Tuple arrivals are a Poisson process per substream: interarrival times
are exponential draws at the substream's *current* rate, so a hot-spot
rate shift mid-run changes the traffic without touching the generator
code.  All randomness flows through caller-provided
:class:`numpy.random.Generator` streams for end-to-end reproducibility.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..query.ast import Query
from ..query.interest import SubstreamSpace, mask_of
from ..query.parser import parse_query
from ..query.workload import QuerySpec

__all__ = [
    "SimWorkloadParams",
    "SimQuery",
    "SimQueryFactory",
    "stream_name",
    "measure_rates",
]

#: value attribute domain: readings are uniform integers in [0, VALUE_DOMAIN)
VALUE_DOMAIN = 1000


def stream_name(substream_id: int) -> str:
    """The engine-visible stream name of a substream."""
    return f"S{substream_id}"


@dataclass(frozen=True)
class SimWorkloadParams:
    """Knobs of the executable simulation workload."""

    num_substreams: int = 60
    num_queries: int = 40
    #: per-substream tuple rates (tuples/s), uniform in this range
    rate_range: Tuple[float, float] = (0.2, 1.0)
    #: fraction of queries that are two-way window joins
    join_fraction: float = 0.5
    #: join/selection window extents (seconds), uniform integer draw
    window_range: Tuple[int, int] = (5, 30)
    #: selection predicates keep roughly this fraction of tuples
    selectivity_range: Tuple[float, float] = (0.3, 0.9)
    #: zipf skew of substream popularity (0 = uniform)
    zipf_theta: float = 0.8
    #: QuerySpec.load = load_factor * input tuple rate
    load_factor: float = 1.0
    #: restrict query interests to a pool of this many substreams (None =
    #: the whole space).  The workload-overlap knob of the sharing
    #: benchmarks: a small pool makes many queries read the same streams,
    #: so per-processor result sharing can fold them into few merged
    #: plans; substream *rates* and sources are untouched.
    pool_substreams: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.num_substreams >= 1:
            raise ValueError(
                f"num_substreams: must be >= 1, got {self.num_substreams!r}"
            )
        for name in ("num_queries", "zipf_theta", "load_factor"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name}: must be >= 0, got {getattr(self, name)!r}"
                )
        if not 0 <= self.join_fraction <= 1:
            raise ValueError(
                f"join_fraction: must be within [0, 1], got {self.join_fraction!r}"
            )
        for name, top in (
            ("rate_range", math.inf),
            ("window_range", math.inf),
            ("selectivity_range", 1.0),
        ):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi <= top and math.isfinite(hi)):
                raise ValueError(
                    f"{name}: must be a finite, ordered (low, high) pair"
                    f" within [0, {top}], got {getattr(self, name)!r}"
                )
        if not all(isinstance(w, numbers.Integral) for w in self.window_range):
            raise ValueError(
                f"window_range: must be whole seconds, got {self.window_range!r}"
            )
        if self.pool_substreams is not None and not self.pool_substreams >= 1:
            raise ValueError(
                f"pool_substreams: must be None or >= 1, got {self.pool_substreams!r}"
            )


@dataclass
class SimQuery:
    """One executable query plus its optimizer-facing spec."""

    spec: QuerySpec
    ast: Query
    text: str
    #: input stream names (1 or 2), in binding order
    streams: Tuple[str, ...]
    substreams: Tuple[int, ...]

    @property
    def query_id(self) -> int:
        return self.spec.query_id

    @property
    def name(self) -> str:
        return f"q{self.spec.query_id}"


class SimQueryFactory:
    """Seeded generator of executable sim queries.

    Substream popularity is zipfian over a private permutation (one
    hot-spot group, the degenerate ``g=1`` case of the paper's setup);
    churn scenarios call :meth:`make` for every arriving query, so the
    whole population -- initial and churned -- comes from one generator
    stream.
    """

    def __init__(
        self,
        space: SubstreamSpace,
        processors: Sequence[int],
        params: SimWorkloadParams,
        rng: np.random.Generator,
    ):
        self.space = space
        self.processors = list(processors)
        self.params = params
        self.rng = rng
        self._next_id = 0
        n = len(space)
        self._perm = rng.permutation(n)
        #: queries draw from the first ``pool`` permutation ranks only;
        #: the default (the whole space) leaves the rng draws -- and so
        #: every previously generated workload -- unchanged
        self._pool = n
        if params.pool_substreams is not None:
            self._pool = min(n, params.pool_substreams)
        ranks = np.arange(1, self._pool + 1, dtype=float)
        weights = ranks ** (-params.zipf_theta)
        self._popularity = weights / weights.sum()

    def _pick_substreams(self, k: int) -> List[int]:
        picks = self.rng.choice(
            self._pool, size=k, replace=False, p=self._popularity
        )
        return [int(self._perm[int(r)]) for r in picks]

    def make(self) -> SimQuery:
        """Generate the next query (selection or band join)."""
        qid = self._next_id
        self._next_id += 1
        p = self.params
        is_join = (
            self._pool >= 2 and float(self.rng.random()) < p.join_fraction
        )
        lo, hi = p.window_range
        threshold = int(
            (1.0 - self.rng.uniform(*p.selectivity_range)) * VALUE_DOMAIN
        )
        if is_join:
            a, b = self._pick_substreams(2)
            wa = int(self.rng.integers(lo, hi + 1))
            wb = int(self.rng.integers(lo, hi + 1))
            text = (
                f"SELECT * FROM {stream_name(a)} [Range {wa} Seconds] A,"
                f" {stream_name(b)} [Range {wb} Seconds] B"
                f" WHERE A.value > B.value AND A.value > {threshold}"
            )
            subs: Tuple[int, ...] = (a, b)
            window_seconds = float(wa + wb)
        else:
            (a,) = self._pick_substreams(1)
            wa = int(self.rng.integers(lo, hi + 1))
            text = (
                f"SELECT * FROM {stream_name(a)} [Range {wa} Seconds] A"
                f" WHERE A.value > {threshold}"
            )
            subs = (a,)
            window_seconds = float(wa)
        mask = mask_of(subs)
        input_rate = self.space.rate(mask)
        spec = QuerySpec(
            query_id=qid,
            proxy=int(self.rng.choice(np.asarray(self.processors))),
            mask=mask,
            group=0,
            load=p.load_factor * input_rate,
            result_rate=(1.0 - threshold / VALUE_DOMAIN) * input_rate,
            state_size=window_seconds * input_rate,
        )
        ast = parse_query(text, name=f"q{qid}")
        return SimQuery(
            spec=spec,
            ast=ast,
            text=text,
            streams=tuple(stream_name(s) for s in subs),
            substreams=subs,
        )

    def make_batch(self, count: int) -> List[SimQuery]:
        return [self.make() for _ in range(count)]


def measure_rates(
    space: SubstreamSpace, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-substream rates *measured* over a simulated interval.

    The simulator emits tuples as independent Poisson processes at the
    space's nominal rates; the number of arrivals in ``duration`` is then
    Poisson(rate * duration) exactly, so sampling those counts and
    dividing by the interval is the closed form of "run the arrival
    process and count" -- measurement noise included.  Experiments use
    this to source load numbers from the simulator instead of the static
    expectation (see ``repro.experiments.fig10``).
    """
    if duration <= 0:
        raise ValueError("measurement duration must be positive")
    counts = rng.poisson(space.rates * duration)
    return counts / duration
