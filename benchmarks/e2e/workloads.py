"""The four benchmark workloads.

Each workload is a panel of *units*: one unit builds its inputs from its
own seed (derived from ``--seed``), sets the program up, and runs one
timed section against the program's public entry points.  A run executes
as many units as fit ``--seconds`` at the reference speed -- a fixed
number for given arguments, so equal seeds always mean equal inputs --
and executes the whole panel ``PASSES`` times over.  Reporting totals
over a panel keeps a run steady although one seed's query population can
cost 30 % more than another's; keeping the faster of the passes keeps it
steady although the reference machine stalls by 30 % for seconds at a
time.  The passes must also agree on every unit's digest.

All workloads are batch jobs or single-client closed loops (the next
operation is issued when the previous returns); there is no arrival
process to schedule.  Implementation-selection flags of the program are
left at their defaults.  BENCHMARK.json says why each workload is here
and README.md has the measured numbers behind that.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import CosmosConfig
from repro.experiments.config import ExperimentConfig, build_testbed
from repro.query.workload import WorkloadParams
from repro.sim import (
    ChurnParams,
    HotSpotShift,
    ScenarioParams,
    SimWorkloadParams,
    oracle_results,
    run_scenario,
)
from repro.topology import TransitStubParams

#: adaptation rounds allowed before a cold start is declared not to settle
QUIESCENCE_CAP = 15
#: times a run executes its panel; each unit keeps its fastest execution
PASSES = 2


@dataclass
class Check:
    """Operations checked for correctness, and how many were wrong."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


@dataclass
class Unit:
    """What one unit of a workload measured."""

    seed: int
    t_start: float
    #: where set-up ends and the timed section begins
    t_run: float
    #: when each slice of the timed section ended.  A slice does the same
    #: work in every pass, so the faster one is kept slice by slice; most
    #: workloads have one slice
    slice_ends: List[float]
    #: units of useful work the timed section completed (``Workload.op``)
    ops: int
    #: exact, seed-determined numbers (counts, costs, simulated-time stats)
    facts: Dict[str, float]
    #: sha256 of the unit's deterministic outputs
    digest: str
    #: span index range of this unit in the recorder (traced runs)
    spans: Tuple[int, int] = (0, 0)

    @property
    def t_end(self) -> float:
        return self.slice_ends[-1]

    @property
    def setup_s(self) -> float:
        return self.t_run - self.t_start

    @property
    def run_s(self) -> float:
        return self.t_end - self.t_run

    @property
    def slices(self) -> List[float]:
        starts = [self.t_run] + self.slice_ends[:-1]
        return [end - start for start, end in zip(starts, self.slice_ends)]


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one op of ``ops_per_s`` is
    op: str
    #: wall seconds one unit (set-up and timed section) takes at the
    #: reference speed, per scale
    unit_seconds: Dict[str, float]
    #: (scale, unit seed, check) -> Unit; counts what it checks in ``check``
    run_unit: Callable[[str, int, Check], Unit]
    #: (scale, unit seed, check): untimed correctness pass after the units
    verify: Callable[[str, int, Check], None] = lambda scale, seed, check: None

    def units(self, scale: str, seconds: float) -> int:
        """Units in a run of ``seconds`` -- fixed by the arguments, not by
        how fast this machine or this commit happens to be."""
        return max(1, round(seconds / (PASSES * self.unit_seconds[scale])))


def unit_seed(seed: int, index: int) -> int:
    # spaced so that build_testbed's seed, seed+1, seed+2 never collide
    # between the units of one run or of neighbouring runs
    return 1000 * seed + 5 * index


def reset_id_counters() -> None:
    """Make the next unit run as it would first thing in a fresh interpreter.

    The program numbers coarse vertices, clusters and subscriptions from
    module-level ``itertools.count`` objects, and some tie-breaks order
    ids by ``str`` -- so in one process the second run of a seed can
    place queries differently from the first (("c", 9) < ("c", 10) but
    "('c', 9)" > "('c', 10)").  Units must not depend on what ran before
    them: the passes of a run are compared slice by slice.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if isinstance(value, itertools.count):
                setattr(module, key, itertools.count())


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# sim_dense, sim_shared: run_scenario batch jobs
# ----------------------------------------------------------------------
class LoopEntryStamp:
    """Time of the first ``EventLoop.run_until`` entry since ``t`` was
    cleared -- the one hook present in untraced runs.

    ``run_scenario`` builds and runs in one call; this stamp is where its
    set-up ends and its timed section begins.  Installed after the trace
    taps, so it sits outside their spans.
    """

    def __init__(self):
        self.t: Optional[float] = None
        try:
            from repro.sim.events import EventLoop

            original = vars(EventLoop)["run_until"]
        except (ImportError, KeyError) as exc:
            print(
                f"warning: EventLoop.run_until not found ({exc!r}); sim set-up "
                "time will be reported inside run_s",
                file=sys.stderr,
            )
            return
        stamp = self

        def run_until(loop, end):
            if stamp.t is None:
                stamp.t = perf_counter()
            return original(loop, end)

        EventLoop.run_until = run_until


_SIM_CLUSTER = {
    "full": dict(topology=TransitStubParams(3, 3, 2, 5), num_sources=10, num_processors=32),
    "smoke": dict(topology=TransitStubParams(2, 2, 2, 3), num_sources=4, num_processors=8),
}


@dataclass
class SimJob:
    """One ``run_scenario`` configuration per scale."""

    #: simulated seconds of one unit
    duration: Dict[str, float]
    population: Dict[str, SimWorkloadParams]
    scenario: Callable[[float], ScenarioParams]
    #: the oracle-parity pass runs this many simulated seconds from this
    #: many initial queries -- sized to cost about a tenth of a run
    verify_duration: float = 10.0
    verify_queries: Optional[int] = None
    _stamp: Optional[LoopEntryStamp] = None

    def _kwargs(self, scale: str, seed: int, duration: float) -> Dict:
        return dict(
            seed=seed,
            workload=self.population[scale],
            scenario=self.scenario(duration),
            **_SIM_CLUSTER[scale],
        )

    def run_unit(self, scale: str, seed: int, check: Check) -> Unit:
        if self._stamp is None:
            self._stamp = LoopEntryStamp()
        stamp = self._stamp
        kwargs = self._kwargs(scale, seed, self.duration[scale])
        gc.collect()
        stamp.t = None
        t0 = perf_counter()
        report = run_scenario(record=False, **kwargs)
        t1 = perf_counter()
        summary = report.trace.summary()
        return Unit(
            seed=seed,
            t_start=t0,
            t_run=stamp.t if stamp.t is not None else t0,
            slice_ends=[t1],
            ops=report.tuples_emitted,
            facts={
                "sim.tuples": report.tuples_emitted,
                "sim.results": summary["results_total"],
                "sim.loop.events": report.events_processed,
                "sim.migrations": summary["migrations_total"],
                "sim.adapt_rounds": summary["adaptation_rounds"],
                "sim.user_queries": report.user_queries,
                "sim.executed_queries": report.executed_queries,
                "sim.result_latency_mean_s": summary["mean_latency_s"],
                "sim.data_bytes": summary["data_bytes"],
            },
            digest=_sha(report.trace.to_dict()),
        )

    def verify(self, scale: str, seed: int, check: Check) -> None:
        """Every query's results on a short recorded run equal the
        single-engine oracle's, tuple for tuple."""
        kwargs = self._kwargs(scale, seed, min(self.verify_duration, self.duration[scale]))
        if self.verify_queries is not None:
            kwargs["workload"] = replace(
                kwargs["workload"],
                num_queries=min(self.verify_queries, kwargs["workload"].num_queries),
            )
        report = run_scenario(record=True, **kwargs)
        expected = oracle_results(report.actions)
        for query_id in sorted(set(expected) | set(report.results)):
            got = report.results.get(query_id, [])
            want = expected.get(query_id, [])
            check.attempted += max(len(got), len(want))
            bad = abs(len(got) - len(want)) + sum(g != w for g, w in zip(got, want))
            if bad:
                check.fail(f"query {query_id}: {bad} results differ from the oracle", bad)


def _churn_and_hotspot(duration: float) -> Dict:
    return dict(
        churn=ChurnParams(arrival_rate=1.0, mean_lifetime=30.0),
        hotspot=HotSpotShift(at=duration / 2, substreams=20, factor=3.0),
    )


_DENSE = SimJob(
    duration={"full": 10.0, "smoke": 6.0},
    population={
        "full": SimWorkloadParams(num_substreams=160, num_queries=120, rate_range=(3.0, 8.0)),
        "smoke": SimWorkloadParams(num_substreams=40, num_queries=30, rate_range=(3.0, 8.0)),
    },
    scenario=lambda duration: ScenarioParams(
        duration=duration,
        sample_interval=duration / 10,
        adapt_interval=duration / 5,
        initial_placement="skewed",
        **_churn_and_hotspot(duration),
    ),
)

_SHARED = SimJob(
    duration={"full": 6.0, "smoke": 4.0},
    population={
        "full": SimWorkloadParams(
            num_substreams=160, num_queries=400, rate_range=(2.0, 5.0), pool_substreams=8
        ),
        "smoke": SimWorkloadParams(
            num_substreams=40, num_queries=60, rate_range=(2.0, 5.0), pool_substreams=4
        ),
    },
    scenario=lambda duration: ScenarioParams(
        duration=duration,
        sample_interval=duration / 5,
        adapt_interval=duration / 2.5,
        initial_placement="cosmos",
        use_sharing=True,
        **_churn_and_hotspot(duration),
    ),
    verify_queries=300,
)


# ----------------------------------------------------------------------
# opt_cold, opt_churn: the optimizer alone on a build_testbed workload
# ----------------------------------------------------------------------
_TESTBED = {
    "full": dict(
        topology=TransitStubParams(4, 4, 4, 16),
        num_sources=20,
        workload=WorkloadParams(
            num_substreams=4000,
            num_queries=0,  # set per workload
            groups=20,
            substreams_per_query=(20, 40),
            selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=4, vmax=100, max_overlap_neighbors=30),
    ),
    "smoke": dict(
        topology=TransitStubParams(2, 3, 3, 6),
        num_sources=6,
        workload=WorkloadParams(
            num_substreams=600,
            num_queries=0,
            groups=8,
            substreams_per_query=(10, 20),
            selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=4, vmax=40, max_overlap_neighbors=20),
    ),
}
#: (processors, queries)
_COLD_SIZE = {"full": (512, 4000), "smoke": (48, 500)}
_CHURN_SIZE = {"full": (256, 8000), "smoke": (32, 500)}
#: churn rounds of one opt_churn unit, and removes (= inserts) per round
_CHURN_ROUNDS = {"full": 14, "smoke": 4}
_CHURN_BATCH = {"full": 50, "smoke": 10}


def _testbed(scale: str, size: Tuple[int, int], seed: int):
    base = _TESTBED[scale]
    processors, queries = size
    return build_testbed(
        ExperimentConfig(
            num_processors=processors,
            seed=seed,
            **{
                **base,
                "workload": replace(base["workload"], num_queries=queries),
                "cosmos": replace(base["cosmos"], seed=seed),
            },
        )
    )


def _settle(cosmos) -> List[int]:
    """Adapt until a round moves nothing; returns moves per round."""
    moves: List[int] = []
    for _ in range(QUIESCENCE_CAP):
        report = cosmos.adapt()
        moves.append(report.coordinator_moves + report.refinement_moves)
        if moves[-1] == 0:
            break
    return moves


def _placement_facts(testbed, cosmos, live, check: Check) -> Dict[str, float]:
    """Balance and cost of the final placement of the ``live`` queries;
    a query with no host, or one outside the membership, is a failure."""
    loads = dict.fromkeys(testbed.processors, 0.0)
    placed = []
    for q in live:
        check.attempted += 1
        host = cosmos.placement.get(q.query_id)
        if host not in loads:
            check.fail(f"query {q.query_id} is hosted on {host}")
            continue
        loads[host] += q.load
        placed.append(q)
    values = list(loads.values())
    mean = sum(values) / len(values)
    return {
        "core.load_max_over_mean": max(values) / mean,
        "core.load_stddev": (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5,
        "core.idle_processors": sum(1 for v in values if v == 0.0),
        "core.wec": testbed.cost_model.weighted_cost(cosmos.placement, placed),
        "core.coordinators": cosmos.coordinator_count(),
    }


def _opt_cold(scale: str, seed: int, check: Check) -> Unit:
    """Timed: ``Cosmos.distribute`` then ``adapt`` until a round is quiet."""
    gc.collect()
    t0 = perf_counter()
    testbed = _testbed(scale, _COLD_SIZE[scale], seed)
    cosmos = testbed.new_cosmos()
    t_run = perf_counter()
    cosmos.distribute(testbed.workload.queries)
    moves = _settle(cosmos)
    t1 = perf_counter()
    queries = testbed.workload.queries
    if moves[-1] != 0:
        check.fail(f"no quiescence within {QUIESCENCE_CAP} rounds")
    facts = _placement_facts(testbed, cosmos, queries, check)
    facts.update(
        {
            "core.rounds_to_quiescence": len(moves),
            "core.moves.total": sum(moves),
            "core.moves.first_round": moves[0],
            "core.moves.per_op": sum(moves) / len(queries),
        }
    )
    return Unit(
        seed=seed,
        t_start=t0,
        t_run=t_run,
        slice_ends=[t1],
        ops=len(queries),
        facts=facts,
        digest=_sha([sorted(cosmos.placement.items()), moves]),
    )


def _opt_churn(scale: str, seed: int, check: Check) -> Unit:
    """Set-up: distribute and adapt to quiescence.  Timed: rounds of
    {remove random live queries, insert as many new ones, drift the
    measured load of 1 % of the live queries by U(0.5, 2), adapt once}."""
    rounds, batch = _CHURN_ROUNDS[scale], _CHURN_BATCH[scale]
    rng = random.Random(seed)
    gc.collect()
    t0 = perf_counter()
    testbed = _testbed(scale, _CHURN_SIZE[scale], seed)
    cosmos = testbed.new_cosmos()
    cosmos.distribute(testbed.workload.queries)
    settle_moves = _settle(cosmos)
    live = {q.query_id: q for q in testbed.workload.queries}
    moves: List[int] = []
    slice_ends: List[float] = []
    t_run = perf_counter()
    for _ in range(rounds):
        for query_id in rng.sample(sorted(live), batch):
            check.attempted += 1
            if not cosmos.remove(query_id):
                check.fail(f"remove({query_id}) did not find the query")
            del live[query_id]
        for q in testbed.workload.new_queries(batch, testbed.processors):
            check.attempted += 1
            cosmos.insert(q)
            live[q.query_id] = q
        drifted = rng.sample(sorted(live), max(1, len(live) // 100))
        cosmos.refresh_measured_loads(
            {qid: live[qid].load * rng.uniform(0.5, 2.0) for qid in drifted}
        )
        report = cosmos.adapt()
        moves.append(report.coordinator_moves + report.refinement_moves)
        slice_ends.append(perf_counter())
    ops = 2 * batch * rounds
    facts = _placement_facts(testbed, cosmos, list(live.values()), check)
    facts.update(
        {
            "core.rounds_to_quiescence": len(settle_moves),
            "core.moves.total": sum(moves),
            "core.moves.first_round": moves[0],
            "core.moves.per_op": sum(moves) / ops,
        }
    )
    return Unit(
        seed=seed,
        t_start=t0,
        t_run=t_run,
        slice_ends=slice_ends,
        ops=ops,
        facts=facts,
        digest=_sha([sorted(cosmos.placement.items()), settle_moves, moves]),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim_dense",
            op="source tuple",
            unit_seconds={"full": 1.25, "smoke": 0.5},
            run_unit=_DENSE.run_unit,
            verify=_DENSE.verify,
        ),
        Workload(
            name="sim_shared",
            op="source tuple",
            unit_seconds={"full": 1.1, "smoke": 0.5},
            run_unit=_SHARED.run_unit,
            verify=_SHARED.verify,
        ),
        Workload(
            name="opt_cold",
            op="query placed (distribute, then adapt to quiescence)",
            unit_seconds={"full": 5.0, "smoke": 0.5},
            run_unit=_opt_cold,
        ),
        Workload(
            name="opt_churn",
            op="churn operation (insert or remove, with its share of adapt)",
            unit_seconds={"full": 19.0, "smoke": 0.5},
            run_unit=_opt_churn,
        ),
    )
}
