"""The discrete-event cluster simulator: COSMOS end to end.

Runs the whole middleware over simulated time: one
:class:`~repro.engine.executor.Engine` per processor, source tuples
generated per substream at the space's (possibly shifting) rates,
dissemination over the real content-based pub/sub overlay
(:class:`~repro.pubsub.network.PubSubNetwork` on a minimum-latency
spanning tree) with shortest-path transit delays, and the coordinator
hierarchy adapting placements from loads *measured* on the running
engines (Section 3.7/3.8 closed-loop, not the static estimates the
figure experiments use).

Correctness model
-----------------
A tuple emitted at time ``t`` reaches a query hosted at processor ``h``
after the overlay path latency; the engine processes each query's
inputs in timestamp order behind a per-query reordering slack equal to
the query's worst input-path delay (the standard out-of-order handling
of stream engines).  Because every query therefore consumes its inputs
in emission order, the distributed execution is *result-equivalent* to
a single giant engine hosting every query -- the oracle
(:func:`oracle_results`) the churn tests compare against.  Migrations
move the compiled plan object (window state included) between engines,
so adaptation rounds never lose or duplicate results; they only add the
state-handoff delay to the moved query's deliveries.

Determinism: all randomness flows from one ``numpy`` seed through
:class:`numpy.random.SeedSequence` spawns, and all timing through the
heap-based :class:`~repro.sim.events.EventLoop`, so two runs of the same
scenario produce bit-identical traces.

Delivery units
--------------
Everything engine-side -- routing targets, the release chain, drains,
migration, checkpoints, crash teardown and restore -- operates on one
type, the delivery unit (:class:`_Unit`): a compiled plan on a host
engine with its source subscriptions and its members.  An unshared
query is a unit of one member; with ``ScenarioParams.use_sharing`` a
unit is a shared group executing the merged superset of its members.
The planes differ in exactly three functions: how a query finds its
unit (:meth:`SimCluster.add_query`), how it leaves it
(:meth:`SimCluster.remove_query`) and how a unit's results are
accounted (one transfer to the proxy vs ``p^2`` carving).  Routing is
the network's on both: a coalesced buffer of source rows is one
:meth:`~repro.pubsub.network.PubSubNetwork.publish_batch`, which
replays the broker tables row by row -- the unshared plane's stream
subscriptions let every row go everywhere, the shared plane's ``p^1``
filters drop rows early -- and so do a shared unit's results on its
group stream, carved by the members' ``p^2`` subscriptions.

Data plane
----------
The tuple path runs columnar: same-substream tuples emitted within one
mean source inter-arrival coalesce into a single
:meth:`~repro.pubsub.network.PubSubNetwork.publish_batch` (one
forwarding probe per hop per batch, link bytes accounted per row), and
released rows are *delivered when something observes them*: a unit's
queued rows wait until a sample, an adaptation round (migrations
included), a fault handler, the unit's own churn or detach, or the end
of the run, and then reach its engine in one push (a
:class:`~repro.engine.tuples.MergedBatch` when a join's two inputs
interleave).  No event is scheduled per publish.  Nothing reads a
result between two such points, every row is accounted at
``max(release, ready)`` -- the instant a per-tuple release event would
have delivered it -- and a unit's rows still reach its plan in
timestamp order, so what comes back (result *counts* per input row;
the unshared plane accounts from those without building a result
tuple) and when it is accounted do not depend on when the push
happened.  Emission events stay per-tuple (the rng draw order defines
the workload), and every control-plane event publishes the coalescing
buffers of the streams it re-routes first -- so traces, results, link
traffic and CPU counters are bit-identical to the two reference planes
kept in ``tests/reference``: the per-tuple plane (one publish, one
release event and one engine push per tuple) and the per-publish drain
scheduler (``tests/test_batch_parity.py``,
``tests/test_on_demand_delivery.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cosmos import Cosmos, CosmosConfig
from ..engine.executor import Engine
from ..obs.observer import Observer
from ..engine.plans import QueryPlan
from ..engine.tuples import MergedBatch, StreamTuple
from ..pubsub.network import PubSubNetwork
from ..pubsub.subscriptions import Advertisement, Subscription
from ..topology.latency import LatencyOracle, select_roles
from ..topology.overlay import minimum_latency_spanning_tree
from ..topology.transit_stub import TransitStubParams, generate_transit_stub
from ..query.ast import Query
from ..query.interest import SubstreamSpace
from ..query.merging import (
    merge_all,
    merge_queries,
    mergeable,
    source_subscriptions,
    split_subscription,
)
from .events import EventLoop
from .faults import FAULT_SPECS, RECOVERY_POLICIES, FaultInjector
from .trace import AdaptationMark, SimTrace, TraceSample
from .workload import (
    VALUE_DOMAIN,
    SimQuery,
    SimQueryFactory,
    SimWorkloadParams,
    stream_name,
)

__all__ = [
    "ChurnParams",
    "HotSpotShift",
    "ScenarioParams",
    "SimCluster",
    "SimReport",
    "run_scenario",
    "oracle_results",
]


@dataclass(frozen=True)
class ChurnParams:
    """Query arrival/departure process (both exponential)."""

    arrival_rate: float = 0.5  # queries per second
    mean_lifetime: float = 20.0  # seconds

    def __post_init__(self) -> None:
        for name in ("arrival_rate", "mean_lifetime"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name}: must be positive, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class HotSpotShift:
    """A runtime rate perturbation: ``substreams`` random substreams get
    their rates multiplied by ``factor`` at time ``at`` (Figure 10's I/D
    steps, driven from inside the simulation)."""

    at: float = 15.0
    substreams: int = 10
    factor: float = 3.0

    def __post_init__(self) -> None:
        for name in ("at", "substreams", "factor"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name}: must be >= 0, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class ScenarioParams:
    """Run-level knobs of a simulation scenario."""

    duration: float = 30.0
    sample_interval: float = 5.0
    #: period of Section 3.7 adaptation rounds (None disables adaptation)
    adapt_interval: Optional[float] = 10.0
    #: "cosmos" = Algorithm 1+2 initial distribution; "skewed" = pile the
    #: initial queries on a few processors (the Figure 7 adopt scenario)
    initial_placement: str = "cosmos"
    churn: Optional[ChurnParams] = None
    hotspot: Optional[HotSpotShift] = None
    #: per-state-tuple serialisation cost added to a migration's handoff
    handoff_ms_per_tuple: float = 0.05
    #: shared multi-query execution (Section 2): per-processor groups of
    #: overlapping queries execute ONE merged superset plan, with
    #: ``p^1`` source subscriptions carrying the merged filters for early
    #: dropping and per-member ``p^2`` split subscriptions carving each
    #: user's results out of the group result stream at the proxies.
    #: ``False`` (the default) is the unshared plane, bit-identical to
    #: the pre-sharing simulator; ``True`` must still deliver exactly the
    #: per-user-query results of the single-engine oracle.
    use_sharing: bool = False
    #: scheduled fault/membership events (see :mod:`repro.sim.faults`);
    #: the empty default leaves every existing trace bit-identical
    faults: Tuple[object, ...] = ()
    #: recovery policy name (key of ``RECOVERY_POLICIES``)
    recovery: str = "checkpoint"
    #: period of window-state checkpoints to the hierarchy root (None
    #: disables checkpointing; crashes then restore into empty windows)
    checkpoint_interval: Optional[float] = None
    #: extra processors selected but kept outside the initial membership,
    #: available to :class:`~repro.sim.faults.ProcessorJoin` events
    spare_processors: int = 0

    def __post_init__(self) -> None:
        if self.initial_placement not in ("cosmos", "skewed"):
            raise ValueError(
                f"initial_placement: unknown placement {self.initial_placement!r}"
                " (expected 'cosmos' or 'skewed')"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery: unknown policy {self.recovery!r}"
                f" (expected one of {sorted(RECOVERY_POLICIES)})"
            )
        for name in ("duration", "sample_interval"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name}: must be positive, got {getattr(self, name)!r}"
                )
        for name in ("adapt_interval", "checkpoint_interval"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(
                    f"{name}: must be positive or None, got {value!r}"
                )
        for name in ("handoff_ms_per_tuple", "spare_processors"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name}: must be >= 0, got {getattr(self, name)!r}"
                )
        for fault in self.faults:
            if not isinstance(fault, FAULT_SPECS):
                raise ValueError(
                    f"faults: {fault!r} is not a fault spec (expected one of "
                    f"{', '.join(spec.__name__ for spec in FAULT_SPECS)})"
                )


@dataclass
class _Unit:
    """One delivery unit: a compiled plan on a host engine, and everything
    the engine-side machinery (routing targets, release chain, drain,
    migration, checkpoint, crash/restore) needs to know about it.

    Both planes run on units.  An unshared query is a unit with one
    member whose single source subscription matches on streams only; a
    shared group is a unit whose plan executes the merged superset of its
    members, whose ``p^1`` source subscriptions carry the merged selection
    hulls, and whose results leave through an advertised result stream
    that the members' ``p^2`` subscriptions carve.  All members of a unit
    read the *same* streams (mergeability requires aligned bindings), so
    one reordering slack and one release chain serve the whole unit.
    """

    uid: int
    #: ``"query"`` or ``"group"``: the key spans and annotations file
    #: ``uid`` under (a label, never a behaviour switch)
    kind: str
    host: int
    #: the query the plan executes.  For a group: the merged superset,
    #: monotone -- member joins widen the plan in place; departures must
    #: not narrow it, because the join-window state the survivors still
    #: need was built under the wide version.
    executed: Query
    plan: QueryPlan
    result_stream: str
    #: input substreams, founder binding order
    substreams: Tuple[int, ...]
    streams: Tuple[str, ...]
    #: reordering slack: worst input-path delay (seconds)
    slack: float
    #: release time assigned to the latest delivered tuple (monotone)
    last_release: float
    #: ``last_release`` as of the last control-plane event.  Within a
    #: control-free window the per-tuple release chain
    #: ``max(ts + slack, last_release)`` collapses to ``max(ts + slack,
    #: release_floor)`` per row (timestamps are merged in order, so
    #: earlier chain links never dominate), which makes the release of a
    #: row independent of *publish* order -- coalesced batches of
    #: different substreams may publish out of timestamp order
    last_release_floor: float
    #: live member query ids, join order
    members: List[int]
    #: every query id that ever executed here (CPU attribution at report)
    all_members: List[int]
    #: installed source subscriptions
    subs: List[Subscription] = field(default_factory=list)
    #: current advertisement of ``result_stream`` (groups only; re-issued
    #: whenever the unit changes host)
    adv: Optional[Advertisement] = None
    #: member query ids with an installed ``p^2`` subscription (join
    #: order; departed members linger until their carve drains)
    listeners: List[int] = field(default_factory=list)
    #: earliest time deliveries may resume after a state handoff
    ready: float = 0.0
    #: pending deliveries: (timestamp, emit seq, tuple, release) kept
    #: sorted by (timestamp, seq) -- emission order, the order the plan
    #: consumes its inputs in.  Release times are non-decreasing along it.
    pending_rel: List[Tuple[float, int, StreamTuple, float]] = field(
        default_factory=list
    )
    #: False once the last member left (the unit retires after its drain)
    alive: bool = True
    #: True while no engine hosts the plan (drained and torn down, or
    #: lost in a crash and not yet restored)
    detached: bool = False
    #: engine CPU counter snapshots (deltas are shared out over members)
    cpu_at_sample: int = 0
    cpu_at_adapt: int = 0

    @property
    def name(self) -> str:
        return self.plan.query.name


@dataclass
class _QueryState:
    """Per-user-query state; everything engine-side lives on its unit."""

    simq: SimQuery
    unit: _Unit
    #: when the query joined (its carve's lower time bound)
    added_at: float
    alive: bool = True
    results: List[StreamTuple] = field(default_factory=list)
    #: per-query latency accumulators for the current sample interval;
    #: merged in query-id order at each sample so floats are summed in
    #: one canonical order however deliveries were grouped
    lat_sum: float = 0.0
    lat_max: float = 0.0
    #: shared plane: the query's ``p^2`` split result subscription
    result_sub: Optional[Subscription] = None

    @property
    def name(self) -> str:
        return self.simq.name

    @property
    def host(self) -> int:
        return self.unit.host


def _same_subscription(old: Subscription, new: Subscription) -> bool:
    """Whether re-installing ``new`` in place of ``old`` would change nothing."""
    return (
        old.streams == new.streams
        and old.projection == new.projection
        and old.filter == new.filter
    )


@dataclass
class SimReport:
    """Everything a scenario run produced."""

    trace: SimTrace
    queries: Dict[int, SimQuery]
    placement: Dict[int, int]
    tuples_emitted: int
    events_processed: int
    #: per-query result tuple values, only when ``record=True``
    results: Optional[Dict[int, List[Dict]]] = None
    #: ordered action log (tuple / add / remove), only when ``record=True``
    actions: Optional[List[Tuple[str, object]]] = None
    #: final per-link data traffic, only when ``record=True``
    link_bytes: Optional[Dict[Tuple[int, int], float]] = None
    #: final per-query engine CPU counters, only when ``record=True``:
    #: each unit's total attributed in equal shares to every query that
    #: ever executed in it (so exactly the plan's counter when unshared)
    cpu_costs: Optional[Dict[int, float]] = None
    #: user queries submitted over the whole run
    user_queries: int = 0
    #: plans that actually executed (units): equals ``user_queries`` on
    #: the unshared plane, the number of shared groups with ``use_sharing``
    executed_queries: int = 0
    #: ordered fault/membership/recovery log (empty without faults)
    fault_log: List[Dict] = field(default_factory=list)


class SimCluster:
    """Engines + pub/sub + coordinator tree under one event loop."""

    def __init__(
        self,
        *,
        oracle: LatencyOracle,
        sources: List[int],
        processors: List[int],
        space: SubstreamSpace,
        cosmos: Cosmos,
        params: ScenarioParams,
        factory: SimQueryFactory,
        arrival_rng: np.random.Generator,
        value_rng: np.random.Generator,
        churn_rng: Optional[np.random.Generator] = None,
        fault_rng: Optional[np.random.Generator] = None,
        spares: Optional[List[int]] = None,
        seed: int = 0,
        record: bool = False,
        observer: Optional[Observer] = None,
    ):
        self.oracle = oracle
        self.sources = list(sources)
        self.processors = list(processors)
        self.space = space
        self.cosmos = cosmos
        self.params = params
        self.factory = factory
        self.arrival_rng = arrival_rng
        self.value_rng = value_rng
        self.churn_rng = churn_rng
        self.spares = list(spares or [])
        self.record = record

        self.loop = EventLoop()
        #: optional :class:`repro.obs.Observer`.  Read-only taps: spans,
        #: metrics and profiler sections all consume state the simulation
        #: computes anyway, so ``obs`` never changes a run's behaviour.
        #: Wired before the network exists so even construction-time
        #: broker activity (source advertisements) is metered.
        self.obs = observer
        if observer is not None:
            self.loop.profiler = observer.profiler
        self.trace = SimTrace(seed=seed)
        overlay = minimum_latency_spanning_tree(
            self.sources + self.processors + self.spares, oracle
        )
        self.network = PubSubNetwork(overlay)
        self.network.observer = observer
        for sid in range(len(space)):
            self.network.advertise(
                int(space.source_of[sid]), Advertisement(stream=stream_name(sid))
            )
        self.engines: Dict[int, Engine] = {p: Engine(node=p) for p in self.processors}
        self.queries: Dict[int, _QueryState] = {}
        #: delivery units by id: the query id on the unshared plane, a
        #: group counter on the shared one.  Source deliveries resolve
        #: through ``_by_sub`` (source subscription id -> unit id).
        self.units: Dict[int, _Unit] = {}
        self._by_sub: Dict[int, int] = {}
        self._sharing = params.use_sharing
        self._next_gid = 0
        #: host -> ids of the units it runs, arrival order (a joining
        #: query merges into the first compatible one)
        self._host_units: Dict[int, List[int]] = {}
        #: ``p^2`` result subscription id -> member query id
        self._by_result_sub: Dict[int, int] = {}
        self._pindex = {p: i for i, p in enumerate(self.processors)}
        self._path_ms: Dict[Tuple[int, int], float] = {}
        self._emit_gen: List[int] = [0] * len(space)

        self.duration = params.duration
        self.tuples_emitted = 0
        self.results_total = 0
        self.migrations = 0
        self._interval_results = 0
        self._last_sample_t = 0.0
        self.actions: Optional[List[Tuple[str, object]]] = [] if record else None

        #: per-substream (emit seq, tuple) rows awaiting the coalesced
        #: publish
        self._src_pending: List[List[Tuple[int, StreamTuple]]] = [
            [] for _ in range(len(space))
        ]
        #: per substream: a coalescing timeout is scheduled.  An early
        #: publish (a control event) leaves it in place, so the timeouts
        #: follow the emissions alone, not when rows were observed
        self._timeout_set: List[bool] = [False] * len(space)
        self._emit_seq = 0
        #: latest instant a queued row became ready for delivery (its
        #: release, or the end of a handoff pause it waited out); the
        #: end-of-run drain runs there
        self._ready_by = 0.0

        #: ordered fault/membership/recovery log (always present; empty
        #: without configured faults)
        self.fault_log: List[Dict] = []
        self.faults = None
        if params.faults or params.checkpoint_interval is not None:
            self.faults = FaultInjector(self, fault_rng, params)

    # ------------------------------------------------------------------
    # latency helpers
    # ------------------------------------------------------------------
    def _path_latency_ms(self, u: int, v: int) -> float:
        """Overlay path latency (ms) between two overlay nodes, cached.

        Summed along the path from the smaller id to the larger: float
        addition is order-sensitive, so summing in the direction asked
        first would make the cached value depend on call order.
        """
        if u == v:
            return 0.0
        key = (u, v) if u < v else (v, u)
        lat = self._path_ms.get(key)
        if lat is None:
            lat = self.network.tree.path_latency(*key)
            self._path_ms[key] = lat
        return lat

    def _slack(self, substreams: Tuple[int, ...], host: int) -> float:
        """Reordering slack (s): the worst input transit delay to ``host``."""
        return max(
            self._path_latency_ms(int(self.space.source_of[sid]), host)
            for sid in substreams
        ) / 1000.0

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def add_query(self, simq: SimQuery, host: int) -> _QueryState:
        """Install a query on ``host`` and subscribe its inputs.

        Unshared, the query founds a unit of its own whose one source
        subscription matches on streams only; shared, it joins or founds
        a group (:meth:`_join_group`).
        """
        # the new subscription changes the routing of the query's
        # streams: their coalesced rows were emitted under the old
        # tables and must be published first
        self._publish_substreams(simq.substreams)
        if self._sharing:
            qs = self._join_group(simq, host)
        else:
            unit = self._new_unit(
                simq.query_id, "query", host, simq.ast, f"out_{simq.name}", simq
            )
            self._install_sources(unit, [Subscription.to_streams(simq.streams)])
            qs = _QueryState(simq=simq, unit=unit, added_at=self.loop.now)
            self.queries[simq.query_id] = qs
        if self.actions is not None:
            self.actions.append(("add", simq))
        return qs

    def _new_unit(
        self,
        uid: int,
        kind: str,
        host: int,
        executed: Query,
        result_stream: str,
        founder: SimQuery,
    ) -> _Unit:
        """Compile ``executed`` on ``host`` as a unit of one member."""
        now = self.loop.now
        unit = _Unit(
            uid=uid,
            kind=kind,
            host=host,
            executed=executed,
            plan=self.engines[host].add_query(
                executed, result_stream=result_stream
            ),
            result_stream=result_stream,
            substreams=founder.substreams,
            streams=founder.streams,
            slack=self._slack(founder.substreams, host),
            last_release=now,
            last_release_floor=now,
            members=[founder.query_id],
            all_members=[founder.query_id],
        )
        self.units[uid] = unit
        self._host_units.setdefault(host, []).append(uid)
        return unit

    def _join_group(self, simq: SimQuery, host: int) -> _QueryState:
        """Install a query into a shared group on ``host``.

        The query joins the first live group on its host it is mergeable
        with (widening the group's plan *in place*, so existing window
        state survives) or founds a new one.  The member's ``p^2`` split
        subscription carves its results out of the group result stream at
        its proxy; the carve carries a lower time bound at ``now`` so the
        member never receives results derived from inputs that predate it
        (its own freshly-compiled plan would have started with empty
        windows -- the single-engine oracle semantics).
        """
        now = self.loop.now
        unit: Optional[_Unit] = None
        for uid in self._host_units.get(host, ()):
            cand = self.units[uid]
            if cand.alive and mergeable(cand.executed, simq.ast):
                unit = cand
                break
        if unit is None:
            gid = self._next_gid
            self._next_gid += 1
            unit = self._new_unit(
                gid,
                "group",
                host,
                Query(
                    select=simq.ast.select,
                    bindings=simq.ast.bindings,
                    where=simq.ast.where,
                    name=f"shared_g{gid}",
                ),
                f"shared::{gid}",
                simq,
            )
            unit.adv = Advertisement(stream=unit.result_stream)
            self.network.advertise(host, unit.adv)
            self._install_sources(unit, source_subscriptions(unit.executed))
        else:
            # rows the group released so far run under the narrower plan
            self._observe(unit)
            widened = merge_queries(unit.executed, simq.ast, name=unit.name)
            unit.plan.widen_to(widened)
            unit.executed = widened
            earlier = list(unit.members)
            unit.members.append(simq.query_id)
            unit.all_members.append(simq.query_id)
            # merged filters may have weakened.  The filters track the
            # *live* members' hull -- tighter than the monotone executed
            # query whenever departures narrowed it
            self._install_sources(
                unit,
                source_subscriptions(
                    merge_all(
                        [self.queries[qid].simq.ast for qid in earlier]
                        + [simq.ast],
                        name=unit.name,
                    )
                ),
            )
            # existing members' carves were built against the previous
            # merged query; windows that just grew past a member's own
            # window need a (new) timestamp_lag band, so recompute them.
            # Once the group's hull stabilises the recomputed carve is
            # unchanged and the member keeps its installed subscription.
            for qid in earlier:
                mqs = self.queries[qid]
                carve = split_subscription(
                    unit.executed, mqs.simq.ast, unit.result_stream,
                    emitted_after=mqs.added_at,
                )
                if not _same_subscription(mqs.result_sub, carve):
                    self._replace_result_sub(mqs, carve)
        qs = _QueryState(simq=simq, unit=unit, added_at=now)
        self.queries[simq.query_id] = qs
        self._replace_result_sub(
            qs,
            split_subscription(
                unit.executed, simq.ast, unit.result_stream, emitted_after=now
            ),
        )
        return qs

    def _install_sources(self, unit: _Unit, fresh: List[Subscription]) -> None:
        """(Re)declare a unit's source subscriptions, one per stream.

        A unit keeps one subscription id per stream it reads, so a
        re-merge redeclares it and the network tears the old declaration
        down (re-forwarding whatever it had been covering); leaving a
        stale set installed would keep pulling tuples nobody needs once a
        re-merge narrows the hull.  A re-merge that leaves every filter
        where it was (the common case once a group's hull stabilises) is
        a no-op.
        """
        if len(fresh) == len(unit.subs) and all(
            _same_subscription(old, new) for old, new in zip(unit.subs, fresh)
        ):
            return
        ids = {old.streams: old.sub_id for old in unit.subs}
        fresh = [
            replace(sub, sub_id=ids.pop(sub.streams)) if sub.streams in ids else sub
            for sub in fresh
        ]
        for sub_id in ids.values():  # streams the unit reads no more
            self.network.unsubscribe(sub_id)
            self._by_sub.pop(sub_id, None)
        unit.subs = fresh
        for sub in fresh:
            self.network.subscribe(unit.host, sub)
            self._by_sub[sub.sub_id] = unit.uid

    def _unsubscribe_sources(self, unit: _Unit) -> None:
        """Tear a unit's source subscriptions out of the network."""
        for sub in unit.subs:
            self.network.unsubscribe(sub.sub_id)
            self._by_sub.pop(sub.sub_id, None)

    def _replace_result_sub(self, qs: _QueryState, sub: Subscription) -> None:
        """Declare ``sub`` as a member's ``p^2`` subscription at its proxy.
        A member keeps one subscription id, so a new carve redeclares it
        and the network tears the previous declaration down itself."""
        if qs.result_sub is not None:
            sub = replace(sub, sub_id=qs.result_sub.sub_id)
        qs.result_sub = sub
        self._by_result_sub[sub.sub_id] = qs.simq.query_id
        listeners = qs.unit.listeners
        if qs.simq.query_id not in listeners:
            listeners.append(qs.simq.query_id)
        self.network.subscribe(qs.simq.spec.proxy, sub)

    def _drop_result_sub(self, qs: _QueryState) -> None:
        if qs.result_sub is not None:
            self.network.unsubscribe(qs.result_sub.sub_id)
            self._by_result_sub.pop(qs.result_sub.sub_id, None)
            qs.result_sub = None

    def remove_query(self, query_id: int) -> None:
        """Query departure: stop deliveries now, detach after the drain.

        The unit's membership shrinks at once, but its plan stays on the
        engine until every already-delivered tuple has been processed, so
        the distributed run emits exactly the results a single-engine
        oracle does for the same action order.  The last member out
        retires the unit (source subscriptions torn down immediately: no
        new tuples).  While members remain -- shared groups only -- the
        merged plan stays wide (narrowing it would rebuild operators and
        lose the window state the survivors still need) and the source
        filters narrow to the survivors' hull.

        Shared, the departing member's carve first gets an upper time
        bound at ``now`` (results derived from later inputs belong only
        to the survivors); the capped subscription is torn down once
        every input emitted before the departure has drained.
        """
        qs = self.queries[query_id]
        if not qs.alive:
            return
        unit = qs.unit
        # the unit's streams are re-routed and the unit (shared: its
        # carves) changes: everything it released so far goes in first
        self._observe(unit)
        now = self.loop.now
        qs.alive = False
        self._annotate_pending(
            unit, "query_remove", **{"query": query_id, unit.kind: unit.uid}
        )
        if self.actions is not None:
            self.actions.append(("remove", qs.simq))
        if self._sharing:
            self._replace_result_sub(
                qs,
                split_subscription(
                    unit.executed, qs.simq.ast, unit.result_stream,
                    emitted_after=qs.added_at, emitted_before=now,
                ),
            )
        unit.members.remove(query_id)
        if unit.members:
            # the plan's own (wider) select keeps running -- tuples the
            # narrowed filters drop cannot contribute to any survivor's
            # carved results
            self._install_sources(
                unit,
                source_subscriptions(
                    merge_all(
                        [self.queries[qid].simq.ast for qid in unit.members],
                        name=unit.name,
                    )
                ),
            )
        else:
            unit.alive = False
            self._unsubscribe_sources(unit)
            unit.subs = []
            self.loop.schedule(
                max(now, unit.last_release),
                partial(self._detach_unit, unit.uid),
            )
        if qs.result_sub is not None:
            self.loop.schedule(
                max(now, unit.last_release),
                partial(self._detach_member, query_id),
            )

    def _detach_member(self, query_id: int) -> None:
        """Tear a departed member's capped carve down once its unit drained.

        Inputs emitted before the departure may still be queued on the
        unit (rows are delivered when observed, and a migration pause
        can hold them past this instant) -- deliver them first (later
        inputs ride along early; the departed member's upper time bound
        keeps them out of its carve, and survivors receive identical
        content either way).
        """
        qs = self.queries[query_id]
        if qs.result_sub is None:
            return
        unit = qs.unit
        if not unit.detached:
            self._drain_unit_completely(unit)
        self._drop_result_sub(qs)
        if query_id in unit.listeners:
            unit.listeners.remove(query_id)

    def _detach_unit(self, uid: int) -> None:
        """Tear a retired unit down after its drain: deliver what is in
        flight, remove the plan, retire an advertised result stream.

        Delivering first matters: rows emitted before the departure may
        still be queued (nothing observed them yet, or a migration pause
        held them) -- dropping them would diverge from the oracle, which
        processes every tuple emitted before the departure.
        """
        unit = self.units[uid]
        if unit.detached:
            return
        self._drain_unit_completely(unit)
        unit.detached = True
        plan = self.engines[unit.host].remove_query(unit.name)
        if self.obs is not None:
            self.obs.plan_retired(unit.host, unit.name, plan)
        if unit.adv is not None:
            self.network.unadvertise(unit.adv.adv_id)
        self._host_units[unit.host].remove(uid)

    def _drain_unit_completely(self, unit: _Unit) -> None:
        """Deliver everything pending on a unit, releases regardless.

        Rows whose release has come are accounted at ``max(release,
        ready)`` like any observed row (:meth:`_observe`).  The remainder
        was paused past its release (migration handoff) or releases
        later; it is accounted at ``loop.now``, as a per-tuple plane
        force-draining its queue would.
        """
        self._observe(unit)
        if unit.pending_rel:
            rows = [(t, self.loop.now) for _, _, t, _ in unit.pending_rel]
            unit.pending_rel.clear()
            self._deliver_rows(unit, rows)

    def _annotate_pending(self, unit: _Unit, kind: str, **fields) -> None:
        """Annotate the spans of every tuple still queued on ``unit``.

        Lifecycle events (migration, crash, removal) touch tuples that
        are in flight; their provenance spans record the event so a
        reader can see why a delivery was delayed or lost.
        """
        obs = self.obs
        if obs is None or obs.spans is None:
            return
        spans = obs.spans
        now = self.loop.now
        for _ts, _seq, tup, _release in unit.pending_rel:
            spans.annotate(tup, kind, now, **fields)

    def _migrate(self, unit: _Unit, new_host: int) -> float:
        """Move a unit -- plan, state, subscriptions -- to ``new_host``.

        A plan is one unit of window state: its members execute together
        or not at all, so a shared group moves wholesale.  Charges the
        overlay for the state transfer and pauses the unit's deliveries
        for the handoff delay; returns the state size moved.
        """
        old = unit.host
        self._annotate_pending(
            unit, "migrate", **{unit.kind: unit.uid}, src=old, dst=new_host
        )
        plan = self.engines[old].remove_query(unit.name)
        self.engines[new_host].adopt_plan(plan)
        self._host_units[old].remove(unit.uid)
        self._home_unit(unit, new_host)
        self.migrations += 1
        return self._handoff(unit, old)

    def _home_unit(self, unit: _Unit, host: int) -> None:
        """Attach a unit (its plan already on ``host``'s engine) to the
        network there: its source subscriptions and its result-stream
        advertisement, which the network moves from wherever they were
        (the advertisement's flood draws the listeners' ``p^2`` carves
        toward ``host``)."""
        unit.host = host
        unit.slack = self._slack(unit.substreams, host)
        for sub in unit.subs:
            self.network.subscribe(host, sub)
            self._by_sub[sub.sub_id] = unit.uid
        if unit.adv is not None:
            self.network.advertise(host, unit.adv)
        self._host_units.setdefault(host, []).append(unit.uid)

    def _handoff(self, unit: _Unit, src: int) -> float:
        """Ship the unit's plan state ``src`` -> its host: charge the
        overlay, pause deliveries for the transfer; returns the state size.

        A handoff is a control-plane event: every already-emitted row has
        been published (the caller flushed), so the release chain
        restarts from the bumped value.
        """
        state_tuples = float(unit.plan.state_size())
        lat_ms = self.network.account_path(
            src, unit.host, max(1.0, state_tuples)
        )
        handoff_s = (
            lat_ms + state_tuples * self.params.handoff_ms_per_tuple
        ) / 1000.0
        unit.ready = self.loop.now + handoff_s
        unit.last_release = max(unit.last_release, unit.ready)
        unit.last_release_floor = unit.last_release
        if unit.pending_rel and unit.ready > self._ready_by:
            # queued rows releasing during the pause wait until it ends
            self._ready_by = unit.ready
        return state_tuples

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _emit(self, sid: int, gen: int) -> None:
        """One source tuple of substream ``sid``; reschedules itself.

        ``gen`` is the substream's emission-chain generation: a hot-spot
        shift bumps it and starts a fresh chain at the new rate, which
        both revives substreams whose chain had run past the horizon and
        applies the new rate immediately; the superseded chain sees the
        stale generation and dies here.

        The tuple is not published here: it joins the substream's
        coalescing buffer, and unless a timeout is already set, schedules
        the batch publish one mean inter-arrival later
        (:meth:`_coalescing_timeout`).  Drawing values/arrivals stays in
        this per-tuple event so the rng consumption order -- and hence
        every generated tuple -- does not depend on how rows are grouped.
        """
        if gen != self._emit_gen[sid]:
            return
        t = self.loop.now
        tup = StreamTuple(
            stream_name(sid),
            {
                "value": int(self.value_rng.integers(0, VALUE_DOMAIN)),
                "timestamp": t,
            },
        )
        if self.actions is not None:
            self.actions.append(("tuple", tup))
        rate = float(self.space.rates[sid])
        self._emit_seq += 1
        obs = self.obs
        if (
            obs is not None
            and obs.spans is not None
            and obs.spans.wants(self._emit_seq)
        ):
            obs.spans.begin(self._emit_seq, sid, tup, t)
        self._src_pending[sid].append((self._emit_seq, tup))
        if not self._timeout_set[sid]:
            # coalescing window: one mean source inter-arrival (a dead
            # substream's lone row flushes immediately)
            self._timeout_set[sid] = True
            window = 1.0 / rate if rate > 1e-12 else 0.0
            self.loop.schedule(t + window, partial(self._coalescing_timeout, sid))
        self.tuples_emitted += 1
        if rate > 1e-12:
            nxt = t + float(self.arrival_rng.exponential(1.0 / rate))
            if nxt <= self.duration:
                self.loop.schedule(nxt, partial(self._emit, sid, gen))

    def _publish_rows(
        self, sid: int, rows: List[Tuple[int, StreamTuple]]
    ) -> None:
        """Publish a coalesced buffer of (seq, tuple) rows of one
        substream; queue deliveries.

        :meth:`_route` returns, per reached unit, the rows it accepted,
        which :meth:`_queue_rows` queues.
        """
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("dissemination")
        source = int(self.space.source_of[sid])
        now = self.loop.now
        if spans is not None:
            for seq, tup in rows:
                span = spans.lookup(tup)
                if span is not None:
                    span.hop("publish", now, substream=sid, source=source)
        for unit, unit_rows in self._route(source, sid, rows):
            self._queue_rows(unit, unit_rows, source)
        if profiler is not None:
            profiler.stop()

    def _queue_rows(
        self, unit: _Unit, rows: List[Tuple[int, StreamTuple]], source: int
    ) -> float:
        """Queue routed (seq, tuple) rows on a unit until something
        observes them; returns their latest release.

        Release times follow the per-tuple formula ``max(ts + slack,
        last_release)``; along a unit's timestamp order that equals
        ``max(ts + slack, last_release_floor)`` for every row, so
        computing them batch-at-a-time yields the per-tuple values.
        """
        spans = self.obs.spans if self.obs is not None else None
        release_last = 0.0
        for seq, tup in rows:
            release = max(tup.timestamp + unit.slack, unit.last_release_floor)
            unit.last_release = max(unit.last_release, release)
            # sorted insert by (timestamp, emission seq): rows of *other*
            # substreams may already sit in pending_rel with later
            # timestamps (their batch was published earlier)
            bisect.insort(unit.pending_rel, (tup.timestamp, seq, tup, release))
            release_last = release
            if spans is not None:
                self._span_queued(spans, tup, unit, source, release)
        if release_last > self._ready_by:
            self._ready_by = release_last
        return release_last

    def _span_queued(self, spans, tup, unit: _Unit, source: int, release) -> None:
        span = spans.lookup(tup)
        if span is not None:
            span.hop(
                "queued", self.loop.now, **{unit.kind: unit.uid},
                host=unit.host, release=round(release, 9),
                overlay_hops=len(self.network.tree.path(source, unit.host)) - 1,
            )

    def _route(
        self, source: int, sid: int, rows: List[Tuple[int, StreamTuple]]
    ) -> List[Tuple[_Unit, List[Tuple[int, StreamTuple]]]]:
        """Publish (seq, tuple) rows of one substream as one batch; per
        reached unit, the rows its source subscription accepted.

        The network replays its tables per row (``p^1`` filters drop
        rows early; a stream subscription takes them all), charges each
        link per row crossing it, and hands back each subscriber's rows.
        """
        deliveries = self.network.publish_batch(
            source, stream_name(sid), len(rows), [tup.values for _, tup in rows]
        )
        routed = []
        for delivery in deliveries:
            uid = self._by_sub.get(delivery.sub.sub_id)
            if uid is not None:
                accepted = delivery.rows
                routed.append((
                    self.units[uid],
                    rows if len(accepted) == len(rows)
                    else [rows[i] for i in accepted],
                ))
        return routed

    def _flush_substream(self, sid: int) -> None:
        """Publish a substream's coalesced rows as one batch."""
        rows = self._src_pending[sid]
        if not rows:
            return
        self._src_pending[sid] = []
        self._publish_rows(sid, rows)

    def _coalescing_timeout(self, sid: int) -> None:
        """A substream's coalescing window ended: publish its buffer."""
        self._timeout_set[sid] = False
        self._flush_substream(sid)

    def _publish_substreams(self, substreams) -> None:
        """Publish the coalescing buffers of ``substreams`` now.

        Publishing early is always safe -- matching, releases and
        accounting depend only on state that has not changed since the
        rows' emission -- and it is required before a control event
        re-routes a stream: the buffered rows were emitted under the
        tables and placements in force until then.
        """
        for sid in substreams:
            if self._src_pending[sid]:
                self._flush_substream(sid)

    def _flush_batches(self) -> None:
        """Publish every coalesced buffer and observe every unit.

        Samples, adaptation rounds and fault handlers read or change
        state every delivery depends on (CPU counters, result totals,
        hosts, window state, broker tables), so they observe everything
        released by now first.
        """
        self._publish_substreams(range(len(self._src_pending)))
        for unit_id in sorted(self.units):
            unit = self.units[unit_id]
            if not unit.detached and unit.pending_rel:
                self._drain_ready(unit)

    def _observe(self, unit: _Unit) -> None:
        """Deliver what a unit has released by now.

        A two-input query must consume its inputs in timestamp order:
        rows of its other substream emitted before now may still sit in
        a coalescing buffer -- publish them first so ``pending_rel``
        holds every row that can precede the released prefix.
        """
        if unit.detached:
            return
        self._publish_substreams(unit.substreams)
        if unit.pending_rel:
            self._drain_ready(unit)

    def _drain_ready(self, unit: _Unit) -> None:
        """Deliver the prefix of ``pending_rel`` whose release has come.

        Each row is accounted at ``max(release, ready)`` -- exactly when
        a per-tuple release event would have delivered it (it fires at
        ``release``, or is pushed to ``ready`` by a migration handoff
        pause).
        """
        now = self.loop.now
        if now < unit.ready:
            return
        pend = unit.pending_rel
        k = 0
        while k < len(pend) and pend[k][3] <= now:
            k += 1
        if not k:
            return
        rows = [(tup, max(release, unit.ready)) for _, _, tup, release in pend[:k]]
        del pend[:k]
        self._deliver_rows(unit, rows)

    def _deliver_rows(
        self, unit: _Unit, rows: List[Tuple[StreamTuple, float]]
    ) -> None:
        """Deliver (tuple, accounted time) rows to a unit in one push.

        The rows go in as one :class:`~repro.engine.tuples.MergedBatch`
        in delivery order; the engine joins a join's two interleaved
        inputs in a single two-sided pass.  A lone row for a join-less plan (no
        window state, so scalar and batch pushes are freely
        interchangeable) skips the columnar round trip: ``push_query`` is
        the same computation (bit-identical results and counters)
        without the batch assembly overhead.
        """
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("operator_exec")
        engine = self.engines[unit.host]
        tracked = None
        if spans is not None:
            tracked = [
                (span, at)
                for tup, at in rows
                for span in (spans.lookup(tup),)
                if span is not None
            ]
            before = unit.plan.operator_counters() if tracked else None
        if unit.plan.join is None and len(rows) == 1:
            tup, at = rows[0]
            self._account_results(
                unit, [(tup, at, engine.push_query(unit.name, tup))]
            )
        else:
            per_row = engine.push_query_batch(
                unit.name, MergedBatch.from_tuples([tup for tup, _ in rows])
            )
            self._account_results(
                unit,
                [(tup, at, results) for (tup, at), results in zip(rows, per_row)],
            )
        if tracked:
            after = unit.plan.operator_counters()
            delta = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] != before.get(key, 0)
            }
            for span, at in tracked:
                span.annotate("operators", at, rows=len(rows), counters=delta)
        if profiler is not None:
            profiler.stop()

    def _account_results(self, unit: _Unit, delivered: List[tuple]) -> None:
        """Account one push's results (latency, proxy traffic):
        ``delivered`` holds (input tuple, accounted time, results) per
        input row, in delivery order.

        ``results`` is sized and iterable: a list from the scalar push, or
        one entry of a :class:`~repro.engine.executor.BatchResults`, whose
        tuples are built only if something below iterates it.
        """
        obs = self.obs
        spans = None
        if obs is not None and obs.spans is not None:
            spans = [obs.spans.lookup(tup) for tup, _, _ in delivered]
            for span, (_tup, at, results) in zip(spans, delivered):
                if span is not None:
                    span.hop(
                        "engine", at, **{unit.kind: unit.uid}, host=unit.host,
                        results=len(results),
                    )
        if self._sharing:
            self._carve_results(unit, delivered, spans)
            return
        for k, (tup, at, results) in enumerate(delivered):
            if results:
                self._sink_results(
                    unit, tup, results, at, None if spans is None else spans[k]
                )

    def _sink_results(self, unit, tup, results, at, span) -> None:
        """Unshared accounting: every result belongs to the unit's one
        query and travels host -> proxy as one transfer.

        Only the *number* of results is needed (all share one latency),
        so nothing here reads a result: the rows stay unbuilt unless the
        run records them.
        """
        qs = self.queries[unit.all_members[0]]
        proxy = qs.simq.spec.proxy
        count = len(results)
        proxy_ms = 0.0
        if unit.host != proxy:
            proxy_ms = self.network.account_path(
                unit.host, proxy, float(count)
            )
        latency = (at - tup.timestamp) + proxy_ms / 1000.0
        if span is not None:
            span.hop(
                "sink", at, query=qs.simq.query_id, proxy=proxy,
                results=count, latency=round(latency, 9),
            )
        # one addition per result, in order: the sum's bits are those of
        # accounting the results one at a time
        lat_sum = qs.lat_sum
        for _ in range(count):
            lat_sum += latency
        qs.lat_sum = lat_sum
        if latency > qs.lat_max:
            qs.lat_max = latency
        self._interval_results += count
        self.results_total += count
        if self.record:
            qs.results.extend(results)

    def _carve_results(self, unit, delivered, spans) -> None:
        """Shared accounting: publish a merged plan's results; members
        carve at their proxies.

        Every result of the push is published on the group's result
        stream through the pub/sub network in one batch; each delivery
        is one member's ``p^2`` subscription matching (residual
        selections, window bands, lifetime span) at its proxy, and is
        accounted against *that* member -- latency is the input's age at
        delivery plus the host-to-proxy transit, traffic is charged per
        overlay link by the publish itself.
        """
        values = []
        owner = []  # the input row of each published result
        for k, (_tup, _at, results) in enumerate(delivered):
            values.extend([r.values for r in results])
            owner.extend([k] * len(results))
        if not values:
            return
        ages = [at - tup.timestamp for tup, at, _ in delivered]
        # input row -> member -> results carved, for traced inputs
        carved: Dict[int, Dict[int, int]] = {}
        for delivery in self.network.publish_batch(
            unit.host, unit.result_stream, len(values), values
        ):
            query_id = self._by_result_sub.get(delivery.sub.sub_id)
            if query_id is None:
                continue
            qs = self.queries[query_id]
            proxy_s = self._path_latency_ms(unit.host, delivery.node) / 1000.0
            # one addition per result, in order, as accounting the
            # results one at a time does
            lat_sum = qs.lat_sum
            lat_max = qs.lat_max
            for i in delivery.rows:
                latency = ages[owner[i]] + proxy_s
                lat_sum += latency
                if latency > lat_max:
                    lat_max = latency
            qs.lat_sum = lat_sum
            qs.lat_max = lat_max
            count = len(delivery.rows)
            self._interval_results += count
            self.results_total += count
            if spans is not None:
                for i in delivery.rows:
                    if spans[owner[i]] is not None:
                        members = carved.setdefault(owner[i], {})
                        members[query_id] = members.get(query_id, 0) + 1
            if self.record:
                keep = delivery.attrs
                qs.results.extend(
                    StreamTuple(
                        unit.result_stream,
                        dict(values[i]) if keep is None
                        else {k: v for k, v in values[i].items() if k in keep},
                    )
                    for i in delivery.rows
                )
        for k, members in carved.items():
            at = delivered[k][1]
            for qid in sorted(members):
                spans[k].hop(
                    "carve", at, group=unit.uid, member=qid,
                    results=members[qid],
                )

    # ------------------------------------------------------------------
    # dynamics: churn, hot spots, adaptation, sampling
    # ------------------------------------------------------------------
    def _churn_arrival(self, churn: ChurnParams) -> None:
        simq = self.factory.make()
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("coordinator")
        host = self.cosmos.insert(simq.spec)
        if profiler is not None:
            profiler.stop()
        self.add_query(simq, host)
        self.trace.mark(self.loop.now, "query_add", simq.name)
        lifetime = float(self.churn_rng.exponential(churn.mean_lifetime))
        self.loop.schedule(
            self.loop.now + lifetime,
            partial(self._churn_departure, simq.query_id),
        )
        nxt = self.loop.now + float(
            self.churn_rng.exponential(1.0 / churn.arrival_rate)
        )
        if nxt <= self.duration:
            self.loop.schedule(nxt, partial(self._churn_arrival, churn))

    def _churn_departure(self, query_id: int) -> None:
        qs = self.queries.get(query_id)
        if qs is None or not qs.alive:
            return
        self.trace.mark(self.loop.now, "query_remove", qs.name)
        self.cosmos.remove(query_id)
        self.remove_query(query_id)

    def _hotspot(self, substream_ids: List[int], factor: float) -> None:
        # a rate shift re-routes nothing and changes no unit: only the
        # shifted substreams' buffers (coalesced at the old rate) go out
        self._publish_substreams(substream_ids)
        self.space.perturb_rates(substream_ids, factor)
        # restart each affected substream's emission chain at the new rate
        # (also revives chains whose next arrival had run past the horizon)
        for sid in substream_ids:
            self._emit_gen[sid] += 1
            rate = float(self.space.rates[sid])
            if rate > 1e-12:
                nxt = self.loop.now + float(
                    self.arrival_rng.exponential(1.0 / rate)
                )
                if nxt <= self.duration:
                    self.loop.schedule(
                        nxt, partial(self._emit, sid, self._emit_gen[sid])
                    )
        self.trace.mark(
            self.loop.now, "hotspot", f"{len(substream_ids)}x{factor:g}"
        )

    def _measured_loads(self, dt: float, counter: str) -> Dict[int, float]:
        """Per-query loads from engine CPU counters since the last round.

        The engine meters plans, so each unit's CPU delta is attributed
        back to its live members in equal shares -- the per-query numbers
        the optimizer's refresh (Section 3.8) expects, measured on what
        actually executed (the whole delta for a unit of one).
        """
        loads: Dict[int, float] = {}
        for unit in self.units.values():
            if not unit.alive or unit.detached:
                continue
            cpu = unit.plan.cpu_cost()
            share = (cpu - getattr(unit, counter)) / len(unit.members) / dt
            setattr(unit, counter, cpu)
            for qid in unit.members:
                loads[qid] = share
        return loads

    @staticmethod
    def _majority_host(hosts) -> Optional[int]:
        """The host most of ``hosts`` name (``None`` entries abstain, ties
        go to the smallest host id); ``None`` when nobody votes."""
        votes: Dict[int, int] = {}
        for host in hosts:
            if host is not None:
                votes[host] = votes.get(host, 0) + 1
        if not votes:
            return None
        return min(votes, key=lambda h: (-votes[h], h))

    def _placement_stddev(self, loads: Dict[int, float]) -> float:
        per_host = np.zeros(len(self.processors))
        for query_id, load in loads.items():
            qs = self.queries[query_id]
            if not qs.alive:
                continue
            per_host[self._pindex[qs.host]] += load
        return float(np.std(per_host))

    def _adapt_round(self) -> None:
        """One Section 3.7 round driven by *measured* engine loads."""
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("coordinator")
        # measured loads must include every delivery released by now;
        # migrations change hosts/tables
        self._flush_batches()
        dt = self.params.adapt_interval
        loads = self._measured_loads(dt, "cpu_at_adapt")
        if loads:
            stddev_before = self._placement_stddev(loads)
            cpu0 = self.cosmos.total_time()
            self.cosmos.refresh_measured_loads(loads)
            self.cosmos.adapt()
            moved = 0
            moved_state = 0.0
            # a plan moves as one unit: it follows the majority of its
            # members' new placements, so the optimizer's per-query
            # wishes steer shared groups without splitting their window
            # state (a unit of one simply follows its query)
            for unit in self.units.values():
                if not unit.alive or unit.detached:
                    continue
                target = self._majority_host(
                    self.cosmos.placement.get(qid) for qid in unit.members
                )
                if target is not None and target != unit.host:
                    moved_state += self._migrate(unit, target)
                    moved += len(unit.members)
            self.trace.adaptations.append(
                AdaptationMark(
                    t=self.loop.now,
                    stddev_before=stddev_before,
                    stddev_after=self._placement_stddev(loads),
                    migrated_queries=moved,
                    moved_state=moved_state,
                    optimizer_cpu_s=self.cosmos.total_time() - cpu0,
                )
            )
        if profiler is not None:
            profiler.stop()
        nxt = self.loop.now + dt
        if nxt <= self.duration:
            self.loop.schedule(nxt, self._adapt_round)

    def _sample(self, closing: bool = False) -> None:
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("sampling")
        # the sample must observe every delivery released by this instant
        self._flush_batches()
        # actual elapsed interval: equals sample_interval for periodic
        # samples, but the closing sample covers only the drain tail
        dt = max(self.loop.now - self._last_sample_t, 1e-9)
        self._last_sample_t = self.loop.now
        loads = self._measured_loads(dt, "cpu_at_sample")
        n = self._interval_results
        # merge per-query latency accumulators in query-id order: one
        # canonical float summation order on both data planes
        lat_sum = 0.0
        lat_max = 0.0
        for query_id in sorted(self.queries):
            qs = self.queries[query_id]
            lat_sum += qs.lat_sum
            if qs.lat_max > lat_max:
                lat_max = qs.lat_max
            qs.lat_sum = 0.0
            qs.lat_max = 0.0
        self.trace.samples.append(
            TraceSample(
                t=self.loop.now if not closing else max(self.loop.now, self.duration),
                throughput=n / dt,
                mean_latency=lat_sum / n if n else 0.0,
                max_latency=lat_max,
                load_stddev=self._placement_stddev(loads),
                alive_queries=sum(1 for q in self.queries.values() if q.alive),
                migrations_total=self.migrations,
                data_bytes=float(sum(self.network.link_bytes.values())),
                control_bytes=float(sum(self.network.control_bytes.values())),
                results_total=self.results_total,
            )
        )
        self._interval_results = 0
        if not closing:
            nxt = self.loop.now + dt
            if nxt <= self.duration:
                self.loop.schedule(nxt, self._sample)
        if profiler is not None:
            profiler.stop()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the initial event population."""
        for sid in range(len(self.space)):
            rate = float(self.space.rates[sid])
            if rate > 1e-12:
                first = float(self.arrival_rng.exponential(1.0 / rate))
                if first <= self.duration:
                    self.loop.schedule(first, partial(self._emit, sid, 0))
        if self.params.sample_interval <= self.duration:
            self.loop.schedule(self.params.sample_interval, self._sample)
        if (
            self.params.adapt_interval is not None
            and self.params.adapt_interval <= self.duration
        ):
            self.loop.schedule(self.params.adapt_interval, self._adapt_round)
        if self.faults is not None:
            self.faults.schedule()

    def run(self) -> None:
        """Run to the horizon, then drain in-flight deliveries.

        The end-of-run drain observes every unit at the latest instant a
        queued row became ready for delivery (or later, when the tail's own
        events -- departures, detaches, heals -- ran longer), so each row
        is still accounted at ``max(release, ready)`` and the closing
        sample covers the whole tail.
        """
        self.loop.run_until(self.duration)
        self.loop.run()  # nothing reschedules past the horizon
        self.loop.run_until(max(self.loop.now, self._ready_by))
        self._flush_batches()
        if self._interval_results:
            self._sample(closing=True)  # catch the drain tail


def run_scenario(
    *,
    seed: int = 0,
    topology: Optional[TransitStubParams] = None,
    num_sources: int = 4,
    num_processors: int = 8,
    workload: SimWorkloadParams = SimWorkloadParams(),
    scenario: ScenarioParams = ScenarioParams(),
    cosmos_config: Optional[CosmosConfig] = None,
    record: bool = False,
    observer: Optional[Observer] = None,
) -> SimReport:
    """Build a cluster and run one scenario end to end.

    Everything -- topology, role selection, substream space, query
    population, tuple arrivals, churn -- derives from ``seed`` via
    :class:`numpy.random.SeedSequence` spawns, so equal seeds give
    bit-identical :class:`SimReport` traces.  With ``record=True`` the
    report additionally carries the ordered action log and every
    query's result tuples, which :func:`oracle_results` can replay on a
    single engine for correctness checks.

    ``observer`` attaches the observability layer
    (:class:`~repro.obs.observer.Observer`): provenance spans, the
    metrics registry and the subsystem profiler.  Observation is
    strictly read-only -- it draws no random numbers, schedules no
    events and feeds no wall-clock values back into the simulation, so
    the report is bit-identical with or without it.
    """
    if observer is not None:
        observer.begin(seed)
    profiler = observer.profiler if observer is not None else None
    if profiler is not None:
        profiler.start("setup")
    # the 9th spawn feeds fault-target resolution; SeedSequence spawning
    # is prefix-stable, so the first 8 streams -- and with them every
    # fault-free trace -- are bit-identical to the spawn(8) era
    spawned = np.random.SeedSequence(seed).spawn(9)
    rngs = [np.random.default_rng(s) for s in spawned]
    (topo_rng, roles_rng, space_rng, factory_rng,
     arrival_rng, value_rng, churn_rng, hotspot_rng, fault_rng) = rngs

    topo = generate_transit_stub(
        topology
        or TransitStubParams(
            transit_domains=2, transit_nodes=3,
            stubs_per_transit_node=2, stub_nodes=4,
        ),
        rng=topo_rng,
    )
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(
        topo,
        num_sources,
        num_processors + scenario.spare_processors,
        rng=roles_rng,
    )
    # spares sit in the overlay from the start (brokers and all) but stay
    # outside the engine/coordinator membership until a ProcessorJoin
    spares = processors[num_processors:]
    processors = processors[:num_processors]
    space = SubstreamSpace.random(
        workload.num_substreams,
        sources,
        rate_range=workload.rate_range,
        rng=space_rng,
    )
    factory = SimQueryFactory(space, processors, workload, factory_rng)
    initial = factory.make_batch(workload.num_queries)
    specs = [q.spec for q in initial]

    cosmos = Cosmos(
        oracle,
        processors,
        space,
        cosmos_config or CosmosConfig(k=4, vmax=60, seed=seed),
    )
    if scenario.initial_placement == "skewed":
        hosts = processors[: max(1, len(processors) // 8)]
        cosmos.adopt(
            specs,
            {q.query_id: hosts[i % len(hosts)] for i, q in enumerate(specs)},
        )
    else:
        cosmos.distribute(specs)

    cluster = SimCluster(
        oracle=oracle,
        sources=sources,
        processors=processors,
        space=space,
        cosmos=cosmos,
        params=scenario,
        factory=factory,
        arrival_rng=arrival_rng,
        value_rng=value_rng,
        churn_rng=churn_rng,
        fault_rng=fault_rng,
        spares=spares,
        seed=seed,
        record=record,
        observer=observer,
    )
    for simq in initial:
        cluster.add_query(simq, cosmos.placement[simq.query_id])
    if scenario.churn is not None:
        first = float(churn_rng.exponential(1.0 / scenario.churn.arrival_rate))
        if first <= scenario.duration:
            cluster.loop.schedule(
                first, partial(cluster._churn_arrival, scenario.churn)
            )
    if scenario.hotspot is not None and scenario.hotspot.at <= scenario.duration:
        count = min(scenario.hotspot.substreams, len(space))
        chosen = [
            int(s)
            for s in hotspot_rng.choice(len(space), size=count, replace=False)
        ]
        cluster.loop.schedule(
            scenario.hotspot.at,
            partial(cluster._hotspot, chosen, scenario.hotspot.factor),
        )
    if profiler is not None:
        profiler.stop()
    cluster.start()
    cluster.run()
    if observer is not None:
        observer.finish(cluster)

    results = None
    link_bytes = None
    cpu_costs = None
    if record:
        results = {
            query_id: [dict(t.values) for t in qs.results]
            for query_id, qs in cluster.queries.items()
        }
        link_bytes = dict(cluster.network.link_bytes)
        # the engine meters plans; attribute each unit's total equally
        # over every query that ever executed in it
        cpu_costs = {}
        for unit in cluster.units.values():
            share = unit.plan.cpu_cost() / len(unit.all_members)
            for qid in unit.all_members:
                cpu_costs[qid] = cpu_costs.get(qid, 0.0) + share
    return SimReport(
        trace=cluster.trace,
        queries={qid: qs.simq for qid, qs in cluster.queries.items()},
        placement=dict(cosmos.placement),
        tuples_emitted=cluster.tuples_emitted,
        events_processed=cluster.loop.processed,
        results=results,
        actions=cluster.actions,
        link_bytes=link_bytes,
        cpu_costs=cpu_costs,
        user_queries=len(cluster.queries),
        executed_queries=len(cluster.units),
        fault_log=cluster.fault_log,
    )


def oracle_results(
    actions: List[Tuple[str, object]]
) -> Dict[int, List[Dict]]:
    """Replay a recorded action log on ONE engine hosting every query.

    The ground truth for distributed execution: since the cluster
    delivers each query's inputs in emission order (see the module
    docstring), pushing the same tuples in the same global order through
    a single engine must produce exactly the same result tuples per
    query, churn included.
    """
    engine = Engine()
    out: Dict[int, List[Dict]] = {}

    def _sink(bucket: List[Dict], t: StreamTuple) -> None:
        bucket.append(dict(t.values))

    for kind, payload in actions:
        if kind == "tuple":
            engine.push(payload)
        elif kind == "add":
            simq: SimQuery = payload
            engine.add_query(simq.ast, result_stream=f"out_{simq.name}")
            bucket: List[Dict] = []
            out[simq.query_id] = bucket
            engine.on_result(simq.name, partial(_sink, bucket))
        elif kind == "remove":
            engine.remove_query(payload.name)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown action kind {kind!r}")
    return out
