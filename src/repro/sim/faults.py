"""Fault injection and elastic membership for the simulated cluster.

Failures and membership changes are *scheduled events* on the cluster's
seeded :class:`~repro.sim.events.EventLoop`, so a run with faults is
exactly as bit-reproducible as one without:

* :class:`ProcessorCrash` -- a processor's engine dies mid-window.  Its
  in-flight deliveries and all in-memory window state are lost; the
  node's *broker* keeps forwarding (the middleware process died, the
  overlay router did not), so queries hosted elsewhere lose nothing.
* :class:`BrokerLoss` -- one broker's routing tables are wiped
  (:meth:`~repro.pubsub.network.PubSubNetwork.reset_broker`).
  Deliveries whose dissemination path crosses the broker silently stop
  until advertisements are re-flooded and subscriptions re-propagated.
* :class:`LinkPartition` -- one overlay link goes down for a while;
  events routed across it are dropped (and not charged), then the link
  heals.
* :class:`ProcessorJoin` / :class:`ProcessorLeave` -- elastic
  membership: a spare node joins the coordinator hierarchy at runtime,
  or a member departs gracefully after migrating its hosted queries.

Recovery is pluggable (:data:`RECOVERY_POLICIES`): the default
:class:`CheckpointRecovery` re-places orphaned queries through the
coordinator's online insertion, restores window state from the latest
periodic checkpoint (piggybacking on the ``adopt_plan`` migration
handoff), and repairs broken subscription covering with the
``force=True`` re-propagation machinery; :class:`NoRecovery` keeps the
failure un-repaired as the baseline the tests compare against.

The module also hosts the *recovery invariants* the test suite asserts:
queries untouched by a failed node lose nothing (exact oracle parity);
queries hosted on it lose a bounded window (their results are a
subsequence of the oracle's) and, with recovery, regain full parity for
results derived entirely from post-recovery inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.executor import Engine

__all__ = [
    "ProcessorCrash",
    "BrokerLoss",
    "LinkPartition",
    "ProcessorJoin",
    "ProcessorLeave",
    "RecoveryPolicy",
    "CheckpointRecovery",
    "NoRecovery",
    "RECOVERY_POLICIES",
    "FaultInjector",
    "is_subsequence",
    "recovery_invariants",
]


# ---------------------------------------------------------------------------
# fault event specifications
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorCrash:
    """A processor's engine dies at ``at``; window state is lost.

    ``node=None`` picks a processor currently hosting at least one live
    delivery unit via the fault rng.  Recovery (if any) runs
    ``detect_delay`` seconds later -- the failure-detection lag.
    """

    at: float
    node: Optional[int] = None
    detect_delay: float = 0.25


@dataclass(frozen=True)
class BrokerLoss:
    """One broker restarts with empty routing tables at ``at``."""

    at: float
    node: Optional[int] = None
    detect_delay: float = 0.25


@dataclass(frozen=True)
class LinkPartition:
    """One overlay link is down during ``[at, at + duration)``."""

    at: float
    duration: float = 2.0
    link: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class ProcessorJoin:
    """The next spare processor joins the hierarchy at ``at``."""

    at: float


@dataclass(frozen=True)
class ProcessorLeave:
    """A processor departs gracefully at ``at``: hosted queries migrate
    out live (state intact), then the node leaves the hierarchy."""

    at: float
    node: Optional[int] = None


# ---------------------------------------------------------------------------
# recovery policies
# ---------------------------------------------------------------------------
class RecoveryPolicy:
    """What the system does after a failure is detected."""

    name = "base"

    def on_processor_crash(
        self,
        inj: "FaultInjector",
        fault: ProcessorCrash,
        node: int,
        orphans: List[int],
    ) -> None:
        """Called right after the crash took effect; ``orphans`` are the
        ids of the live units the node was running."""

    def on_broker_loss(
        self, inj: "FaultInjector", fault: BrokerLoss, node: int
    ) -> None:
        """Called right after the broker's tables were wiped."""


class NoRecovery(RecoveryPolicy):
    """Baseline: failures stay un-repaired.

    Queries hosted on a crashed processor never produce results again;
    routes across a lost broker stay dark.  The invariant tests use this
    to show recovery is doing real work (strictly less loss with it).
    """

    name = "none"


class CheckpointRecovery(RecoveryPolicy):
    """Default policy: re-place orphans, restore state from checkpoints.

    After ``detect_delay``: the crashed node leaves the coordinator
    hierarchy, the members of each orphaned unit re-enter through online
    insertion (Section 3.6), the unit's plan is restored on the host
    most of them landed on from the latest periodic checkpoint (or
    recompiled empty when none was taken) via the same ``adopt_plan``
    handoff a migration uses -- the state transfer from the checkpoint
    store is charged on the overlay and pauses deliveries for the
    handoff delay -- and subscription covering holes are repaired with
    forced re-propagation.  A shared group thus re-homes wholesale: one
    restored merged plan, a re-flooded result advertisement, reinstalled
    ``p^1`` subscriptions and forced ``p^2`` re-propagation for every
    member.
    """

    name = "checkpoint"

    def on_processor_crash(self, inj, fault, node, orphans):
        inj.cluster.loop.schedule(
            inj.cluster.loop.now + fault.detect_delay,
            partial(inj.recover_processor_crash, node, orphans),
        )

    def on_broker_loss(self, inj, fault, node):
        inj.cluster.loop.schedule(
            inj.cluster.loop.now + fault.detect_delay,
            partial(inj.recover_broker_loss, node),
        )


RECOVERY_POLICIES: Dict[str, type] = {
    "checkpoint": CheckpointRecovery,
    "none": NoRecovery,
}


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------
class FaultInjector:
    """Schedules fault events and implements their cluster-side effects.

    Owned by a :class:`~repro.sim.cluster.SimCluster` when its scenario
    configures ``faults`` or ``checkpoint_interval``.  All randomness
    (picking unnamed fault targets) draws from the dedicated fault rng
    -- the 9th :class:`numpy.random.SeedSequence` spawn -- so configured
    faults never perturb the workload/arrival/churn streams and fault
    targets are themselves reproducible.
    """

    def __init__(self, cluster, rng, params) -> None:
        self.cluster = cluster
        self.rng = rng
        self.params = params
        self.recovery: RecoveryPolicy = RECOVERY_POLICIES[params.recovery]()
        #: unit id -> pristine checkpoint plan
        self.checkpoints: Dict[int, object] = {}

    # -- scheduling ----------------------------------------------------
    def schedule(self) -> None:
        """Install fault events and the periodic checkpoint round."""
        c = self.cluster
        for fault in self.params.faults:
            if fault.at <= c.duration:
                c.loop.schedule(fault.at, partial(self.fire, fault))
        interval = self.params.checkpoint_interval
        if interval is not None and interval <= c.duration:
            c.loop.schedule(interval, self._checkpoint_round)

    def fire(self, fault) -> None:
        c = self.cluster
        c._flush_batches()
        if isinstance(fault, ProcessorCrash):
            self._crash(fault)
        elif isinstance(fault, BrokerLoss):
            self._broker_loss(fault)
        elif isinstance(fault, LinkPartition):
            self._partition(fault)
        elif isinstance(fault, ProcessorJoin):
            self._join(fault)
        elif isinstance(fault, ProcessorLeave):
            self._leave(fault)
        else:
            raise TypeError(f"unknown fault {fault!r}")

    # -- checkpoints ---------------------------------------------------
    def _store_node(self) -> int:
        """Where checkpoints live: the hierarchy's root coordinator."""
        return self.cluster.cosmos.tree.root.coordinator

    def _checkpoint_round(self) -> None:
        """Snapshot every live plan; charge the transfer to the store.

        The stored object is a deep operator clone
        (:meth:`~repro.engine.plans.QueryPlan.checkpoint`) and is itself
        re-cloned at restore time, so one checkpoint can serve repeated
        failures without aliasing live state.
        """
        c = self.cluster
        c._flush_batches()
        obs = c.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("recovery")
        store = self._store_node()
        shipped = 0
        state_tuples = 0
        for uid in sorted(c.units):
            unit = c.units[uid]
            if not unit.alive or unit.detached:
                continue
            self.checkpoints[uid] = unit.plan.checkpoint()
            state = float(unit.plan.state_size())
            shipped += 1
            state_tuples += int(state)
            if unit.host != store:
                c.network.account_path(unit.host, store, max(1.0, state))
        if obs is not None and obs.registry is not None:
            obs.registry.inc("recovery.checkpoints", shipped)
            obs.registry.inc("recovery.checkpoint_state_tuples", state_tuples)
        nxt = c.loop.now + self.params.checkpoint_interval
        if nxt <= c.duration:
            c.loop.schedule(nxt, self._checkpoint_round)
        if profiler is not None:
            profiler.stop()

    # -- target resolution ---------------------------------------------
    def _pick(self, choices: Sequence[int]) -> Optional[int]:
        if not choices:
            return None
        return int(choices[int(self.rng.integers(len(choices)))])

    def _hosting_processors(self) -> List[int]:
        c = self.cluster
        hosts = {
            u.host
            for u in c.units.values()
            if u.alive and not u.detached
        }
        return sorted(h for h in hosts if h in c.engines)

    # -- processor crash ----------------------------------------------
    def _crash(self, fault: ProcessorCrash) -> None:
        c = self.cluster
        node = fault.node
        if node is None:
            node = self._pick(self._hosting_processors())
        if node is None or node not in c.engines or len(c.processors) <= 1:
            c.fault_log.append(
                {"kind": "crash_skipped", "t": c.loop.now, "node": node}
            )
            return
        victims: List[int] = []
        orphans: List[int] = []
        torn_streams: set = set()
        for uid in sorted(c.units):
            unit = c.units[uid]
            if unit.host != node or unit.detached:
                continue
            c._annotate_pending(
                unit, "crash", node=node, **{unit.kind: uid}
            )
            unit.pending.clear()
            unit.pending_rel.clear()
            unit.detached = True
            # the subscription objects stay on the unit for the restore
            c._unsubscribe_sources(unit)
            if unit.adv is not None:
                c.network.unadvertise(unit.adv.adv_id)
            torn_streams.update(unit.streams)
            if unit.alive:
                orphans.append(uid)
            for qid in unit.members:
                c.queries[qid].alive = False
                victims.append(qid)
            c._host_units[node].remove(uid)
        # the engine process is gone; the overlay node keeps routing
        if c.obs is not None:
            c.obs.engine_retired(node, c.engines[node])
        c.engines.pop(node)
        c.processors.remove(node)
        c._pindex = {p: i for i, p in enumerate(c.processors)}
        c.cosmos.remove_processor(node)
        # the broker layer (alive) performed the unsubscribes above, so
        # it repairs covering right away: survivors whose propagation a
        # victim's identical subscription had suppressed must lose ZERO
        # tuples, not just the detect window's worth
        if torn_streams:
            c._refresh_subscriptions(streams=torn_streams)
        c.trace.mark(c.loop.now, "crash", f"p{node}")
        c.fault_log.append(
            {
                "kind": "crash",
                "t": c.loop.now,
                "node": node,
                "queries": sorted(victims),
                "groups": [
                    uid for uid in orphans if c.units[uid].kind == "group"
                ],
            }
        )
        self.recovery.on_processor_crash(self, fault, node, orphans)

    def recover_processor_crash(self, node: int, orphans: List[int]) -> None:
        """Re-place and restore every unit the crash orphaned."""
        c = self.cluster
        c._flush_batches()
        obs = c.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("recovery")
        touched: set = set()
        resumed = c.loop.now
        for uid in orphans:
            resumed = max(resumed, self._restore_unit(c.units[uid], touched))
        self._reinsert_stranded()
        if touched:
            c._refresh_subscriptions(streams=touched)
        if obs is not None and obs.registry is not None:
            obs.registry.inc("recovery.crash_recoveries")
        if profiler is not None:
            profiler.stop()
        c.trace.mark(c.loop.now, "recover", f"p{node}")
        c.fault_log.append(
            {
                "kind": "recover",
                "t": c.loop.now,
                "node": node,
                "resumed_at": resumed,
            }
        )

    def _place_members(self, unit) -> int:
        """Re-enter a live unit's members through online insertion;
        returns the host most of them landed on.

        A unit follows the majority of its members, so a member's own
        placement can be a processor that is still up: it was never
        orphaned and must leave its old root-to-leaf path first
        (``Cosmos.insert`` does not look for an existing copy).
        """
        c = self.cluster
        hosts = []
        for qid in unit.members:
            if qid in c.cosmos.placement:
                c.cosmos.remove(qid)
            hosts.append(c.cosmos.insert(c.queries[qid].simq.spec))
        return c._majority_host(hosts)

    def _reinsert_stranded(self) -> None:
        """Tell the optimizer again about live queries it lost with a node.

        The mirror image of :meth:`_place_members`: a member placed on
        the departed node whose unit runs elsewhere kept its plan but was
        dropped from the coordinator tree with the node.
        """
        c = self.cluster
        for qid in sorted(c.queries):
            qs = c.queries[qid]
            if qs.alive and qid not in c.cosmos.placement:
                c.cosmos.insert(qs.simq.spec)

    def _restore_unit(self, unit, touched: set) -> float:
        """Restore one orphaned unit where most of its members re-placed."""
        c = self.cluster
        target = self._place_members(unit)
        engine = c.engines[target]
        ckpt = self.checkpoints.get(unit.uid)
        if ckpt is not None:
            plan = ckpt.checkpoint()
            if plan.query is not unit.executed:
                # members that joined after the snapshot widened the
                # unit's query; widen the restored operators to match
                plan.widen_to(unit.executed)
            engine.adopt_plan(plan)
        else:
            plan = engine.add_query(
                unit.executed, result_stream=unit.result_stream
            )
        unit.plan = plan
        unit.detached = False
        for qid in unit.members:
            c.queries[qid].alive = True
        c._home_unit(unit, target)
        c._handoff(unit, self._store_node())
        # the lost plan's CPU counter died with it: rebase deltas on the
        # restored plan so measured loads stay non-negative
        unit.cpu_at_sample = plan.cpu_cost()
        unit.cpu_at_adapt = plan.cpu_cost()
        touched.update(unit.streams)
        if c.obs is not None and c.obs.registry is not None:
            c.obs.registry.inc("recovery.units_restored")
        return unit.ready

    # -- broker loss ---------------------------------------------------
    def _broker_loss(self, fault: BrokerLoss) -> None:
        c = self.cluster
        node = fault.node
        if node is None:
            node = self._pick(sorted(c.processors))
        if node is None:
            c.fault_log.append(
                {"kind": "broker_loss_skipped", "t": c.loop.now, "node": node}
            )
            return
        c.network.reset_broker(node)
        c.trace.mark(c.loop.now, "broker_loss", f"b{node}")
        c.fault_log.append(
            {"kind": "broker_loss", "t": c.loop.now, "node": node}
        )
        self.recovery.on_broker_loss(self, fault, node)

    def recover_broker_loss(self, node: int) -> None:
        """Re-flood advertisements, then force-repropagate subscriptions.

        Order matters: the wiped broker forwards a subscription only
        toward interfaces its advertisement table points at, so adverts
        must cross it again before the ``force=True`` pass can.
        """
        c = self.cluster
        c._flush_batches()
        obs = c.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("recovery")
        c.network.reflood_advertisements()
        c._refresh_subscriptions()
        for uid in sorted(c.units):
            c._resubscribe_results(c.units[uid].listeners)
        if obs is not None and obs.registry is not None:
            obs.registry.inc("recovery.broker_recoveries")
        if profiler is not None:
            profiler.stop()
        c.trace.mark(c.loop.now, "recover", f"b{node}")
        c.fault_log.append(
            {"kind": "recover", "t": c.loop.now, "node": node}
        )

    # -- link partition ------------------------------------------------
    def _partition(self, fault: LinkPartition) -> None:
        c = self.cluster
        link = fault.link
        if link is None:
            tree = c.network.tree
            edges = sorted(
                {
                    (min(u, v), max(u, v))
                    for u in tree.links
                    for v in tree.links[u]
                }
            )
            idx = int(self.rng.integers(len(edges)))
            link = edges[idx]
        u, v = link
        c.network.set_link_down(u, v)
        c.trace.mark(c.loop.now, "partition", f"{u}-{v}")
        c.fault_log.append(
            {"kind": "partition", "t": c.loop.now, "link": (u, v)}
        )
        c.loop.schedule(
            c.loop.now + fault.duration, partial(self._heal_link, u, v)
        )

    def _heal_link(self, u: int, v: int) -> None:
        c = self.cluster
        # rows emitted and results released while the link was down are
        # published under the partition, as the per-tuple plane does
        c._flush_batches()
        c.network.set_link_up(u, v)
        c.trace.mark(c.loop.now, "heal", f"{u}-{v}")
        c.fault_log.append(
            {"kind": "heal", "t": c.loop.now, "link": (u, v)}
        )

    # -- elastic membership --------------------------------------------
    def _join(self, fault: ProcessorJoin) -> None:
        c = self.cluster
        if not c.spares:
            c.fault_log.append(
                {"kind": "join_skipped", "t": c.loop.now, "node": None}
            )
            return
        node = c.spares.pop(0)
        c.engines[node] = Engine(node=node, use_batches=c.params.use_batches)
        c.processors.append(node)
        c._pindex = {p: i for i, p in enumerate(c.processors)}
        c.cosmos.add_processor(node)
        c.trace.mark(c.loop.now, "join", f"p{node}")
        c.fault_log.append({"kind": "join", "t": c.loop.now, "node": node})

    def _leave(self, fault: ProcessorLeave) -> None:
        """Graceful departure: migrate hosted units out live, then leave."""
        c = self.cluster
        node = fault.node
        if node is None:
            node = self._pick(self._hosting_processors())
        if node is None or node not in c.engines or len(c.processors) <= 1:
            c.fault_log.append(
                {"kind": "leave_skipped", "t": c.loop.now, "node": node}
            )
            return
        c.cosmos.remove_processor(node)
        touched: set = set()
        moved = 0
        for uid in sorted(c.units):
            unit = c.units[uid]
            if unit.host != node or unit.detached:
                continue
            if unit.alive:
                c._migrate(unit, self._place_members(unit))
                touched.update(unit.streams)
                moved += len(unit.members)
            else:
                # a retiring unit mid-drain (its members are not in the
                # placement any more): finish it now, while its engine
                # still exists
                c._detach_unit(uid)
        self._reinsert_stranded()
        if touched:
            c._refresh_subscriptions(streams=touched)
        if c.obs is not None:
            c.obs.engine_retired(node, c.engines[node])
        c.engines.pop(node)
        c.processors.remove(node)
        c._pindex = {p: i for i, p in enumerate(c.processors)}
        removed_subs, _ = c.network.remove_broker(node)
        # the engine left, not the users: members whose *proxy* sits at
        # the departing node keep listening there (the node stays in the
        # overlay as a router), so reinstall their carves
        c._resubscribe_results(
            c._by_result_sub[sub_id]
            for sub_id in removed_subs
            if sub_id in c._by_result_sub
        )
        c.trace.mark(c.loop.now, "leave", f"p{node}")
        c.fault_log.append(
            {
                "kind": "leave",
                "t": c.loop.now,
                "node": node,
                "migrated": moved,
            }
        )


# ---------------------------------------------------------------------------
# recovery invariants (asserted by the test suite)
# ---------------------------------------------------------------------------
def is_subsequence(sub: List, full: List) -> bool:
    """Whether ``sub`` appears in ``full`` in order (gaps allowed)."""
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


def recovery_invariants(
    sim_results: Dict[int, List[Dict]],
    oracle: Dict[int, List[Dict]],
    *,
    affected: set,
    resumed_at: Optional[float] = None,
    window_s: float = 0.0,
) -> List[Tuple[int, str]]:
    """Check the fault-tolerance invariants; returns the violations.

    * a query NOT in ``affected`` (never hosted on a failed node) must
      match the single-engine oracle exactly -- zero result loss;
    * an affected query's results must be a *subsequence* of the
      oracle's -- bounded loss, never corruption or reordering;
    * when ``resumed_at`` is given (recovery ran), every oracle result
      of an affected query with ``timestamp > resumed_at + window_s``
      must be present -- full parity once the lost window has aged out
      (join timestamps are probe timestamps, so such results derive
      entirely from post-recovery inputs).
    """
    violations: List[Tuple[int, str]] = []
    for qid in sorted(oracle):
        want = oracle[qid]
        got = sim_results.get(qid, [])
        if qid not in affected:
            if got != want:
                violations.append((qid, "exact"))
            continue
        if not is_subsequence(got, want):
            violations.append((qid, "subsequence"))
            continue
        if resumed_at is not None:
            horizon = resumed_at + window_s
            missing = [
                r
                for r in want
                if r.get("timestamp", 0.0) > horizon and r not in got
            ]
            if missing:
                violations.append((qid, "post_recovery_parity"))
    return violations
