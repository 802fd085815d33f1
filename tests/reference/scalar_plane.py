"""The per-tuple data plane of the simulator.

The definition of what :class:`repro.sim.cluster.SimCluster` must deliver
and account: every emitted tuple is published at once by the hop-by-hop
walk of :mod:`reference.per_row_publish` (on the shared plane the broker
tables match its content against the ``p^1`` filters) -- not by
production's ``publish``, a one-row ``publish_batch``, which would hold
production to itself; every unit it reaches queues it behind the release chain
``max(ts + slack, last_release)`` and schedules one release event for
it; each release event pushes its one tuple into the engine with
``push_query``.
Production coalesces a substream's tuples into batch publishes and
delivers a unit's released rows when something observes them;
``tests/test_batch_parity.py`` holds the two side by side.

Only fault-free runs are defined here -- both sharing planes, churn, hot
spots, migrations and checkpoints.  Fault semantics are pinned by
:mod:`reference.eager_delivery` and the recovery invariants.
"""

from collections import deque
from functools import partial

from reference.per_row_publish import walk_publish

from repro.pubsub.messages import Event
from repro.sim.cluster import SimCluster


class ScalarCluster(SimCluster):
    """A :class:`SimCluster` that publishes, releases and pushes one
    tuple at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.params.faults:
            raise ValueError("faults: the per-tuple plane defines fault-free runs")
        # no coalescing timeout is ever scheduled: _emit publishes at once
        self._timeout_set = [True] * len(self.space)
        #: unit id -> (tuple, release) in FIFO order; releases are
        #: non-decreasing, and keeping them lets a release event verify
        #: the head's time really has come (a force-drain can leave stale
        #: events behind)
        self.pending = {}

    def _emit(self, sid, gen):
        super()._emit(sid, gen)
        self._flush_substream(sid)

    def _route(self, source, sid, rows):
        ((_seq, tup),) = rows
        event = Event(stream=tup.stream, attributes=tup.values)
        routed = []
        for _node, _ev, sub in walk_publish(self.network, source, event):
            uid = self._by_sub.get(sub.sub_id)
            if uid is not None:
                routed.append((self.units[uid], rows))
        return routed

    def _queue_rows(self, unit, rows, source):
        ((_seq, tup),) = rows
        release = max(tup.timestamp + unit.slack, unit.last_release)
        unit.last_release = release
        self.pending.setdefault(unit.uid, deque()).append((tup, release))
        if self.obs is not None and self.obs.spans is not None:
            self._span_queued(self.obs.spans, tup, unit, source, release)
        self.loop.schedule(release, partial(self._release_one, unit.uid))
        return release

    def _release_one(self, unit_id):
        """Deliver the oldest pending tuple of a unit to its plan, in
        emission order even when a migration's handoff pause reschedules
        release events."""
        unit = self.units[unit_id]
        fifo = self.pending.get(unit_id)
        if unit.detached or not fifo:
            return
        if self.loop.now < unit.ready:
            self.loop.schedule(unit.ready, partial(self._release_one, unit_id))
            return
        tup, release = fifo[0]
        if self.loop.now < release:
            # stale event: its own tuple was force-drained earlier (a
            # member departure).  The head tuple's own release event is
            # still queued and will deliver it on time.
            return
        fifo.popleft()
        self._deliver_now(unit, tup)

    def _deliver_now(self, unit, tup):
        """Push one tuple into a unit's plan and account its results."""
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("operator_exec")
        span = spans.lookup(tup) if spans is not None else None
        before = unit.plan.operator_counters() if span is not None else None
        results = self.engines[unit.host].push_query(unit.name, tup)
        if span is not None:
            after = unit.plan.operator_counters()
            delta = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] != before.get(key, 0)
            }
            span.annotate("operators", self.loop.now, rows=1, counters=delta)
        self._account_results(unit, [(tup, self.loop.now, results)])
        if profiler is not None:
            profiler.stop()

    def _drain_unit_completely(self, unit):
        fifo = self.pending.get(unit.uid)
        while fifo:
            self._deliver_now(unit, fifo.popleft()[0])

    def _annotate_pending(self, unit, kind, **fields):
        obs = self.obs
        if obs is None or obs.spans is None:
            return
        for tup, _release in self.pending.get(unit.uid, ()):
            obs.spans.annotate(tup, kind, self.loop.now, **fields)
