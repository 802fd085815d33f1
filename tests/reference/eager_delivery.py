"""The per-publish drain scheduler of the batch data plane.

The definition of what :class:`repro.sim.cluster.SimCluster` must
deliver and account: every publish schedules its unit's drain at the
batch's release (or at the end of a handoff pause, when the drain finds
the unit paused), and each drain publishes the unit's coalescing buffers
and delivers the released prefix of its queue.  Production schedules no
such event and delivers a unit's rows only when something observes them;
``tests/test_on_demand_delivery.py`` holds the two side by side.

The scheduler this was taken from also skipped an event when a later
drain of the unit was already pending; that only elides redundant
events (a drain at ``T`` delivers every row released by ``T``), so it is
left out here.
"""

from functools import partial

from repro.sim.cluster import SimCluster


class EagerCluster(SimCluster):
    """A :class:`SimCluster` that drains a unit whenever a batch of its
    rows is released."""

    def _queue_rows(self, unit, rows, source):
        release_last = super()._queue_rows(unit, rows, source)
        self.loop.schedule(
            max(release_last, self.loop.now),
            partial(self._drain_query, unit.uid),
        )
        return release_last

    def _drain_query(self, unit_id: int) -> None:
        unit = self.units.get(unit_id)
        if unit is None or unit.detached or not unit.pending_rel:
            return
        if self.loop.now < unit.ready:
            self.loop.schedule(unit.ready, partial(self._drain_query, unit_id))
            return
        self._observe(unit)
