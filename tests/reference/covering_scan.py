"""Subscription tables by list scans.

The definition of what :class:`repro.pubsub.routing.RoutingTable` must
do.  The table scans an interface's whole entry list to find a
redeclared ``sub_id``, to ask whether an entry covers a new subscription
and to prune the entries it covers, to find the entries a torn-down
subscription had been covering, and to list the entries that can gate
an event of a stream (the question a batch route is read from); it
matches an event by testing every entry.  Production asks per-interface
``sub_id`` and stream indexes.  :class:`ScanNetwork` runs the production
protocols over such tables and publishes an event by the hop-by-hop walk
(:mod:`reference.per_row_publish`).  ``tests/test_control_plane.py`` and
``tests/test_forwarding_index.py`` hold the two side by side.
"""

from typing import Optional

from reference.per_row_publish import match_event, walk_publish

from repro.pubsub.network import PubSubNetwork
from repro.pubsub.routing import LOCAL, Interface, RoutingTable
from repro.pubsub.subscriptions import Subscription


class ScanRoutingTable(RoutingTable):
    """A :class:`RoutingTable` that maintains and answers by scanning
    entry lists.

    The interface indexes of the production table stay empty and are
    never read.
    """

    match_event = match_event

    def add_subscription(self, sub: Subscription, via: Interface) -> bool:
        entries = self.subscriptions.setdefault(via, [])
        changed = False
        for pos, existing in enumerate(entries):
            if existing.sub_id == sub.sub_id:
                if existing is sub or existing == sub:
                    return False
                if via == LOCAL:
                    entries[pos] = sub
                    return True
                del entries[pos]
                changed = True
                break
        if via != LOCAL:
            for existing in entries:
                if existing.covers(sub):
                    return changed
            entries[:] = [e for e in entries if not sub.covers(e)]
        entries.append(sub)
        return True

    def remove_subscription(
        self, sub_id: int, via: Optional[Interface] = None
    ) -> Optional[Subscription]:
        removed = None
        ifaces = [via] if via is not None else list(self.subscriptions)
        for iface in ifaces:
            entries = self.subscriptions.get(iface)
            if entries is None:
                continue
            kept = [e for e in entries if e.sub_id != sub_id]
            if len(kept) == len(entries):
                continue
            removed = next(e for e in entries if e.sub_id == sub_id)
            entries[:] = kept
            if not entries:
                del self.subscriptions[iface]
        return removed

    def holds(self, sub_id: int, besides: Interface) -> bool:
        return any(
            e.sub_id == sub_id
            for iface, entries in self.subscriptions.items()
            if iface != besides
            for e in entries
        )

    def covered_entries(self, sub: Subscription, skip: Interface):
        return [
            e
            for iface, entries in self.subscriptions.items()
            if iface != skip
            for e in entries
            if e.sub_id != sub.sub_id and sub.covers(e)
        ]

    def covered_upstream(self, sub: Subscription, toward: Interface) -> bool:
        for iface, entries in list(self.subscriptions.items()):
            if iface == toward:
                continue
            if any(e.covers(sub) and e.sub_id != sub.sub_id for e in entries):
                return True
        return False

    def stream_entries(self, stream: str):
        return [
            (iface, sub, sub.filter.matcher())
            for iface, entries in self.subscriptions.items()
            for sub in entries
            if stream in sub.streams
        ]


class ScanNetwork(PubSubNetwork):
    """A :class:`PubSubNetwork` over :class:`ScanRoutingTable` brokers
    whose ``publish`` is the hop-by-hop walk."""

    def __init__(self, tree):
        super().__init__(tree)
        for node, broker in self.brokers.items():
            broker.table = ScanRoutingTable(broker=node)

    publish = walk_publish
