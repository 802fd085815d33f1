"""Subscription tables by list scans.

The definition of what :class:`repro.pubsub.routing.RoutingTable` must
do.  The table scans an interface's whole entry list to find a
redeclared ``sub_id``, to ask whether an entry covers a new subscription
and to prune the entries it covers, to find the entries a torn-down
subscription had been covering, and it matches an event by testing every
entry; production asks per-interface ``sub_id`` and stream indexes the
maintenance questions and a counting forwarding index the matching ones
-- including which entries can gate an event of a stream, the question a
batch route is read from.  :class:`ScanNetwork` runs the production
protocols over such tables.  ``tests/test_control_plane.py`` and
``tests/test_forwarding_index.py`` hold the two side by side.
"""

from typing import Optional, Set

from repro.pubsub.index import EventMatch
from repro.pubsub.network import PubSubNetwork
from repro.pubsub.routing import LOCAL, Interface, RoutingTable
from repro.pubsub.subscriptions import Subscription


class ScanRoutingTable(RoutingTable):
    """A :class:`RoutingTable` that maintains and matches by scanning
    entry lists.

    The interface indexes of the production table stay empty and are
    never read.  The forwarding index is fed the same maintenance calls
    as production's (so their order can be compared) but never asked.
    """

    def add_subscription(self, sub: Subscription, via: Interface) -> bool:
        entries = self.subscriptions.setdefault(via, [])
        changed = False
        for pos, existing in enumerate(entries):
            if existing.sub_id == sub.sub_id:
                if existing is sub or existing == sub:
                    return False
                if via == LOCAL:
                    entries[pos] = sub
                    self._index.add(sub, via)
                    return True
                del entries[pos]
                self._index.remove(sub.sub_id, via)
                changed = True
                break
        if via != LOCAL:
            for existing in entries:
                if existing.covers(sub):
                    return changed
            kept, pruned = [], []
            for e in entries:
                (pruned if sub.covers(e) else kept).append(e)
            if pruned:
                entries[:] = kept
                for e in pruned:
                    self._index.remove(e.sub_id, via)
        entries.append(sub)
        self._index.add(sub, via)
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
            self._index.remove(sub_id, iface)
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

    def match_event(self, event, arrived_via=None) -> EventMatch:
        out = EventMatch()
        for iface, entries in list(self.subscriptions.items()):
            if iface == arrived_via:
                continue
            matching = [s for s in entries if s.matches(event)]
            if not matching:
                continue
            out.interfaces.add(iface)
            if iface == LOCAL:
                out.local = matching
            needed: Optional[Set[str]] = set()
            for sub in matching:
                if sub.projection is None:
                    needed = None
                    break
                needed |= sub.projection
            out.needed[iface] = needed
        return out

    def stream_entries(self, stream: str):
        return [
            (iface, sub, sub.filter.matcher())
            for iface, entries in self.subscriptions.items()
            for sub in entries
            if stream in sub.streams
        ]


class ScanNetwork(PubSubNetwork):
    """A :class:`PubSubNetwork` over :class:`ScanRoutingTable` brokers."""

    def __init__(self, tree):
        super().__init__(tree)
        for node, broker in self.brokers.items():
            broker.table = ScanRoutingTable(broker=node)
