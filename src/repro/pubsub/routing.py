"""Per-broker routing state: advertisement and subscription tables.

Interfaces are either a neighbour broker id (an ``int``) or the marker
:data:`LOCAL` for subscribers attached to this broker.  The tables mirror
Siena's: the advertisement table records, per advertisement, the interface
leading back to the advertiser; the subscription table records, per
interface, which subscriptions were received from it, so that events are
forwarded only toward interested parties.

The network's questions read per-interface indexes, not entry lists:
each interface keeps its entries by ``sub_id`` and by stream
(:class:`_Slot`), so a redeclaration check is a dict probe, a covering
test visits only entries that share a stream with the subscription --
exact, because ``a.covers(b)`` needs ``b.streams <= a.streams`` -- and
the entries that can gate an event of a stream
(:meth:`RoutingTable.stream_entries`, what a content route is read
from) are one bucket per interface.  The entry-list scans that define
all three are the oracle in ``tests/reference/covering_scan.py``
(``tests/test_control_plane.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .subscriptions import Advertisement, Subscription

__all__ = ["LOCAL", "Interface", "RoutingTable"]

#: Marker interface for locally attached subscribers.
LOCAL = "local"

Interface = Union[int, str]

#: the bucket key of entries that name no stream at all
_STREAMLESS = (None,)


class _Slot:
    """One interface's entries, indexed: ``sub_id`` -> entry, and the
    same entries bucketed by each stream they name (stream-less entries
    under ``None``), each bucket in the interface's list order."""

    __slots__ = ("ids", "streams")

    def __init__(self) -> None:
        self.ids: Dict[int, Subscription] = {}
        self.streams: Dict[Optional[str], Dict[int, Subscription]] = {}

    def add(self, sub: Subscription) -> None:
        self.ids[sub.sub_id] = sub
        for stream in sub.streams or _STREAMLESS:
            bucket = self.streams.get(stream)
            if bucket is None:
                bucket = self.streams[stream] = {}
            bucket[sub.sub_id] = sub

    def discard(self, sub: Subscription) -> None:
        del self.ids[sub.sub_id]
        for stream in sub.streams or _STREAMLESS:
            bucket = self.streams[stream]
            del bucket[sub.sub_id]
            if not bucket:
                del self.streams[stream]

    def replace(self, old: Subscription, new: Subscription, entries: List[Subscription]) -> None:
        """Swap ``old`` for ``new`` (one ``sub_id``) where ``entries``, the
        interface's list, already holds ``new`` in ``old``'s place: the
        buckets ``new`` lands in are re-read from the list, so they keep
        its order even for a stream ``old`` did not name."""
        self.discard(old)
        self.ids[new.sub_id] = new
        for stream in new.streams or _STREAMLESS:
            self.streams[stream] = {
                e.sub_id: e for e in entries if stream in (e.streams or _STREAMLESS)
            }

    def may_cover(self, sub: Subscription) -> Iterable[Subscription]:
        """Every entry that names all of ``sub``'s streams, perhaps more:
        the only ones that can cover it.  One stream's bucket (the
        smallest) is enough; a stream-less ``sub`` needs every entry."""
        if not sub.streams:
            return self.ids.values()
        best: Optional[Dict[int, Subscription]] = None
        for stream in sub.streams:
            bucket = self.streams.get(stream)
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        return best.values()

    def covered_by(self, sub: Subscription) -> Set[int]:
        """Ids of the entries ``sub`` covers.  Only entries naming no
        stream outside ``sub.streams`` qualify, and each of those sits in
        a bucket of one of ``sub``'s streams or in the stream-less one."""
        out: Set[int] = set()
        for stream in (*sub.streams, None):
            for sub_id, entry in self.streams.get(stream, {}).items():
                if sub_id not in out and sub.covers(entry):
                    out.add(sub_id)
        return out


def _position(entries: List[Subscription], entry: Subscription) -> int:
    """Where ``entry`` itself sits in ``entries`` (by identity: equality
    of subscriptions compares filters semantically and is slow)."""
    for pos, existing in enumerate(entries):
        if existing is entry:
            return pos
    raise ValueError(f"subscription {entry.sub_id} is not in the list")


@dataclass
class RoutingTable:
    """Routing state of one broker."""

    broker: int
    #: adv_id -> (advertisement, interface toward the advertiser)
    advertisements: Dict[int, Tuple[Advertisement, Interface]] = field(
        default_factory=dict
    )
    #: interface -> subscriptions received from that interface
    subscriptions: Dict[Interface, List[Subscription]] = field(default_factory=dict)
    #: stream name -> adv_ids advertising it (propagation never scans the
    #: whole advertisement table; a subscription only intersects
    #: advertisements of streams it requests)
    _adv_streams: Dict[str, Set[int]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: interface -> its entries by ``sub_id`` and by stream
    _slots: Dict[Interface, _Slot] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        for iface, entries in self.subscriptions.items():
            slot = self._slots[iface] = _Slot()
            for sub in entries:
                slot.add(sub)
        for adv_id, (adv, _via) in self.advertisements.items():
            self._adv_streams.setdefault(adv.stream, set()).add(adv_id)

    def clear(self) -> None:
        """Drop every advertisement and subscription (a broker restart).

        Leaves the table exactly as a freshly constructed one, so routing
        and covering behave as if the broker had just joined with no
        state -- the broker-loss fault model of the simulator.
        """
        self.advertisements.clear()
        self.subscriptions.clear()
        self._slots.clear()
        self._adv_streams.clear()

    # ------------------------------------------------------------------
    # advertisements
    # ------------------------------------------------------------------
    def add_advertisement(self, adv: Advertisement, via: Interface) -> bool:
        """Record an advertisement; returns False if already known."""
        if adv.adv_id in self.advertisements:
            return False
        self.advertisements[adv.adv_id] = (adv, via)
        self._adv_streams.setdefault(adv.stream, set()).add(adv.adv_id)
        return True

    def remove_advertisement(self, adv_id: int) -> None:
        entry = self.advertisements.pop(adv_id, None)
        if entry is None:
            return
        ids = self._adv_streams.get(entry[0].stream)
        if ids is not None:
            ids.discard(adv_id)
            if not ids:
                del self._adv_streams[entry[0].stream]

    def advertiser_interfaces(self, sub: Subscription) -> Set[Interface]:
        """Interfaces leading toward sources whose adverts intersect ``sub``.

        Only advertisements of the subscription's requested streams are
        probed (others cannot intersect) -- same result set as a full
        table scan, without touching every advertisement per hop.
        """
        out: Set[Interface] = set()
        for stream in sub.streams:
            for adv_id in self._adv_streams.get(stream, ()):
                adv, via = self.advertisements[adv_id]
                if via != LOCAL and via not in out and adv.intersects(sub):
                    out.add(via)
        return out

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def add_subscription(self, sub: Subscription, via: Interface) -> bool:
        """Install ``sub`` for interface ``via``.

        Returns True if the table changed.  An interface never holds two
        entries with one ``sub_id``: a re-declared subscription first
        displaces its stale entry -- appending next to it would bloat
        :meth:`size` and double-count deliveries.  (The network tears a
        re-declared subscription down before it installs the new one, so
        there this is a safety net.)  On LOCAL the replacement is *in
        place* (same list position, preserving delivery order); on
        neighbour interfaces the
        stale entry is dropped and the redeclaration then goes through
        the ordinary covering logic -- covering entries from the same
        interface suppress the add and covered older entries are pruned,
        keeping tables compact even across redeclarations.  LOCAL entries
        represent distinct subscribers and are never covered away --
        every local subscriber must keep receiving its own deliveries.

        Only entries sharing a stream with ``sub`` are tested for
        covering (see :class:`_Slot`).
        """
        entries = self.subscriptions.get(via)
        if entries is None:
            entries = self.subscriptions[via] = []
            slot = self._slots[via] = _Slot()
        else:
            slot = self._slots[via]
        changed = False
        existing = slot.ids.get(sub.sub_id)
        if existing is not None:
            if existing is sub or existing == sub:
                return False
            pos = _position(entries, existing)
            if via == LOCAL:
                entries[pos] = sub  # replace, keep delivery position
                slot.replace(existing, sub, entries)
                return True
            del entries[pos]  # stale: drop, then re-apply covering
            slot.discard(existing)
            changed = True
        if via != LOCAL:
            for other in slot.may_cover(sub):
                if other.covers(sub):
                    return changed
            pruned_ids = slot.covered_by(sub)
            if pruned_ids:
                kept, pruned = [], []
                for e in entries:
                    (pruned if e.sub_id in pruned_ids else kept).append(e)
                entries[:] = kept
                for e in pruned:
                    slot.discard(e)
        entries.append(sub)
        slot.add(sub)
        return True

    def remove_subscription(
        self, sub_id: int, via: Optional[Interface] = None
    ) -> Optional[Subscription]:
        """Drop every ``sub_id`` entry (from ``via`` only, if given);
        returns the entry dropped (the last, if several), or ``None``.

        Interfaces that do not hold ``sub_id`` are skipped by a probe.
        Safe against concurrent readers: interface keys are collected up
        front, so a caller mid-iteration (anything walking
        :meth:`iter_entries`) never sees the dict mutate under it.
        """
        removed = None
        ifaces = [via] if via is not None else list(self.subscriptions)
        for iface in ifaces:
            slot = self._slots.get(iface)
            entry = None if slot is None else slot.ids.get(sub_id)
            if entry is None:
                continue
            entries = self.subscriptions[iface]
            del entries[_position(entries, entry)]
            slot.discard(entry)
            if not entries:
                del self.subscriptions[iface]
                del self._slots[iface]
            removed = entry
        return removed

    def holds(self, sub_id: int, besides: Interface) -> bool:
        """Whether an interface other than ``besides`` holds ``sub_id``."""
        return any(sub_id in s.ids for i, s in self._slots.items() if i != besides)

    def covered_entries(
        self, sub: Subscription, skip: Interface
    ) -> List[Subscription]:
        """The entries ``sub`` covers, from every interface but ``skip``,
        in table order: what ``sub`` may have kept from being forwarded
        toward ``skip``.  Only entries sharing a stream with ``sub`` are
        tested (see :class:`_Slot`)."""
        out: List[Subscription] = []
        for iface, slot in self._slots.items():
            if iface == skip:
                continue
            ids = slot.covered_by(sub)
            ids.discard(sub.sub_id)
            if ids:
                out.extend(e for e in self.subscriptions[iface] if e.sub_id in ids)
        return out

    def iter_entries(self) -> List[Tuple[Interface, Subscription]]:
        """Snapshot of every (interface, subscription) entry.

        Taken eagerly so callers may unsubscribe while consuming it.
        """
        return [
            (iface, sub)
            for iface, entries in list(self.subscriptions.items())
            for sub in list(entries)
        ]

    # ------------------------------------------------------------------
    # content routing
    # ------------------------------------------------------------------
    def stream_entries(self, stream: str) -> List[Tuple[Interface, Subscription, object]]:
        """``(interface, subscription, compiled filter)`` for every entry
        requesting ``stream``: interface by interface as the table lists
        them, each interface's entries in table order (for LOCAL entries,
        delivery order).  What can gate an event of ``stream`` here,
        whatever its attributes."""
        return [
            (iface, sub, sub.filter.matcher())
            for iface, slot in self._slots.items()
            for sub in slot.streams.get(stream, {}).values()
        ]

    def stream_subscriptions(
        self, stream: str
    ) -> List[Tuple[Interface, Subscription]]:
        """``(interface, subscription)`` for every entry requesting
        ``stream``, in :meth:`stream_entries` order."""
        return [(iface, sub) for iface, sub, _matches in self.stream_entries(stream)]

    # ------------------------------------------------------------------
    def covered_upstream(self, sub: Subscription, toward: Interface) -> bool:
        """Whether a subscription already forwarded from any *other*
        interface covers ``sub`` -- in a tree, any subscription recorded at
        this broker from interface ``i`` has been propagated to all other
        neighbours, so a covering entry from a different interface than
        ``toward`` means the upstream broker at ``toward`` already knows a
        covering subscription.  Only entries sharing a stream with
        ``sub`` are tested."""
        for iface, slot in self._slots.items():
            if iface == toward:
                continue
            for e in slot.may_cover(sub):
                if e.sub_id != sub.sub_id and e.covers(sub):
                    return True
        return False

    def size(self) -> int:
        return sum(len(v) for v in list(self.subscriptions.values()))
