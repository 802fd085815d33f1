"""Counting-algorithm forwarding index for broker subscription tables.

The per-event hot path of the pub/sub layer answers three questions at
every broker an event crosses: which interfaces have at least one
matching subscription, which local subscriptions match, and which
attributes the matching subscriptions on each interface still need.
The reference implementation answers all three by scanning every entry
of the subscription table (``ScanRoutingTable`` in
``tests/reference/covering_scan.py``), which is linear in the table
size *per event per broker* -- the scaling wall of the discrete-event
simulator.

:class:`ForwardingIndex` is a Siena/Gryphon-style counting index over
the same entries, a three-stage pipeline:

1. a **stream hash** maps the event's stream to the bucket of entries
   subscribed to it (most entries of a large table are not -- they are
   never touched);
2. inside the bucket, a **per-attribute index** over the normalised
   :class:`~repro.pubsub.predicates.AttributeRange` predicates finds,
   for each event attribute, the entries whose constraint on that
   attribute is satisfied -- equality/membership constraints by one
   dict lookup, interval constraints by probing only the ranges that
   constrain that attribute within the bucket;
3. a **hit counter** per candidate entry: an entry matches iff every
   one of its constrained attributes was satisfied, i.e. its count
   reaches the number of attributes its filter constrains.

One :meth:`match` probe therefore touches only entries that share the
event's stream, and its result (an :class:`EventMatch`) carries
everything a dissemination hop needs, so the network layer probes once
per broker per event instead of once per question.

The index is maintained incrementally by
:class:`~repro.pubsub.routing.RoutingTable` under subscription adds,
removals, covering-based pruning and in-place replacement; parity with
the reference scans is enforced by ``tests/test_forwarding_index.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .messages import Event
from .predicates import AttributeRange
from .subscriptions import Subscription

__all__ = ["EventMatch", "ForwardingIndex"]


@dataclass
class EventMatch:
    """Everything one probe learned about an event at one broker.

    ``interfaces`` excludes the arrival interface; ``local`` preserves
    the subscription-table order of the LOCAL entries (delivery order is
    part of the parity contract with the reference scans); ``needed``
    maps each matched interface to the union of attributes its matching
    subscriptions request (``None`` = all attributes).
    """

    interfaces: Set[Any] = field(default_factory=set)
    local: List[Subscription] = field(default_factory=list)
    needed: Dict[Any, Optional[Set[str]]] = field(default_factory=dict)

    def forward_order(self, local_marker: Any) -> List[Any]:
        """Neighbour interfaces in deterministic (sorted) order."""
        return sorted(i for i in self.interfaces if i != local_marker)


class _AttrIndex:
    """Index over the AttributeRanges of one attribute in one bucket."""

    __slots__ = ("eq", "intervals")

    def __init__(self) -> None:
        #: membership value -> entry ids whose membership set contains it
        self.eq: Dict[Any, Set[int]] = {}
        #: entry id -> interval-style range (no membership set)
        self.intervals: Dict[int, AttributeRange] = {}

    def add(self, eid: int, rng: AttributeRange) -> None:
        if rng.membership is not None:
            # after normalisation a membership range matches exactly the
            # values in the (already interval/exclusion-filtered) set
            for value in rng.membership:
                self.eq.setdefault(value, set()).add(eid)
        else:
            self.intervals[eid] = rng

    def remove(self, eid: int, rng: AttributeRange) -> None:
        if rng.membership is not None:
            for value in rng.membership:
                bucket = self.eq.get(value)
                if bucket is not None:
                    bucket.discard(eid)
                    if not bucket:
                        del self.eq[value]
        else:
            self.intervals.pop(eid, None)

    def count_hits(self, value: Any, counts: Dict[int, int]) -> None:
        """Bump the hit count of every entry satisfied by ``value``."""
        hit = self.eq.get(value)
        if hit:
            for eid in hit:
                counts[eid] = counts.get(eid, 0) + 1
        for eid, rng in self.intervals.items():
            if rng.matches(value):
                counts[eid] = counts.get(eid, 0) + 1


class _StreamBucket:
    """All entries subscribed to one stream, with their attribute indexes."""

    __slots__ = ("members", "unconstrained", "attrs")

    def __init__(self) -> None:
        self.members: Set[int] = set()
        #: members with no filter constraints: they match on stream alone
        self.unconstrained: Set[int] = set()
        self.attrs: Dict[str, _AttrIndex] = {}

    def is_empty(self) -> bool:
        return not self.members


class _Entry:
    """One (interface, subscription) registration."""

    __slots__ = ("sub", "iface", "needed", "ranges", "dead", "matches")

    def __init__(self, sub: Subscription, iface: Any):
        self.sub = sub
        self.iface = iface
        self.ranges = sub.filter.ranges()
        #: the filter compiled for per-row content routing (once per
        #: filter object, shared by every entry installing it)
        self.matches = sub.filter.matcher()
        #: hits required for a match = number of constrained attributes
        self.needed = len(self.ranges)
        #: unsatisfiable filters can never match any event
        self.dead = sub.filter.is_empty()


class ForwardingIndex:
    """Incremental counting index over one broker's subscription table.

    Entries are keyed by ``(interface, sub_id)`` -- the same subscription
    may legitimately be installed on several interfaces, but a routing
    table never holds two entries for one subscription on one interface
    (see ``RoutingTable.add_subscription``).  Entry ids are monotone, so
    sorting matched LOCAL entries by id reproduces the subscription
    list's insertion order exactly (in-place replacement reuses the id,
    so list positions stay aligned).
    """

    def __init__(self, local_marker: Any):
        self._local = local_marker
        self._eids = itertools.count()
        self._entries: Dict[int, _Entry] = {}
        self._by_key: Dict[Tuple[Any, int], int] = {}
        self._streams: Dict[str, _StreamBucket] = {}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, sub: Subscription, iface: Any) -> None:
        """Register ``sub`` on ``iface`` (replacing any same-key entry)."""
        key = (iface, sub.sub_id)
        eid = self._by_key.get(key)
        if eid is not None:
            self._unregister(eid)
        else:
            eid = next(self._eids)
            self._by_key[key] = eid
        entry = _Entry(sub, iface)
        self._entries[eid] = entry
        for stream in sub.streams:
            bucket = self._streams.get(stream)
            if bucket is None:
                bucket = self._streams[stream] = _StreamBucket()
            bucket.members.add(eid)
            if entry.needed == 0:
                bucket.unconstrained.add(eid)
            else:
                for attr, rng in entry.ranges.items():
                    aidx = bucket.attrs.get(attr)
                    if aidx is None:
                        aidx = bucket.attrs[attr] = _AttrIndex()
                    aidx.add(eid, rng)

    def remove(self, sub_id: int, iface: Any) -> None:
        eid = self._by_key.pop((iface, sub_id), None)
        if eid is None:
            return
        self._unregister(eid)
        del self._entries[eid]

    def _unregister(self, eid: int) -> None:
        entry = self._entries[eid]
        for stream in entry.sub.streams:
            bucket = self._streams.get(stream)
            if bucket is None:
                continue
            bucket.members.discard(eid)
            bucket.unconstrained.discard(eid)
            for attr, rng in entry.ranges.items():
                aidx = bucket.attrs.get(attr)
                if aidx is not None:
                    aidx.remove(eid, rng)
                    if not aidx.eq and not aidx.intervals:
                        del bucket.attrs[attr]
            if bucket.is_empty():
                del self._streams[stream]

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def matching_entry_ids(self, event: Event) -> List[int]:
        """Entry ids matching ``event``, in insertion (id) order."""
        bucket = self._streams.get(event.stream)
        if bucket is None:
            return []
        if not bucket.attrs:
            # pure stream-subscription bucket (the simulator's workload):
            # no counting pass at all
            return sorted(bucket.unconstrained)
        matched = list(bucket.unconstrained)
        counts: Dict[int, int] = {}
        for attr, aidx in bucket.attrs.items():
            value = event.attributes.get(attr)
            if value is not None:
                aidx.count_hits(value, counts)
        entries = self._entries
        for eid, hits in counts.items():
            entry = entries[eid]
            if hits == entry.needed and not entry.dead:
                matched.append(eid)
        matched.sort()
        return matched

    def stream_entries(self, stream: str) -> List[Tuple[Any, Subscription, Any]]:
        """Every entry subscribed to ``stream`` as ``(interface,
        subscription, compiled filter)``, in insertion (id) order -- read
        off the stream's bucket, matching nothing."""
        bucket = self._streams.get(stream)
        if bucket is None:
            return []
        entries = self._entries
        return [
            (entry.iface, entry.sub, entry.matches)
            for entry in map(entries.__getitem__, sorted(bucket.members))
        ]

    def match(self, event: Event, arrived_via: Any = None) -> EventMatch:
        """One probe answering a whole dissemination hop.

        Computed eagerly so the result stays valid even if the table is
        mutated (e.g. an unsubscribe) while the hop is being processed.
        """
        out = EventMatch()
        for eid in self.matching_entry_ids(event):
            entry = self._entries[eid]
            iface = entry.iface
            if iface == arrived_via:
                continue
            out.interfaces.add(iface)
            if iface == self._local:
                out.local.append(entry.sub)
            projection = entry.sub.projection
            if iface not in out.needed:
                # the set is created fresh here and never aliased, so
                # later entries may update it in place
                out.needed[iface] = None if projection is None else set(projection)
            else:
                needed = out.needed[iface]
                if needed is not None:
                    if projection is None:
                        out.needed[iface] = None
                    else:
                        needed |= projection
        return out
