"""Subscriptions and advertisements.

A COSMOS subscription (Section 2.1) carries three parts:

* ``S`` -- the set of stream names requested;
* ``P`` -- the set of attributes to retain (``None`` means all; the
  pub/sub projects away everything else as early as possible);
* ``F`` -- a conjunctive :class:`~repro.pubsub.predicates.Filter` used for
  early data filtering inside the network.

Advertisements describe what a source will publish (stream name plus a
filter its messages satisfy) and guide subscription propagation, exactly
as in Siena.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, Optional

from .messages import Event
from .predicates import Filter, TRUE_FILTER

__all__ = ["Subscription", "Advertisement"]

_sub_ids = itertools.count()


@dataclass(frozen=True)
class Subscription:
    """A content-based subscription {S, P, F}."""

    streams: FrozenSet[str]
    projection: Optional[FrozenSet[str]] = None
    filter: Filter = TRUE_FILTER
    sub_id: int = field(default_factory=lambda: next(_sub_ids))

    @classmethod
    def to_streams(
        cls,
        streams: Iterable[str],
        projection: Optional[Iterable[str]] = None,
        filter: Filter = TRUE_FILTER,
    ) -> "Subscription":
        return cls(
            streams=frozenset(streams),
            projection=None if projection is None else frozenset(projection),
            filter=filter,
        )

    def matches(self, event: Event) -> bool:
        """Whether the pub/sub should deliver ``event`` to this subscriber."""
        return event.stream in self.streams and self.filter.matches(
            dict(event.attributes)
        )

    def covers(self, other: "Subscription") -> bool:
        """Every event matching ``other`` also matches ``self``, and keeps
        every attribute ``other`` retains.

        Used to stop redundant subscription propagation: a broker that has
        already forwarded a covering subscription towards a source need not
        forward the covered one.  The projection matters too: events are
        projected in the network, so a narrower projection upstream would
        strip attributes the covered subscription filters on or keeps.
        """
        if not other.streams <= self.streams:
            return False
        if self.projection is not None and (
            other.projection is None or not other.projection <= self.projection
        ):
            return False
        return self.filter.covers(other.filter)

    def merge(self, other: "Subscription") -> "Subscription":
        """The conservative merger of two subscriptions.

        Streams and projections are unioned; the filter is the per-attribute
        hull, so the merged subscription covers both inputs (possibly
        matching more -- the standard precision/state trade-off of
        subscription merging).
        """
        if self.projection is None or other.projection is None:
            projection = None
        else:
            projection = self.projection | other.projection
        return Subscription(
            streams=self.streams | other.streams,
            projection=projection,
            filter=self.filter.hull(other.filter),
        )

    def __str__(self) -> str:
        proj = "*" if self.projection is None else "{" + ",".join(sorted(self.projection)) + "}"
        return f"Sub(S={sorted(self.streams)}, P={proj}, F={self.filter})"


@dataclass(frozen=True)
class Advertisement:
    """What a data source promises to publish."""

    stream: str
    filter: Filter = TRUE_FILTER
    adv_id: int = field(default_factory=lambda: next(_sub_ids))

    def intersects(self, sub: Subscription) -> bool:
        """Whether messages from this source could match ``sub``.

        Conservative test: the stream must be requested and the conjunction
        of the two filters must be satisfiable.
        """
        if self.stream not in sub.streams:
            return False
        return not self.filter.conjoin(sub.filter).is_empty()
