"""A single pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from .messages import Event
from .routing import Interface, RoutingTable
from .subscriptions import Subscription

__all__ = ["Broker"]


@dataclass
class Broker:
    """Routing state plus local-delivery bookkeeping for one overlay node."""

    node: int
    table: RoutingTable = None  # type: ignore[assignment]
    #: (event, subscription) pairs delivered to local subscribers
    delivered: List[Tuple[Event, Subscription]] = field(default_factory=list)
    #: keep the ``delivered`` log?  The discrete-event simulator routes
    #: millions of tuples through one network and turns this off.
    record_deliveries: bool = True
    #: lifetime count of local deliveries -- always on (a single int
    #: add), unlike the ``delivered`` log; the observability layer reads
    #: it at run end
    delivered_total: int = 0

    def __post_init__(self):
        if self.table is None:
            self.table = RoutingTable(broker=self.node)

    def deliver_local(self, event: Event) -> List[Tuple[Event, Subscription]]:
        """Deliver ``event`` to every matching local subscription."""
        return self.deliver_matched(
            event, self.table.matching_local_subscriptions(event)
        )

    def deliver_matched(
        self, event: Event, matching: Iterable[Subscription]
    ) -> List[Tuple[Event, Subscription]]:
        """Deliver ``event`` to the given (already matched) subscriptions.

        The network layer matches once per dissemination hop
        (:meth:`RoutingTable.match_event`) and hands the LOCAL matches
        here.  Each local subscriber receives its own projected copy; the
        pairs are recorded for test observability (unless
        ``record_deliveries`` is off) and returned.
        """
        out = []
        for sub in matching:
            projected = sub.deliverable(event)
            if self.record_deliveries:
                self.delivered.append((projected, sub))
            out.append((projected, sub))
        self.delivered_total += len(out)
        return out

    def needed_attributes(self, event: Event, iface: Interface) -> Optional[Set[str]]:
        """Attributes required by matching subscriptions on ``iface``.

        ``None`` means "all attributes" (some matching subscription has no
        projection).  Used for in-network projection before forwarding.
        """
        return self.table.needed_attributes(event, iface)
