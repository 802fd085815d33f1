"""A single pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .messages import Event
from .routing import RoutingTable
from .subscriptions import Subscription

__all__ = ["Broker"]


@dataclass
class Broker:
    """Routing state plus local-delivery bookkeeping for one overlay node."""

    node: int
    table: RoutingTable = None  # type: ignore[assignment]
    #: lifetime count of local deliveries (one per row per subscriber);
    #: the observability layer reads it at run end
    delivered_total: int = 0

    def __post_init__(self):
        if self.table is None:
            self.table = RoutingTable(broker=self.node)

    def deliver_matched(
        self, event: Event, matching: Iterable[Subscription]
    ) -> List[Tuple[Event, Subscription]]:
        """Deliver ``event`` to the given (already matched) subscriptions.

        The network layer matches once per dissemination hop
        (:meth:`RoutingTable.match_event`) and hands the LOCAL matches
        here.  Each local subscriber receives its own projected copy.
        """
        out = [(sub.deliverable(event), sub) for sub in matching]
        self.delivered_total += len(out)
        return out
