"""A single pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass

from .routing import RoutingTable

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
