"""Content routing as a hop-by-hop walk, one event at a time.

The definition of what ``PubSubNetwork.publish_batch`` (and ``publish``,
a one-row batch) must deliver, charge and count.  :func:`walk_publish`
routes one event breadth first from its source: each broker reached
matches it against every entry of its table (:func:`match_event`, which
is ``ScanRoutingTable.match_event``), delivers it to the matching LOCAL
entries, each projected to what its subscriber keeps, and forwards it to
every neighbour with a matching entry but the one it came from, in
sorted order, projected down to the union of what those entries keep; a
link is charged the event's size as forwarded over it (1.0, shrunk in
proportion to the attributes projected away), and a partitioned link
loses the event.  :class:`PerRowPublishNetwork` publishes a batch as one
walk per row and groups the deliveries per subscriber and delivered
attribute set, ordered as the walk reaches subscribers.

Production replays a memoised stream walk per row signature;
``tests/test_batch_routes.py`` holds the two side by side on random
control logs, ``tests/cluster_contract.py`` on whole simulator runs,
and ``reference.scalar_plane`` and ``reference.covering_scan`` route
through the walk too.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.pubsub.messages import Event
from repro.pubsub.network import Delivery, PubSubNetwork
from repro.pubsub.routing import LOCAL
from repro.pubsub.subscriptions import Subscription


@dataclass
class EventMatch:
    """Everything one broker's table says about one event.

    ``interfaces`` excludes the arrival interface; ``local`` keeps the
    table order of the LOCAL entries (delivery order); ``needed`` maps
    each matched interface to the union of attributes its matching
    subscriptions keep (``None`` = all attributes).
    """

    interfaces: Set[Any] = field(default_factory=set)
    local: List[Subscription] = field(default_factory=list)
    needed: Dict[Any, Optional[Set[str]]] = field(default_factory=dict)

    def forward_order(self) -> List[Any]:
        """Neighbour interfaces in deterministic (sorted) order."""
        return sorted(i for i in self.interfaces if i != LOCAL)


def match_event(table, event, arrived_via=None) -> EventMatch:
    """Test every entry of ``table`` against ``event``."""
    out = EventMatch()
    for iface, entries in list(table.subscriptions.items()):
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


def project(event, size, attrs):
    """``event`` keeping only ``attrs`` (``None`` keeps all), and its
    size shrunk in proportion to the attributes it keeps."""
    if attrs is None:
        return event, size
    kept = {a: v for a, v in event.attributes.items() if a in attrs}
    if event.attributes:
        size = size * max(1, len(kept)) / len(event.attributes)
    return Event(event.stream, kept), size


def walk_publish(net, source, event):
    """Route ``event`` from ``source`` over ``net``'s tables, hop by hop;
    returns the deliveries as ``(node, delivered event, subscription)``."""
    deliveries = []
    probes = forwards = 0
    queue = deque([(source, None, event, 1.0)])
    while queue:
        node, arrived_via, ev, size = queue.popleft()
        broker = net.brokers[node]
        match = match_event(broker.table, ev, arrived_via)
        probes += 1
        for sub in match.local:
            deliveries.append((node, project(ev, size, sub.projection)[0], sub))
        broker.delivered_total += len(match.local)
        for nbr in match.forward_order():
            if (min(node, nbr), max(node, nbr)) in net.down_links:
                continue  # partitioned: the event is lost, no bytes
            forwarded, forwarded_size = project(ev, size, match.needed[nbr])
            net._account(net.link_bytes, node, nbr, forwarded_size)
            forwards += 1
            queue.append((nbr, node, forwarded, forwarded_size))
    net._count_dissemination(probes, forwards, len(deliveries))
    return deliveries


class PerRowPublishNetwork(PubSubNetwork):
    """A :class:`PubSubNetwork` whose ``publish_batch`` walks every row."""

    def publish_batch(self, source, stream, rows, values):
        if len(values) != rows:
            raise ValueError(f"publish_batch({stream!r}): {rows} rows, {len(values)} mappings")
        groups = {}
        for i, row in enumerate(values):
            for node, event, sub in walk_publish(self, source, Event(stream, row)):
                attrs = (
                    None if event.attributes.keys() == row.keys()
                    else frozenset(event.attributes)
                )
                key = (node, sub.sub_id, attrs)
                if key not in groups:
                    groups[key] = Delivery(node, sub, [], attrs)
                groups[key].rows.append(i)
        order = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nbr in sorted(self.tree.neighbors(node)):
                if nbr not in order:
                    order[nbr] = len(order)
                    queue.append(nbr)

        def reached(delivery):
            local = self.brokers[delivery.node].table.subscriptions[LOCAL]
            position = next(
                p for p, sub in enumerate(local) if sub.sub_id == delivery.sub.sub_id
            )
            return order[delivery.node], position

        # stable: one subscriber's differently projected groups keep the
        # order of their first rows
        return [
            d._replace(rows=tuple(d.rows)) for d in sorted(groups.values(), key=reached)
        ]
