"""Batch publishing as one ``publish`` per row.

The definition of what ``PubSubNetwork.publish_batch`` must deliver,
charge and count: each row is published on its own, as
``Event(stream, row, size=1.0)``, through the hop-by-hop walk of
:meth:`repro.pubsub.network.PubSubNetwork.publish`; the deliveries are
grouped per subscriber and delivered attribute set and ordered as the
walk reaches subscribers (breadth first from the source, neighbours in
sorted order, table order at each broker).  Production replays a memoised
stream walk per row signature; ``tests/test_batch_routes.py`` holds the
two side by side on random control logs, and
``tests/cluster_contract.py`` on whole simulator runs.
"""

from collections import deque

from repro.pubsub.messages import Event
from repro.pubsub.network import Delivery, PubSubNetwork
from repro.pubsub.routing import LOCAL


class PerRowPublishNetwork(PubSubNetwork):
    """A :class:`PubSubNetwork` whose ``publish_batch`` loops ``publish``."""

    def publish_batch(self, source, stream, rows, values):
        if len(values) != rows:
            raise ValueError(f"publish_batch({stream!r}): {rows} rows, {len(values)} mappings")
        groups = {}
        for i, row in enumerate(values):
            for node, event, sub in self.publish(source, Event(stream, row, size=1.0)):
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
