"""The control plane keeps Siena's invariant by itself.

A network that has been through any control log (after the three
whole-stream advertisements) -- subscriptions declared, redeclared,
moved and torn down, advertisers coming, going and moving, brokers
departing or restarting, links partitioned -- must *route*
exactly like one built fresh from what is live: its advertisements
first, then its subscriptions in the order they were (last) declared,
under the same partitions.  Routing means the deliveries of
``publish_batch`` (rows and attributes) and the data bytes per link of
a batch from every live advertiser, each row within its advertisement.
Tables need not be equal: teardown may leave entries toward a retired
advertiser, and covering may keep different but equivalent entries.
While a reset broker awaits ``restore_broker`` nothing is compared (it
routes nothing by design).
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    ADVERTS,
    STANDARD_SETTINGS,
    apply,
    control_logs,
    rows_of,
    subscription_pool,
    tree,
    whole_rows,
)

from repro.pubsub import PubSubNetwork

#: rows every comparison publishes before the drawn ones: each value the
#: pool's filters and advertisements tell apart, every attribute also
#: absent, so a stale or missing entry shows whatever it filters on
GRID = [
    {name: value for name, value in zip("xyz", values) if value is not None}
    for values in product(
        (None, -1, 1, 2, 3, 4, 5), (None, 0, 1, 2), (None, 0, 1)
    )
]


class Live:
    """What a control log leaves live, and the network built from it."""

    def __init__(self):
        self.subs = {}  # sub_id -> (node, subscription), declaration order
        self.adverts = {}  # adv_id -> (source, advertisement)
        self.down_links = set()
        self.down_brokers = set()

    def step(self, op, pool):
        kind = op[0]
        if kind == "subscribe":
            node, sub = op[1], pool[op[2]]
            known = self.subs.get(sub.sub_id)
            if known is None or known[0] != node or known[1] != sub:
                self.subs.pop(sub.sub_id, None)
                self.subs[sub.sub_id] = (node, sub)
        elif kind == "unsubscribe":
            self.subs.pop(pool[op[1]].sub_id, None)
        elif kind == "advertise":
            source, adv = ADVERTS[op[1]]
            known = self.adverts.get(adv.adv_id)
            if known is None or known[0] != source:
                self.adverts.pop(adv.adv_id, None)
                self.adverts[adv.adv_id] = (source, adv)
        elif kind == "unadvertise":
            self.adverts.pop(ADVERTS[op[1]][1].adv_id, None)
        elif kind == "remove_broker":
            node = op[1]
            self.subs = {k: v for k, v in self.subs.items() if v[0] != node}
            self.adverts = {k: v for k, v in self.adverts.items() if v[0] != node}
        elif kind == "reset_broker":
            self.down_brokers.add(op[1])
        elif kind == "restore_broker":
            self.down_brokers.discard(op[1])
        elif kind == "link_down":
            self.down_links.add(op[1])
        else:
            self.down_links.discard(op[1])

    def build(self):
        net = PubSubNetwork(tree())
        for source, adv in self.adverts.values():
            net.advertise(source, adv)
        for node, sub in self.subs.values():
            net.subscribe(node, sub)
        for link in self.down_links:
            net.set_link_down(*link)
        return net


def routes(net, live, rows):
    """Each live advertiser's batch of the rows within its advertisement:
    deliveries, then the data bytes they put on each link."""
    out = []
    for source, adv in live.adverts.values():
        batch = [row for row in GRID + rows if adv.filter.matches(row)]
        net.link_bytes.clear()
        deliveries = net.publish_batch(source, adv.stream, len(batch), batch)
        out.append((
            source,
            adv.adv_id,
            [(d.node, d.sub.sub_id, d.rows, d.attrs) for d in deliveries],
            dict(net.link_bytes),
        ))
    return out


class TestRoutesLikeAFreshNetwork:
    # the rarer holes (a teardown stopped at a wiped broker, a narrower
    # projection covering a wider one) need a few hundred logs to show
    @settings(STANDARD_SETTINGS, max_examples=400)
    @given(
        log=control_logs(20, restore=True),
        rows=st.one_of(whole_rows, rows_of),
    )
    def test_any_control_log_routes_like_a_fresh_build(self, log, rows):
        pool = subscription_pool()
        net = PubSubNetwork(tree())
        live = Live()
        for op in [("advertise", i) for i in range(3)] + log:
            apply(net, op, pool)
            live.step(op, pool)
            if not live.down_brokers:
                assert routes(net, live, rows) == routes(live.build(), live, rows), op
