"""``PubSubNetwork.publish_batch``: the memoised route is the walk.

One contract, written once, run against two networks that have seen the
same control-plane log: one that published batches after every step (so each
step had a full memo to evict from) and one built fresh from the log (so
every route is walked anew).  The reference for both is
the hop-by-hop ``publish`` of an attribute-free event on a third network.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.covering_scan import RecursiveNetwork

from repro.obs import Observer
from repro.pubsub import Advertisement, Event, Filter, PubSubNetwork, Subscription
from repro.topology import OverlayTree

STREAMS = ("A", "B", "C")
#: a tree with a branch: 0-1-2-3, 1-4, 2-5
LINKS = ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5))
NODES = tuple(range(6))
#: where each stream is published from
SOURCE = {"A": 0, "B": 3, "C": 4}


def tree():
    t = OverlayTree(nodes=list(NODES))
    for u, v in LINKS:
        t.add_link(u, v, 1.0)
    return t


def subscription_pool():
    """Attribute-free subscriptions, reused by every replay of a log so
    that all networks see the same ``sub_id``\\ s."""
    return [
        Subscription.to_streams(streams, projection=projection)
        for streams in (["A"], ["B"], ["C"], ["A", "B"], ["B", "C"])
        for projection in (None, ["x"])
    ]


control_ops = st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(NODES), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("unsubscribe"), st.integers(0, 9)),
    st.tuples(st.just("advertise"), st.sampled_from(STREAMS)),
    st.tuples(st.just("unadvertise"), st.sampled_from(STREAMS)),
    st.tuples(st.just("reset_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("link_down"), st.sampled_from(LINKS)),
    st.tuples(st.just("link_up"), st.sampled_from(LINKS)),
)


def replay(log, pool, publishing):
    """A network that has been through ``log``.  With ``publishing`` it
    batch-published every stream after every step, so each step met a
    full memo; without, nothing is memoised when the log ends."""
    net = PubSubNetwork(tree(), record_deliveries=False)
    net.observer = Observer(span_sample_every=0, profile=False)
    adverts = {}
    for stream in STREAMS:
        adverts[stream] = Advertisement(stream=stream)
        net.advertise(SOURCE[stream], adverts[stream])
    for op in log:
        kind = op[0]
        if kind == "subscribe":
            net.subscribe(op[1], pool[op[2]], force=op[3])
        elif kind == "unsubscribe":
            net.unsubscribe(pool[op[1]].sub_id)
        elif kind == "advertise":
            net.advertise(SOURCE[op[1]], adverts[op[1]])
        elif kind == "unadvertise":
            net.unadvertise(adverts[op[1]].adv_id)
        elif kind == "reset_broker":
            net.reset_broker(op[1])
        elif kind == "link_down":
            net.set_link_down(*op[1])
        else:
            net.set_link_up(*op[1])
        if publishing:
            for stream in STREAMS:
                net.publish_batch(SOURCE[stream], stream, 1)
    return net


COUNTERS = ("broker.index_probes", "broker.forwards", "broker.local_deliveries")


def observe(net, publish):
    """What one round of publishes (every stream, 3 rows) does to ``net``:
    deliveries in order, link bytes, broker counters, delivery totals."""
    bytes_before = dict(net.link_bytes)
    counters = net.observer.registry.counters
    counters_before = {k: counters.get(k, 0) for k in COUNTERS}
    delivered_before = {n: b.delivered_total for n, b in net.brokers.items()}
    deliveries = {
        stream: [
            (node, sub.sub_id, event)
            for node, event, sub in publish(net, SOURCE[stream], stream, 3)
        ]
        for stream in STREAMS
    }
    return {
        "deliveries": deliveries,
        "link_bytes": {
            e: b - bytes_before.get(e, 0.0) for e, b in net.link_bytes.items()
            if b != bytes_before.get(e, 0.0)
        },
        "counters": {k: counters.get(k, 0) - counters_before[k] for k in COUNTERS},
        "delivered": {
            n: b.delivered_total - delivered_before[n] for n, b in net.brokers.items()
        },
    }


def by_batch(net, source, stream, rows):
    return net.publish_batch(source, stream, rows)


def by_walk(net, source, stream, rows):
    return net.publish(source, Event(stream=stream, attributes={}, size=float(rows)))


@pytest.mark.parametrize("publishing", [True, False], ids=["memoised", "fresh"])
class TestBatchRouteContract:
    """What ``publish_batch`` owes its callers after any control log,
    whether the network under test published batches while the log ran
    (``memoised``) or is built from the log alone (``fresh``)."""

    @settings(max_examples=150, deadline=None)
    @given(log=st.lists(control_ops, max_size=30))
    def test_a_batch_goes_where_the_walk_goes(self, publishing, log):
        pool = subscription_pool()
        net = replay(log, pool, publishing)
        reference = replay(log, pool, publishing=False)
        got = observe(net, by_batch)
        assert got == observe(reference, by_walk)
        # and again: now every route is a hit
        assert observe(net, by_batch) == got

    @settings(max_examples=50, deadline=None)
    @given(log=st.lists(control_ops, max_size=30))
    def test_batch_rows_are_metered_per_call(self, publishing, log):
        pool = subscription_pool()
        net = replay(log, pool, publishing)
        rows = net.observer.registry.histograms.setdefault("broker.batch_rows", [])
        before = len(rows)
        observe(net, by_batch)
        assert rows[before:] == [3.0] * len(STREAMS)


def memo_counts(net):
    counters = net.observer.registry.counters
    return (
        counters.get("broker.route_memo_hits", 0),
        counters.get("broker.route_memo_misses", 0),
    )


class TestInvalidation:
    def setup_method(self):
        self.a = Subscription.to_streams(["A"])
        self.b = Subscription.to_streams(["B"])
        self.net = replay([], [], publishing=False)
        self.net.subscribe(3, self.a)
        self.net.subscribe(0, self.b)
        for stream in ("A", "B"):
            self.net.publish_batch(SOURCE[stream], stream, 1)
        assert memo_counts(self.net) == (0, 2)

    def publish(self, stream):
        before = memo_counts(self.net)
        deliveries = self.net.publish_batch(SOURCE[stream], stream, 2)
        hits, misses = memo_counts(self.net)
        return deliveries, (hits - before[0], misses - before[1])

    def test_another_streams_subscriptions_leave_a_route_alone(self):
        late = Subscription.to_streams(["A"])
        self.net.subscribe(5, late)
        self.net.subscribe(3, self.a, force=True)
        assert self.publish("B")[1] == (1, 0)
        deliveries, counts = self.publish("A")
        assert counts == (0, 1)
        assert [(n, s.sub_id) for n, _, s in deliveries] == [
            (3, self.a.sub_id), (5, late.sub_id),
        ]
        self.net.unsubscribe(late.sub_id)
        assert self.publish("B")[1] == (1, 0)
        assert self.publish("A")[1] == (0, 1)

    def test_a_subscription_evicts_every_stream_it_names(self):
        both = Subscription.to_streams(["A", "B"])
        self.net.subscribe(5, both)
        assert self.publish("A")[1] == (0, 1)
        assert self.publish("B")[1] == (0, 1)
        self.net.unsubscribe(both.sub_id)
        assert self.publish("A")[1] == (0, 1)
        assert self.publish("B")[1] == (0, 1)

    def test_resubscribing_evicts_even_when_no_table_changes(self):
        # the rule is "a call naming the stream drops its routes", not
        # "a call that changed a table does": one rule, no bookkeeping of
        # which hop changed what; re-subscribes follow real changes to
        # the same streams anyway (migrations), so little is lost
        self.net.subscribe(3, self.a, force=True)
        assert self.publish("A")[1] == (0, 1)
        assert self.publish("A")[1] == (1, 0)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda net: net.set_link_down(1, 2),
            lambda net: net.reset_broker(2),
        ],
    )
    def test_faults_evict_everything_and_bump_the_version(self, fault):
        version = self.net.version
        fault(self.net)
        assert self.net.version > version
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and deliveries == []
        assert self.publish("B")[1] == (0, 1)

    def test_healing_a_link_evicts_and_bumps_the_version(self):
        self.net.set_link_down(1, 2)
        assert self.publish("A")[0] == []
        version = self.net.version
        self.net.set_link_up(1, 2)
        assert self.net.version > version
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and [n for n, _, _ in deliveries] == [3]

    def test_removing_a_broker_evicts_what_it_subscribed_to_and_advertised(self):
        assert self.publish("C")[1] == (0, 1)
        version = self.net.version
        self.net.remove_broker(3)  # subscriber of A, advertiser of B
        assert self.net.version > version
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and deliveries == []
        assert self.publish("B")[1] == (0, 1)
        assert self.publish("C")[1] == (1, 0)

    def test_events_carry_the_size_of_their_own_call(self):
        before = self.net.link_bytes[(2, 3)]
        for rows in (2, 7):
            deliveries = self.net.publish_batch(SOURCE["A"], "A", rows)
            assert [e.size for _, e, _ in deliveries] == [float(rows)]
        assert self.net.link_bytes[(2, 3)] - before == 2.0 + 7.0


@pytest.mark.parametrize("indexed", [True, False])
class TestAttributeFilteredSubscriptions:
    """``publish_batch`` decides by stream alone; a subscription that
    filters on attributes makes that wrong, and the walk says so -- on
    indexed and on scanned broker tables."""

    def network(self, indexed):
        net = (PubSubNetwork if indexed else RecursiveNetwork)(tree())
        net.advertise(0, Advertisement(stream="A"))
        net.subscribe(3, Subscription.to_streams(["A"]))
        return net

    def test_raises_naming_the_subscription(self, indexed):
        net = self.network(indexed)
        picky = Subscription.to_streams(["A"], filter=Filter.of(("x", ">", 5)))
        net.subscribe(5, picky)
        with pytest.raises(ValueError, match=str(picky.sub_id)) as err:
            net.publish_batch(0, "A", 4)
        assert "x" in str(err.value)
        assert net.link_bytes == {}

    def test_a_memoised_route_does_not_outlive_the_check(self, indexed):
        net = self.network(indexed)
        assert len(net.publish_batch(0, "A", 1)) == 1
        picky = Subscription.to_streams(["A"], filter=Filter.of(("x", ">", 5)))
        net.subscribe(4, picky)
        with pytest.raises(ValueError):
            net.publish_batch(0, "A", 1)
        net.unsubscribe(picky.sub_id)
        assert len(net.publish_batch(0, "A", 1)) == 1

    def test_other_streams_may_filter(self, indexed):
        net = self.network(indexed)
        net.advertise(0, Advertisement(stream="B"))
        net.subscribe(5, Subscription.to_streams(["B"], filter=Filter.of(("x", ">", 5))))
        assert len(net.publish_batch(0, "A", 1)) == 1
