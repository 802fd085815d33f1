"""``PubSubNetwork.publish_batch``: a batch is its rows, published one by one.

One contract, written once, run against two networks that have seen the
same control-plane log: one that published batches after every step (so
each step had a full memo to evict from) and one built fresh from the log
(so every route is walked anew).  The subscriptions filter on attributes
and project them away in the network; the rows carry some, all or none of
the attributes the filters read, and values some filters cannot compare
with.  The reference for both is one hop-by-hop walk per row
(``reference.per_row_publish.walk_publish``) on a third network whose
tables scan their entry lists (``reference.covering_scan.ScanNetwork``),
and ``reference.per_row_publish.PerRowPublishNetwork`` groups the walks'
deliveries the way ``publish_batch`` returns them.
"""

import pytest
from cluster_contract import ClusterContract
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.covering_scan import ScanNetwork
from reference.per_row_publish import PerRowPublishNetwork
from strategies import (
    ADVERTS,
    SOURCE,
    STANDARD_SETTINGS,
    STREAMS,
    apply,
    control_logs,
    rows_of,
    subscription_pool,
    tree,
)

from repro.obs import Observer
from repro.pubsub import Event, PubSubNetwork, Subscription

batches = st.fixed_dictionaries({stream: rows_of for stream in STREAMS})


#: what a publishing replay publishes after every step
ROW = [{"x": 3, "y": 1, "z": 2}]


def replay(log, pool, publish=None, cls=PubSubNetwork):
    """A network that has been through ``log`` (after the whole-stream
    advertisements).  With ``publish`` it published ``ROW`` on every
    stream after every step (by batch: each step met a full memo);
    without, nothing is memoised when the log ends and no link has
    carried anything."""
    net = cls(tree())
    net.observer = Observer(span_sample_every=0, profile=False)
    for source, adv in ADVERTS[:3]:
        net.advertise(source, adv)
    for op in log:
        apply(net, op, pool)
        if publish is not None:
            for stream in STREAMS:
                publish(net, SOURCE[stream], stream, ROW)
    return net


COUNTERS = ("broker.index_probes", "broker.forwards", "broker.local_deliveries")


def observe(net, publish, batch):
    """What one round of publishes (``batch[stream]`` per stream) does to
    ``net``: deliveries, link bytes after it (absolute: deltas of floats
    round), broker counters, delivery totals."""
    counters = net.observer.registry.counters
    counters_before = {k: counters.get(k, 0) for k in COUNTERS}
    delivered_before = {n: b.delivered_total for n, b in net.brokers.items()}
    deliveries = {
        stream: publish(net, SOURCE[stream], stream, batch[stream])
        for stream in STREAMS
    }
    return {
        "deliveries": deliveries,
        "link_bytes": dict(net.link_bytes),
        "counters": {k: counters.get(k, 0) - counters_before[k] for k in COUNTERS},
        "delivered": {
            n: b.delivered_total - delivered_before[n] for n, b in net.brokers.items()
        },
    }


def by_batch(net, source, stream, rows):
    """``publish_batch``, unrolled into (row, node, sub_id, attributes)
    in delivery order."""
    out = []
    for delivery in net.publish_batch(source, stream, len(rows), rows):
        keep = delivery.attrs
        for i in delivery.rows:
            attrs = {k: v for k, v in rows[i].items() if keep is None or k in keep}
            out.append((i, delivery.node, delivery.sub.sub_id, attrs))
    return sorted(out, key=lambda d: d[0])  # stable: each row's in order


def by_rows(net, source, stream, rows):
    return [
        (i, node, sub.sub_id, dict(event.attributes))
        for i, row in enumerate(rows)
        for node, event, sub in net.publish(source, Event(stream, row))
    ]


def groups(net, source, stream, rows):
    return [
        (d.node, d.sub.sub_id, d.rows, d.attrs)
        for d in net.publish_batch(source, stream, len(rows), rows)
    ]


@pytest.mark.parametrize("publishing", [True, False], ids=["memoised", "fresh"])
class TestBatchRouteContract:
    """What ``publish_batch`` owes its callers after any control log,
    whether the network under test published batches while the log ran
    (``memoised``) or is built from the log alone (``fresh``)."""

    @STANDARD_SETTINGS
    @given(log=control_logs(15), batch=batches)
    def test_a_batch_goes_where_the_walk_goes(self, publishing, log, batch):
        pool = subscription_pool()
        net = replay(log, pool, by_batch if publishing else None)
        walked = replay(
            log, pool, by_rows if publishing else None, ScanNetwork
        )
        # the second round finds every route and row signature memoised
        for _ in range(2):
            assert observe(net, by_batch, batch) == observe(walked, by_rows, batch)
        # grouped per subscriber exactly as the per-row reference groups
        net = replay(log, pool, by_batch if publishing else None)
        grouped = replay(
            log, pool, by_batch if publishing else None, PerRowPublishNetwork
        )
        for _ in range(2):
            assert observe(net, groups, batch) == observe(grouped, groups, batch)

    @settings(STANDARD_SETTINGS, max_examples=50)
    @given(log=control_logs(15), batch=batches)
    def test_batch_rows_are_metered_per_call(self, publishing, log, batch):
        pool = subscription_pool()
        net = replay(log, pool, by_batch if publishing else None)
        rows = net.observer.registry.histograms.setdefault("broker.batch_rows", [])
        before = len(rows)
        observe(net, by_batch, batch)
        assert rows[before:] == [float(len(batch[s])) for s in STREAMS]


class TestSimulatorRoutesRowByRow(ClusterContract):
    """Whole simulator runs -- both planes, every scenario, faults
    included -- equal the runs of a network that publishes every batch
    row by row."""

    network_cls = PerRowPublishNetwork


def test_whole_rows_add_one_at_a_time_to_a_fractional_link():
    """A projected row leaves 1/3 on each link; whole rows then add 1.0
    per row as ``publish`` does -- adding their count at once would round
    differently."""
    sub = Subscription.to_streams(["A"], projection=["x"])
    nets = []
    for cls, publish in ((PubSubNetwork, by_batch), (ScanNetwork, by_rows)):
        net = replay([], [], cls=cls)
        net.subscribe(3, sub)
        publish(net, 0, "A", [{"x": 1, "y": 1, "z": 1}])
        publish(net, 0, "A", [{"x": 1}, {"x": 2}])
        nets.append(net)
    assert nets[0].link_bytes == nets[1].link_bytes
    assert nets[0].link_bytes[(2, 3)] != 1 / 3 + 2


def test_a_row_count_that_is_not_the_rows_is_refused():
    net = replay([], [])
    with pytest.raises(ValueError, match="2 rows"):
        net.publish_batch(0, "A", 2, [{"x": 1}])
    assert net.link_bytes == {}


def memo_counts(net):
    counters = net.observer.registry.counters
    return (
        counters.get("broker.route_memo_hits", 0),
        counters.get("broker.route_memo_misses", 0),
    )


def rows(count):
    return [{}] * count


class TestInvalidation:
    def setup_method(self):
        self.a = Subscription.to_streams(["A"])
        self.b = Subscription.to_streams(["B"])
        self.net = replay([], [])
        self.net.subscribe(3, self.a)
        self.net.subscribe(0, self.b)
        for stream in ("A", "B"):
            self.net.publish_batch(SOURCE[stream], stream, 1, rows(1))
        assert memo_counts(self.net) == (0, 2)

    def publish(self, stream):
        before = memo_counts(self.net)
        deliveries = self.net.publish_batch(SOURCE[stream], stream, 2, rows(2))
        hits, misses = memo_counts(self.net)
        return deliveries, (hits - before[0], misses - before[1])

    def test_another_streams_subscriptions_leave_a_route_alone(self):
        late = Subscription.to_streams(["A"])
        self.net.subscribe(5, late)
        self.net.subscribe(3, self.a)
        assert self.publish("B")[1] == (1, 0)
        deliveries, counts = self.publish("A")
        assert counts == (0, 1)
        assert [(d.node, d.sub.sub_id) for d in deliveries] == [
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
        # which hop changed what
        self.net.subscribe(3, self.a)
        assert self.publish("A")[1] == (0, 1)
        assert self.publish("A")[1] == (1, 0)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda net: net.set_link_down(1, 2),
            lambda net: net.reset_broker(2),
        ],
    )
    def test_faults_evict_everything(self, fault):
        fault(self.net)
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and deliveries == []
        assert self.publish("B")[1] == (0, 1)

    def test_healing_a_link_evicts(self):
        self.net.set_link_down(1, 2)
        assert self.publish("A")[0] == []
        self.net.set_link_up(1, 2)
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and [d.node for d in deliveries] == [3]

    def test_removing_a_broker_evicts_what_it_subscribed_to_and_advertised(self):
        assert self.publish("C")[1] == (0, 1)
        self.net.remove_broker(3)  # subscriber of A, advertiser of B
        deliveries, counts = self.publish("A")
        assert counts == (0, 1) and deliveries == []
        assert self.publish("B")[1] == (0, 1)
        assert self.publish("C")[1] == (1, 0)

    def test_events_carry_the_size_of_their_own_call(self):
        """A memoised call delivers and charges its own rows, not the
        rows of the call that filled the memo."""
        before = self.net.link_bytes[(2, 3)]
        for count in (2, 7):
            deliveries = self.net.publish_batch(SOURCE["A"], "A", count, rows(count))
            assert [d.rows for d in deliveries] == [tuple(range(count))]
        assert self.net.link_bytes[(2, 3)] - before == 2.0 + 7.0
