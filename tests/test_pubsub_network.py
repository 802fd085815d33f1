"""Tests for subscriptions, routing tables and end-to-end pub/sub routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub import (
    Advertisement,
    Event,
    Filter,
    PubSubNetwork,
    Subscription,
)
from repro.pubsub.routing import LOCAL, RoutingTable
from repro.topology import OverlayTree


def chain_tree(n):
    """0 - 1 - 2 - ... - (n-1), unit latencies."""
    tree = OverlayTree(nodes=list(range(n)))
    for i in range(n - 1):
        tree.add_link(i, i + 1, 1.0)
    return tree


def star_tree(n):
    """0 in the centre."""
    tree = OverlayTree(nodes=list(range(n)))
    for i in range(1, n):
        tree.add_link(0, i, 1.0)
    return tree


class TestSubscription:
    def test_matches_stream_and_filter(self):
        sub = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        assert sub.matches(Event("R", {"a": 11}))
        assert not sub.matches(Event("R", {"a": 9}))
        assert not sub.matches(Event("S", {"a": 11}))

    def test_covering_requires_stream_superset(self):
        s1 = Subscription.to_streams(["R", "S"])
        s2 = Subscription.to_streams(["R"])
        assert s1.covers(s2)
        assert not s2.covers(s1)

    def test_covering_requires_projection_superset(self):
        narrow = Subscription.to_streams(["R"], projection=["x"])
        wide = Subscription.to_streams(["R"], projection=["x", "y"])
        everything = Subscription.to_streams(["R"])
        assert wide.covers(narrow) and everything.covers(wide)
        assert not narrow.covers(wide) and not wide.covers(everything)

    def test_merge_covers_both(self):
        s1 = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        s2 = Subscription.to_streams(["S"], filter=Filter.of(("a", ">", 20)))
        m = s1.merge(s2)
        assert m.covers(s1) and m.covers(s2)

    def test_merge_projections(self):
        s1 = Subscription.to_streams(["R"], projection=["x"])
        s2 = Subscription.to_streams(["R"], projection=["y"])
        assert s1.merge(s2).projection == frozenset({"x", "y"})

    def test_merge_with_all_projection(self):
        s1 = Subscription.to_streams(["R"], projection=["x"])
        s2 = Subscription.to_streams(["R"])  # all attributes
        assert s1.merge(s2).projection is None

    def test_deliverable_projects(self):
        """A subscriber receives only the attributes it keeps."""
        net = PubSubNetwork(chain_tree(2))
        net.advertise(0, Advertisement(stream="R"))
        sub = Subscription.to_streams(["R"], projection=["x"])
        net.subscribe(1, sub)
        ((node, ev, got),) = net.publish(0, Event("R", {"x": 1, "y": 2}))
        assert (node, got) == (1, sub)
        assert dict(ev.attributes) == {"x": 1}

    def test_advertisement_intersection(self):
        adv = Advertisement(stream="R", filter=Filter.of(("a", ">=", 0)))
        sub_hit = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        sub_miss = Subscription.to_streams(["R"], filter=Filter.of(("a", "<", -5)))
        assert adv.intersects(sub_hit)
        assert not adv.intersects(sub_miss)


class TestRoutingTable:
    def test_covered_subscription_not_added(self):
        t = RoutingTable(broker=0)
        wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 5)))
        assert t.add_subscription(wide, 1)
        assert not t.add_subscription(narrow, 1)

    def test_covering_subscription_prunes_covered(self):
        t = RoutingTable(broker=0)
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 5)))
        wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
        t.add_subscription(narrow, 1)
        t.add_subscription(wide, 1)
        assert t.subscriptions[1] == [wide]

    def test_local_subscribers_never_covered_away(self):
        """Two distinct local subscribers with nested filters must both
        stay in the table -- covering only optimises forwarding state."""
        t = RoutingTable(broker=0)
        wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 5)))
        assert t.add_subscription(wide, LOCAL)
        assert t.add_subscription(narrow, LOCAL)
        assert t.size() == 2

    def test_same_subscription_different_interfaces(self):
        t = RoutingTable(broker=0)
        sub = Subscription.to_streams(["R"])
        assert t.add_subscription(sub, 1)
        assert t.add_subscription(sub, 2)
        assert t.size() == 2

    def test_forwarding_excludes_arrival_interface(self):
        """Broker 1 holds entries from both sides; an event arriving from
        0 goes on to 2 only, never back over the link it came by."""
        net = PubSubNetwork(chain_tree(3))
        for source in (0, 2):
            net.advertise(source, Advertisement(stream="R"))
        near, far = Subscription.to_streams(["R"]), Subscription.to_streams(["R"])
        net.subscribe(0, near)
        net.subscribe(2, far)
        assert set(net._broker(1).table.subscriptions) == {0, 2}
        deliveries = net.publish(0, Event("R", {}))
        assert [(n, s) for n, _, s in deliveries] == [(0, near), (2, far)]
        assert net.link_bytes == {(0, 1): 1.0, (1, 2): 1.0}

    def test_remove_subscription(self):
        t = RoutingTable(broker=0)
        sub = Subscription.to_streams(["R"])
        t.add_subscription(sub, LOCAL)
        t.remove_subscription(sub.sub_id)
        assert t.size() == 0

    def test_duplicate_advertisement_ignored(self):
        t = RoutingTable(broker=0)
        adv = Advertisement(stream="R")
        assert t.add_advertisement(adv, 1)
        assert not t.add_advertisement(adv, 2)


class TestEndToEnd:
    def setup_method(self):
        self.tree = chain_tree(5)
        self.net = PubSubNetwork(self.tree)
        self.adv = Advertisement(stream="R", filter=Filter.of(("a", ">=", 0)))
        self.net.advertise(0, self.adv)

    def test_single_subscriber_delivery(self):
        sub = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        self.net.subscribe(4, sub)
        deliveries = self.net.publish(0, Event("R", {"a": 15}))
        assert [(n, s.sub_id) for n, _, s in deliveries] == [(4, sub.sub_id)]

    def test_non_matching_not_delivered(self):
        sub = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        self.net.subscribe(4, sub)
        assert self.net.publish(0, Event("R", {"a": 5})) == []

    def test_exactly_once_per_subscriber(self):
        subs = [
            Subscription.to_streams(["R"], filter=Filter.of(("a", ">", i)))
            for i in (5, 10)
        ]
        self.net.subscribe(4, subs[0])
        self.net.subscribe(2, subs[1])
        deliveries = self.net.publish(0, Event("R", {"a": 20}))
        assert sorted(n for n, _, _ in deliveries) == [2, 4]

    def test_link_crossed_at_most_once(self):
        """Figure 2's multicast property: one message per link."""
        for node in (2, 3, 4):
            self.net.subscribe(
                node, Subscription.to_streams(["R"])
            )
        self.net.reset_traffic()
        self.net.publish(0, Event("R", {"a": 1}))
        # chain 0-1-2-3-4, all links carry exactly one whole message
        assert all(v == 1.0 for v in self.net.link_bytes.values())
        assert len(self.net.link_bytes) == 4

    def test_early_filtering_stops_at_first_broker(self):
        sub = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        self.net.subscribe(4, sub)
        self.net.reset_traffic()
        self.net.publish(0, Event("R", {"a": 5}))
        assert self.net.total_data_bytes() == 0.0

    def test_in_network_projection_shrinks_messages(self):
        sub = Subscription.to_streams(["R"], projection=["a"])
        self.net.subscribe(4, sub)
        self.net.reset_traffic()
        self.net.publish(0, Event("R", {"a": 1, "b": 2, "c": 3, "d": 4}))
        # every link carries the projected message: one attribute of four
        assert self.net.link_bytes == {(i, i + 1): 0.25 for i in range(4)}

    def test_unsubscribe_stops_delivery(self):
        sub = Subscription.to_streams(["R"])
        self.net.subscribe(4, sub)
        self.net.unsubscribe(sub.sub_id)
        assert self.net.publish(0, Event("R", {"a": 1})) == []

    def test_covering_prevents_duplicate_propagation(self):
        wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        self.net.subscribe(4, wide)
        before = dict(self.net.control_bytes)
        self.net.subscribe(4, narrow)
        # the narrow subscription is covered at node 4's broker: no new
        # control traffic toward the source
        assert self.net.control_bytes == before

    @pytest.mark.parametrize("a_first", [True, False])
    def test_a_narrower_projection_does_not_cover_a_wider_one(self, a_first):
        """On 0-1, 1-2, 1-3: ``a`` keeps only ``x``, ``b`` filters on ``y``
        too.  Broker 1 must forward ``b`` to 0, or the link 0-1 projects
        ``y`` away and ``b`` loses an event it matches."""
        tree = OverlayTree(nodes=[0, 1, 2, 3])
        for u, v in ((0, 1), (1, 2), (1, 3)):
            tree.add_link(u, v, 1.0)
        net = PubSubNetwork(tree)
        net.advertise(0, Advertisement(stream="s"))
        a = Subscription.to_streams(
            ["s"], projection=["x"], filter=Filter.of(("x", ">", 0))
        )
        b = Subscription.to_streams(
            ["s"], projection=["x", "y"],
            filter=Filter.of(("x", ">", 0), ("y", ">", 0)),
        )
        for node, sub in ((2, a), (3, b)) if a_first else ((3, b), (2, a)):
            net.subscribe(node, sub)
        got = net.publish(0, Event("s", {"x": 1, "y": 2}))
        assert sorted((n, dict(e.attributes)) for n, e, _ in got) == [
            (2, {"x": 1}), (3, {"x": 1, "y": 2}),
        ]

    def test_unsubscribe_walks_the_upstream_path(self):
        """Teardown is a protocol: one charged message per hop that held
        the subscription, and no entry left behind."""
        sub = Subscription.to_streams(["R"])
        self.net.subscribe(4, sub)
        self.net.reset_traffic()
        self.net.unsubscribe(sub.sub_id)
        assert self.net.control_bytes == {
            (0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0,
        }
        assert self.net.routing_table_sizes() == {n: 0 for n in range(5)}

    def test_unsubscribing_a_coverer_reforwards_what_it_covered(self):
        """``narrow`` stopped at node 3 behind ``wide``; tearing ``wide``
        down sends ``narrow`` on toward the source in its place."""
        wide = Subscription.to_streams(["R"])
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
        self.net.subscribe(4, wide)
        self.net.subscribe(3, narrow)
        assert self.net._broker(2).table.subscriptions[3] == [wide]
        self.net.unsubscribe(wide.sub_id)
        for node in (0, 1, 2):
            entries = self.net._broker(node).table.iter_entries()
            assert [s.sub_id for _, s in entries] == [narrow.sub_id]
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 20}))] == [3]
        assert self.net.publish(0, Event("R", {"a": 5})) == []

    def test_a_new_advertiser_draws_existing_subscriptions(self):
        """Subscriptions made before a stream had a source at node 4 are
        forwarded to it when it advertises, and a re-homed source's
        stale entries do not matter."""
        sub = Subscription.to_streams(["S"])
        self.net.subscribe(0, sub)
        assert self.net.routing_table_sizes()[4] == 0
        adv = Advertisement(stream="S")
        self.net.advertise(4, adv)
        assert [n for n, _, _ in self.net.publish(4, Event("S", {}))] == [0]
        self.net.unadvertise(adv.adv_id)
        self.net.advertise(2, Advertisement(stream="S"))
        self.net.reset_traffic()
        assert [n for n, _, _ in self.net.publish(2, Event("S", {}))] == [0]
        assert set(self.net.link_bytes) == {(0, 1), (1, 2)}

    def test_star_topology_only_interested_branches(self):
        tree = star_tree(6)
        net = PubSubNetwork(tree)
        net.advertise(1, Advertisement(stream="R"))
        net.subscribe(2, Subscription.to_streams(["R"]))
        net.subscribe(3, Subscription.to_streams(["S"]))  # different stream
        net.reset_traffic()
        deliveries = net.publish(1, Event("R", {}))
        assert [n for n, _, _ in deliveries] == [2]
        used_links = set(net.link_bytes)
        assert used_links == {(0, 1), (0, 2)}

    def test_rejects_non_tree_overlay(self):
        tree = chain_tree(3)
        tree.add_link(0, 2, 1.0)  # cycle
        with pytest.raises(ValueError):
            PubSubNetwork(tree)

    def test_publisher_local_subscriber(self):
        sub = Subscription.to_streams(["R"])
        self.net.subscribe(0, sub)
        deliveries = self.net.publish(0, Event("R", {"a": 1}))
        assert [n for n, _, _ in deliveries] == [0]
        assert self.net.total_data_bytes() == 0.0


class TestBrokerRemoval:
    """Graceful departure: ``remove_broker`` retires attached state."""

    def setup_method(self):
        self.net = PubSubNetwork(chain_tree(4))

    def test_last_advertiser_retires_advertisement(self):
        # Regression: node 0 is the *only* advertiser of "R".  Removing it
        # must retire the advertisement tree-wide, not leave dangling
        # routes pointing at a producer that no longer exists.
        adv = Advertisement(stream="R")
        self.net.advertise(0, adv)
        sub = Subscription.to_streams(["R"])
        self.net.subscribe(3, sub)
        assert any(
            adv.adv_id in b.table.advertisements for b in self.net.brokers.values()
        )
        subs, advs = self.net.remove_broker(0)
        assert subs == [] and advs == [adv.adv_id]
        for broker in self.net.brokers.values():
            assert adv.adv_id not in broker.table.advertisements
        # a later subscriber must not route toward the dead advertiser
        late = Subscription.to_streams(["R"])
        before = dict(self.net.control_bytes)
        self.net.subscribe(2, late)
        assert self.net.control_bytes == before, "no adverts left to chase"

    def test_other_advertisers_survive(self):
        a0 = Advertisement(stream="R")
        a2 = Advertisement(stream="R")
        self.net.advertise(0, a0)
        self.net.advertise(2, a2)
        self.net.remove_broker(0)
        assert a2.adv_id in self.net._broker(3).table.advertisements
        sub = Subscription.to_streams(["R"])
        self.net.subscribe(3, sub)
        assert [n for n, _, _ in self.net.publish(2, Event("R", {"a": 1}))] == [3]

    def test_attached_subscriptions_unsubscribed_tree_wide(self):
        self.net.advertise(0, Advertisement(stream="R"))
        gone = Subscription.to_streams(["R"])
        kept = Subscription.to_streams(["R"])
        self.net.subscribe(3, gone)
        self.net.subscribe(2, kept)
        subs, _ = self.net.remove_broker(3)
        assert subs == [gone.sub_id]
        for broker in self.net.brokers.values():
            assert all(
                e.sub_id != gone.sub_id for _, e in broker.table.iter_entries()
            )
        # `kept` had been covered upstream by `gone`: the teardown
        # re-forwarded it toward the source in its place
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 1}))] == [2]


class TestBrokerLossAndRecovery:
    """``reset_broker`` wipes one table; ``restore_broker`` has the
    neighbours refill it."""

    def setup_method(self):
        self.net = PubSubNetwork(chain_tree(4))
        self.adv = Advertisement(stream="R")
        self.net.advertise(0, self.adv)
        self.sub = Subscription.to_streams(["R"])
        self.net.subscribe(3, self.sub)

    def test_reset_silences_paths_across_the_broker(self):
        assert len(self.net.publish(0, Event("R", {"a": 1}))) == 1
        self.net.reset_broker(1)
        assert self.net._broker(1).table.size() == 0
        assert self.net._broker(1).table.advertisements == {}
        # the event dies at the wiped broker
        assert self.net.publish(0, Event("R", {"a": 2})) == []

    def test_restore_repairs_delivery(self):
        self.net.reset_broker(1)
        assert self.net.publish(0, Event("R", {"a": 2})) == []
        self.net.restore_broker(1)
        assert self.adv.adv_id in self.net._broker(1).table.advertisements
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 3}))] == [3]

    def test_restore_keeps_a_subscription_moved_while_it_was_down(self):
        """The move's teardown stops at wiped broker 2 and leaves entries
        toward node 1, where the subscription now lives; restoring 2
        withdraws only the entry that points back at 2."""
        self.net.reset_broker(2)
        self.net.subscribe(1, self.sub)
        self.net.restore_broker(2)
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 1}))] == [1]

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 1)])
    def test_restoring_adjacent_wiped_brokers_in_any_order(self, order):
        """A broker restored while a neighbour is still wiped cannot learn
        the advertisements that lie beyond that neighbour; the
        neighbour's restore spreads them on to it."""
        for node in order:
            self.net.reset_broker(node)
        for node in order:
            self.net.restore_broker(node)
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 3}))] == [3]

    def test_restore_is_idempotent_on_healthy_brokers(self):
        tables = {n: b.table.iter_entries() for n, b in self.net.brokers.items()}
        for node in self.net.brokers:
            self.net.restore_broker(node)
        assert {n: b.table.iter_entries() for n, b in self.net.brokers.items()} == tables
        for broker in self.net.brokers.values():
            assert list(broker.table.advertisements) == [self.adv.adv_id]

    def test_restore_withdraws_what_was_torn_down_while_it_was_down(self):
        """An unsubscribe while broker 1 is down stops there; restoring it
        withdraws the entry its neighbour 0 still holds from it."""
        self.net.reset_broker(1)
        self.net.unsubscribe(self.sub.sub_id)
        assert self.net._broker(0).table.size() == 1
        self.net.restore_broker(1)
        assert self.net.routing_table_sizes() == {n: 0 for n in range(4)}
        self.net.reset_traffic()
        assert self.net.publish(0, Event("R", {"a": 1})) == []
        assert self.net.link_bytes == {}

    def test_routing_table_clear_matches_fresh_table(self):
        table = self.net._broker(2).table
        table.clear()
        fresh = RoutingTable(broker=2)
        assert table.advertisements == fresh.advertisements
        assert table.subscriptions == fresh.subscriptions
        assert table.size() == 0
        assert table.stream_entries("R") == fresh.stream_entries("R") == []


class TestLinkPartition:
    def setup_method(self):
        self.net = PubSubNetwork(chain_tree(4))
        self.net.advertise(0, Advertisement(stream="R"))
        self.sub = Subscription.to_streams(["R"])
        self.net.subscribe(3, self.sub)

    def test_down_link_drops_events_without_charging(self):
        self.net.set_link_down(1, 2)
        before = self.net.total_data_bytes()
        assert self.net.publish(0, Event("R", {"a": 1})) == []
        # the hop 0->1 is still charged; the partitioned 1->2 is not
        assert self.net.link_bytes.get((0, 1), 0.0) > before
        assert (1, 2) not in self.net.link_bytes

    def test_healing_restores_delivery(self):
        self.net.set_link_down(1, 2)
        assert self.net.publish(0, Event("R", {"a": 1})) == []
        self.net.set_link_up(1, 2)
        assert [n for n, _, _ in self.net.publish(0, Event("R", {"a": 1}))] == [3]

    def test_non_overlay_link_rejected(self):
        with pytest.raises(ValueError):
            self.net.set_link_down(0, 3)


# ---------------------------------------------------------------------------
# property-based: delivery = exact match set, exactly once
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    thresholds=st.lists(st.integers(-5, 25), min_size=1, max_size=6),
    value=st.integers(-10, 30),
    data=st.data(),
)
def test_delivery_matches_semantics(thresholds, value, data):
    """Every matching subscription gets the event exactly once; no
    non-matching subscription ever receives it."""
    tree = chain_tree(6)
    net = PubSubNetwork(tree)
    net.advertise(0, Advertisement(stream="R"))
    subs = []
    for th in thresholds:
        node = data.draw(st.integers(0, 5))
        sub = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", th)))
        net.subscribe(node, sub)
        subs.append((node, th, sub))
    deliveries = net.publish(0, Event("R", {"a": value}))
    got = {}
    for n, _, s in deliveries:
        got[s.sub_id] = got.get(s.sub_id, 0) + 1
    for node, th, sub in subs:
        if value > th:
            assert got.get(sub.sub_id) == 1, "matching sub must get it once"
        else:
            assert sub.sub_id not in got, "non-matching sub must not get it"
