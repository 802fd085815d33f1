"""The pub/sub control plane answers by index what its oracles scan for.

Three memos sit on the subscription control plane, each defined by a
slow twin it must agree with exactly:

* **indexed tables** -- ``RoutingTable`` finds a redeclared ``sub_id``
  and covering candidates through per-interface indexes; the list scans
  are :class:`reference.covering_scan.ScanRoutingTable`;
* **memoised forced walks** -- ``subscribe(force=True)`` replays the
  hops it read off the advertisement tables the last time; the
  recursion is :class:`reference.covering_scan.RecursiveNetwork`;
* **content routes** -- ``PubSubNetwork.publish_batch`` remembers the
  stream-only walk of the tables per ``(stream, source)`` and evicts it
  on every control-plane call naming the stream; the definition is a
  fresh walk of the tables as they are.

Agreement covers entry lists in order, forwarding-index calls in order,
matching, control and data bytes, ``version`` and batch-route eviction.
"""

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.covering_scan import RecursiveNetwork, ScanRoutingTable

from repro.obs import Observer
from repro.pubsub import Advertisement, Event, Filter, PubSubNetwork, Subscription
from repro.pubsub import routing
from repro.pubsub.index import ForwardingIndex
from repro.pubsub.predicates import TRUE_FILTER
from repro.pubsub.routing import LOCAL, RoutingTable
from repro.sim import (
    ChurnParams,
    HotSpotShift,
    ProcessorCrash,
    ProcessorLeave,
    ScenarioParams,
    SimWorkloadParams,
    run_scenario,
)
from repro.topology import OverlayTree

FILTERS = (
    TRUE_FILTER,
    Filter.of(("x", ">", 2)),
    Filter.of(("x", ">", 5)),
    Filter.of(("x", ">", 5), ("y", "==", 1)),
    Filter.of(("y", "in", (1, 2))),
    Filter.of(("x", "<", 0), ("x", ">", 1)),  # unsatisfiable
)
PROBES = (
    Event("A", {"x": 6, "y": 1}),
    Event("A", {"x": 3}),
    Event("B", {"x": 1, "y": 1}),
    Event("B", {"y": 2}),
    Event("C", {"x": -1}),
    Event("C", {}),
)


class RecordingIndex(ForwardingIndex):
    """A forwarding index that logs every maintenance call."""

    def __init__(self, local_marker):
        super().__init__(local_marker)
        self.calls = []

    def add(self, sub, iface):
        self.calls.append(("add", id(sub), iface))
        super().add(sub, iface)

    def remove(self, sub_id, iface):
        self.calls.append(("remove", sub_id, iface))
        super().remove(sub_id, iface)


@contextmanager
def recording_index():
    with mock.patch.object(routing, "ForwardingIndex", RecordingIndex):
        yield


def table_view(table, names):
    """Everything observable about one table: its entry lists in order,
    its forwarding-index calls in order and how it matches the probes
    (from every interface it knows)."""
    arrivals = [None, *sorted(i for i in table.subscriptions if i != LOCAL)]
    matches = []
    for event in PROBES:
        for via in arrivals:
            m = table.match_event(event, via)
            matches.append((
                sorted(m.interfaces, key=str),
                [names[id(s)] for s in m.local],
                {i: None if n is None else sorted(n) for i, n in m.needed.items()},
            ))
    return dict(
        entries=[
            (iface, [names[id(s)] for s in entries])
            for iface, entries in table.subscriptions.items()
        ],
        size=table.size(),
        index=None if table._index is None else table._index.calls,
        matches=matches,
    )


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def table_pool():
    """Every stream set (the empty one included) under every filter, then
    redeclarations: one ``sub_id``, another filter or stream set."""
    pool = [
        Subscription(streams=frozenset(streams), filter=f)
        for streams in ((), ("A",), ("B",), ("A", "B"), ("A", "B", "C"))
        for f in FILTERS
    ]
    pool += [
        replace(pool[7], filter=FILTERS[1]),
        replace(pool[8], filter=TRUE_FILTER),
        replace(pool[1], filter=FILTERS[2]),
        replace(pool[13], streams=frozenset({"A", "B"})),
        replace(pool[20], streams=frozenset()),
        replace(pool[26], filter=FILTERS[3], projection=frozenset({"x"})),
    ]
    return pool


TABLE_POOL = len(table_pool())
IFACES = (LOCAL, 1, 2, 3)
_table_add = st.tuples(
    st.just("add"), st.integers(0, TABLE_POOL - 1), st.sampled_from(IFACES)
)
table_ops = st.one_of(
    _table_add,
    _table_add,
    _table_add,
    st.tuples(
        st.just("remove"),
        st.integers(0, TABLE_POOL - 1),
        st.sampled_from((None,) + IFACES),
    ),
    st.tuples(st.just("clear")),
)


class TestTableContract:
    """``RoutingTable`` == ``ScanRoutingTable`` after every step of any
    log of adds, removals and clears."""

    @settings(max_examples=150, deadline=None)
    @given(log=st.lists(table_ops, min_size=4, max_size=30))
    def test_indexed_maintenance_is_the_scan(self, log):
        pool = table_pool()
        names = {id(s): i for i, s in enumerate(pool)}
        with recording_index():
            tables = (RoutingTable(broker=0), ScanRoutingTable(broker=0))
            for op in log:
                if op[0] == "add":
                    got = [t.add_subscription(pool[op[1]], op[2]) for t in tables]
                elif op[0] == "remove":
                    got = [
                        t.remove_subscription(pool[op[1]].sub_id, op[2])
                        for t in tables
                    ]
                else:
                    got = [t.clear() for t in tables]
                assert got[0] == got[1], op
                views = [table_view(t, names) for t in tables]
                assert views[0] == views[1], op
                for sub in pool:
                    for toward in IFACES:
                        assert tables[0].covered_upstream(sub, toward) == (
                            tables[1].covered_upstream(sub, toward)
                        ), (op, names[id(sub)], toward)

    def test_stream_less_entries_are_pruned_by_a_covering_subscription(self):
        # every entry names no stream outside the empty set, so any
        # subscription whose filter covers one may prune it
        for table in (RoutingTable(broker=0), ScanRoutingTable(broker=0)):
            narrow = Subscription(streams=frozenset(), filter=FILTERS[2])
            wide = Subscription(streams=frozenset({"A"}), filter=FILTERS[1])
            assert table.add_subscription(narrow, 1)
            assert table.add_subscription(wide, 1)
            assert table.subscriptions[1] == [wide]

    def test_pruned_entries_leave_in_list_order(self):
        # list order here is neither id order, set order nor bucket order
        first = Subscription(
            streams=frozenset({"B"}), filter=FILTERS[2], sub_id=10**6 + 3
        )
        second = Subscription(
            streams=frozenset({"A"}), filter=FILTERS[2], sub_id=10**6 + 1
        )
        wide = Subscription(streams=frozenset({"A", "B"}))
        calls = []
        for cls in (RoutingTable, ScanRoutingTable):
            with recording_index():
                table = cls(broker=0)
            for sub in (first, second, wide):
                table.add_subscription(sub, 1)
            assert table.subscriptions[1] == [wide]
            calls.append(table._index.calls)
        assert calls[0] == calls[1]
        removed = [sub_id for kind, sub_id, _ in calls[0] if kind == "remove"]
        assert removed == [first.sub_id, second.sub_id]


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
#: a tree with a branch: 0-1-2-3, 1-4, 2-5
LINKS = ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5))
NODES = tuple(range(6))
STREAMS = ("A", "B", "C")
#: (source, advertisement); the first of each stream is flooded up front
ADVERTS = (
    (0, Advertisement(stream="A")),
    (3, Advertisement(stream="B")),
    (4, Advertisement(stream="C")),
    (5, Advertisement(stream="A", filter=Filter.of(("x", ">", 3)))),
    (4, Advertisement(stream="B", filter=Filter.of(("y", "==", 1)))),
    (1, Advertisement(stream="C", filter=Filter.of(("x", "<", -5)))),
)
SIZES = (1.0, 0.1, 0.3)


def tree():
    t = OverlayTree(nodes=list(NODES))
    for u, v in LINKS:
        t.add_link(u, v, 1.0)
    return t


def network_pool():
    base = [
        Subscription.to_streams(["A"]),
        Subscription.to_streams(["A"], filter=FILTERS[2]),
        Subscription.to_streams(["A", "B"], filter=FILTERS[1]),
        Subscription.to_streams(["B"], projection=["x"]),
        Subscription.to_streams(["B"], filter=Filter.of(("y", "==", 1))),
        Subscription.to_streams(["C"], filter=Filter.of(("x", "<", 0))),
        Subscription.to_streams(["B", "C"]),
        Subscription.to_streams([]),
    ]
    return base + [
        replace(base[1], streams=frozenset({"A", "C"}), filter=FILTERS[1]),
        replace(base[2], streams=frozenset({"A"}), filter=TRUE_FILTER),
        replace(base[4], streams=frozenset({"B", "C"}), filter=FILTERS[4]),
        replace(base[0], filter=Filter.of(("x", "<", 0))),
    ]


NET_POOL = len(network_pool())
#: a subscription and its redeclarations form a family; each family
#: subscribes from one of two nodes, so logs revisit (node, sub) pairs
FAMILY = tuple(range(8)) + (1, 2, 4, 0)
HOMES = ((3, 5), (5, 0), (4, 3), (0, 2), (3, 1), (1, 4), (5, 3), (2, 0))
_subscribe = st.tuples(
    st.just("subscribe"),
    st.integers(0, 1),
    st.integers(0, NET_POOL - 1),
    st.booleans(),
    st.sampled_from(SIZES),
)
network_ops = st.one_of(
    _subscribe,
    _subscribe,
    _subscribe,
    st.tuples(st.just("unsubscribe"), st.integers(0, NET_POOL - 1)),
    st.tuples(st.just("advertise"), st.integers(0, len(ADVERTS) - 1)),
    st.tuples(st.just("unadvertise"), st.integers(0, len(ADVERTS) - 1)),
    st.tuples(st.just("reset_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("reflood")),
    st.tuples(st.just("remove_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("link_down"), st.sampled_from(LINKS)),
    st.tuples(st.just("link_up"), st.sampled_from(LINKS)),
    st.tuples(st.just("publish"), st.integers(0, len(PROBES) - 1)),
    st.tuples(st.just("repair"), st.sampled_from(SIZES)),
    st.tuples(st.just("repair"), st.sampled_from(SIZES)),
)


def apply(net, op, pool, declared):
    """Run one control-log step; returns what the call returned.

    ``repair`` is the simulator's covering repair: every live
    subscription, as last declared, re-subscribed with ``force=True``."""
    kind = op[0]
    if kind == "repair":
        for sub_id, node in list(net._subscriber_node.items()):
            net.subscribe(node, declared[sub_id], size=op[1], force=True)
        return None
    if kind == "subscribe":
        node = HOMES[FAMILY[op[2]]][op[1]]
        return net.subscribe(node, pool[op[2]], size=op[4], force=op[3])
    if kind == "unsubscribe":
        return net.unsubscribe(pool[op[1]].sub_id)
    if kind == "advertise":
        source, adv = ADVERTS[op[1]]
        return net.advertise(source, adv)
    if kind == "unadvertise":
        return net.unadvertise(ADVERTS[op[1]][1].adv_id)
    if kind == "reset_broker":
        return net.reset_broker(op[1])
    if kind == "reflood":
        return net.reflood_advertisements()
    if kind == "remove_broker":
        return net.remove_broker(op[1])
    if kind == "link_down":
        return net.set_link_down(*op[1])
    if kind == "link_up":
        return net.set_link_up(*op[1])
    event = PROBES[op[1]]
    source = next(s for s, adv in ADVERTS if adv.stream == event.stream)
    return [(n, e, id(s)) for n, e, s in net.publish(source, event)]


def network_view(net, names):
    return dict(
        tables={n: table_view(b.table, names) for n, b in net.brokers.items()},
        control_bytes=dict(net.control_bytes),
        link_bytes=dict(net.link_bytes),
        version=net.version,
        stream_versions={s: net.stream_version(s) for s in STREAMS},
        batch_routes={s: sorted(r) for s, r in net._batch_routes.items()},
    )


class TestNetworkContract:
    """``PubSubNetwork`` == ``RecursiveNetwork`` after every step of any
    control log, the production network carrying its memos through the
    whole log."""

    @settings(max_examples=200, deadline=None)
    @given(log=st.lists(network_ops, min_size=12, max_size=40))
    # a redeclaration replayed on its predecessor's walk misses C's hops
    @example(log=[
        ("subscribe", 0, 1, True, 1.0), ("subscribe", 0, 8, True, 0.1),
        ("repair", 0.3),
    ])
    def test_memoised_walks_are_the_recursion(self, log):
        pool = network_pool()
        names = {id(s): i for i, s in enumerate(pool)}
        with recording_index():
            nets = (
                PubSubNetwork(tree()),
                RecursiveNetwork(tree()),
            )
            for net in nets:
                for source, adv in ADVERTS[:3]:
                    net.advertise(source, adv)
            declared = {}
            for op in log:
                if op[0] == "subscribe":
                    declared[pool[op[2]].sub_id] = pool[op[2]]
                got = []
                for net in nets:
                    # a full route memo before every step: what a step
                    # evicts is part of the contract
                    net._batch_routes = {s: {0: None} for s in STREAMS}
                    got.append(apply(net, op, pool, declared))
                assert got[0] == got[1], op
                assert network_view(nets[0], names) == network_view(nets[1], names), op


def memo_counts(net):
    counters = net.observer.registry.counters
    return (
        counters.get("broker.walk_memo_hits", 0),
        counters.get("broker.walk_memo_misses", 0),
    )


class TestWalkInvalidation:
    """When a forced subscribe may replay (hit) and when it must re-read
    the advertisement tables (miss)."""

    def setup_method(self):
        self.net = PubSubNetwork(tree())
        self.net.observer = Observer(span_sample_every=0, profile=False)
        for source, adv in ADVERTS[:3]:
            self.net.advertise(source, adv)
        self.a = Subscription.to_streams(["A"])
        self.assert_forced(self.a, (0, 1))

    def assert_forced(self, sub, counts, node=3):
        before = memo_counts(self.net)
        self.net.subscribe(node, sub, force=True)
        after = memo_counts(self.net)
        assert (after[0] - before[0], after[1] - before[1]) == counts

    def test_a_repeated_forced_subscribe_replays(self):
        self.assert_forced(self.a, (1, 0))
        self.assert_forced(self.a, (1, 0))

    def test_plain_subscribes_neither_replay_nor_record(self):
        self.net.subscribe(3, self.a)
        self.net.subscribe(4, self.a)
        assert memo_counts(self.net) == (0, 1)
        self.assert_forced(self.a, (0, 1), node=4)

    def test_each_subscriber_node_has_its_own_walk(self):
        self.assert_forced(self.a, (0, 1), node=5)
        self.assert_forced(self.a, (1, 0), node=5)
        self.assert_forced(self.a, (1, 0), node=3)

    def test_advertising_its_stream_invalidates(self):
        self.net.advertise(*ADVERTS[3])
        self.assert_forced(self.a, (0, 1))

    def test_unadvertising_its_stream_invalidates(self):
        self.net.unadvertise(ADVERTS[0][1].adv_id)
        self.assert_forced(self.a, (0, 1))

    def test_other_streams_advertisements_leave_it_alone(self):
        self.net.advertise(*ADVERTS[4])
        self.net.unadvertise(ADVERTS[2][1].adv_id)
        self.assert_forced(self.a, (1, 0))

    def test_a_broker_reset_invalidates(self):
        self.net.reset_broker(5)
        self.assert_forced(self.a, (0, 1))

    def test_links_and_subscriptions_leave_it_alone(self):
        # a forced walk reads advertisement tables only
        self.net.set_link_down(1, 2)
        self.net.subscribe(5, Subscription.to_streams(["A"]))
        self.assert_forced(self.a, (1, 0))

    def test_unsubscribe_forgets_the_walk(self):
        self.net.unsubscribe(self.a.sub_id)
        assert self.a.sub_id not in self.net._walks
        self.assert_forced(self.a, (0, 1))

    def test_a_redeclaration_is_a_new_walk(self):
        self.assert_forced(replace(self.a, filter=FILTERS[1]), (0, 1))
        self.assert_forced(self.a, (0, 1))


class TestStreamVersion:
    """``stream_version`` moves exactly with the calls that name the
    stream, and with every call that names all streams."""

    def setup_method(self):
        self.net = PubSubNetwork(tree())
        for source, adv in ADVERTS[:3]:
            self.net.advertise(source, adv)

    def moved(self, call):
        streams = STREAMS + ("never-named",)
        before = {s: self.net.stream_version(s) for s in streams}
        call()
        return {s for s in streams if self.net.stream_version(s) != before[s]}

    def test_subscriptions_move_the_streams_they_name(self):
        ab = Subscription.to_streams(["A", "B"])
        assert self.moved(partial(self.net.subscribe, 3, ab)) == {"A", "B"}
        # a redeclaration also names the streams earlier ones did
        c = replace(ab, streams=frozenset({"C"}))
        assert self.moved(partial(self.net.subscribe, 3, c)) == {"A", "B", "C"}
        assert self.moved(partial(self.net.unsubscribe, ab.sub_id)) == {"A", "B", "C"}
        assert self.moved(partial(self.net.unsubscribe, ab.sub_id)) == set()

    def test_advertisements_move_their_stream(self):
        assert self.moved(partial(self.net.advertise, *ADVERTS[4])) == {"B"}
        unadvertise = partial(self.net.unadvertise, ADVERTS[4][1].adv_id)
        assert self.moved(unadvertise) == {"B"}

    @pytest.mark.parametrize(
        "call",
        [
            lambda net: net.reset_broker(2),
            lambda net: net.set_link_down(1, 2),
            lambda net: net.set_link_up(1, 2),
        ],
        ids=["reset_broker", "link_down", "link_up"],
    )
    def test_faults_move_every_stream(self, call):
        everything = set(STREAMS) | {"never-named"}
        assert self.moved(partial(call, self.net)) == everything


# ----------------------------------------------------------------------
# the batch-route memo under the simulator's control plane
# ----------------------------------------------------------------------
def route_shape(route):
    """What a memoised route was read from the tables (the per-signature
    outcomes are derived from it on demand)."""
    return (route.steps, route.local, route.tests, route.shaped)


class TestSourceCandidates:
    """A memoised batch route is where a source's rows can go: its
    candidate subscribers and the entries gating each link."""

    @pytest.mark.parametrize(
        "faults",
        [(), (ProcessorCrash(at=5.0), ProcessorLeave(at=9.0))],
        ids=["churn_hotspot_adapt", "with_crash_and_leave"],
    )
    def test_memo_equals_a_fresh_scan_after_every_event(self, faults, monkeypatch):
        """Shared plane, churn + hot spot + adaptation: after every event
        -- every control action -- each memoised source and result route
        is what a fresh walk of the tables reads, faults included."""
        import repro.sim.cluster as cluster_mod

        clusters = []
        checks = []
        init = cluster_mod.SimCluster.__init__

        def check(cluster):
            net = cluster.network
            for stream, routes in net._batch_routes.items():
                for source, route in routes.items():
                    fresh = net._batch_route(source, stream)
                    assert route_shape(route) == route_shape(fresh), (stream, source)
                    checks.append(stream)

        def checked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clusters.append(self)
            schedule = self.loop.schedule

            def run_then_check(action):
                action()
                check(self)

            self.loop.schedule = lambda when, action: schedule(
                when, partial(run_then_check, action)
            )

        monkeypatch.setattr(cluster_mod.SimCluster, "__init__", checked_init)
        report = run_scenario(
            seed=3,
            workload=SimWorkloadParams(
                num_substreams=40, num_queries=24, pool_substreams=6
            ),
            scenario=ScenarioParams(
                duration=12.0,
                sample_interval=4.0,
                adapt_interval=4.0,
                initial_placement="skewed",
                churn=ChurnParams(arrival_rate=0.5, mean_lifetime=6.0),
                hotspot=HotSpotShift(at=6.0, substreams=8, factor=3.0),
                use_sharing=True,
                faults=faults,
            ),
        )
        (cluster,) = clusters
        assert len(checks) > 1000
        assert any(s.startswith("shared::") for s in checks), "no result route"
        assert cluster.migrations > 0, "no unit migrated"
        assert report.executed_queries < report.user_queries, "nothing shared"
        kinds = {e["kind"] for e in report.fault_log}
        if faults:
            assert {"crash", "recover", "leave"} <= kinds
        check(cluster)
