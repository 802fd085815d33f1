"""The pub/sub control plane answers by index what its oracles scan for.

Two memos sit on the subscription control plane, each defined by a slow
twin it must agree with exactly:

* **indexed tables** -- ``RoutingTable`` finds a redeclared ``sub_id``,
  covering candidates and the entries a torn-down subscription had been
  covering through per-interface indexes; the list scans are
  :class:`reference.covering_scan.ScanRoutingTable`, and
  :class:`reference.covering_scan.ScanNetwork` runs the protocols over
  them;
* **content routes** -- ``PubSubNetwork.publish_batch`` remembers the
  stream-only walk of the tables per ``(stream, source)`` and evicts it
  on every control-plane call naming the stream; the definition is a
  fresh walk of the tables as they are.

Agreement covers entry lists in order, forwarding-index calls in order,
matching, control and data bytes and batch-route eviction.
"""

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    ADVERTS,
    STANDARD_SETTINGS,
    STREAMS,
    apply,
    control_logs,
    subscription_pool,
    tree,
)

from reference.covering_scan import ScanNetwork, ScanRoutingTable

from repro.pubsub import Event, Filter, PubSubNetwork, Subscription
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

    @STANDARD_SETTINGS
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
                        assert [
                            names[id(e)] for e in tables[0].covered_entries(sub, toward)
                        ] == [
                            names[id(e)] for e in tables[1].covered_entries(sub, toward)
                        ], (op, names[id(sub)], toward)
                        assert tables[0].holds(sub.sub_id, toward) == (
                            tables[1].holds(sub.sub_id, toward)
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
def network_view(net, names):
    return dict(
        tables={n: table_view(b.table, names) for n, b in net.brokers.items()},
        control_bytes=dict(net.control_bytes),
        link_bytes=dict(net.link_bytes),
        batch_routes={s: sorted(r) for s, r in net._batch_routes.items()},
    )


class TestNetworkContract:
    """``PubSubNetwork`` == ``ScanNetwork`` after every step of any
    control log: the protocols make the same table calls in the same
    order whichever way a table answers them."""

    @settings(STANDARD_SETTINGS, max_examples=200)
    @given(log=control_logs(20, min_pairs=6))
    def test_indexed_network_is_the_scan(self, log):
        pool = subscription_pool()
        names = {id(s): i for i, s in enumerate(pool)}
        with recording_index():
            nets = (PubSubNetwork(tree()), ScanNetwork(tree()))
            for net in nets:
                for source, adv in ADVERTS[:3]:
                    net.advertise(source, adv)
            for op in log:
                got = []
                for net in nets:
                    # a full route memo before every step: what a step
                    # evicts is part of the contract
                    net._batch_routes = {s: {0: None} for s in STREAMS}
                    got.append(apply(net, op, pool))
                    for source, adv in ADVERTS[:3]:
                        net.publish(source, Event(adv.stream, {"x": 3, "y": 1}))
                assert got[0] == got[1], op
                assert network_view(nets[0], names) == network_view(nets[1], names), op


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
