"""The pub/sub control plane answers by index what its oracles scan for.

Two memos sit on the subscription control plane, each defined by a slow
twin it must agree with exactly:

* **indexed tables** -- ``RoutingTable`` finds a redeclared ``sub_id``,
  covering candidates, the entries a torn-down subscription had been
  covering and the entries that can gate an event of a stream through
  per-interface indexes; the list scans are
  :class:`reference.covering_scan.ScanRoutingTable`, and
  :class:`reference.covering_scan.ScanNetwork` runs the protocols over
  them;
* **content routes** -- ``PubSubNetwork.publish_batch`` remembers the
  stream-only walk of the tables per ``(stream, source)`` and evicts it
  on every control-plane call naming the stream; the definition is a
  fresh walk of the tables as they are.

Agreement covers entry lists in order, each stream's gating entries in
order, control and data bytes and batch-route eviction.
"""

from dataclasses import replace
from functools import partial

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


def table_view(table, names):
    """Everything observable about one table: its entry lists in order
    and, per stream, the entries that can gate its events in order."""
    return dict(
        entries=[
            (iface, [names[id(s)] for s in entries])
            for iface, entries in table.subscriptions.items()
        ],
        size=table.size(),
        streams={
            stream: [
                (iface, names[id(sub)]) for iface, sub, _ in table.stream_entries(stream)
            ]
            for stream in STREAMS
        },
        subscriptions={
            stream: [
                (iface, names[id(sub)]) for iface, sub in table.stream_subscriptions(stream)
            ]
            for stream in STREAMS
        },
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


#: four subscribers, each declarable four ways under its one ``sub_id``
DECLARED_AS = (
    ({"A"}, TRUE_FILTER),
    ({"A", "B"}, FILTERS[1]),
    ({"B"}, FILTERS[2]),
    ({"A"}, FILTERS[3]),
)
redeclaration_ops = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 3),
        st.integers(0, len(DECLARED_AS) - 1),
        st.sampled_from((LOCAL, LOCAL, 1)),
    ),
    st.tuples(st.just("remove"), st.integers(0, 3), st.sampled_from((None, LOCAL, 1))),
)


class TestTableContract:
    """``RoutingTable`` == ``ScanRoutingTable`` after every step of any
    log of adds, removals and clears."""

    @STANDARD_SETTINGS
    @given(log=st.lists(table_ops, min_size=4, max_size=30))
    def test_indexed_maintenance_is_the_scan(self, log):
        pool = table_pool()
        names = {id(s): i for i, s in enumerate(pool)}
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

    @STANDARD_SETTINGS
    @given(log=st.lists(redeclaration_ops, min_size=4, max_size=30))
    def test_redeclared_entries_gate_in_table_order(self, log):
        """Few subscribers redeclared often, mostly on LOCAL (in place):
        each stream's gating entries stay in table order."""
        pool = [
            [
                Subscription(streams=frozenset(streams), filter=f, sub_id=10**6 + k)
                for streams, f in DECLARED_AS
            ]
            for k in range(4)
        ]
        names = {id(s): (k, d) for k, subs in enumerate(pool) for d, s in enumerate(subs)}
        tables = (RoutingTable(broker=0), ScanRoutingTable(broker=0))
        for op in log:
            if op[0] == "add":
                got = [t.add_subscription(pool[op[1]][op[2]], op[3]) for t in tables]
            else:
                got = [t.remove_subscription(10**6 + op[1], op[2]) for t in tables]
            assert got[0] == got[1], op
            assert table_view(tables[0], names) == table_view(tables[1], names), op

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
        # list order here is neither id order nor set order; a prune
        # leaves the survivors in it, in every stream's gating entries
        first = Subscription(
            streams=frozenset({"B"}), filter=FILTERS[2], sub_id=10**6 + 3
        )
        kept = Subscription(
            streams=frozenset({"A", "B", "C"}), filter=FILTERS[4], sub_id=10**6 + 2
        )
        second = Subscription(
            streams=frozenset({"A"}), filter=FILTERS[2], sub_id=10**6 + 1
        )
        wide = Subscription(streams=frozenset({"A", "B"}))
        names = {id(s): s.sub_id for s in (first, kept, second, wide)}
        views = []
        for cls in (RoutingTable, ScanRoutingTable):
            table = cls(broker=0)
            for sub in (first, kept, second, wide):
                table.add_subscription(sub, 1)
            assert table.subscriptions[1] == [kept, wide]
            views.append(table_view(table, names))
        assert views[0] == views[1]
        assert views[0]["streams"]["A"] == [(1, kept.sub_id), (1, wide.sub_id)]

    def test_local_redeclaration_keeps_delivery_order(self):
        """A LOCAL entry redeclared in place keeps its list position, so it
        keeps its place among a stream's gating entries -- delivery
        order -- even for a stream its old declaration did not name."""
        a1, b, a2 = (
            Subscription(streams=frozenset({s}), sub_id=10**6 + i)
            for i, s in enumerate("ABA")
        )
        names = {}
        views = []
        for cls in (RoutingTable, ScanRoutingTable):
            table = cls(broker=0)
            for sub in (a1, b, a2):
                table.add_subscription(sub, LOCAL)
            for streams in ({"A"}, {"A", "B"}, {"C"}):
                redeclared = replace(b, streams=frozenset(streams))
                names[id(redeclared)] = sorted(streams)
                assert table.add_subscription(redeclared, LOCAL)
                assert table.subscriptions[LOCAL][1] is redeclared
                views.append(table_view(table, {**names, id(a1): "a1", id(a2): "a2"}))
        assert views[:3] == views[3:]
        assert views[0]["streams"]["A"] == [(LOCAL, "a1"), (LOCAL, ["A"]), (LOCAL, "a2")]


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def network_view(net, names):
    return dict(
        tables={n: table_view(b.table, names) for n, b in net.brokers.items()},
        control_bytes=dict(net.control_bytes),
        link_bytes=dict(net.link_bytes),
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
                got.append((apply(net, op, pool), sorted(net._batch_routes)))
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
