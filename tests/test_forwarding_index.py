"""Content-forwarding parity and routing-table correctness regressions.

Production content routing (``publish``, a one-row ``publish_batch``
replaying the stream entries of each table) must be observationally
identical to the hop-by-hop walk over entry-list scans: same local
deliveries in the same order with the same attributes, same per-link
projections, same traffic accounting -- under every filter operator,
adds, unsubscribes, covering-based pruning and the re-forwarding a
teardown does.  These tests drive production tables and networks and
their scanning twins (:mod:`reference.covering_scan`, whose networks
publish by :func:`reference.per_row_publish.walk_publish`) with the
*same* Subscription objects and compare everything.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cluster_contract import swapped
from reference.covering_scan import ScanNetwork, ScanRoutingTable

from repro.pubsub import (
    Advertisement,
    Event,
    Filter,
    PubSubNetwork,
    Subscription,
)
from repro.pubsub.routing import LOCAL, RoutingTable
from repro.query.interest import SubstreamSpace
from repro.sim import ChurnParams, HotSpotShift, ScenarioParams, run_scenario
from repro.topology import OverlayTree, SyntheticOracle
from repro.topology.overlay import minimum_latency_spanning_tree


def chain_tree(n):
    tree = OverlayTree(nodes=list(range(n)))
    for i in range(n - 1):
        tree.add_link(i, i + 1, 1.0)
    return tree


def table_pair():
    return RoutingTable(broker=0), ScanRoutingTable(broker=0)


def normalized(deliveries):
    return [
        (node, sub.sub_id, tuple(sorted(ev.attributes.items())))
        for node, ev, sub in deliveries
    ]


# ---------------------------------------------------------------------------
# RoutingTable-level parity
# ---------------------------------------------------------------------------


class TestTableParity:
    def apply_both(self, tables, op, *args):
        out = [getattr(t, op)(*args) for t in tables]
        assert out[0] == out[1], f"{op}{args} diverged"
        return out[0]

    def assert_same_answers(self, tables, event):
        """The entries that can gate ``event``'s stream, in order, and
        which of them pass it: production's compiled filters against the
        reference's ``Subscription.matches``."""
        indexed, reference = tables
        assert [
            (iface, sub.sub_id, matches(event.attributes))
            for iface, sub, matches in indexed.stream_entries(event.stream)
        ] == [
            (iface, sub.sub_id, sub.matches(event))
            for iface, sub, _ in reference.stream_entries(event.stream)
        ]

    def test_parity_after_remove_and_prune(self):
        tables = table_pair()
        narrow = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 5)))
        wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
        other = Subscription.to_streams(["R"], filter=Filter.of(("a", "<", -5)))
        self.apply_both(tables, "add_subscription", narrow, 1)
        self.apply_both(tables, "add_subscription", other, 1)
        # wide covers narrow -> prune must hit table and index alike
        self.apply_both(tables, "add_subscription", wide, 1)
        self.assert_same_answers(tables, Event("R", {"a": 7}))
        self.apply_both(tables, "remove_subscription", wide.sub_id, 1)
        self.assert_same_answers(tables, Event("R", {"a": 7}))
        self.apply_both(tables, "remove_subscription", other.sub_id)
        self.assert_same_answers(tables, Event("R", {"a": -7}))

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(0, 3),  # interface selector
                st.integers(-5, 25),  # threshold
                st.sampled_from([">", ">=", "<", "<=", "==", "!="]),
            ),
            min_size=1,
            max_size=20,
        ),
        probes=st.lists(st.integers(-10, 30), min_size=1, max_size=8),
    )
    def test_random_op_sequences_parity(self, ops, probes):
        tables = table_pair()
        live = []
        for kind, iface_sel, threshold, op in ops:
            via = [LOCAL, 1, 2, 3][iface_sel]
            if kind == "add" or not live:
                sub = Subscription.to_streams(
                    ["R"], filter=Filter.of(("a", op, threshold))
                )
                self.apply_both(tables, "add_subscription", sub, via)
                live.append(sub)
            else:
                victim = live.pop(threshold % len(live))
                self.apply_both(tables, "remove_subscription", victim.sub_id)
        indexed, reference = tables
        assert indexed.size() == reference.size()
        for value in probes:
            self.assert_same_answers(tables, Event("R", {"a": value}))


# ---------------------------------------------------------------------------
# publish-level parity: filter semantics end to end
# ---------------------------------------------------------------------------


class TestPublishParity:
    """Production ``publish`` against the walk over scanned tables, with
    subscribers on every broker of a chain whose ends both advertise."""

    def networks(self, subs):
        nets = (PubSubNetwork(chain_tree(4)), ScanNetwork(chain_tree(4)))
        for net in nets:
            for source in (0, 3):
                for stream in ("R", "S", "T"):
                    net.advertise(source, Advertisement(stream=stream))
            for i, sub in enumerate(subs):
                net.subscribe(i % 4, sub)
        return nets

    def assert_same_deliveries(self, nets, event):
        for source in (0, 3):
            got, want = (net.publish(source, event) for net in nets)
            assert normalized(got) == normalized(want), (source, event)
        assert nets[0].link_bytes == nets[1].link_bytes

    def test_operator_mix_parity(self):
        nets = self.networks([
            Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10))),
            Subscription.to_streams(["R"], filter=Filter.of(("a", "<=", 5))),
            Subscription.to_streams(["R"], filter=Filter.of(("a", "==", 7))),
            Subscription.to_streams(
                ["R"], filter=Filter.of(("a", "in", frozenset([1, 2, 3])))
            ),
            Subscription.to_streams(["R"], filter=Filter.of(("a", "!=", 7))),
            Subscription.to_streams(
                ["R", "S"], filter=Filter.of(("a", ">=", 0), ("b", "<", 4))
            ),
            Subscription.to_streams(["S"]),  # stream-only
            Subscription.to_streams(  # unsatisfiable
                ["R"], filter=Filter.of(("a", "==", 1), ("a", "==", 2))
            ),
            Subscription.to_streams(  # projects a filtered attribute away
                ["R"], projection=["b"], filter=Filter.of(("a", ">", 0))
            ),
        ])
        for stream in ("R", "S", "T"):
            for a in (-1, 1, 5, 7, 11, None):
                for b in (2, 9, None):
                    attrs = {}
                    if a is not None:
                        attrs["a"] = a
                    if b is not None:
                        attrs["b"] = b
                    self.assert_same_deliveries(nets, Event(stream, attrs))

    def test_string_and_mixed_type_values_parity(self):
        nets = self.networks([
            Subscription.to_streams(["R"], filter=Filter.of(("s", "==", "x"))),
            Subscription.to_streams(["R"], filter=Filter.of(("s", "!=", "n"))),
            Subscription.to_streams(
                ["R"], filter=Filter.of(("s", "in", frozenset(["p", "q"])))
            ),
            # numeric range on one attr, string equality on another
            Subscription.to_streams(
                ["R"], filter=Filter.of(("a", ">", 1), ("s", "==", "p"))
            ),
        ])
        for value in ("x", "m", "n", "p", 3):
            for a in (0, 2, None):
                attrs = {"s": value}
                if a is not None:
                    attrs["a"] = a
                self.assert_same_deliveries(nets, Event("R", attrs))


# ---------------------------------------------------------------------------
# network-level randomized parity (seeded SubstreamSpace.random workload)
# ---------------------------------------------------------------------------


def build_parity_networks(seed, processors=24, subscriptions=160, substreams=48):
    rng = np.random.default_rng(seed)
    n_sources = 6
    sources = list(range(n_sources))
    procs = list(range(n_sources, n_sources + processors))
    oracle = SyntheticOracle(n_sources + processors, seed=seed)
    space = SubstreamSpace.random(substreams, sources, rng=rng)
    tree = minimum_latency_spanning_tree(sources + procs, oracle)
    nets = [PubSubNetwork(tree), ScanNetwork(tree)]
    for sid in range(len(space)):
        adv = Advertisement(stream=f"S{sid}")
        for net in nets:
            net.advertise(int(space.source_of[sid]), adv)
    installed = []
    for _ in range(subscriptions):
        node = procs[int(rng.integers(len(procs)))]
        sids = rng.choice(substreams, size=1 + int(rng.integers(2)), replace=False)
        draw = rng.random()
        if draw < 0.5:
            lo = int(rng.integers(0, 80))
            filt = Filter.of(("value", ">=", lo), ("value", "<", lo + 30))
        elif draw < 0.65:
            filt = Filter.of(
                ("value", "in",
                 frozenset(int(v) for v in rng.integers(0, 100, size=4))),
            )
        elif draw < 0.75:
            filt = Filter.of(("value", "!=", int(rng.integers(0, 100))))
        else:
            filt = Filter()
        projection = frozenset({"value"}) if rng.random() < 0.3 else None
        sub = Subscription.to_streams(
            [f"S{int(s)}" for s in sids], projection=projection, filter=filt
        )
        for net in nets:
            net.subscribe(node, sub)
        installed.append((node, sub))
    return nets, installed, space, rng


def publish_all(nets, space, rng, count=80):
    """Publish one identical random event batch through both networks."""
    substreams = len(space)
    for _ in range(count):
        sid = int(rng.integers(substreams))
        event = Event(
            stream=f"S{sid}",
            attributes={"value": int(rng.integers(0, 100))},
        )
        source = int(space.source_of[sid])
        yield [net.publish(source, event) for net in nets]


class TestNetworkParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_delivery_parity(self, seed):
        nets, _installed, space, rng = build_parity_networks(seed)
        for indexed, reference in publish_all(nets, space, rng):
            assert normalized(indexed) == normalized(reference)
        assert nets[0].link_bytes == nets[1].link_bytes

    def test_parity_through_unsubscribe_and_covering_repair(self):
        """The covering-hole scenario: tear down subscriptions that
        covered others, and require parity on the tables the teardowns
        re-forwarded the covered ones into."""
        nets, installed, space, rng = build_parity_networks(seed=3)
        victims = installed[::5]
        for _node, sub in victims:
            for net in nets:
                net.unsubscribe(sub.sub_id)
        for node, broker in nets[0].brokers.items():
            assert broker.table.size() == nets[1].brokers[node].table.size()
        for indexed, reference in publish_all(nets, space, rng):
            assert normalized(indexed) == normalized(reference)

    def test_sim_trace_parity(self):
        """End to end: the simulator's delivered-tuple trace is bit-identical
        over indexed and scanned tables, churn and hot spots included."""
        base = dict(
            duration=18.0,
            sample_interval=4.0,
            adapt_interval=8.0,
            initial_placement="skewed",
            churn=ChurnParams(arrival_rate=0.4, mean_lifetime=9.0),
            hotspot=HotSpotShift(at=9.0, substreams=6, factor=3.0),
        )
        indexed = run_scenario(
            seed=11, scenario=ScenarioParams(**base), record=True
        )
        with swapped(PubSubNetwork=ScanNetwork):
            reference = run_scenario(
                seed=11, scenario=ScenarioParams(**base), record=True
            )
        assert json.dumps(indexed.trace.to_dict(), sort_keys=True) == (
            json.dumps(reference.trace.to_dict(), sort_keys=True)
        )
        assert indexed.results == reference.results
        assert indexed.actions == reference.actions


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------


class TestSubIdDedup:
    def test_stale_neighbour_entry_replaced_in_place(self):
        """A re-declared subscription (same id, changed filter) must
        replace its stale entry, not sit next to it."""
        for table_cls in (RoutingTable, ScanRoutingTable):
            t = table_cls(broker=0)
            old = Subscription.to_streams(
                ["R"], filter=Filter.of(("a", "<", 0)), )
            new = Subscription(
                streams=frozenset(["R"]),
                filter=Filter.of(("a", ">", 5)),
                sub_id=old.sub_id,
            )
            assert t.add_subscription(old, 1)
            # neither covers the other -> the pre-fix code appended a duplicate
            assert t.add_subscription(new, 1)
            assert t.size() == 1
            assert t.subscriptions[1] == [new]
            ((iface, sub, matches),) = t.stream_entries("R")
            assert (iface, sub) == (1, new)
            assert matches({"a": 7}) and not matches({"a": -7})

    def test_redeclaration_still_subject_to_covering(self):
        """A redeclared neighbour entry must not bypass covering: if the
        new filter is covered by another entry from the same interface,
        the stale entry goes and nothing redundant replaces it."""
        for table_cls in (RoutingTable, ScanRoutingTable):
            t = table_cls(broker=0)
            wide = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 0)))
            old = Subscription.to_streams(["R"], filter=Filter.of(("b", "<", 9)))
            assert t.add_subscription(wide, 1)
            assert t.add_subscription(old, 1)
            narrow = Subscription(
                streams=frozenset(["R"]),
                filter=Filter.of(("a", ">", 5)),
                sub_id=old.sub_id,
            )
            assert t.add_subscription(narrow, 1)  # table changed: old dropped
            assert t.subscriptions[1] == [wide]
            assert [(i, s) for i, s, _ in t.stream_entries("R")] == [(1, wide)]

    def test_redeclaration_prunes_newly_covered_entries(self):
        for table_cls in (RoutingTable, ScanRoutingTable):
            t = table_cls(broker=0)
            other = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 5)))
            old = Subscription.to_streams(["R"], filter=Filter.of(("a", "<", -5)))
            assert t.add_subscription(other, 1)
            assert t.add_subscription(old, 1)
            widened = Subscription(
                streams=frozenset(["R"]), filter=Filter(), sub_id=old.sub_id
            )
            assert t.add_subscription(widened, 1)
            assert t.subscriptions[1] == [widened]
            assert t.size() == 1

    def test_identical_redeclaration_is_noop(self):
        t = RoutingTable(broker=0)
        sub = Subscription.to_streams(["R"])
        assert t.add_subscription(sub, 1)
        assert not t.add_subscription(sub, 1)
        assert t.size() == 1

    def test_unsubscribe_repair_leaves_no_duplicates(self):
        """Unsubscribing a coverer re-forwards what it covered, once."""
        tree = chain_tree(5)
        net = PubSubNetwork(tree)
        net.advertise(0, Advertisement(stream="R"))
        keeper = Subscription.to_streams(["R"])
        coverer = Subscription.to_streams(["R", "S"])
        net.subscribe(4, coverer)  # propagates 4 -> 0, covers keeper
        net.subscribe(3, keeper)  # stops at 3: covered upstream
        net.unsubscribe(coverer.sub_id)
        for _ in range(3):  # re-subscribing must be idempotent
            net.subscribe(3, keeper)
        for broker in net.brokers.values():
            for iface, entries in broker.table.subscriptions.items():
                ids = [s.sub_id for s in entries]
                assert len(ids) == len(set(ids)), (
                    f"duplicate sub_ids at broker {broker.node} iface {iface}"
                )
        deliveries = net.publish(0, Event("R", {"a": 1}))
        assert [(n, s.sub_id) for n, _, s in deliveries] == [(3, keeper.sub_id)]


class TestRemovalSafety:
    def test_remove_while_iterating_entries(self):
        t = RoutingTable(broker=0)
        subs = [Subscription.to_streams(["R"]) for _ in range(4)]
        for i, sub in enumerate(subs):
            t.add_subscription(sub, [LOCAL, 1, 2, 3][i])
        seen = 0
        for _iface, sub in t.iter_entries():
            t.remove_subscription(sub.sub_id)  # deletes emptied keys
            seen += 1
        assert seen == 4
        assert t.size() == 0
