"""Shared multi-query execution in the discrete-event simulator (ISSUE 5).

The contract under test: with ``use_sharing=True`` every user query gets
*exactly* the results the single-engine oracle produces for the same
action order -- under churn, hot spots, and adaptation migrations -- while
far fewer merged plans execute; and with the flag off nothing changes.
"""

import json

import pytest

from repro.sim import (
    ChurnParams,
    HotSpotShift,
    ScenarioParams,
    SimWorkloadParams,
    oracle_results,
    run_scenario,
)


def sharing_scenario(**overrides) -> ScenarioParams:
    base = dict(
        duration=18.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=10.0),
        hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
        use_sharing=True,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def overlap_workload(pool: int = 6) -> SimWorkloadParams:
    return SimWorkloadParams(
        num_substreams=40, num_queries=24, pool_substreams=pool
    )


def trace_json(report) -> str:
    return json.dumps(report.trace.to_dict(), sort_keys=True)


class TestSharedOracleParity:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_results_match_single_engine_oracle(self, seed):
        """Churn + hot spot + adaptation: per-query results are exact."""
        report = run_scenario(
            seed=seed,
            workload=overlap_workload(),
            scenario=sharing_scenario(),
            record=True,
        )
        assert report.executed_queries < report.user_queries, (
            "scenario produced no sharing -- the parity check would be vacuous"
        )
        oracle = oracle_results(report.actions)
        assert set(report.results) == set(oracle)
        total = 0
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"
            total += len(got)
        assert total > 0, "scenario emitted no results to compare"

    def test_parity_survives_group_migrations(self):
        """A skewed start forces adaptation to migrate shared plans."""
        report = run_scenario(
            seed=3,
            workload=overlap_workload(pool=4),
            scenario=sharing_scenario(churn=None, hotspot=None),
            record=True,
        )
        assert any(
            a.migrated_queries > 0 for a in report.trace.adaptations
        ), "no shared group migrated; the migration path went untested"
        oracle = oracle_results(report.actions)
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"

    def test_shared_matches_unshared_per_query(self):
        """The shared run delivers exactly the unshared run's results."""
        kwargs = dict(seed=5, workload=overlap_workload(), record=True)
        shared = run_scenario(scenario=sharing_scenario(), **kwargs)
        unshared = run_scenario(
            scenario=sharing_scenario(use_sharing=False), **kwargs
        )
        assert shared.results == unshared.results
        assert shared.executed_queries < unshared.executed_queries


class TestSharedPlaneParity:
    def test_shared_runs_are_deterministic(self):
        a = run_scenario(seed=9, workload=overlap_workload(), scenario=sharing_scenario())
        b = run_scenario(seed=9, workload=overlap_workload(), scenario=sharing_scenario())
        assert trace_json(a) == trace_json(b)


class TestUnsharedDefaultUnchanged:
    def test_flag_defaults_off(self):
        assert ScenarioParams().use_sharing is False

    def test_default_equals_explicit_off(self):
        kwargs = dict(seed=4, workload=overlap_workload())
        default = run_scenario(scenario=sharing_scenario(use_sharing=False), **kwargs)
        explicit = run_scenario(
            scenario=sharing_scenario(use_sharing=False), **kwargs
        )
        assert trace_json(default) == trace_json(explicit)
        assert default.executed_queries == default.user_queries


class TestLoadAttribution:
    def test_group_cpu_attributed_to_members(self):
        """Engine-measured group cost flows back to member query loads."""
        report = run_scenario(
            seed=2,
            workload=overlap_workload(pool=4),
            scenario=sharing_scenario(churn=None, hotspot=None),
            record=True,
        )
        assert report.cpu_costs, "no attributed CPU costs recorded"
        assert sum(report.cpu_costs.values()) > 0
        # every user query that produced results carries attributed cost
        for query_id, rows in report.results.items():
            if rows:
                assert report.cpu_costs.get(query_id, 0) > 0


class TestOverlapKnob:
    def test_pool_restricts_interests(self):
        wl = overlap_workload(pool=3)
        report = run_scenario(
            seed=1, workload=wl,
            scenario=sharing_scenario(churn=None, hotspot=None, adapt_interval=None),
        )
        substreams = set()
        for simq in report.queries.values():
            substreams.update(simq.substreams)
        assert len(substreams) <= 3

    def test_default_pool_is_whole_space(self):
        a = SimWorkloadParams(num_substreams=30, num_queries=10)
        b = SimWorkloadParams(num_substreams=30, num_queries=10, pool_substreams=30)
        from repro.query.interest import SubstreamSpace
        from repro.sim.workload import SimQueryFactory
        import numpy as np

        space = SubstreamSpace.random(30, [0], rng=np.random.default_rng(1))
        qa = SimQueryFactory(space, [10], a, np.random.default_rng(3)).make_batch(8)
        qb = SimQueryFactory(space, [10], b, np.random.default_rng(3)).make_batch(8)
        assert [q.text for q in qa] == [q.text for q in qb]

    def test_rejects_bad_pool(self):
        import numpy as np

        from repro.query.interest import SubstreamSpace
        from repro.sim.workload import SimQueryFactory

        space = SubstreamSpace.random(10, [0], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            SimQueryFactory(
                space, [1], SimWorkloadParams(pool_substreams=0),
                np.random.default_rng(0),
            )


# ----------------------------------------------------------------------
# group lifecycle on a hand-built overlay (ported from the deleted
# SharingDeployment suite onto the simulator's units)
# ----------------------------------------------------------------------
def chain_cluster(rate: float = 25.0, cluster_cls=None, substreams: int = 1):
    """source 0 -- 400 ms -- host 1 -- mid 2 -- proxies 3, 4, 5.

    The proxies share the 2 -> 1 path segment, so one member's result
    subscription can cover-prune the others' propagation; the slow source
    link gives every tuple 0.4 s between its publish and its drain.
    """
    import numpy as np

    from repro.core.cosmos import Cosmos
    from repro.query.interest import SubstreamSpace
    from repro.sim import SimCluster
    from repro.sim.workload import SimQueryFactory
    from repro.topology.latency import LatencyOracle
    from repro.topology.transit_stub import Topology

    topo = Topology(n=6, adjacency=[[] for _ in range(6)])
    for u, v, ms in ((0, 1, 400.0), (1, 2, 5.0), (2, 3, 5.0), (2, 4, 5.0), (2, 5, 5.0)):
        topo.add_edge(u, v, ms)
    oracle = LatencyOracle(topo)
    space = SubstreamSpace(
        rates=[rate] * substreams, source_of=[0] * substreams
    )
    processors = [1, 2, 3, 4, 5]
    return (cluster_cls or SimCluster)(
        oracle=oracle,
        sources=[0],
        processors=processors,
        space=space,
        cosmos=Cosmos(oracle, processors, space),
        params=ScenarioParams(
            duration=6.0, adapt_interval=None, use_sharing=True
        ),
        factory=SimQueryFactory(
            space, processors, SimWorkloadParams(num_substreams=substreams),
            np.random.default_rng(0),
        ),
        arrival_rng=np.random.default_rng(1),
        value_rng=np.random.default_rng(2),
        record=True,
    )


def member(query_id: int, proxy: int, threshold: int = 300, window: int = 5):
    """A selection over S0 (mergeable with every other ``member``)."""
    from repro.query.interest import mask_of
    from repro.query.parser import parse_query
    from repro.query.workload import QuerySpec
    from repro.sim import SimQuery

    text = (
        f"SELECT * FROM S0 [Range {window} Seconds] A"
        f" WHERE A.value > {threshold}"
    )
    spec = QuerySpec(
        query_id=query_id, proxy=proxy, mask=mask_of([0]), group=0,
        load=1.0, result_rate=1.0, state_size=0.0,
    )
    return SimQuery(
        spec=spec, ast=parse_query(text, name=f"q{query_id}"), text=text,
        streams=("S0",), substreams=(0,),
    )


def table_entries(cluster) -> int:
    return sum(cluster.network.routing_table_sizes().values())


def assert_oracle_parity(cluster):
    oracle = oracle_results(cluster.actions)
    assert set(oracle) == set(cluster.queries)
    for query_id, want in oracle.items():
        got = [dict(t.values) for t in cluster.queries[query_id].results]
        assert got == want, f"query {query_id} diverged"
    return oracle


class TestGroupLifecycle:
    def test_tables_stay_flat_across_remerges(self):
        """Join/leave cycles of one group must not leak ``p^1``/``p^2``
        subscriptions, and the source filters narrow back each time."""
        c = chain_cluster()
        founder = c.add_query(member(0, proxy=3, threshold=600), 1)
        unit = founder.unit
        narrow = [(s.streams, s.filter) for s in unit.subs]
        settled = table_entries(c)
        for cycle in range(1, 6):
            # a wider member re-merges the group: p^1 weakens, carves move
            joiner = c.add_query(member(cycle, proxy=4, threshold=100), 1)
            assert joiner.unit is unit
            assert [(s.streams, s.filter) for s in unit.subs] != narrow
            c.remove_query(cycle)
            c.loop.run()  # the departed member's carve drains and detaches
            assert [(s.streams, s.filter) for s in unit.subs] == narrow
            assert table_entries(c) == settled, f"leak after cycle {cycle}"
        assert len(c.units) == 1 and unit.members == [0]

    def test_last_member_out_retires_the_group(self):
        c = chain_cluster()
        baseline = table_entries(c)
        unit = c.add_query(member(0, proxy=3), 1).unit
        adv_id = unit.adv.adv_id
        c.remove_query(0)
        c.loop.run()
        assert not unit.alive and unit.detached
        assert table_entries(c) == baseline
        assert unit.name not in c.engines[1].plans
        # orphan advertisement retired from every broker
        for broker in c.network.brokers.values():
            assert adv_id not in broker.table.advertisements
        # the next group gets a fresh id and stream, never a recycled one
        fresh = c.add_query(member(1, proxy=3), 1).unit
        assert fresh.uid != unit.uid
        assert fresh.result_stream != unit.result_stream
        with pytest.raises(KeyError):
            c.remove_query(99)

    def test_unmergeable_query_founds_its_own_unit(self):
        c = chain_cluster()
        a = c.add_query(member(0, proxy=3, window=5), 1)
        same = c.add_query(member(1, proxy=4, window=9), 1)
        other_host = c.add_query(member(2, proxy=5), 2)
        assert same.unit is a.unit
        assert other_host.unit is not a.unit
        assert len(c.units) == 2

    def test_memoised_route_skips_detached_units(self):
        """A unit no engine hosts (crashed, not yet restored) keeps its
        subscription objects for the restore; a row published meanwhile
        -- over a route memoised before -- must not reach it."""
        from repro.engine import StreamTuple

        c = chain_cluster()
        lost = c.add_query(member(0, proxy=3), 1).unit
        kept = c.add_query(member(1, proxy=4), 2).unit
        rows = [(1, StreamTuple("S0", {"value": 500, "timestamp": 0.0}))]
        assert {unit.uid for unit, _ in c._route(0, 0, rows)} == {
            lost.uid, kept.uid,
        }
        # what a processor crash does to the unit it hosted: detach and
        # tear its subscriptions out (the teardown re-forwards ``kept``'s
        # identical filter, which was suppressed behind ``lost``'s)
        lost.detached = True
        c._unsubscribe_sources(lost)
        assert lost.subs
        assert [(unit.uid, got) for unit, got in c._route(0, 0, rows)] == [
            (kept.uid, rows),
        ]

    def test_departure_repairs_covering_for_survivors(self):
        """Identical carves from three proxies: later propagations stop
        at the shared mid broker, covered by the first subscription.
        When that coverer leaves, its teardown must re-forward the
        survivors' carves, which cover each *other* at the mid broker --
        or neither reaches the host again: results are routed by the
        broker tables."""
        c = chain_cluster()
        for query_id, proxy in ((0, 3), (1, 4), (2, 5)):
            c.add_query(member(query_id, proxy), 1)
        assert len(c.units) == 1
        c.loop.schedule(2.0, lambda: c.remove_query(0))
        c.start()
        c.run()
        oracle = assert_oracle_parity(c)
        for survivor in (1, 2):
            late = [r for r in oracle[survivor] if r["timestamp"] > 2.5]
            assert late, "no results after the departure -- test is vacuous"

    @pytest.mark.parametrize("per_tuple", [False, True])
    def test_departure_between_publish_and_drain(self, per_tuple):
        """Tuples published but not yet drained when a member leaves
        still produce that member's results (they were emitted before
        the departure) and nothing later does -- in production and on
        the per-tuple reference plane."""
        from reference.scalar_plane import ScalarCluster

        c = chain_cluster(cluster_cls=ScalarCluster if per_tuple else None)
        c.add_query(member(0, proxy=3, threshold=200), 1)
        c.add_query(member(1, proxy=4, threshold=500), 1)
        in_flight = []

        def leave():
            c._flush_batches()
            unit = c.queries[1].unit
            queued = getattr(c, "pending", {}).get(unit.uid, ())
            in_flight.append(len(queued) + len(unit.pending_rel))
            c.remove_query(1)

        c.loop.schedule(3.0, leave)
        c.start()
        c.run()
        assert in_flight[0] > 0, "nothing was in flight at the departure"
        oracle = assert_oracle_parity(c)
        assert oracle[1] and max(r["timestamp"] for r in oracle[1]) <= 3.0
        assert any(r["timestamp"] > 3.0 for r in oracle[0])
