"""Tests for the operator-placement baseline, metrics and baselines."""

import pytest

from repro.baselines import (
    centralized_placement,
    greedy_placement,
    naive_placement,
    random_placement,
)
from repro.placement import (
    build_operator_graph,
    cosmos_cost,
    generate_prototype_workload,
    place_operators,
    placement_cost,
)
from repro.placement.operator_graph import _covers
from repro.sim.metrics import CostModel, load_stddev
from repro.topology import (
    LatencyOracle,
    TransitStubParams,
    generate_transit_stub,
    select_roles,
)


@pytest.fixture(scope="module")
def env():
    topo = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=3,
                          stubs_per_transit_node=2, stub_nodes=4),
        seed=6,
    )
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(topo, 4, 12, seed=7)
    return topo, oracle, sources, processors


class TestPredicateCovers:
    @pytest.mark.parametrize(
        "outer,inner,expected",
        [
            (("s", "a", ">", 3.0), ("s", "a", ">", 5.0), True),
            (("s", "a", ">", 5.0), ("s", "a", ">", 3.0), False),
            (("s", "a", "<", 8.0), ("s", "a", "<", 5.0), True),
            (("s", "a", ">", 5.0), ("s", "a", "<", 5.0), False),
            (("s", "a", ">=", 5.0), ("s", "a", ">", 5.0), True),
            (("s", "a", ">", 5.0), ("s", "a", ">=", 5.0), False),
        ],
    )
    def test_covers(self, outer, inner, expected):
        assert _covers(outer, inner) is expected


class TestOperatorGraph:
    @pytest.fixture(scope="class")
    def workload(self, env):
        _, oracle, sources, processors = env
        return generate_prototype_workload(
            60, sources, processors, num_sensors=20, seed=1
        )

    def test_sources_pinned(self, env, workload):
        graph = build_operator_graph(
            workload.proto_queries, workload.sensor_source, workload.sensor_rate
        )
        for v in graph.vertices.values():
            if v.kind == "source":
                assert v.pinned == workload.sensor_source[v.label]

    def test_sinks_pinned_to_proxies(self, env, workload):
        graph = build_operator_graph(
            workload.proto_queries, workload.sensor_source, workload.sensor_rate
        )
        sinks = [v for v in graph.vertices.values() if v.kind == "sink"]
        assert len(sinks) == len(workload.proto_queries)
        proxies = {q.query_id: q.proxy for q in workload.proto_queries}
        for v in sinks:
            assert v.pinned == proxies[v.queries[0]]

    def test_selection_sharing_happens(self, env, workload):
        graph = build_operator_graph(
            workload.proto_queries, workload.sensor_source, workload.sensor_rate
        )
        assert any(
            v.kind == "select" and len(v.queries) > 1 for v in graph.vertices.values()
        )

    def test_selection_rates_never_exceed_input(self, env, workload):
        graph = build_operator_graph(
            workload.proto_queries, workload.sensor_source, workload.sensor_rate
        )
        for v in graph.vertices.values():
            if v.kind == "select":
                stream = v.label.split("@")[-1]
                assert v.out_rate <= workload.sensor_rate[stream] + 1e-9


class TestPlacement:
    @pytest.fixture(scope="class")
    def placed(self, env):
        _, oracle, sources, processors = env
        workload = generate_prototype_workload(
            60, sources, processors, num_sensors=20, seed=1
        )
        graph = build_operator_graph(
            workload.proto_queries, workload.sensor_source, workload.sensor_rate
        )
        result = place_operators(graph, processors, oracle, seed=2)
        return graph, result, oracle, processors

    def test_all_operators_placed(self, placed):
        graph, result, _, _ = placed
        assert set(result.assignment) == set(graph.vertices)

    def test_pinned_operators_stay(self, placed):
        graph, result, _, _ = placed
        for op_id, v in graph.vertices.items():
            if v.pinned is not None:
                assert result.assignment[op_id] == v.pinned

    def test_movable_on_candidate_nodes(self, placed):
        graph, result, _, processors = placed
        for op_id in graph.movable():
            assert result.assignment[op_id] in processors

    def test_cost_matches_recomputation(self, placed):
        graph, result, oracle, _ = placed
        assert result.cost == pytest.approx(
            placement_cost(graph, result.assignment, oracle)
        )

    def test_placement_beats_random(self, placed):
        import random

        graph, result, oracle, processors = placed
        rng = random.Random(3)
        random_assignment = dict(result.assignment)
        for op_id in graph.movable():
            random_assignment[op_id] = rng.choice(list(processors))
        assert result.cost <= placement_cost(graph, random_assignment, oracle)

    def test_cosmos_cost_helper(self, env):
        _, oracle, sources, processors = env
        workload = generate_prototype_workload(
            30, sources, processors, num_sensors=10, seed=4
        )
        placement = {q.query_id: q.proxy for q in workload.proto_queries}
        cost = cosmos_cost(workload, placement, oracle)
        assert cost > 0


class TestBaselines:
    @pytest.fixture(scope="class")
    def queries_env(self, env):
        from repro.query.workload import WorkloadParams, generate_workload

        _, oracle, sources, processors = env
        workload = generate_workload(
            WorkloadParams(num_substreams=400, num_queries=80,
                           substreams_per_query=(5, 15)),
            sources, processors, seed=9,
        )
        return oracle, processors, workload

    def test_naive_uses_proxies(self, queries_env):
        _, _, workload = queries_env
        pl = naive_placement(workload.queries)
        assert all(pl[q.query_id] == q.proxy for q in workload.queries)

    def test_random_uses_processors(self, queries_env):
        _, processors, workload = queries_env
        pl = random_placement(workload.queries, processors, seed=1)
        assert set(pl.values()) <= set(processors)

    def test_random_deterministic_per_seed(self, queries_env):
        _, processors, workload = queries_env
        a = random_placement(workload.queries, processors, seed=1)
        b = random_placement(workload.queries, processors, seed=1)
        assert a == b

    def test_centralized_not_worse_than_greedy(self, queries_env):
        oracle, processors, workload = queries_env
        cm = CostModel(workload.space, oracle)
        pl_g = greedy_placement(
            workload.queries, processors, workload.space, oracle)
        pl_c = centralized_placement(
            workload.queries, processors, workload.space, oracle)
        assert cm.weighted_cost(pl_c, workload.queries) <= cm.weighted_cost(
            pl_g, workload.queries) * 1.001


class TestMetrics:
    def test_load_stddev_balanced_zero(self):
        from repro.query.workload import QuerySpec

        qs = [
            QuerySpec(query_id=i, proxy=0, mask=0, group=0, load=1.0,
                      result_rate=0, state_size=1)
            for i in range(4)
        ]
        pl = {0: 100, 1: 101, 2: 102, 3: 103}
        assert load_stddev(pl, qs, [100, 101, 102, 103]) == 0.0

    def test_load_stddev_capability_normalised(self):
        from repro.query.workload import QuerySpec

        qs = [
            QuerySpec(query_id=0, proxy=0, mask=0, group=0, load=2.0,
                      result_rate=0, state_size=1),
            QuerySpec(query_id=1, proxy=0, mask=0, group=0, load=1.0,
                      result_rate=0, state_size=1),
        ]
        pl = {0: 100, 1: 101}
        # capability 2 on the heavy node normalises both to 1.0
        assert load_stddev(pl, qs, [100, 101], {100: 2.0}) == 0.0

    def test_unicast_cost_counts_distinct_hosts_once(self, env):
        from repro.query.interest import SubstreamSpace, mask_of
        from repro.query.workload import QuerySpec

        _, oracle, sources, processors = env
        space = SubstreamSpace.random(4, sources=sources[:1], seed=0)
        q1 = QuerySpec(query_id=0, proxy=processors[0], mask=mask_of([0]),
                       group=0, load=1, result_rate=0, state_size=1)
        q2 = QuerySpec(query_id=1, proxy=processors[0], mask=mask_of([0]),
                       group=0, load=1, result_rate=0, state_size=1)
        cm = CostModel(space, oracle)
        src = int(space.source_of[0])
        both_same = cm.weighted_cost(
            {0: processors[0], 1: processors[0]}, [q1, q2])
        expected = float(space.rates[0]) * oracle(src, processors[0])
        assert both_same == pytest.approx(expected)
        split = cm.weighted_cost(
            {0: processors[0], 1: processors[1]}, [q1, q2])
        assert split > both_same
