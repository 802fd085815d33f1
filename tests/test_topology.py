"""Tests for the transit-stub topology generator and latency oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    LatencyOracle,
    OverlayTree,
    SyntheticOracle,
    Topology,
    TransitStubParams,
    dijkstra,
    generate_transit_stub,
    minimum_latency_spanning_tree,
    select_roles,
)


def connected(topo):
    """Whether every node of ``topo`` is reachable from node 0."""
    seen = {0}
    stack = [0]
    while stack:
        for v, _ in topo.adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == topo.n


@pytest.fixture(scope="module")
def topo():
    return generate_transit_stub(TransitStubParams(), seed=7)


@pytest.fixture(scope="module")
def oracle(topo):
    return LatencyOracle(topo)


class TestGeneration:
    def test_node_count_matches_params(self, topo):
        assert topo.n == TransitStubParams().node_count()

    def test_connected(self, topo):
        assert connected(topo)

    def test_partitions_are_disjoint_and_complete(self, topo):
        transit = set(topo.transit_nodes)
        stub = set(topo.stub_nodes)
        assert transit.isdisjoint(stub)
        assert transit | stub == set(range(topo.n))

    def test_every_stub_node_has_stub_domain(self, topo):
        for node in topo.stub_nodes:
            assert node in topo.stub_of

    def test_edge_symmetry(self, topo):
        for u in range(topo.n):
            for v, lat in topo.adjacency[u]:
                back = [l for w, l in topo.adjacency[v] if w == u]
                assert back == [lat]

    def test_no_self_loops(self, topo):
        for u in range(topo.n):
            assert all(v != u for v, _ in topo.adjacency[u])

    def test_latencies_positive(self, topo):
        for u in range(topo.n):
            for _, lat in topo.adjacency[u]:
                assert lat > 0

    def test_deterministic_for_seed(self):
        a = generate_transit_stub(TransitStubParams(), seed=3)
        b = generate_transit_stub(TransitStubParams(), seed=3)
        assert a.adjacency == b.adjacency

    def test_different_seeds_differ(self):
        a = generate_transit_stub(TransitStubParams(), seed=3)
        b = generate_transit_stub(TransitStubParams(), seed=4)
        assert a.adjacency != b.adjacency

    def test_paper_scale_node_count(self):
        assert TransitStubParams.paper_scale().node_count() >= 4096

    def test_add_edge_rejects_self_loop(self, topo):
        with pytest.raises(ValueError):
            topo.add_edge(1, 1, 1.0)

    def test_duplicate_edge_keeps_smaller_latency(self):
        t = Topology(n=2, adjacency=[[], []])
        t.add_edge(0, 1, 5.0)
        t.add_edge(0, 1, 3.0)
        assert t.adjacency[0] == [(1, 3.0)]
        t.add_edge(0, 1, 9.0)
        assert t.adjacency[0] == [(1, 3.0)]

    def test_intra_stub_cheaper_than_transit_links(self, topo):
        params = TransitStubParams()
        stub_max = params.intra_stub_latency[1]
        tt_min = params.transit_transit_latency[0]
        assert stub_max < tt_min


class TestDijkstra:
    def test_distance_to_self_zero(self, topo):
        assert dijkstra(topo, 0)[0] == 0.0

    def test_all_reachable(self, topo):
        dist = dijkstra(topo, 0)
        assert all(d < float("inf") for d in dist)

    def test_triangle_inequality_via_edges(self, topo):
        dist = dijkstra(topo, 0)
        for u in range(topo.n):
            for v, lat in topo.adjacency[u]:
                assert dist[v] <= dist[u] + lat + 1e-9

    def test_matches_direct_edge_when_shortest(self):
        t = Topology(n=3, adjacency=[[], [], []])
        t.add_edge(0, 1, 1.0)
        t.add_edge(1, 2, 1.0)
        t.add_edge(0, 2, 10.0)
        assert dijkstra(t, 0)[2] == 2.0


class TestOracle:
    def test_symmetry(self, oracle, topo):
        assert oracle(3, 17) == pytest.approx(oracle(17, 3))

    def test_zero_diagonal(self, oracle):
        assert oracle(5, 5) == 0.0

    def test_caches_rows(self, oracle):
        oracle.row(2)
        assert 2 in oracle._rows

    def test_median_minimises_total_latency(self, oracle, topo):
        members = list(range(0, topo.n, 7))[:8]
        med = oracle.median(members)
        total = lambda u: sum(oracle(u, v) for v in members)
        assert all(total(med) <= total(u) + 1e-9 for u in members)

    def test_median_of_singleton(self, oracle):
        assert oracle.median([4]) == 4

    def test_median_empty_raises(self, oracle):
        with pytest.raises(ValueError):
            oracle.median([])


class TestSyntheticOracle:
    def test_oracle_is_metric_like(self):
        oracle = SyntheticOracle(10, seed=1)
        assert oracle(3, 3) == 0.0
        assert oracle(2, 7) == pytest.approx(oracle(7, 2))
        assert len(oracle.row(0)) == 10


class TestRoles:
    def test_disjoint_roles(self, topo):
        sources, processors = select_roles(topo, 4, 8, seed=1)
        assert set(sources).isdisjoint(processors)
        assert len(sources) == 4 and len(processors) == 8

    def test_roles_are_stub_nodes(self, topo):
        sources, processors = select_roles(topo, 4, 8, seed=1)
        stub = set(topo.stub_nodes)
        assert set(sources) <= stub and set(processors) <= stub

    def test_too_many_roles_raises(self, topo):
        with pytest.raises(ValueError):
            select_roles(topo, topo.n, topo.n, seed=1)


class TestOverlay:
    def test_mst_is_tree(self, topo, oracle):
        sources, processors = select_roles(topo, 3, 9, seed=2)
        tree = minimum_latency_spanning_tree(sources + processors, oracle)
        assert tree.is_tree()
        assert len(tree.edges()) == len(tree.nodes) - 1

    def test_path_endpoints(self, topo, oracle):
        sources, processors = select_roles(topo, 3, 9, seed=2)
        tree = minimum_latency_spanning_tree(sources + processors, oracle)
        a, b = tree.nodes[0], tree.nodes[-1]
        path = tree.path(a, b)
        assert path[0] == a and path[-1] == b

    def test_path_latency_consistent_with_links(self, topo, oracle):
        sources, processors = select_roles(topo, 3, 9, seed=2)
        tree = minimum_latency_spanning_tree(sources + processors, oracle)
        a, b = tree.nodes[0], tree.nodes[-1]
        path = tree.path(a, b)
        total = sum(tree.links[x][y] for x, y in zip(path, path[1:]))
        assert tree.path_latency(a, b) == pytest.approx(total)

    def test_singleton_tree(self, oracle):
        tree = minimum_latency_spanning_tree([5], oracle)
        assert tree.is_tree() and tree.nodes == [5]

    def test_empty_tree(self, oracle):
        assert minimum_latency_spanning_tree([], oracle).is_tree()

    def test_duplicate_members_deduped(self, oracle):
        tree = minimum_latency_spanning_tree([5, 5, 9], oracle)
        assert sorted(tree.nodes) == [5, 9]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_topologies_always_connected(seed):
    params = TransitStubParams(
        transit_domains=2, transit_nodes=3, stubs_per_transit_node=2, stub_nodes=3
    )
    assert connected(generate_transit_stub(params, seed=seed))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(2, 12))
def test_mst_always_spans_selection(seed, size):
    topo = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=3,
                          stubs_per_transit_node=2, stub_nodes=3),
        seed=seed,
    )
    oracle = LatencyOracle(topo)
    import random

    members = random.Random(seed).sample(range(topo.n), size)
    tree = minimum_latency_spanning_tree(members, oracle)
    assert tree.is_tree()
    assert set(tree.nodes) == set(members)
