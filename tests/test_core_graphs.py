"""Tests for the graph-mapping model: WEC, load constraint, construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import (
    DEFAULT_ALPHA,
    NetVertex,
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    build_query_graph,
    qvertex_from_query,
)
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec

from line_oracle import line_network, line_oracle


@pytest.fixture
def ng():
    return line_network(
        [
            NetVertex(vid="A", site=0, capability=1.0, covers=frozenset([0])),
            NetVertex(vid="B", site=10, capability=1.0, covers=frozenset([10])),
        ]
    )


def make_qvertex(vid, weight=1.0, sources=None, proxies=None, mask=0):
    return QVertex(
        vid=vid,
        weight=weight,
        mask=mask,
        source_rates=sources or {},
        proxy_rates=proxies or {},
        members=(0,),
    )


class TestNetworkGraph:
    def test_covering_vertex(self, ng):
        assert ng.covering_vertex(0) == "A"
        assert ng.covering_vertex(10) == "B"
        assert ng.covering_vertex(99) is None

    def test_total_capability(self, ng):
        assert ng.total_capability() == 2.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            NetworkGraph([], line_oracle())


class TestQueryGraph:
    def test_duplicate_vertex_rejected(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        with pytest.raises(ValueError):
            g.add_qvertex(make_qvertex("q1"))

    def test_edges_are_symmetric(self):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 5.0)
        assert g.adj["q1"]["q2"] == 5.0
        assert g.adj["q2"]["q1"] == 5.0

    def test_zero_weight_edge_ignored(self):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 0.0)
        assert "q2" not in g.adj["q1"]

    def test_self_edge_ignored(self):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_edge("q1", "q1", 5.0)
        assert g.adj["q1"] == {}

    def test_remove_vertex_cleans_edges(self):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 5.0)
        g.remove_vertex("q1")
        assert "q1" not in g.adj["q2"]
        assert len(g.qverts) + len(g.nverts) == 1

    def test_total_qweight(self):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1", weight=2.0))
        g.add_qvertex(make_qvertex("q2", weight=3.0))
        assert g.total_qweight() == 5.0


class TestWEC:
    def test_colocated_edge_costs_nothing(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 7.0)
        assert g.wec({"q1": "A", "q2": "A"}, ng) == 0.0

    def test_separated_edge_costs_weight_times_distance(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 7.0)
        assert g.wec({"q1": "A", "q2": "B"}, ng) == 70.0

    def test_pinned_nvertex_position(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_nvertex(NVertex(vid="n0", node=0, clu="A"))
        g.add_edge("q1", "n0", 3.0)
        assert g.wec({"q1": "B", "n0": "A"}, ng) == 30.0

    def test_external_nvertex_uses_own_node(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_nvertex(NVertex(vid="ext", node=4, clu=None))
        g.add_edge("q1", "ext", 2.0)
        # q1 at A (site 0): distance to node 4 is 4
        assert g.wec({"q1": "A"}, ng) == 8.0

    def test_each_edge_counted_once(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 1.0)
        # if double counted this would be 20
        assert g.wec({"q1": "A", "q2": "B"}, ng) == 10.0


class TestLoadConstraint:
    def test_limits_follow_eqn_3_1(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1", weight=6.0))
        g.add_qvertex(make_qvertex("q2", weight=4.0))
        limits = g.capacity_limits(ng, alpha=0.1)
        # (1 + 0.1) * 1 * 10 / 2 = 5.5 per vertex
        assert limits["A"] == pytest.approx(5.5)

    def test_satisfies_constraint(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1", weight=5.0))
        g.add_qvertex(make_qvertex("q2", weight=5.0))
        good = {"q1": "A", "q2": "B"}
        bad = {"q1": "A", "q2": "A"}
        assert g.satisfies_load_constraint(good, ng)
        assert not g.satisfies_load_constraint(bad, ng)

    def test_loads(self, ng):
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1", weight=2.0))
        g.add_qvertex(make_qvertex("q2", weight=3.0))
        loads = g.loads({"q1": "A", "q2": "A"}, ng)
        assert loads == {"A": 5.0, "B": 0.0}

    def test_heterogeneous_capabilities(self):
        ng2 = line_network(
            [
                NetVertex(vid="A", site=0, capability=3.0, covers=frozenset([0])),
                NetVertex(vid="B", site=1, capability=1.0, covers=frozenset([1])),
            ]
        )
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1", weight=8.0))
        limits = g.capacity_limits(ng2, alpha=0.0)
        assert limits["A"] == pytest.approx(6.0)
        assert limits["B"] == pytest.approx(2.0)


class TestBuildQueryGraph:
    @pytest.fixture
    def space(self):
        return SubstreamSpace.random(100, sources=[0, 10], seed=2)

    def test_atomic_vertex_from_query(self, space):
        q = QuerySpec(
            query_id=1, proxy=10, mask=mask_of([0, 1, 2]), group=0,
            load=0.5, result_rate=1.0, state_size=2.0,
        )
        v = qvertex_from_query(q, space)
        assert v.members == (1,)
        assert sum(v.source_rates.values()) == pytest.approx(space.rate(q.mask))
        assert v.proxy_rates == {10: 1.0}

    def test_graph_has_nvertices_for_sources_and_proxies(self, space, ng):
        queries = [
            QuerySpec(query_id=i, proxy=10, mask=mask_of([i, i + 1]),
                      group=0, load=0.1, result_rate=0.5, state_size=1.0)
            for i in range(3)
        ]
        verts = [qvertex_from_query(q, space) for q in queries]
        g = build_query_graph(verts, space, ng)
        n_nodes = {nv.node for nv in g.nverts.values()}
        assert 10 in n_nodes  # the proxy
        assert len(g.qverts) == 3

    def test_overlap_edges_present_and_exact(self, space, ng):
        q1 = QuerySpec(query_id=1, proxy=10, mask=mask_of([0, 1, 2]),
                       group=0, load=0.1, result_rate=0.5, state_size=1.0)
        q2 = QuerySpec(query_id=2, proxy=10, mask=mask_of([1, 2, 3]),
                       group=0, load=0.1, result_rate=0.5, state_size=1.0)
        g = build_query_graph(
            [qvertex_from_query(q1, space), qvertex_from_query(q2, space)],
            space, ng,
        )
        w = g.adj[("q", 1)][("q", 2)]
        assert w == pytest.approx(space.overlap_rate(q1.mask, q2.mask))

    def test_overlap_neighbor_cap(self, space, ng):
        queries = [
            QuerySpec(query_id=i, proxy=10, mask=mask_of([0, 1]), group=0,
                      load=0.1, result_rate=0.5, state_size=1.0)
            for i in range(30)
        ]
        verts = [qvertex_from_query(q, space) for q in queries]
        g = build_query_graph(verts, space, ng, max_overlap_neighbors=5)
        # the cap bounds the total overlap-edge count (each vertex keeps
        # at most 5 of its own, though it may also be chosen by others)
        total_q_edges = sum(
            1 for a, b, _ in g.edges() if a in g.qverts and b in g.qverts
        )
        assert total_q_edges <= 30 * 5

    def test_pinning_against_network_graph(self, space, ng):
        q = QuerySpec(query_id=1, proxy=10, mask=mask_of([5]), group=0,
                      load=0.1, result_rate=0.5, state_size=1.0)
        g = build_query_graph([qvertex_from_query(q, space)], space, ng)
        assert g.nverts[("n", 10)].clu == "B"
        source = int(space.source_of[5])
        expected_clu = "A" if source == 0 else "B"
        assert g.nverts[("n", source)].clu == expected_clu


class TestUnknownEndpoint:
    """An edge write naming a vertex the graph does not hold raises
    ``KeyError`` for that vertex and leaves the graph as it was -- no
    half-edge in ``_edges`` / ``adj``, no journal record, no version bump."""

    @staticmethod
    def _graph():
        g = QueryGraph()
        g.add_qvertex(make_qvertex("q1"))
        g.add_qvertex(make_qvertex("q2"))
        g.add_edge("q1", "q2", 5.0)
        return g

    @staticmethod
    def _state(g):
        return (
            g.edges(),
            {v: dict(row) for v, row in g.adj.items()},
            g.journal_cursor(),
            list(g.journal_since(0)),
        )

    @pytest.mark.parametrize("method", ["add_edge", "set_edge"])
    @pytest.mark.parametrize("pair", [("q1", "ghost"), ("ghost", "q1")])
    def test_edge_methods_validate_before_writing(self, method, pair):
        g = self._graph()
        before = self._state(g)
        # the repeat matters: a phantom half-edge used to make the second
        # set_edge of the same weight return silently
        for _ in range(2):
            with pytest.raises(KeyError, match="ghost"):
                getattr(g, method)(*pair, 3.0)
            assert self._state(g) == before

    def test_removing_an_edge_that_is_not_there_stays_silent(self):
        g = self._graph()
        before = self._state(g)
        g.set_edge("q1", "ghost", 0.0)
        g.add_edge("q1", "ghost", 0.0)
        assert self._state(g) == before

    @pytest.mark.parametrize("replace", [False, True])
    def test_bulk_install_validates_before_writing(self, replace):
        g = self._graph()
        g.add_qvertex(make_qvertex("q3"))
        before = self._state(g)
        install = g._replace_edges if replace else g._install_edges
        with pytest.raises(KeyError, match="ghost"):
            install(["q1", "q3", "ghost"], [0, 1], [1, 2], [2.0, 4.0])
        assert self._state(g) == before
        # and with every vertex known, the same call goes through
        g._replace_edges(["q1", "q3", "q2"], [0, 1], [1, 2], [2.0, 4.0])
        assert g.edges() == [("q1", "q3", 2.0), ("q3", "q2", 4.0)]
        assert list(g.adj["q3"].items()) == [("q1", 2.0), ("q2", 4.0)]
        assert g.journal_since(before[2]) == [("clear",)]
