"""Each value on the optimizer's resident path is held once.

The optimizer's graphs and latency rows are the bulk of its memory.
These tests pin the rules that keep them small -- each query-graph edge
held once, in slot arrays, node-id keys shared across rate maps, latency
rows as ``array('d')`` -- each next to an equality with the
representation it replaced, so that the compact form never changes a
value, an order or a lookup.  They also pin the latency oracle's lookup
rule, whose answer depends on which rows are cached.
"""

import gc
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import graph_build
from reference.graph_build import DictGraph, dict_model, vertex_order
from test_fastpath_parity import make_queries, ng, space  # noqa: F401  (fixtures)

from repro.core.coarsening import coarsen, rebuild_edges
from repro.core.graphs import build_query_graph, qvertex_from_query
from repro.query.interest import SubstreamSpace, index_array, mask_of
from repro.topology import (
    LatencyOracle,
    TransitStubParams,
    dijkstra,
    generate_transit_stub,
)


# ----------------------------------------------------------------------
# the edge store
# ----------------------------------------------------------------------
def assert_same_store(g, model):
    """``g`` lists what the dict model lists: vertices, every row (order
    and floats) and the edges (order, direction and floats)."""
    assert list(g.qverts) == list(model.qverts)
    assert list(g.nverts) == list(model.nverts)
    assert vertex_order(g) == vertex_order(model)
    for vid in vertex_order(model):
        assert list(g.neighbors(vid).items()) == list(model.adj[vid].items())
        assert g.degree(vid) == len(model.adj[vid])
    assert g.edges() == model.edges()


def assert_rows_follow_edges(g):
    """The identity: every vertex's neighbour order is its incident edges
    in global edge order -- what the dict model fed the same edges holds."""
    edges = g.edges()
    for vid in vertex_order(g):
        incident = [(b if a == vid else a, w) for a, b, w in edges
                    if vid in (a, b)]
        assert list(g.neighbors(vid).items()) == incident, vid
    assert_same_store(g, dict_model(g))


@pytest.fixture(scope="module")
def verts(space):
    return [qvertex_from_query(q, space) for q in make_queries(space, 40, seed=3)]


@pytest.fixture
def graph(verts, space, ng):
    return build_query_graph(verts, space, ng)


class TestRowsFollowEdgeOrder:
    def test_build_query_graph(self, graph, verts, space, ng):
        assert graph.edges()
        assert_rows_follow_edges(graph)
        assert_same_store(graph, graph_build.build_query_graph(
            verts, space, ng, graph_cls=DictGraph
        ))

    def test_rebuild_edges(self, graph, verts, space, ng):
        model = graph_build.build_query_graph(
            verts, space, ng, graph_cls=DictGraph
        )
        # dead slots and tombstones for the rebuild to compact away
        for h in (graph, model):
            for v in verts[::7]:
                h.remove_vertex(v.vid)
        rebuild_edges(graph, space, max_overlap_neighbors=3)
        graph_build.rebuild_edges(model, space, max_overlap_neighbors=3)
        assert graph.slot_count == len(graph.qverts) + len(graph.nverts)
        assert_rows_follow_edges(graph)
        assert_same_store(graph, model)

    def test_coarsen_result(self, graph, space):
        out = coarsen(graph, 12, space, rng=random.Random(5))
        assert len(out.qverts) < len(graph.qverts)
        assert_rows_follow_edges(out)


#: one mutation of a generated sequence: (op, pick, pick, weight)
mutations = st.lists(
    st.tuples(
        st.sampled_from(["add", "set", "drop", "remove", "readd", "bulk"]),
        st.integers(0, 10**6), st.integers(0, 10**6),
        st.sampled_from([0.5, 1.25, 2.0, 3.5]),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=mutations)
def test_rows_follow_edges_under_mutation(verts, space, ng, ops):
    """``add_edge`` / ``set_edge`` / ``set_edges`` / ``remove_vertex``,
    re-adding removed vids (q and n), on the store and on the dict model
    side by side."""
    g = build_query_graph(verts[:12], space, ng)
    model = graph_build.build_query_graph(
        verts[:12], space, ng, graph_cls=DictGraph
    )
    removed = []
    for op, i, j, w in ops:
        live = vertex_order(model)
        a, b = live[i % len(live)], live[j % len(live)]
        for h in (g, model):
            if op == "add":
                h.add_edge(a, b, w)
            elif op == "set":
                h.set_edge(a, b, w)
            elif op == "drop":
                h.set_edge(a, b, 0.0)
            elif op == "bulk":
                # the third write finds the edge the first one appended
                h.set_edges(a, [(b, w), (live[(j + 1) % len(live)], 0.0),
                                (b, w + 1.0)])
            elif op == "remove" and len(live) > 4:
                v = model.qverts.get(a) or model.nverts[a]
                if h is g:
                    removed.append(v)
                h.remove_vertex(a)
            elif op == "readd" and removed:
                v = removed[i % len(removed)]
                (h.add_qvertex if v.vid[0] == "q" else h.add_nvertex)(v)
                h.add_edge(v.vid, b, w)
        if op == "readd" and removed:
            removed.remove(removed[i % len(removed)])
        assert_same_store(g, model)
    assert_rows_follow_edges(g)


def test_bytes_per_edge(space, ng):
    """The store's resident bytes per edge, traced, on one fixed graph:
    120 q-vertices of ``make_queries(space, 120, seed=3)``, 7 n-vertices,
    1,825 edges, built once to warm every cache and measured on the
    second build.

    The store this one replaced -- ``_edges``, a dict keyed by vid-pair
    tuples, plus one ``{neighbour: weight}`` dict per vertex, sharing one
    float per edge -- traced 380,644 B: 208.6 B per edge.  The slot
    arrays and ``array('i')`` incidence rows trace 101,951 B: 55.9 B per
    edge, all vertex bookkeeping included.  Pinned at half the old
    figure.
    """
    verts = [qvertex_from_query(q, space) for q in make_queries(space, 120, seed=3)]
    build_query_graph(verts, space, ng)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_query_graph(verts, space, ng)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g.edges()) == 1825
    assert used / 1825 <= 208.6 / 2


# ----------------------------------------------------------------------
# rate maps
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_space():
    # source ids above 256, where CPython no longer caches small ints
    return SubstreamSpace.random(300, sources=[257, 600, 1031, 4000], seed=11)


def old_rates_by_source(space, mask):
    """The rate map as it was: one fresh ``int`` per key per call."""
    idx = index_array(mask)
    if idx.size == 0:
        return {}
    srcs = space.source_of[idx]
    totals = np.zeros(int(srcs.max()) + 1)
    np.add.at(totals, srcs, space.rates[idx])
    return {int(s): float(totals[s]) for s in np.nonzero(totals)[0]}


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 299), max_size=40))
def test_rates_by_source_matches_old_comprehension(wide_space, ids):
    mask = mask_of(ids)
    got = wide_space.rates_by_source(mask)
    want = old_rates_by_source(wide_space, mask)
    assert got == want
    assert list(got.items()) == list(want.items())


def test_rates_by_source_shares_key_objects(wide_space):
    first = wide_space.rates_by_source(mask_of(range(0, 300, 2)))
    second = wide_space.rates_by_source(mask_of(range(1, 300, 2)))
    assert set(first) == set(second) == {257, 600, 1031, 4000}
    for k in first:
        assert next(o for o in second if o == k) is k


# ----------------------------------------------------------------------
# latency oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def topo():
    return generate_transit_stub(TransitStubParams(), seed=0)


@pytest.fixture(scope="module")
def asymmetric_pair(topo):
    """A pair ``(u, v)`` whose two Dijkstra sums differ in the last bits."""
    for u in range(topo.n):
        du = dijkstra(topo, u)
        for v in range(u + 1, topo.n):
            dv = dijkstra(topo, v)
            if du[v] != dv[u]:
                return u, v, du[v], dv[u]
    pytest.fail("no asymmetric pair on this topology")


def test_oracle_row_is_a_double_array(topo):
    oracle = LatencyOracle(topo)
    row = oracle.row(5)
    assert isinstance(row, array) and row.typecode == "d"
    assert list(row) == dijkstra(topo, 5)
    assert oracle.row(5) is row


class TestOracleLookupRule:
    """``oracle(u, v)`` reads row u if cached, else row v, else computes u.

    d(u, v) and d(v, u) are summed from opposite ends, so the rule decides
    the bits; changing it would move every optimizer digest.
    """

    def test_fresh_oracle_computes_and_reads_row_u(self, topo, asymmetric_pair):
        u, v, d_uv, _ = asymmetric_pair
        oracle = LatencyOracle(topo)
        assert oracle(u, v) == d_uv
        assert set(oracle._rows) == {u}

    def test_cached_row_v_is_read_and_no_row_u_computed(self, topo, asymmetric_pair):
        u, v, _, d_vu = asymmetric_pair
        oracle = LatencyOracle(topo)
        oracle.row(v)
        assert oracle(u, v) == d_vu
        assert set(oracle._rows) == {v}

    def test_both_rows_cached_reads_row_u(self, topo, asymmetric_pair):
        u, v, d_uv, d_vu = asymmetric_pair
        oracle = LatencyOracle(topo)
        oracle.row(v)
        oracle.row(u)
        assert oracle(u, v) == d_uv
        assert oracle(v, u) == d_vu
