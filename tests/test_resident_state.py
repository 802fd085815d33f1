"""Each value on the optimizer's resident path is held once.

The optimizer's graphs and latency rows are the bulk of its memory.
These tests pin the sharing rules that keep them small -- one float
object per edge weight, node-id keys shared across rate maps, latency
rows as ``array('d')`` -- each next to an equality with the
representation it replaced, so that sharing never changes a value, an
order or a lookup.  They also pin the latency oracle's lookup rule,
whose answer depends on which rows are cached.
"""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def assert_weights_shared(g):
    """Every edge's weight is one object, seen from both ``adj`` rows."""
    assert g._edges
    for (a, b), w in g._edges.items():
        assert g.adj[a][b] is w
        assert g.adj[b][a] is w


@pytest.fixture
def graph(space, ng):
    queries = make_queries(space, 40, seed=3)
    return build_query_graph(
        [qvertex_from_query(q, space) for q in queries], space, ng
    )


class TestEdgeWeightsShared:
    def test_build_query_graph(self, graph):
        assert_weights_shared(graph)

    def test_rebuild_edges(self, graph, space):
        rebuild_edges(graph, space, max_overlap_neighbors=3)
        assert_weights_shared(graph)

    def test_coarsen_result(self, graph, space):
        out = coarsen(graph, 12, space, rng=random.Random(5))
        assert len(out.qverts) < len(graph.qverts)
        assert_weights_shared(out)


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
