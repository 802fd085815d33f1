"""Each value on the optimizer's resident path is held once.

The optimizer's graphs and latency rows are the bulk of its memory.
These tests pin the rules that keep them small -- each query-graph edge
held once, in slot arrays and one incidence row per slot, a rate map as
one buffer, latency rows as ``array('d')`` -- each next to an equality
with the representation it replaced, so that the compact form never
changes a value, an order or a lookup.  They pin that a level's working
state (its cost workspace, the index arrays of vertices it no longer
holds) lives only for the round that uses it, and the latency oracle's
lookup rule, whose answer depends on which rows are cached.
"""

import gc
import random
import tracemalloc
import types
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import graph_build, rate_maps
from reference.graph_build import DictGraph, dict_model, vertex_order
from test_fastpath_parity import make_queries, ng, space  # noqa: F401  (fixtures)

from repro.core import CosmosConfig
from repro.core.coarsening import coarsen, merge_qvertices, rebuild_edges
from repro.core.coordinator import _refresh_vertex, _strip_member
from repro.core.fastcost import CostWorkspace
from repro.core.graphs import QVertex, build_query_graph, qvertex_from_query
from repro.experiments.config import ExperimentConfig, build_testbed
from repro.query.interest import RateMap, SubstreamSpace, mask_of
from repro.query.workload import WorkloadParams
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


def assert_rows_are_edge_ordered(g):
    """Read through ``QueryGraph.row``: every slot's row names exactly its
    live incident edges, in ascending edge index, each beside the slot at
    its other end."""
    heads, tails = np.array(g._eu), np.array(g._ev)
    for vid in vertex_order(g):
        s = g.slot(vid)
        nbrs, eids = g.row(s)
        incident = np.flatnonzero((heads == s) | (tails == s))
        assert list(eids) == incident.tolist(), vid
        other = np.where(heads[incident] == s, tails[incident], heads[incident])
        assert list(nbrs) == other.tolist(), vid


def assert_rows_follow_edges(g):
    """The identity: every vertex's neighbour order is its incident edges
    in global edge order -- what the dict model fed the same edges holds."""
    assert_rows_are_edge_ordered(g)
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
        assert_rows_are_edge_ordered(g)
    assert_rows_follow_edges(g)


def test_bytes_per_edge(space, ng):
    """The store's resident bytes per edge, traced, on one fixed graph:
    120 q-vertices of ``make_queries(space, 120, seed=3)``, 7 n-vertices,
    1,825 edges, built once to warm every cache and measured on the
    second build.

    The store this one replaced -- ``_edges``, a dict keyed by vid-pair
    tuples, plus one ``{neighbour: weight}`` dict per vertex, sharing one
    float per edge -- traced 380,644 B: 208.6 B per edge.  The slot
    arrays with two ``array('i')`` incidence rows per slot (neighbours,
    edges) traced 101,951 B: 55.9 B per edge; with one row per slot
    (neighbours then edges) the store traces 91,606 B: 50.2 B per edge,
    all vertex bookkeeping included.  Pinned below the two-row figure.
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
    assert used / 1825 <= 53.0


# ----------------------------------------------------------------------
# rate maps
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_space():
    # source ids above 256, where CPython no longer caches small ints
    return SubstreamSpace.random(300, sources=[257, 600, 1031, 4000], seed=11)


def bits(m):
    """A rate map's items as compared here: order, keys and exact bits."""
    return [(node, float(rate).hex()) for node, rate in m.items()]


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 299), max_size=40))
def test_rates_by_source_matches_dict_model(wide_space, ids):
    mask = mask_of(ids)
    got = wide_space.rates_by_source(mask)
    want = rate_maps.rates_by_source(wide_space, mask)
    assert type(got) is RateMap
    assert got == want and want == got
    assert bits(got) == bits(want)


def test_rate_map_reads_like_the_dict():
    d = {600: 2.5, 257: 0.25, 4000: 7.0}
    m = RateMap(d)
    assert list(m) == list(d) and len(m) == 3
    assert m[257] == 0.25 and m.get(1031) is None and m.get(600) == 2.5
    assert 4000 in m and 1031 not in m and ("n", 600) not in m
    with pytest.raises(KeyError):
        m[1031]
    assert list(m.keys()) == list(d.keys())
    assert list(m.values()) == list(d.values())
    assert list(m.items()) == list(d.items())
    assert m.items() == d.items() and len(m.items()) == 3
    assert (257, 0.25) in m.items() and (257, 0.5) not in m.items()
    assert m == d and d == m and m == RateMap(m) and m != {600: 2.5}
    assert RateMap() == {} and not RateMap()
    assert m.keys().isdisjoint({1031: 1.0}) and not m.keys().isdisjoint([600])
    assert eval(repr(m)) == m


def test_qvertex_converts_the_maps_it_is_given():
    v = QVertex(vid="v", weight=1.0, mask=0, source_rates={3: 1.5, 1: 2.0},
                proxy_rates=[(9, 0.5)])
    assert type(v.source_rates) is type(v.proxy_rates) is RateMap
    assert list(v.source_rates.items()) == [(3, 1.5), (1, 2.0)]
    assert list(v.proxy_rates.items()) == [(9, 0.5)]
    # a RateMap is taken as is: maps are read-only, so vertices share them
    assert QVertex(vid="w", weight=1.0, mask=0, source_rates=v.source_rates,
                   proxy_rates=v.proxy_rates).source_rates is v.source_rates


#: one step of a generated sequence: (op, pick, pick)
rate_ops = st.lists(
    st.tuples(st.sampled_from(["merge", "merge", "strip", "refresh"]),
              st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=1, max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(ops=rate_ops, seed=st.integers(0, 10_000))
def test_rate_maps_follow_the_dict_model(ops, seed):
    """Merges, strips and rate refreshes on production vertices and on the
    dict model side by side: every vertex's maps list the model's items,
    order and bits, after every step."""
    # a space per example: the refresh step perturbs its rates
    space = SubstreamSpace.random(
        300, sources=[257, 600, 1031, 4000, 9], seed=seed
    )
    queries = make_queries(space, 12, seed=seed)
    for q in queries[::4]:
        q.proxy = 600  # a node that is both a source and a proxy
    pool = [(qvertex_from_query(q, space), rate_maps.atom(q, space))
            for q in queries]
    rng = random.Random(seed)
    for op, i, j in ops:
        if op == "merge" and len(pool) > 1:
            a = pool.pop(i % len(pool))
            b = pool.pop(j % len(pool))
            v = merge_qvertices(a[0], b[0])
            pool.append((v, rate_maps.merge(a[1], b[1], v.vid)))
        elif op == "strip":
            coarse = [pair for pair in pool if len(pair[0].members) > 1]
            if coarse:
                v, model = coarse[i % len(coarse)]
                qid = v.members[j % len(v.members)]
                _strip_member(v, qid)
                rate_maps.strip(model, qid)
        elif op == "refresh":
            space.perturb_rates(rng.sample(range(300), 40), 1.0 + j % 7 / 4)
            memo, model_memo = {}, {}
            for v, model in pool:
                _refresh_vertex(v, {}, space, memo)
                rate_maps.refresh(model, space, model_memo)
        for v, model in pool:
            assert_same_maps(v, model)


def assert_same_maps(v, model):
    assert v.members == model.members and v.mask == model.mask
    assert type(v.source_rates) is type(v.proxy_rates) is RateMap
    assert bits(v.source_rates) == bits(model.source)
    assert bits(v.proxy_rates) == bits(model.proxy)
    assert len(v.children) == len(model.children)
    for child, model_child in zip(v.children, model.children):
        assert_same_maps(child, model_child)


def test_bytes_per_vertex():
    """Rate-map bytes per vertex, traced, production against the dict
    model, on the maps of one coarsening hierarchy: 256 atoms of a
    20-source space (the optimizer benchmarks' source count) and every
    vertex of a balanced pairwise merge tree above them.

    Both forms are built from the same inputs in the same order and held
    in one flat list, so only the representation differs: the dict model
    traced 1,375.9 B per vertex (a hash table plus a boxed float per
    entry); maps of two arrays each (with a merged map sharing its first
    child's ``nodes`` array when it names no new node) traced 606.9 B,
    and maps of one buffer each trace 425.9 B.  Pinned at a third of the
    dict form, which the two-array maps exceed.
    """
    space = SubstreamSpace.random(4000, sources=range(20), seed=3)
    queries = make_queries(space, 256, seed=3)
    for q in queries:
        q.mask = mask_of(random.Random(q.query_id).sample(range(4000), 150))

    def build(atom, merge):
        """Every vertex's two maps, in one flat list."""
        level = [atom(q) for q in queries]
        held = [m for pair in level for m in pair]
        while len(level) > 1:
            level = [merge(a, b) for a, b in zip(level[::2], level[1::2])]
            held.extend(m for pair in level for m in pair)
        return held

    def production():
        return build(
            lambda q: (space.rates_by_source(q.mask),
                       RateMap.from_lists([q.proxy], [q.result_rate])),
            lambda a, b: (RateMap.merged(a[0], b[0]),
                          RateMap.merged(a[1], b[1])),
        )

    def model():
        return build(
            lambda q: (rate_maps.rates_by_source(space, q.mask),
                       {q.proxy: q.result_rate}),
            lambda a, b: (rate_maps.merged(a[0], b[0]),
                          rate_maps.merged(a[1], b[1])),
        )

    used = {}
    for form in (production, model):
        form()  # warm every cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = form()
            gc.collect()
            used[form] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(held) == 2 * 511
    assert list(map(bits, production())) == list(map(bits, model()))
    assert used[production] <= used[model] / 3


# ----------------------------------------------------------------------
# working state lives only for the round that uses it
# ----------------------------------------------------------------------
def reachable(root, *kinds):
    """kind -> every object of that exact type ``root`` reaches by
    references, not through a type, module or function."""
    seen, stack = {id(root)}, [root]
    found = {kind: [] for kind in kinds}
    skip = (type, types.ModuleType, types.FunctionType)
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, skip):
                continue
            seen.add(id(ref))
            stack.append(ref)
            if type(ref) in found:
                found[type(ref)].append(ref)
    return found


def graph_vertices(cosmos):
    """id -> q-vertex of every vertex some coordinator's graph holds."""
    return {
        id(v): v
        for c in cosmos.root.all_coordinators()
        for v in c.qg.qverts.values()
    }


class TestRoundState:
    """On the smoke ``opt_churn`` testbed (32 processors, 500 queries, 4
    churn rounds of 10 removes and 10 inserts): a level's cost workspace
    and the index arrays of vertices no graph holds any more do not
    outlive the round."""

    @pytest.fixture(scope="class")
    def testbed(self):
        return build_testbed(ExperimentConfig(
            topology=TransitStubParams(2, 3, 3, 6),
            num_sources=6,
            num_processors=32,
            workload=WorkloadParams(
                num_substreams=600, num_queries=500, groups=8,
                substreams_per_query=(10, 20),
                selectivity_range=(0.01, 0.05),
            ),
            cosmos=CosmosConfig(k=4, vmax=40, max_overlap_neighbors=20),
        ))

    @pytest.fixture(scope="class")
    def steps(self, testbed):
        """One record per step -- after distribute, after every adapt and
        after every batch of removes -- of what the tree then holds: the
        cost workspaces it reaches, the vertices that left every graph
        since distribute and still hold an index array, and the vertices
        whose index array no longer matches their mask."""
        rng = random.Random(0)
        cosmos = testbed.new_cosmos()
        departed = {}
        out = []

        def record():
            gc.collect()
            found = reachable(cosmos, CostWorkspace, QVertex)
            held = graph_vertices(cosmos)
            out.append(dict(
                workspaces=len(found[CostWorkspace]),
                departed=len(departed),
                left_with_index=[v.vid for i, v in departed.items()
                                 if i not in held and v._idx is not None],
                stale=[v.vid for v in found[QVertex]
                       if v._idx is not None and v._idx[0] is not v.mask],
            ))

        def adapt():
            before = graph_vertices(cosmos)
            report = cosmos.adapt()
            after = graph_vertices(cosmos)
            departed.update((i, v) for i, v in before.items() if i not in after)
            record()
            return report.coordinator_moves + report.refinement_moves

        cosmos.distribute(testbed.workload.queries)
        record()
        for _ in range(10):
            if adapt() == 0:
                break
        live = {q.query_id: q for q in testbed.workload.queries}
        for _ in range(4):
            for query_id in rng.sample(sorted(live), 10):
                assert cosmos.remove(query_id)
                del live[query_id]
            record()
            for q in testbed.workload.new_queries(10, testbed.processors):
                cosmos.insert(q)
                live[q.query_id] = q
            drifted = rng.sample(sorted(live), 5)
            cosmos.refresh_measured_loads(
                {qid: live[qid].load * 1.5 for qid in drifted}
            )
            adapt()
        return out

    def test_no_coordinator_holds_a_workspace(self, steps):
        assert len(steps) > 5
        assert [step["workspaces"] for step in steps] == [0] * len(steps)

    def test_vertices_that_left_every_graph_hold_no_index_array(self, steps):
        assert steps[-1]["departed"] > 50
        for step in steps:
            assert not step["left_with_index"]

    def test_graph_sync_releases_what_leaves(self, testbed):
        """Both branches of ``_sync_graph``: a vertex removed or replaced
        by a content-equal copy in place, and one a wholesale rebuild
        leaves out, releases its index array; a staying one keeps it."""
        cosmos = testbed.new_cosmos()
        cosmos.distribute(testbed.workload.queries)
        cosmos.adapt()
        leaf = max(
            (c for c in cosmos.root.all_coordinators() if c.is_leaf),
            key=lambda c: len(c.qg.qverts),
        )
        held = list(leaf.qg.qverts.values())
        assert len(held) > 8
        for v in held:
            v.indices
        copy = replace(held[2])
        assert leaf._sync_graph([copy, *held[3:]])
        assert leaf.qg.qverts[copy.vid] is copy
        assert [v._idx for v in held[:3]] == [None] * 3
        assert all(v._idx is not None for v in held[3:])
        leaf._edges_stale = True
        assert leaf._sync_graph(held[4:])
        assert held[3]._idx is None
        assert all(v._idx is not None for v in held[4:])

    def test_no_index_array_outlives_its_mask(self, steps):
        for step in steps:
            assert not step["stale"]


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
