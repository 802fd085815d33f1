"""Array-built production paths == the sequential references.

Three mechanisms of the cold optimizer path are built from arrays in
``src/`` and defined by a slow, sequential twin under ``tests/reference``:

* **graph construction** -- ``build_query_graph`` / ``rebuild_edges`` /
  ``attach_overlap_edges`` against one ``add_edge`` / ``set_edge`` per
  edge (:mod:`reference.graph_build`), into the production store and into
  the dict model of it (``DictGraph``), and the graph ``coarsen`` returns
  against :mod:`reference.pair_coarsening`'s;
* **the bottom-up pass** -- ``Coordinator.collect`` (per-leaf buckets,
  no query graph, the array coarsening engine) against the population
  scan, per-edge graph build and pair-by-pair coarsening of
  :func:`reference.pair_coarsening.collect`;
* **flow realisation** -- ``rebalance`` against the per-move scan of the
  source child's vertex list (:mod:`reference.flow_scan`).

Agreement is exact: vertex, edge and row orders (but for a coarse graph's
edge order, which nothing reads), float bits, rng state.  The
last class shows the examples can tell apart the two things identity
hangs on (which kernel recomputes a staled cost row; ``argpartition``
rather than a sort for the top-k cut).
"""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from line_oracle import LINE_NODES
from reference import flow_scan, graph_build, pair_coarsening, scalar_kernels
from test_fastpath_parity import (  # noqa: F401  (space, ng: fixtures)
    make_queries,
    ng,
    random_mapping,
    space,
)

from repro.core import CosmosConfig, coarsening
from repro.core.coarsening import coarsen, plan_key, rebuild_edges
from repro.core.fastcost import CostWorkspace
from repro.core.graphs import (
    NetworkGraph,
    NVertex,
    attach_overlap_edges,
    build_query_graph,
    qvertex_from_query,
)
from repro.core.rebalance import RebalanceStats, rebalance
from repro.experiments.config import ExperimentConfig, build_testbed
from repro.query.interest import RateMap
from repro.query.workload import WorkloadParams
from repro.topology import TransitStubParams
from repro.topology.latency import LatencyOracle
from repro.topology.transit_stub import Topology

# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
#: what a vertex of a generated population looks like
KINDS = ("plain", "plain", "plain", "copy", "both", "zero", "negative", "empty")
#: substream universe sizes: the small ones make most rows exceed the cap
POOLS = (20, 60, 400)
CAPS = (1, 2, 5, 20)


def population(space, kinds, seed, pool):
    """One q-vertex per entry of ``kinds`` (see the branches)."""
    queries = make_queries(space, len(kinds), seed=seed, universe=range(pool))
    verts = []
    for q, kind in zip(queries, kinds):
        v = qvertex_from_query(q, space)
        node = next(iter(v.source_rates))
        if kind == "copy" and verts:
            # its predecessor's interest: exact overlap-weight ties, which
            # land on the top-k boundary once rows exceed the cap
            v = replace(v, mask=verts[-1].mask,
                        source_rates=dict(verts[-1].source_rates))
        elif kind == "both":
            # one node is both a source and the proxy: one summed edge
            v.proxy_rates = RateMap({node: 1.5})
        elif kind == "zero":
            v.source_rates = RateMap({**v.source_rates, node: 0.0})
        elif kind == "negative":
            # only the positive one of the node's two rates counts
            v.source_rates = RateMap({**v.source_rates, node: -2.0})
            v.proxy_rates = RateMap({node: 0.75, **v.proxy_rates})
        elif kind == "empty":
            v = replace(v, mask=0, source_rates={})
        verts.append(v)
    return verts


def assert_same_graph(g, h):
    """Same vertices, rows and edges: orders and exact floats (either
    store, ``QueryGraph`` or ``DictGraph``, on either side)."""
    assert list(g.qverts) == list(h.qverts)
    assert list(g.nverts) == list(h.nverts)
    assert graph_build.vertex_order(g) == graph_build.vertex_order(h)
    for vid in graph_build.vertex_order(g):
        assert list(g.neighbors(vid).items()) == list(h.neighbors(vid).items()), vid
    assert g.edges() == h.edges()


def assert_same_wec(g, h, ng, mapping):
    """Two graphs with the same edge store evaluate to the same WEC, to
    the bit, and that WEC is the scalar definition's."""
    assert g.wec(mapping, ng) == h.wec(mapping, ng)
    assert g.wec(mapping, ng) == pytest.approx(
        scalar_kernels.wec(g, mapping, ng), rel=1e-12, abs=1e-12
    )


populations = dict(
    kinds=st.lists(st.sampled_from(KINDS), max_size=40),
    seed=st.integers(0, 10_000),
    pool=st.sampled_from(POOLS),
    k=st.sampled_from(CAPS),
)


class TestGraphBuildParity:
    @settings(max_examples=80, deadline=None)
    @given(**populations)
    @example(kinds=[], seed=0, pool=20, k=5)
    @example(kinds=["plain"], seed=1, pool=20, k=1)
    @example(kinds=["both", "copy"], seed=2, pool=20, k=2)
    @example(kinds=["plain"] + ["copy"] * 30, seed=3, pool=20, k=5)
    def test_build_matches_the_per_edge_builder(
        self, space, ng, kinds, seed, pool, k
    ):
        verts = population(space, kinds, seed, pool)
        g = build_query_graph(verts, space, ng, k)
        h = graph_build.build_query_graph(verts, space, ng, k)
        assert_same_graph(g, h)
        assert_same_graph(g, graph_build.build_query_graph(
            verts, space, ng, k, graph_cls=graph_build.DictGraph
        ))
        mapping = random_mapping(g, ng, seed=seed)
        assert g.wec(mapping, ng) == h.wec(mapping, ng)
        # the bulk build appends every edge once: no tombstone
        assert (g._dead, len(g._ew)) == (0, len(g.edges()))

    def test_duplicate_id_is_rejected_by_both(self, space, ng):
        verts = population(space, ["plain"] * 4, 5, 60)
        verts.append(replace(verts[1], weight=9.0))
        for build in (build_query_graph, graph_build.build_query_graph):
            with pytest.raises(ValueError, match="duplicate vertex id"):
                build(verts, space, ng)

    @settings(max_examples=40, deadline=None)
    @given(k2=st.sampled_from(CAPS), **populations)
    def test_rebuild_edges_matches_and_consumers_catch_up(
        self, space, ng, kinds, seed, pool, k, k2
    ):
        verts = population(space, kinds, seed, pool)
        g = build_query_graph(verts, space, ng, k)
        h = graph_build.build_query_graph(verts, space, ng, k)
        # the aggregates moved under the graph, and a rate map names a
        # node the graph no longer tracks: skipped, not an error
        for v in verts[::3]:
            v.source_rates = RateMap(
                {n: 2.0 * r for n, r in v.source_rates.items()}
            )
        for graph in (g, h):
            for vid in list(graph.nverts)[:1]:
                graph.remove_vertex(vid)
        mapping = random_mapping(g, ng, seed=seed)
        ws = CostWorkspace(g, ng)
        ws.init_positions(mapping)
        ws.attach_costs_batch(list(g.qverts))  # neighbour arrays cached

        rebuild_edges(g, space, k2)
        graph_build.rebuild_edges(h, space, k2)
        assert_same_graph(g, h)
        # the swap compacted: no dead slot, no tombstoned edge
        assert g.slot_count == len(g.qverts) + len(g.nverts)
        assert g._dead == 0
        # the WEC reads the swapped edge set, and a workspace taken
        # before equals a fresh one after
        assert_same_wec(g, h, ng, mapping)
        fresh = CostWorkspace(g, ng)
        for w in (ws, fresh):
            w.init_positions(mapping)
        for vid in g.qverts:
            assert np.array_equal(ws.attach_costs(vid), fresh.attach_costs(vid))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), pool=st.sampled_from(POOLS),
           k=st.sampled_from(CAPS))
    def test_attach_overlap_edges_patches_a_live_graph(
        self, space, ng, seed, pool, k
    ):
        verts = population(space, ["plain"] * 30 + ["copy", "plain"], seed, pool)
        old, new = verts[:30], verts[30:]
        g = build_query_graph(old, space, ng, k)
        h = graph_build.build_query_graph(old, space, ng, k)
        for graph in (g, h):
            for v in new:
                graph.add_qvertex(v)
                for rates in (v.source_rates, v.proxy_rates):
                    for node, rate in rates.items():
                        if ("n", node) not in graph.nverts:
                            graph.add_nvertex(NVertex(("n", node), node))
                        graph.add_edge(v.vid, ("n", node), rate)
            # an edge the graph already has is honoured, not re-estimated
            graph.set_edge(new[0].vid, old[0].vid, 123.0)
        qlist = list(g.qverts.values())
        attach_overlap_edges(g, qlist, [30, 31], space, k)
        graph_build.attach_overlap_edges(h, qlist, [30, 31], space, k)
        assert_same_graph(g, h)
        assert g.neighbors(new[0].vid)[old[0].vid] == 123.0
        mapping = random_mapping(g, ng, seed=seed)
        assert_same_wec(g, h, ng, mapping)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), pool=st.sampled_from(POOLS),
           vmax=st.integers(6, 30))
    def test_coarse_result_graph_matches(self, space, ng, seed, pool, vmax):
        verts = population(space, ["plain"] * 36 + ["copy"] * 4, seed, pool)
        g = build_query_graph(verts, space, ng)
        fast = coarsen(g, vmax, space, rng=random.Random(seed))
        slow = pair_coarsening.coarsen(g, vmax, space, rng=random.Random(seed))

        # coarse ids come from a process-wide counter: name by members.
        # Vertex order is pinned; edge and row orders are not (nothing
        # reads a coarse graph's edge order), so edges compare as a set
        # and rows as maps
        def named(cg):
            def name(vid):
                return plan_key(cg.qverts[vid]) if vid in cg.qverts else vid
            order = graph_build.vertex_order(cg)
            return (
                [name(v) for v in order],
                {(frozenset((name(a), name(b))), w) for a, b, w in cg.edges()},
                {name(v): {name(n): w for n, w in cg.neighbors(v).items()}
                 for v in order},
            )

        assert named(fast) == named(slow)


# ----------------------------------------------------------------------
# the bottom-up pass of the initial distribution
# ----------------------------------------------------------------------
def smoke_testbed(seed):
    """The ``opt_cold`` benchmark's smoke-scale testbed."""
    return build_testbed(ExperimentConfig(
        num_processors=48,
        seed=seed,
        topology=TransitStubParams(2, 3, 3, 6),
        num_sources=6,
        workload=WorkloadParams(
            num_substreams=600, num_queries=500, groups=8,
            substreams_per_query=(10, 20), selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=4, vmax=40, max_overlap_neighbors=20, seed=seed),
    ))


def vertex_tree(v):
    """A vertex and everything it was coarsened from."""
    return (v.vid, v.members, v.mask, [vertex_tree(c) for c in v.children])


class TestCollectParity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_collect_matches_the_reference_engine(self, seed, monkeypatch):
        testbed = smoke_testbed(seed)
        root = testbed.new_cosmos().root
        queries = testbed.workload.queries
        # coarse ids come from a process-wide counter: start both runs at
        # one value, so equal ids mean equal merges in equal order
        monkeypatch.setattr(coarsening, "_coarse_ids", itertools.count(10**6))
        fast = root.collect(queries)
        monkeypatch.setattr(coarsening, "_coarse_ids", itertools.count(10**6))
        ref = pair_coarsening.collect(root, queries)
        assert [vertex_tree(v) for v in fast] == [vertex_tree(v) for v in ref]
        # the walk coarsened for real below the root
        assert any(v.children for v in fast)


# ----------------------------------------------------------------------
# flow realisation
# ----------------------------------------------------------------------
FLOW_KINDS = ("plain", "plain", "plain", "weightless", "stateless", "twin",
              "clone", "clone", "heavy", "anonymous")


def flow_graph(space, ng, kinds, seed):
    """A graph whose vertices stress Algorithm 3's selection rules."""
    verts = []
    for q, kind in zip(make_queries(space, len(kinds), seed=seed), kinds):
        v = qvertex_from_query(q, space)
        if kind == "weightless":
            v.weight = 0.0  # never movable
        elif kind == "stateless":
            v.state_size = 0.0  # infinite load density
        elif kind == "twin" and verts:
            # exact density tie, decided by the stable key
            v.weight, v.state_size = verts[-1].weight, verts[-1].state_size
        elif kind == "clone" and verts:
            # its predecessor under another id: equal cost rows and exact
            # benefit ties for as long as one kernel computes both, which
            # is where the choice of kernel shows
            v = replace(verts[-1], vid=v.vid, members=v.members)
        elif kind == "heavy":
            v.weight *= 40.0  # more than most flows can absorb
        elif kind == "anonymous":
            # no members, and an id whose ``str`` equals its predecessor's:
            # density *and* key tie, decided by the child's list order
            prev = verts[-1] if verts else None
            if prev is not None and isinstance(prev.vid, int):
                v = replace(v, vid=str(prev.vid), members=(),
                            weight=prev.weight, state_size=prev.state_size)
            else:
                v = replace(v, vid=1000 + len(verts), members=())
        verts.append(v)
    return build_query_graph(verts, space, ng)


def skewed_assignment(g, ng, seed, spread):
    """Everything on the first ``spread`` targets, at random."""
    rng = random.Random(seed)
    some = ng.ids()[:spread]
    return {vid: rng.choice(some) for vid in g.qverts}


def run_pair(g, ng, assignment, seed, dirty=(), workspaces=(None, None), **kw):
    """``[(assignment, stats, rng state)]`` of production and reference."""
    outcomes = []
    for fn, ws in zip((rebalance, flow_scan.rebalance), workspaces):
        mine = dict(assignment)
        rng = random.Random(seed)
        stats = RebalanceStats(dirty=set(dirty))
        returned = fn(g, ng, mine, rng=rng, stats=stats, workspace=ws, **kw)
        assert returned is stats
        outcomes.append((mine, stats, rng.getstate()))
    return outcomes


def assert_same_outcome(outcomes):
    (a_map, a_stats, a_rng), (b_map, b_stats, b_rng) = outcomes
    assert a_map == b_map
    # every field: moved_vertices, moved_weight, moved_state,
    # flows_requested, flows_satisfied, dirty
    assert a_stats == b_stats
    assert a_rng == b_rng


flow_cases = dict(
    kinds=st.lists(st.sampled_from(FLOW_KINDS), min_size=2, max_size=60),
    seed=st.integers(0, 10_000),
    spread=st.integers(1, 3),
)


class TestFlowRealisationParity:
    @settings(max_examples=80, deadline=None)
    @given(window=st.sampled_from([0.10, 0.10, 0.0, 0.5]), **flow_cases)
    @example(kinds=(["plain"] + ["clone"] * 12) * 3, seed=0, spread=2,
             window=0.0)
    @example(kinds=(["plain"] + ["clone"] * 12) * 3, seed=1, spread=2,
             window=0.0)
    def test_matches_the_scan_loop(self, space, ng, kinds, seed, spread, window):
        g = flow_graph(space, ng, kinds, seed)
        assignment = skewed_assignment(g, ng, seed, spread)
        outcomes = run_pair(g, ng, assignment, seed, benefit_window=window)
        assert_same_outcome(outcomes)

    @settings(max_examples=40, deadline=None)
    @given(**flow_cases)
    def test_preseeded_dirty_steers_the_window(
        self, space, ng, kinds, seed, spread
    ):
        g = flow_graph(space, ng, kinds, seed)
        assignment = skewed_assignment(g, ng, seed, spread)
        dirty = random.Random(seed).sample(list(g.qverts), len(g.qverts) // 3)
        dirty.append(("q", "not in this graph"))
        outcomes = run_pair(g, ng, assignment, seed, dirty=dirty)
        assert_same_outcome(outcomes)
        assert outcomes[0][1].dirty >= set(dirty)

    @settings(max_examples=30, deadline=None)
    @given(**flow_cases)
    def test_reused_workspace_with_tombstones(
        self, space, ng, kinds, seed, spread
    ):
        g = flow_graph(space, ng, kinds, seed)
        workspaces = (CostWorkspace(g, ng), CostWorkspace(g, ng))
        built = g.slot_count
        # vertices leave after the workspaces indexed them; one comes back
        gone = list(g.qverts.values())[:: 4]
        for v in gone:
            g.remove_vertex(v.vid)
        if len(gone) > 1:
            g.add_qvertex(gone[0])
        assignment = skewed_assignment(g, ng, seed, spread)
        outcomes = run_pair(g, ng, assignment, seed, workspaces=workspaces)
        assert_same_outcome(outcomes)
        # the removed vertices left dead slots; the returning one got a
        # fresh slot, past the ones the workspaces were built over
        if len(gone) > 1:
            assert g.slot_count == len(g.qverts) + len(g.nverts) + len(gone)
            assert g.slot(gone[0].vid) >= built

    @settings(max_examples=25, deadline=None)
    @given(**flow_cases)
    def test_single_row_kernel_is_the_masked_gather(
        self, space, ng, kinds, seed, spread
    ):
        g = flow_graph(space, ng, kinds, seed)
        ws = CostWorkspace(g, ng)
        assignment = skewed_assignment(g, ng, seed, spread)
        # everything placed; every third q-vertex not yet; n-vertices only
        partial = {v: t for k, (v, t) in enumerate(assignment.items()) if k % 3}
        for mapping in (assignment, partial, {}):
            ws.init_positions(mapping)
            for vid in g.qverts:
                assert np.array_equal(
                    ws.attach_costs(vid), flow_scan.single_row(ws, vid)
                )
        # nothing placed at all, cleared one by one from a full placement
        ws.init_positions(assignment)
        for vid in [*g.qverts, *g.nverts]:
            ws.clear_position(vid)
        for vid in g.qverts:
            assert not ws.attach_costs(vid).any()

    def test_a_source_with_no_candidate_drops_its_flows(self, space, ng):
        g = flow_graph(space, ng, ["plain"] * 12, 3)
        vids = list(g.qverts)
        # one vertex outweighs everything else and sits alone on P1: no
        # flow out of P1 can absorb it
        g.qverts[vids[0]].weight = 100.0 * g.total_qweight()
        assignment = {vid: "P0" for vid in vids}
        assignment[vids[0]] = "P1"
        outcomes = run_pair(g, ng, assignment, 7)
        assert_same_outcome(outcomes)
        stats = outcomes[0][1]
        assert 0 < stats.flows_satisfied < stats.flows_requested
        assert outcomes[0][0][vids[0]] == "P1"

    def test_balanced_and_weightless_graphs_return_early(self, space, ng):
        g = flow_graph(space, ng, ["weightless"] * 6, 2)
        assert_same_outcome(
            run_pair(g, ng, skewed_assignment(g, ng, 2, 1), 2)
        )
        g = flow_graph(space, ng, ["plain"] * 10, 2)
        for v in g.qverts.values():
            v.weight = 1.0
        balanced = {vid: f"P{i % 5}" for i, vid in enumerate(g.qverts)}
        outcomes = run_pair(g, ng, balanced, 2)
        assert_same_outcome(outcomes)
        assert outcomes[0][1].flows_requested == 0


# ----------------------------------------------------------------------
# the examples can tell the two identity-bearing choices apart
# ----------------------------------------------------------------------
def _batch_row(ws, vid):
    return ws.attach_costs_batch([vid])[0]


def _stable_sort(ws, k):
    return np.argsort(-ws, kind="stable")[:k]


def non_dyadic_network(ng):
    """``ng``'s vertices over a path topology of 1.1-latency links:
    latencies are Dijkstra sums of a non-dyadic float, as production
    latencies are, so cost rows (rate x latency) are not dyadic either."""
    topo = Topology(n=LINE_NODES, adjacency=[[] for _ in range(LINE_NODES)])
    for u in range(LINE_NODES - 1):
        topo.add_edge(u, u + 1, 1.1)
    return NetworkGraph(ng.vertices.values(), LatencyOracle(topo))


class TestIdentityBearingChoices:
    def test_batch_recompute_of_a_staled_row_is_a_different_algorithm(
        self, space, ng
    ):
        """Were ``rebalance`` to recompute invalidated rows with the batch
        kernel, most of these cases would come out differently: clones tie
        exactly while one kernel scores them all, and a zero-width window
        admits exact ties only.  The latencies are not dyadic: on whole
        ones every cost row is exact and the two kernels tie."""
        ng = non_dyadic_network(ng)
        differing = 0
        for seed in range(10):
            g = flow_graph(space, ng, (["plain"] + ["clone"] * 12) * 3, seed)
            assignment = skewed_assignment(g, ng, seed, 2)
            ours = dict(assignment)
            rebalance(g, ng, ours, rng=random.Random(seed), benefit_window=0.0)
            mutant = dict(assignment)
            flow_scan.rebalance(
                g, ng, mutant, rng=random.Random(seed), benefit_window=0.0,
                recompute=_batch_row,
            )
            differing += ours != mutant
        assert differing >= 5

    def test_sorted_topk_is_a_different_graph(self, space, ng):
        """Were the top-k cut a sort, ties at the boundary would pick
        other members and the kept edges would be installed in another
        order."""
        verts = population(space, (["plain"] + ["copy"] * 3) * 8, 3, 60)
        g = build_query_graph(verts, space, ng, 5)
        assert_same_graph(g, graph_build.build_query_graph(verts, space, ng, 5))
        mutant = graph_build.build_query_graph(
            verts, space, ng, 5, select=_stable_sort
        )
        assert g.edges() != mutant.edges()
        assert set(g.edges()) != set(mutant.edges())
