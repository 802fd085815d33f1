"""Tests for coarsening (Alg 1), mapping (Alg 2), diffusion and Alg 3."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coarsening import coarsen, merge_qvertices, uncoarsen_vertex
from repro.core.diffusion import diffusion_solution
from repro.core.graphs import (
    NetVertex,
    build_query_graph,
    qvertex_from_query,
)
from repro.core.mapping import greedy_mapping, map_graph, refine_mapping
from repro.core.rebalance import rebalance, refine_distribution
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec

from line_oracle import line_network


@pytest.fixture(scope="module")
def space():
    return SubstreamSpace.random(300, sources=[0, 100], seed=11)


@pytest.fixture(scope="module")
def ng():
    return line_network(
        [
            NetVertex(vid=f"P{i}", site=i * 10, capability=1.0,
                      covers=frozenset([i * 10]))
            for i in range(4)
        ]
    )


def make_queries(space, n, seed=0, proxy_nodes=(0, 10, 20, 30)):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        ids = rng.sample(range(len(space)), rng.randint(5, 15))
        mask = mask_of(ids)
        out.append(
            QuerySpec(
                query_id=i,
                proxy=rng.choice(list(proxy_nodes)),
                mask=mask,
                group=0,
                load=0.01 * space.rate(mask),
                result_rate=1.0,
                state_size=rng.uniform(1, 10),
            )
        )
    return out


def graph_of(space, ng, queries):
    return build_query_graph(
        [qvertex_from_query(q, space) for q in queries], space, ng
    )


class TestCoarsening:
    def test_respects_vmax(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 60))
        coarse = coarsen(g, 10, space)
        assert len(coarse.qverts) + len(coarse.nverts) <= max(
            10, len(coarse.nverts) + 1
        )

    def test_preserves_total_weight(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 40))
        coarse = coarsen(g, 8, space)
        assert coarse.total_qweight() == pytest.approx(g.total_qweight())

    def test_preserves_members(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 40))
        coarse = coarsen(g, 8, space)
        members = []
        for v in coarse.qverts.values():
            members.extend(v.members)
        assert sorted(members) == list(range(40))

    def test_merged_mask_is_union(self, space):
        queries = make_queries(space, 2)
        a, b = (qvertex_from_query(q, space) for q in queries)
        m = merge_qvertices(a, b)
        assert m.mask == a.mask | b.mask
        assert m.weight == pytest.approx(a.weight + b.weight)
        assert m.state_size == pytest.approx(a.state_size + b.state_size)

    def test_merged_source_rates_sum(self, space):
        queries = make_queries(space, 2)
        a, b = (qvertex_from_query(q, space) for q in queries)
        m = merge_qvertices(a, b)
        for node in set(a.source_rates) | set(b.source_rates):
            expected = a.source_rates.get(node, 0) + b.source_rates.get(node, 0)
            assert m.source_rates[node] == pytest.approx(expected)

    def test_uncoarsen_roundtrip(self, space):
        queries = make_queries(space, 2)
        a, b = (qvertex_from_query(q, space) for q in queries)
        m = merge_qvertices(a, b)
        assert set(v.vid for v in uncoarsen_vertex(m)) == {a.vid, b.vid}

    def test_uncoarsen_atomic_is_identity(self, space):
        v = qvertex_from_query(make_queries(space, 1)[0], space)
        assert uncoarsen_vertex(v) == [v]

    def test_nvertices_never_merged(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 40))
        n_before = set(g.nverts)
        coarse = coarsen(g, 5, space)
        assert set(coarse.nverts) == n_before

    def test_original_graph_untouched(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 30))
        count = len(g.qverts) + len(g.nverts)
        coarsen(g, 5, space)
        assert len(g.qverts) + len(g.nverts) == count

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), vmax=st.integers(4, 30))
    def test_weight_invariant_random(self, space, ng, seed, vmax):
        g = graph_of(space, ng, make_queries(space, 35, seed=seed))
        coarse = coarsen(g, vmax, space, rng=random.Random(seed))
        assert coarse.total_qweight() == pytest.approx(g.total_qweight())


class TestMapping:
    def test_pinned_nvertices(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 20))
        mapping = greedy_mapping(g, ng)
        for vid, nv in g.nverts.items():
            if nv.clu is not None:
                assert mapping[vid] == nv.clu

    def test_all_qvertices_mapped(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 20))
        result = map_graph(g, ng)
        assert set(g.qverts) <= set(result.mapping)

    def test_refinement_never_worse_than_greedy(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 30))
        initial = greedy_mapping(g, ng)
        initial_wec = g.wec(initial, ng)
        result = refine_mapping(g, ng, initial)
        assert result.wec <= initial_wec + 1e-6

    def test_reported_wec_matches_recomputation(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 25))
        result = map_graph(g, ng)
        assert result.wec == pytest.approx(g.wec(result.mapping, ng))

    def test_load_constraint_feasible_when_possible(self, space, ng):
        g = graph_of(space, ng, make_queries(space, 40))
        result = map_graph(g, ng)
        assert result.feasible

    def test_single_target_trivial(self, space):
        ng1 = line_network(
            [NetVertex(vid="only", site=0, capability=1.0,
                       covers=frozenset([0]))]
        )
        g = graph_of(space, ng1, make_queries(space, 5, proxy_nodes=(0,)))
        result = map_graph(g, ng1)
        assert all(result.mapping[v] == "only" for v in g.qverts)

    def test_empty_query_graph(self, space, ng):
        g = build_query_graph([], space, ng)
        result = map_graph(g, ng)
        assert result.wec == 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_refinement_monotone_random(self, space, ng, seed):
        g = graph_of(space, ng, make_queries(space, 25, seed=seed))
        initial = greedy_mapping(g, ng)
        result = refine_mapping(g, ng, initial)
        assert result.wec <= g.wec(initial, ng) + 1e-6


class TestDiffusion:
    def test_balanced_input_no_flow(self):
        flows = diffusion_solution({"a": 5.0, "b": 5.0}, {"a": 5.0, "b": 5.0})
        assert flows == {}

    def test_flow_from_overloaded_to_underloaded(self):
        flows = diffusion_solution({"a": 8.0, "b": 2.0}, {"a": 5.0, "b": 5.0})
        assert flows[("a", "b")] == pytest.approx(3.0)
        assert ("b", "a") not in flows

    def test_net_flow_balances_every_node(self):
        loads = {"a": 10.0, "b": 2.0, "c": 3.0}
        targets = {"a": 5.0, "b": 5.0, "c": 5.0}
        flows = diffusion_solution(loads, targets)
        for node in loads:
            out = sum(v for (i, j), v in flows.items() if i == node)
            inn = sum(v for (i, j), v in flows.items() if j == node)
            assert loads[node] - out + inn == pytest.approx(targets[node])

    def test_respects_capability_weighted_targets(self):
        flows = diffusion_solution(
            {"a": 6.0, "b": 6.0}, {"a": 9.0, "b": 3.0}
        )
        assert flows[("b", "a")] == pytest.approx(3.0)

    def test_single_node_no_flows(self):
        assert diffusion_solution({"a": 3.0}, {"a": 1.0}) == {}

    def test_zero_targets_raise(self):
        with pytest.raises(ValueError):
            diffusion_solution({"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0})

    @settings(max_examples=100, deadline=None)
    @given(loads=st.lists(
        st.floats(0.0, 100.0, allow_subnormal=False), min_size=2, max_size=8))
    def test_minimal_norm_property_random(self, loads):
        """Flows only go from above-target to below-target (monotone in
        the potential x), and per-node balance holds."""
        nodes = {f"n{i}": l for i, l in enumerate(loads)}
        total = sum(loads)
        if total <= 1e-6:
            return
        targets = {n: total / len(nodes) for n in nodes}
        flows = diffusion_solution(nodes, targets)
        for n in nodes:
            out = sum(v for (i, j), v in flows.items() if i == n)
            inn = sum(v for (i, j), v in flows.items() if j == n)
            assert nodes[n] - out + inn == pytest.approx(targets[n], abs=1e-6)


class TestRebalance:
    def _setup(self, space, ng, n=40, seed=3):
        queries = make_queries(space, n, seed=seed)
        g = graph_of(space, ng, queries)
        # deliberately imbalanced start: everything on P0
        assignment = dict(g.pinned_mapping(ng))
        for vid in g.qverts:
            assignment[vid] = "P0"
        return g, assignment

    def test_rebalance_reduces_imbalance(self, space, ng):
        g, assignment = self._setup(space, ng)
        before = max(g.loads(assignment, ng).values())
        rebalance(g, ng, assignment, rng=random.Random(1))
        after = max(g.loads(assignment, ng).values())
        assert after < before

    def test_rebalance_reaches_near_balance(self, space, ng):
        g, assignment = self._setup(space, ng)
        rebalance(g, ng, assignment, rng=random.Random(1))
        loads = g.loads(assignment, ng)
        target = g.total_qweight() / len(ng)
        assert max(loads.values()) <= 1.5 * target

    def test_dirty_vertices_tracked(self, space, ng):
        g, assignment = self._setup(space, ng)
        stats = rebalance(g, ng, assignment, rng=random.Random(1))
        assert stats.moved_vertices >= len(stats.dirty) > 0

    def test_moved_state_counts_unique_vertices(self, space, ng):
        g, assignment = self._setup(space, ng)
        stats = rebalance(g, ng, assignment, rng=random.Random(1))
        expected = sum(g.qverts[v].state_size for v in stats.dirty)
        assert stats.moved_state == pytest.approx(expected)

    def test_refinement_never_increases_wec(self, space, ng):
        g, assignment = self._setup(space, ng)
        rebalance(g, ng, assignment, rng=random.Random(1))
        original = dict(assignment)
        wec_before = g.wec(assignment, ng)
        refine_distribution(g, ng, assignment, original, rng=random.Random(2))
        assert g.wec(assignment, ng) <= wec_before + 1e-6

    def test_refinement_respects_load_cap(self, space, ng):
        g, assignment = self._setup(space, ng)
        rebalance(g, ng, assignment, rng=random.Random(1))
        refine_distribution(
            g, ng, assignment, dict(assignment), rng=random.Random(2)
        )
        limits = g.capacity_limits(ng)
        loads = g.loads(assignment, ng)
        # refinement must not create NEW violations
        assert all(loads[t] <= limits[t] + g.total_qweight() * 0.01
                   for t in ng.ids())

    def test_balanced_start_is_noop(self, space, ng):
        queries = make_queries(space, 16, seed=5)
        g = graph_of(space, ng, queries)
        assignment = dict(g.pinned_mapping(ng))
        for i, vid in enumerate(sorted(g.qverts, key=str)):
            assignment[vid] = f"P{i % 4}"
        stats = rebalance(g, ng, assignment, rng=random.Random(1))
        # loads are near-balanced: very few moves expected
        assert stats.moved_weight <= 0.5 * g.total_qweight()
