"""Tests for the coordinator tree and the Cosmos middleware end to end."""

import pytest

from repro.core import Cosmos, CosmosConfig, build_coordinator_tree
from repro.experiments.config import bench_scale, build_testbed
from repro.query.workload import WorkloadParams, generate_workload
from repro.topology import (
    LatencyOracle,
    TransitStubParams,
    generate_transit_stub,
    select_roles,
)


def levels(tree):
    """The tree's clusters grouped by level, bottom (level 1) first."""
    by_level = {}
    stack = [tree.root]
    while stack:
        c = stack.pop()
        by_level.setdefault(c.level, []).append(c)
        stack.extend(c.children)
    return [by_level[lvl] for lvl in sorted(by_level)]


@pytest.fixture(scope="module")
def env():
    topo = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=3,
                          stubs_per_transit_node=3, stub_nodes=4),
        seed=3,
    )
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(topo, 5, 16, seed=4)
    workload = generate_workload(
        WorkloadParams(num_substreams=800, num_queries=300,
                       substreams_per_query=(10, 20)),
        sources, processors, seed=5,
    )
    return topo, oracle, sources, processors, workload


class TestCoordinatorTree:
    def test_covers_all_processors(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        assert sorted(tree.root.descendants()) == sorted(processors)

    def test_leaf_cluster_sizes(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        for leaf in tree.leaf_clusters():
            assert 1 <= leaf.size() <= 3 * 4 - 1

    def test_parent_is_median_of_members(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        for leaf in tree.leaf_clusters():
            assert leaf.coordinator == oracle.median(leaf.members)

    def test_smaller_k_taller_tree(self, env):
        _, oracle, _, processors, _ = env
        t2 = build_coordinator_tree(processors, oracle, k=2)
        t8 = build_coordinator_tree(processors, oracle, k=8)
        assert t2.height() >= t8.height()

    def test_levels_consistent(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        assert levels(tree)[-1] == [tree.root]

    def test_k_below_two_rejected(self, env):
        _, oracle, _, processors, _ = env
        with pytest.raises(ValueError):
            build_coordinator_tree(processors, oracle, k=1)

    def test_incremental_join(self, env):
        topo, oracle, sources, processors, _ = env
        tree = build_coordinator_tree(processors[:-1], oracle, k=4)
        newcomer = processors[-1]
        tree.join(newcomer)
        assert newcomer in tree.root.descendants()

    def test_join_splits_oversized_cluster(self, env):
        topo, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors[:4], oracle, k=2)
        for node in processors[4:12]:
            tree.join(node)
        for leaf in tree.leaf_clusters():
            assert leaf.size() <= 3 * 2 - 1

    def test_cluster_of_processor(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        leaf = tree.cluster_of_processor(processors[0])
        assert processors[0] in leaf.members


class TestCosmosDistribution:
    @pytest.fixture(scope="class")
    def cosmos_env(self, env):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(
            oracle, processors, workload.space,
            CosmosConfig(k=4, vmax=40),
        )
        placement = cosmos.distribute(workload.queries)
        return cosmos, placement, workload, processors

    def test_every_query_placed(self, cosmos_env):
        _, placement, workload, _ = cosmos_env
        assert set(placement) == {q.query_id for q in workload.queries}

    def test_placement_targets_are_processors(self, cosmos_env):
        _, placement, _, processors = cosmos_env
        assert set(placement.values()) <= set(processors)

    def test_load_within_reasonable_bounds(self, cosmos_env):
        _, placement, workload, processors = cosmos_env
        loads = {p: 0.0 for p in processors}
        for q in workload.queries:
            loads[placement[q.query_id]] += q.load
        mean = sum(loads.values()) / len(processors)
        # hierarchical slack: each level allows alpha, so allow 2x mean
        assert max(loads.values()) <= 2.0 * mean

    def test_beats_naive_on_cost(self, env, cosmos_env):
        from repro.baselines import naive_placement
        from repro.sim import CostModel

        _, oracle, _, _, _ = env
        cosmos, placement, workload, processors = cosmos_env
        cm = CostModel.over(None, workload.space, distance=oracle)
        cost_cosmos = cm.weighted_cost(placement, workload.queries)
        cost_naive = cm.weighted_cost(
            naive_placement(workload.queries), workload.queries
        )
        # this fixture is deliberately tiny (300 queries, 16 processors),
        # where sharing gains are marginal; the figure-scale comparison
        # lives in benchmarks/bench_fig6.py.  Allow 5% tolerance here.
        assert cost_cosmos < cost_naive * 1.05

    def test_timers_populated(self, cosmos_env):
        cosmos, _, _, _ = cosmos_env
        assert cosmos.total_time() > 0
        assert cosmos.response_time() <= cosmos.total_time() + 1e-9


class TestCosmosInsertAdapt:
    def test_insert_places_on_processor(self, env):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=40))
        cosmos.distribute(workload.queries)
        fresh = workload.new_queries(10, processors)
        for q in fresh:
            host = cosmos.insert(q)
            assert host in processors
            assert cosmos.placement[q.query_id] == host

    def test_adapt_preserves_placement_completeness(self, env):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=40))
        cosmos.distribute(workload.queries)
        before = set(cosmos.placement)
        report = cosmos.adapt()
        assert set(cosmos.placement) == before
        assert report.migrated_queries >= 0

    def test_adopt_reproduces_given_placement(self, env):
        _, oracle, _, processors, workload = env
        from repro.baselines import random_placement

        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=40))
        pl = random_placement(workload.queries, processors, seed=8)
        cosmos.adopt(workload.queries, pl)
        assert dict(cosmos.placement) == pl

    def test_adapt_after_adopt_improves_cost(self, env):
        from repro.baselines import random_placement
        from repro.sim import CostModel

        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=40))
        pl = random_placement(workload.queries, processors, seed=8)
        cosmos.adopt(workload.queries, pl)
        cm = CostModel.over(None, workload.space, distance=oracle)
        before = cm.weighted_cost(pl, workload.queries)
        for _ in range(3):
            cosmos.adapt()
        after = cm.weighted_cost(dict(cosmos.placement), workload.queries)
        assert after < before

    def test_refresh_statistics_updates_weights(self, env):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=40))
        cosmos.distribute(workload.queries)
        workload.space.perturb_rates(list(range(50)), 5.0)
        cosmos.refresh_statistics(workload)
        root_total = sum(v.weight for v in cosmos.root.vertices.values())
        assert root_total == pytest.approx(
            sum(q.load for q in workload.queries), rel=0.01
        )
        workload.space.perturb_rates(list(range(50)), 0.2)
        cosmos.refresh_statistics(workload)

    def test_single_processor_system(self, env):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors[:1], workload.space,
                        CosmosConfig(k=4, vmax=40))
        placement = cosmos.distribute(workload.queries[:20])
        assert set(placement.values()) == {processors[0]}


class TestTreeLeave:
    """Processor departure from the coordinator hierarchy."""

    def test_leave_removes_processor(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        tree.leave(processors[0])
        assert processors[0] not in tree.root.descendants()
        assert sorted(tree.root.descendants()) == sorted(processors[1:])
        for leaf in tree.leaf_clusters():
            assert leaf.coordinator == oracle.median(leaf.members)

    def test_leave_refreshes_internal_medians(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=2)
        # remove a leaf coordinator so its parent's member list must change
        victim = tree.leaf_clusters()[0].coordinator
        tree.leave(victim)
        for level in levels(tree)[1:]:
            for cluster in level:
                assert cluster.members == [
                    c.coordinator for c in cluster.children
                ]
                assert cluster.coordinator == oracle.median(cluster.members)

    def test_emptied_leaf_is_pruned(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=2)
        doomed = list(tree.leaf_clusters()[0].members)
        for node in doomed:
            tree.leave(node)
        assert all(leaf.members for leaf in tree.leaf_clusters())
        expected = sorted(set(processors) - set(doomed))
        assert sorted(tree.root.descendants()) == expected

    def test_join_then_leave_restores_membership(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors[:-1], oracle, k=4)
        newcomer = processors[-1]
        tree.join(newcomer)
        tree.leave(newcomer)
        assert sorted(tree.root.descendants()) == sorted(processors[:-1])

    def test_last_processor_rejected(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors[:1], oracle, k=4)
        with pytest.raises(ValueError):
            tree.leave(processors[0])

    def test_unknown_processor_rejected(self, env):
        _, oracle, _, processors, _ = env
        tree = build_coordinator_tree(processors, oracle, k=4)
        with pytest.raises(KeyError):
            tree.leave(-17)


class TestElasticMembership:
    """Runtime processor add/remove through the Cosmos facade."""

    def _fresh(self, env, procs=None):
        _, oracle, _, processors, workload = env
        procs = processors if procs is None else procs
        cosmos = Cosmos(oracle, procs, workload.space,
                        CosmosConfig(k=4, vmax=40))
        cosmos.distribute(workload.queries)
        return cosmos, workload

    def test_remove_processor_orphans_its_queries(self, env):
        _, _, _, processors, _ = env
        cosmos, workload = self._fresh(env)
        hosts = set(cosmos.placement.values())
        victim = sorted(hosts)[0]
        expected = sorted(
            q for q, h in cosmos.placement.items() if h == victim
        )
        orphans = cosmos.remove_processor(victim)
        assert orphans == expected
        assert victim not in cosmos.processors
        assert victim not in set(cosmos.placement.values())
        for q in orphans:
            assert q not in cosmos.placement
        # survivors keep their placement verbatim
        survivors = {q for q in cosmos.placement}
        assert survivors == {
            q.query_id for q in workload.queries
        } - set(orphans)

    def test_orphans_reinsert_onto_survivors(self, env):
        cosmos, workload = self._fresh(env)
        victim = sorted(set(cosmos.placement.values()))[0]
        orphans = cosmos.remove_processor(victim)
        specs = {q.query_id: q for q in workload.queries}
        for qid in orphans:
            host = cosmos.insert(specs[qid])
            assert host in cosmos.processors
            assert cosmos.placement[qid] == host

    def test_add_processor_becomes_placeable(self, env):
        _, _, _, processors, _ = env
        cosmos, workload = self._fresh(env, procs=processors[:-1])
        before = dict(cosmos.placement)
        newcomer = processors[-1]
        cosmos.add_processor(newcomer)
        assert newcomer in cosmos.processors
        assert newcomer in cosmos.tree.root.descendants()
        assert dict(cosmos.placement) == before, "join must not move queries"
        fresh = workload.new_queries(20, cosmos.processors)
        hosts = {cosmos.insert(q) for q in fresh}
        assert hosts <= set(cosmos.processors)
        cosmos.adapt()  # hierarchy stays functional after the rebuild

    def test_duplicate_add_rejected(self, env):
        _, _, _, processors, _ = env
        cosmos, _ = self._fresh(env)
        with pytest.raises(ValueError):
            cosmos.add_processor(processors[0])

    def test_membership_ops_deterministic(self, env):
        _, oracle, _, processors, workload = env

        def run():
            cosmos = Cosmos(oracle, processors, workload.space,
                            CosmosConfig(k=4, vmax=40))
            cosmos.distribute(workload.queries)
            victim = sorted(set(cosmos.placement.values()))[0]
            orphans = cosmos.remove_processor(victim)
            specs = {q.query_id: q for q in workload.queries}
            for qid in orphans:
                cosmos.insert(specs[qid])
            cosmos.adapt()
            return dict(cosmos.placement)

        assert run() == run()


class TestCosmosRemoval:
    """Query departure (the churn counterpart of online insertion)."""

    def _fresh(self, env, vmax=40, n=None):
        _, oracle, _, processors, workload = env
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=vmax))
        queries = workload.queries if n is None else workload.queries[:n]
        cosmos.distribute(queries)
        return cosmos, queries

    def test_remove_clears_placement_and_vertices(self, env):
        cosmos, queries = self._fresh(env)
        victim = queries[7].query_id
        assert cosmos.remove(victim)
        assert victim not in cosmos.placement
        for coord in cosmos.root.all_coordinators():
            for v in coord.vertices.values():
                assert victim not in v.members

    def test_remove_inside_coarse_vertex(self, env):
        # vmax far below the population forces coarse vertices at the root
        cosmos, queries = self._fresh(env, vmax=10)
        assert any(
            len(v.members) > 1 for v in cosmos.root.vertices.values()
        ), "expected coarse vertices at the root"
        victim = queries[3].query_id
        assert cosmos.remove(victim)
        for coord in cosmos.root.all_coordinators():
            for v in coord.vertices.values():
                assert victim not in v.members
                assert v.weight == pytest.approx(
                    sum(c.weight for c in v.children) if v.children else v.weight
                )

    def test_adapt_after_removal_keeps_query_gone(self, env):
        cosmos, queries = self._fresh(env, vmax=10)
        victims = [q.query_id for q in queries[:5]]
        for victim in victims:
            cosmos.remove(victim)
        cosmos.adapt()
        for victim in victims:
            assert victim not in cosmos.placement
        survivors = {q.query_id for q in queries} - set(victims)
        assert set(cosmos.placement) == survivors

    def test_insert_after_removal(self, env):
        _, oracle, _, processors, workload = env
        cosmos, queries = self._fresh(env)
        victim = queries[0].query_id
        cosmos.remove(victim)
        fresh = workload.new_queries(3, processors)
        for q in fresh:
            host = cosmos.insert(q)
            assert cosmos.placement[q.query_id] == host

    def test_remove_unknown_returns_false(self, env):
        cosmos, _ = self._fresh(env, n=20)
        assert not cosmos.remove(999999)
