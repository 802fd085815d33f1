"""Incremental optimizer parity: delta maintenance == full rebuild.

The optimizer delta-maintains its state across adaptation rounds --
graph mutations in place, per-vertex neighbour arrays that outlive
rounds, converged coordinator levels that skip their phases.
Every one of those shortcuts claims *bit-identical* results to the
full-rebuild reference (``tests/reference/full_rebuild.py``, no cached
neighbour array every round); these property-style tests drive randomized
insert / remove / adapt / perturb interleavings through both side by side
and assert exact equality of placements, per-coordinator vertex
aggregates and WEC.  The graph-level cases hold ``QueryGraph.wec`` on
mutated graphs to the scalar definition.
"""

import contextlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from line_oracle import line_network
from reference import flow_scan, full_rebuild, scalar_kernels
from test_fastpath_parity import content_sig

from repro.core import Cosmos, CosmosConfig
from repro.core import coordinator as coordinator_module
from repro.core import hierarchy as hierarchy_module
from repro.core.coarsening import plan_key, rebuild_edges
from repro.core.fastcost import CostWorkspace
from repro.core.graphs import (
    NetVertex,
    NVertex,
    build_query_graph,
    qvertex_from_query,
)
from repro.query.interest import SubstreamSpace, index_array, mask_of
from repro.query.workload import QuerySpec, WorkloadParams, generate_workload
from repro.topology import (
    LatencyOracle,
    TransitStubParams,
    generate_transit_stub,
    select_roles,
)

PARITY_SEEDS = list(range(8))


@pytest.fixture(scope="module")
def env():
    topo = generate_transit_stub(
        TransitStubParams(transit_domains=2, transit_nodes=3,
                          stubs_per_transit_node=3, stub_nodes=4),
        seed=3,
    )
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(topo, 5, 16, seed=4)
    return topo, oracle, sources, processors


def make_workload(env, seed, num_queries=100):
    _, _, sources, processors = env
    return generate_workload(
        WorkloadParams(num_substreams=400, num_queries=num_queries,
                       substreams_per_query=(8, 16)),
        sources, processors, seed=seed,
    )


def classes(production):
    """The block in which a ``Cosmos`` is built (or rebuilds its root) from
    production coordinators, or from the full-rebuild reference."""
    return contextlib.nullcontext() if production else full_rebuild.swapped()


def make_pair(env, workload, vmax=15):
    """Two Cosmos instances over one workload: production vs reference."""
    _, oracle, _, processors = env
    pair = []
    for production in (True, False):
        with classes(production):
            pair.append(Cosmos(
                oracle, processors, workload.space,
                CosmosConfig(k=4, vmax=vmax),
            ))
    assert type(pair[1].root) is full_rebuild.FullRebuildCoordinator
    return pair


def coord_fingerprint(coord):
    """Content signature of one coordinator's optimizer state.

    Coarse vertex *ids* embed a process-global counter and legitimately
    differ between two runs; member keys and aggregate signatures do not.
    """
    sigs = sorted(content_sig(v) for v in coord.vertices.values())
    # non-leaf targets are child coordinator names (instance-specific
    # counters too) -- normalize them to the child's cluster membership
    norm = {
        c.name: tuple(sorted(c.cluster.members)) for c in coord.children
    }
    assign = sorted(
        (plan_key(coord.vertices[vid]), norm.get(target, target))
        for vid, target in coord.assignment.items()
        if vid in coord.vertices
    )
    return sigs, assign


def assert_parity(ca, cb):
    assert dict(ca.placement) == dict(cb.placement)
    coords_a = ca.root.all_coordinators()
    coords_b = cb.root.all_coordinators()
    assert len(coords_a) == len(coords_b)
    for a, b in zip(coords_a, coords_b):
        # coordinator names embed a process-global counter and differ
        # between instances; pair by traversal order + cluster identity
        assert a.cluster.members == b.cluster.members
        assert coord_fingerprint(a) == coord_fingerprint(b)
        # WEC of the current assignment must agree bit for bit: it reads
        # the graphs the two sides' placements were chosen on
        wa = a.qg.wec(a.assignment, a.ng)
        wb = b.qg.wec(b.assignment, b.ng)
        assert wa == wb


class TestCosmosModeParity:
    """Randomized interleavings drive both modes to identical states."""

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_interleaved_ops_bit_identical(self, env, seed):
        _, _, _, processors = env
        workload = make_workload(env, seed=100 + seed)
        ca, cb = make_pair(env, workload)
        rng = random.Random(9000 + seed)

        for cosmos in (ca, cb):
            cosmos.distribute(workload.queries)
        assert_parity(ca, cb)

        live = [q.query_id for q in workload.queries]
        specs = {q.query_id: q for q in workload.queries}
        for _ in range(6):
            r = rng.random()
            if r < 0.35:
                fresh = workload.new_queries(rng.randint(1, 5), processors)
                for q in fresh:
                    specs[q.query_id] = q
                    live.append(q.query_id)
                    ha = ca.insert(q)
                    hb = cb.insert(q)
                    assert ha == hb
            elif r < 0.60 and len(live) > 10:
                for qid in rng.sample(live, rng.randint(1, 4)):
                    live.remove(qid)
                    assert ca.remove(qid) == cb.remove(qid)
            elif r < 0.80:
                ca.adapt()
                cb.adapt()
            else:
                ids = rng.sample(range(len(workload.space)), 20)
                workload.space.perturb_rates(ids, rng.choice([0.25, 4.0]))
                for cosmos in (ca, cb):
                    cosmos.refresh_statistics(workload)
                ca.adapt()
                cb.adapt()
            assert dict(ca.placement) == dict(cb.placement)
        assert_parity(ca, cb)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_membership_churn_parity(self, env, seed):
        """Processor join/leave rebuilds the hierarchy (and re-coarsens
        every level); placements must not diverge."""
        workload = make_workload(env, seed=200 + seed)
        ca, cb = make_pair(env, workload)
        for cosmos in (ca, cb):
            cosmos.distribute(workload.queries)
        specs = {q.query_id: q for q in workload.queries}

        victim = sorted(set(ca.placement.values()))[seed]
        orphans_a = ca.remove_processor(victim)
        with classes(False):
            orphans_b = cb.remove_processor(victim)
        assert type(cb.root) is full_rebuild.FullRebuildCoordinator
        assert orphans_a == orphans_b
        for qid in orphans_a:
            assert ca.insert(specs[qid]) == cb.insert(specs[qid])
        ca.adapt()
        cb.adapt()
        assert_parity(ca, cb)

        ca.add_processor(victim)
        with classes(False):
            cb.add_processor(victim)
        ca.adapt()
        cb.adapt()
        assert_parity(ca, cb)

    def test_repeat_adapt_converges_and_skips(self, env):
        from repro.obs.registry import MetricsRegistry, set_active

        workload = make_workload(env, seed=300)
        ca, cb = make_pair(env, workload)
        for cosmos in (ca, cb):
            cosmos.distribute(workload.queries)
        # steady-state rounds: converged coordinator levels must skip
        # their optimization phases (tie-break churn may keep a level
        # busy indefinitely, so global quiescence is not asserted) while
        # the two modes stay in lockstep round after round
        reg = MetricsRegistry()
        set_active(reg)
        try:
            for _ in range(5):
                ca.adapt()
                cb.adapt()
                assert dict(ca.placement) == dict(cb.placement)
        finally:
            set_active(None)
        assert reg.counters.get("opt.adapt_skips", 0) > 0
        # skipped levels really did no per-round work: every coordinator
        # that reported zero moves kept its assignment verbatim
        for a, b in zip(ca.root.all_coordinators(),
                        cb.root.all_coordinators()):
            assert (a._last_moves == 0) == (b._last_moves == 0)
            if a._last_moves == 0:
                assert coord_fingerprint(a) == coord_fingerprint(b)


class TestRemovalCycles:
    """Insert -> remove -> insert cycles neither leak vertices nor leave
    a graph whose WEC departs from the definition."""

    def test_long_churn_cycle_no_leaks(self, env):
        _, oracle, _, processors = env
        workload = make_workload(env, seed=400, num_queries=80)
        cosmos = Cosmos(
            oracle, processors, workload.space, CosmosConfig(k=4, vmax=10),
        )
        cosmos.distribute(workload.queries)
        rng = random.Random(42)
        live = [q.query_id for q in workload.queries]
        specs = {q.query_id: q for q in workload.queries}

        for round_no in range(10):
            victims = rng.sample(live, 6)
            for qid in victims:
                live.remove(qid)
                assert cosmos.remove(qid)
            fresh = workload.new_queries(6, processors)
            for q in fresh:
                specs[q.query_id] = q
                live.append(q.query_id)
                cosmos.insert(q)
            if round_no % 3 == 2:
                cosmos.adapt()

        live_set = set(live)
        assert set(cosmos.placement) == live_set
        for coord in cosmos.root.all_coordinators():
            members = [
                m for v in coord.vertices.values() for m in v.members
            ]
            # no departed query survives in any (coarse) vertex, and no
            # member is double-counted after strip/compress cycles
            assert set(members) <= live_set
            assert len(members) == len(set(members))
            for v in coord.vertices.values():
                if v.children:
                    assert v.weight == pytest.approx(
                        sum(c.weight for c in v.children)
                    )
            # the delta-maintained graph's WEC is still the definition's
            mapping = {
                vid: t for vid, t in coord.assignment.items()
                if vid in coord.qg.qverts
            }
            assert coord.qg.wec(mapping, coord.ng) == pytest.approx(
                scalar_kernels.wec(coord.qg, mapping, coord.ng),
                rel=1e-12, abs=1e-12,
            )
            # no orphaned n-vertices accumulate in the live graph
            for nvid in coord.qg.nverts:
                assert coord.qg.neighbors(nvid), f"orphan n-vertex {nvid}"


class TestSnapshotAndWorkspaceParity:
    """Randomized mutation sequences: the WEC of the mutated graph is the
    definition's, and a reused workspace equals a fresh one -- also
    across the slot table's hazards: a compaction renumbering every slot,
    a vid re-added in a fresh slot, an n-vertex newer than the
    workspace."""

    @pytest.fixture(scope="class")
    def small(self):
        space = SubstreamSpace.random(300, sources=[0, 40, 80], seed=11)
        ng = line_network(
            [
                NetVertex(vid=f"P{i}", site=i * 5, capability=1.0,
                          covers=frozenset([i * 5]))
                for i in range(5)
            ]
        )
        return space, ng

    def _make_graph(self, space, ng, n, seed):
        rng = random.Random(seed)
        verts = []
        for i in range(n):
            ids = rng.sample(range(len(space)), rng.randint(4, 14))
            mask = mask_of(ids)
            verts.append(qvertex_from_query(
                QuerySpec(query_id=i, proxy=rng.choice([0, 5, 10]),
                          mask=mask, group=0, load=0.01 * space.rate(mask),
                          result_rate=1.0, state_size=rng.uniform(1, 4)),
                space,
            ))
        return build_query_graph(verts, space, ng)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_patched_arrays_and_synced_workspace(self, small, seed):
        space, ng = small
        g = self._make_graph(space, ng, 24, seed)
        ws = CostWorkspace(g, ng)
        rng = random.Random(seed * 13 + 1)
        next_qid = 1000

        for step in range(120):
            op = rng.random()
            qvids = list(g.qverts)
            xvids = [vid for vid in g.nverts if vid[0] == "x"]
            if op < 0.40 and len(qvids) >= 2:
                a, b = rng.sample(qvids, 2)
                if rng.random() < 0.3:
                    g.set_edge(a, b, 0.0)  # a zero-weight delete
                else:
                    g.set_edge(a, b, rng.uniform(0.1, 5.0))
            elif op < 0.50:
                # an n-n edge headed by an n-vertex no target covers
                node = rng.randrange(30)
                if ("x", node) not in g.nverts:
                    g.add_nvertex(NVertex(vid=("x", node), node=node))
                other = rng.choice([vid for vid in g.nverts
                                    if vid != ("x", node)])
                g.set_edge(("x", node), other, rng.uniform(0.1, 2.0))
            elif op < 0.65:
                ids = rng.sample(range(len(space)), rng.randint(4, 14))
                mask = mask_of(ids)
                v = qvertex_from_query(
                    QuerySpec(query_id=next_qid, proxy=rng.choice([0, 5, 10]),
                              mask=mask, group=0,
                              load=0.01 * space.rate(mask),
                              result_rate=1.0, state_size=1.0),
                    space,
                )
                next_qid += 1
                g.add_qvertex(v)
                if qvids:
                    g.set_edge(v.vid, rng.choice(qvids), rng.uniform(0.1, 2))
            elif op < 0.80 and len(qvids) > 5:
                g.remove_vertex(rng.choice(qvids + xvids))
            else:
                pass  # no-op round: the values must still agree

            if step % 10 == 9:
                mapping = {
                    vid: rng.choice(ng.ids()) for vid in g.qverts
                }
                assert g.wec(mapping, ng) == pytest.approx(
                    scalar_kernels.wec(g, mapping, ng), rel=1e-12, abs=1e-12
                )
                ws.init_positions(mapping)
                ws2 = CostWorkspace(g, ng)
                ws2.init_positions(mapping)
                for vid in list(g.qverts)[:8]:
                    got = ws.attach_costs(vid)
                    assert np.array_equal(got, ws2.attach_costs(vid))
                    assert np.array_equal(got, flow_scan.single_row(ws2, vid))

    @staticmethod
    def _assert_as_fresh(g, ng, ws, mapping):
        """``ws``, reused, costs every q-vertex exactly as a fresh one --
        and as the kernel spelled out over the graph's rows, which reads
        no cached neighbour array (both workspaces read the graph's)."""
        fresh = CostWorkspace(g, ng)
        for w in (ws, fresh):
            w.init_positions(mapping)
        assert np.array_equal(ws.pos, fresh.pos)
        vids = list(g.qverts)
        for vid in vids:
            got = ws.attach_costs(vid)
            assert np.array_equal(got, fresh.attach_costs(vid))
            assert np.array_equal(got, flow_scan.single_row(fresh, vid))
        assert np.array_equal(
            ws.attach_costs_batch(vids), fresh.attach_costs_batch(vids)
        )

    @staticmethod
    def _warm(g, ng, seed):
        """A workspace over ``g`` that has cached every neighbour array,
        and the mapping it used."""
        rng = random.Random(seed)
        mapping = {vid: rng.choice(ng.ids()) for vid in g.qverts}
        ws = CostWorkspace(g, ng)
        ws.init_positions(mapping)
        ws.attach_costs_batch(list(g.qverts))
        return ws, mapping

    @pytest.mark.parametrize("seed", PARITY_SEEDS[:4])
    def test_workspace_reused_across_a_compaction(self, small, seed):
        space, ng = small
        g = self._make_graph(space, ng, 24, seed)
        ws, mapping = self._warm(g, ng, seed)
        gone = list(g.qverts)[1::5]
        for vid in gone:
            g.remove_vertex(vid)
            del mapping[vid]
        before = {vid: g.slot(vid) for vid in g.qverts}
        rebuild_edges(g, space, 6)
        # the dead slots went, and the live ones moved down
        assert g.slot_count == len(g.qverts) + len(g.nverts)
        assert any(g.slot(vid) != s for vid, s in before.items())
        self._assert_as_fresh(g, ng, ws, mapping)

    @pytest.mark.parametrize("seed", PARITY_SEEDS[:4])
    def test_vertex_removed_and_readded_under_its_vid(self, small, seed):
        space, ng = small
        g = self._make_graph(space, ng, 24, seed)
        ws, mapping = self._warm(g, ng, seed)
        v = list(g.qverts.values())[3]
        old_slot = g.slot(v.vid)
        edges = list(g.neighbors(v.vid).items())
        g.remove_vertex(v.vid)
        g.add_qvertex(v)
        for nbr, w in edges[::2]:
            g.set_edge(v.vid, nbr, w)
        assert g.slot(v.vid) != old_slot
        # the neighbours had cached arrays naming the old slot
        self._assert_as_fresh(g, ng, ws, mapping)

    @pytest.mark.parametrize("seed", PARITY_SEEDS[:4])
    def test_nvertex_added_after_the_workspace(self, small, seed):
        space, ng = small
        g = self._make_graph(space, ng, 24, seed)
        ws, mapping = self._warm(g, ng, seed)
        late = [NVertex(vid=("x", 3), node=3),
                NVertex(vid=("x", 5), node=5, clu=ng.covering_vertex(5))]
        qvids = list(g.qverts)
        for k, nv in enumerate(late):
            g.add_nvertex(nv)
            for vid in qvids[k::3]:
                g.add_edge(vid, nv.vid, 0.5 + k)
        assert g.slot(late[0].vid) >= ws.pos.size
        self._assert_as_fresh(g, ng, ws, mapping)
        assert ws.pos[g.slot(late[0].vid)] == 3
        assert ws.pos[g.slot(late[1].vid)] == ng.site(late[1].clu)


# ----------------------------------------------------------------------
# path-routed removal == the full-sweep removal it replaced
# ----------------------------------------------------------------------


def _reference_remove_level(coord, query_id):
    """The pre-index removal, kept verbatim as the oracle: every level of
    the subtree linear-scans its vertices' member tuples for the owner."""
    found = False
    owner_vid = next(
        (vid for vid, v in coord.vertices.items() if query_id in v.members),
        None,
    )
    if owner_vid is not None:
        found = True
        v = coord.vertices[owner_vid]
        if v.members == (query_id,):
            del coord.vertices[owner_vid]
            coord.assignment.pop(owner_vid, None)
            if owner_vid in coord.qg.qverts:
                nbrs = [
                    n for n in coord.qg.neighbors(owner_vid)
                    if n in coord.qg.nverts
                ]
                coord.qg.remove_vertex(owner_vid)
                for n in nbrs:
                    if not coord.qg.neighbors(n):
                        coord.qg.remove_vertex(n)
        else:
            coordinator_module._strip_member(v, query_id)
            if owner_vid in coord.qg.qverts:
                coord._refresh_stripped_edges(v)
        coord._stats_dirty = True
        coord._subtree_quiet = False
    for child in coord.children:
        if _reference_remove_level(child, query_id):
            found = True
    return found


def reference_remove(cosmos, query_id):
    """``Cosmos.remove`` over the full-sweep oracle, with its tree-wide
    routing-state invalidation."""
    cosmos._known_queries.pop(query_id, None)
    found = _reference_remove_level(cosmos.root, query_id)
    if found:
        for coord in cosmos.root.all_coordinators():
            coord._invalidate_routing_state()
    cosmos.root.placement.pop(query_id, None)
    return found


def edge_fingerprint(coord):
    """``qg.edges()`` with instance-specific coarse ids replaced by member
    keys; weights compared exactly."""
    keys = {vid: ("q", plan_key(v)) for vid, v in coord.qg.qverts.items()}
    keys.update((vid, vid) for vid in coord.qg.nverts)
    return sorted(
        tuple(sorted((keys[a], keys[b]))) + (w,)
        for a, b, w in coord.qg.edges()
    )


def assert_same_trees(ca, cb):
    """Every piece of optimizer state a removal touches, level by level."""
    assert dict(ca.placement) == dict(cb.placement)
    coords_a = ca.root.all_coordinators()
    coords_b = cb.root.all_coordinators()
    assert len(coords_a) == len(coords_b)
    for a, b in zip(coords_a, coords_b):
        assert a.cluster.members == b.cluster.members
        assert coord_fingerprint(a) == coord_fingerprint(b)
        assert edge_fingerprint(a) == edge_fingerprint(b)
        assert (a._stats_dirty, a._subtree_quiet, a._edges_stale,
                a._last_moves) == (b._stats_dirty, b._subtree_quiet,
                                   b._edges_stale, b._last_moves)
    assert_owner_index(ca)


def assert_owner_index(cosmos):
    """A built owner index equals one rebuilt from scratch (insert,
    removal and ``_replace_pair`` kept it current in place)."""
    for coord in cosmos.root.all_coordinators():
        if coord._owners_of is coord.vertices:
            assert coord._owners == {
                m: vid for vid, v in coord.vertices.items() for m in v.members
            }


def report_tuple(report):
    return (report.migrated_queries, report.migrated_state,
            report.coordinator_moves, report.refinement_moves)


@pytest.fixture(scope="module")
def deep_env(env):
    """32 processors: a three-level tree (root, 2 mid, 8 leaves) whose
    upper levels hold dozens of coarse vertices at ``vmax=40``."""
    topo, oracle, _, _ = env
    sources, processors = select_roles(topo, 5, 32, seed=4)
    return topo, oracle, sources, processors


def deep_workload(deep_env, seed):
    return make_workload(deep_env, seed=seed, num_queries=96)


def twin_cosmos(env, workload, production=True):
    """Two Cosmos instances that behave identically: coordinator names
    embed a process-global cluster counter and some exact-tie breaks order
    them by ``str``, so both trees are numbered from the same start.
    ``production=False`` builds both from the full-rebuild reference."""
    _, oracle, _, processors = env
    twins = []
    for _ in range(2):
        hierarchy_module._cluster_ids = itertools.count(10_000)
        with classes(production):
            twins.append(Cosmos(oracle, processors, workload.space,
                                CosmosConfig(k=4, vmax=40)))
    return twins


class RemovalPair:
    """Two identical Cosmos instances; ``fast`` removes through the
    path-routed production code, ``ref`` through the full-sweep oracle.
    Both run on production coordinators or both on the full-rebuild
    reference (``production``)."""

    def __init__(self, env, workload, production):
        self.processors = env[3]
        self.workload = workload
        self.production = production
        self.fast, self.ref = twin_cosmos(env, workload, production)
        for cosmos in (self.fast, self.ref):
            cosmos.distribute(workload.queries)
        self.live = [q.query_id for q in workload.queries]
        self.specs = {q.query_id: q for q in workload.queries}
        assert_same_trees(self.fast, self.ref)

    def insert(self, count):
        fresh = self.workload.new_queries(count, self.processors)
        for q in fresh:
            self.specs[q.query_id] = q
            self.live.append(q.query_id)
            # same host <=> same routing state (path-only invalidation
            # against the oracle's tree-wide one)
            assert self.fast.insert(q) == self.ref.insert(q)
        return [q.query_id for q in fresh]

    def remove(self, query_id):
        self.live.remove(query_id)
        found = self.fast.remove(query_id)
        assert found == reference_remove(self.ref, query_id)
        assert_same_trees(self.fast, self.ref)
        return found

    def adapt(self):
        ra, rb = self.fast.adapt(), self.ref.adapt()
        assert report_tuple(ra) == report_tuple(rb)
        assert_same_trees(self.fast, self.ref)
        return ra

    def classes(self):
        """The block membership changes of this pair run in."""
        return classes(self.production)

    def refresh(self, rng):
        ids = rng.sample(self.live, max(1, len(self.live) // 10))
        loads = {q: self.specs[q].load * rng.uniform(0.5, 2.0) for q in ids}
        for cosmos in (self.fast, self.ref):
            cosmos.refresh_measured_loads(dict(loads))


@pytest.mark.parametrize("production", [True, False])
class TestRemovalEquivalence:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_interleavings(self, deep_env, seed, production):
        workload = deep_workload(deep_env, 600 + seed)
        pair = RemovalPair(deep_env, workload, production)
        assert pair.fast.tree_height() == 3
        rng = random.Random(7000 + seed)
        for _ in range(10):
            r = rng.random()
            if r < 0.30:
                pair.insert(rng.randint(1, 6))
            elif r < 0.65 and len(pair.live) > 12:
                for qid in rng.sample(pair.live, rng.randint(1, 5)):
                    pair.remove(qid)
            elif r < 0.80:
                pair.refresh(rng)
            elif r < 0.90:
                ids = rng.sample(range(len(workload.space)), 20)
                workload.space.perturb_rates(ids, rng.choice([0.25, 4.0]))
                for cosmos in (pair.fast, pair.ref):
                    cosmos.refresh_statistics(workload)
            else:
                pair.adapt()
        pair.adapt()

    def test_query_inserted_since_last_adapt(self, deep_env, production):
        pair = RemovalPair(deep_env, deep_workload(deep_env, 620), production)
        pair.adapt()
        for qid in pair.insert(4):
            assert pair.remove(qid)
        pair.adapt()

    def test_owner_already_stripped_by_ancestor(self, deep_env, production):
        """Straight after distribute adjacent levels share coarse objects:
        the root's strip cascades, the levels below miss."""
        pair = RemovalPair(deep_env, deep_workload(deep_env, 621), production)
        coarse = [
            v for v in pair.fast.root.vertices.values() if len(v.members) >= 4
        ]
        assert coarse, "distribute left no coarse vertex at the root"
        for qid in coarse[0].members[:2]:
            assert pair.remove(qid)
        pair.adapt()

    def test_last_member_of_a_coarse_vertex(self, deep_env, production):
        pair = RemovalPair(deep_env, deep_workload(deep_env, 622), production)
        victim = min(
            (v for v in pair.fast.root.vertices.values() if v.children),
            key=lambda v: len(v.members),
        )
        vid, members = victim.vid, list(victim.members)
        for qid in members:
            assert pair.remove(qid)
        assert vid not in pair.fast.root.vertices
        pair.adapt()

    def test_right_after_compress_merged_its_vertex(self, deep_env, production):
        pair = RemovalPair(deep_env, deep_workload(deep_env, 623), production)
        inserted = pair.insert(100)  # root now exceeds 3 * vmax q-vertices
        pair.adapt()                # ... so this round compresses it
        root = pair.fast.root
        merged = [
            qid for qid in inserted
            if ("q", qid) not in root.vertices and qid in pair.fast.placement
        ]
        assert merged, "no inserted query was merged by _maybe_compress"
        for qid in merged[:5]:
            assert pair.remove(qid)
        pair.adapt()

    def test_after_membership_rebuilt_the_root(self, deep_env, production):
        pair = RemovalPair(deep_env, deep_workload(deep_env, 624), production)
        rng = random.Random(5)
        victim = sorted(set(pair.fast.placement.values()))[1]
        with pair.classes():
            orphans = pair.fast.remove_processor(victim)
            assert orphans == pair.ref.remove_processor(victim)
        # an orphan has no placement entry: the sweep finds nothing either
        assert pair.fast.remove(orphans[0]) is False
        assert reference_remove(pair.ref, orphans[0]) is False
        pair.live = [q for q in pair.live if q not in orphans]
        for qid in rng.sample(pair.live, 5):
            assert pair.remove(qid)
        with pair.classes():
            pair.fast.add_processor(victim)
            pair.ref.add_processor(victim)
        for qid in rng.sample(pair.live, 5):
            assert pair.remove(qid)
        pair.adapt()


class TestRemoveHops:
    def _counters(self, fn):
        from repro.obs.registry import MetricsRegistry, set_active

        reg = MetricsRegistry()
        set_active(reg)
        try:
            result = fn()
        finally:
            set_active(None)
        return result, reg.counters

    def test_placed_query_visits_one_coordinator_per_level(self, env):
        _, oracle, _, processors = env
        workload = make_workload(env, seed=640)
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=15))
        cosmos.distribute(workload.queries)
        assert cosmos.coordinator_count() > cosmos.tree_height()
        qid = workload.queries[3].query_id
        found, counters = self._counters(lambda: cosmos.remove(qid))
        assert found
        assert counters["opt.remove_hops"] == cosmos.tree_height()
        assert counters["opt.removals"] == 1

    def test_unplaced_id_sweeps_and_reports_found_correctly(self, env):
        _, oracle, _, processors = env
        workload = make_workload(env, seed=641)
        cosmos = Cosmos(oracle, processors, workload.space,
                        CosmosConfig(k=4, vmax=15))
        cosmos.distribute(workload.queries)
        # never seen: nothing found, every coordinator looked at
        found, counters = self._counters(lambda: cosmos.remove(10**9))
        assert found is False
        assert counters["opt.remove_hops"] == cosmos.coordinator_count()
        assert "opt.removals" not in counters
        # in the tree but missing from the placement: the sweep finds it
        qid = workload.queries[5].query_id
        del cosmos.placement[qid]
        found, counters = self._counters(lambda: cosmos.remove(qid))
        assert found is True
        assert counters["opt.remove_hops"] == cosmos.coordinator_count()
        for coord in cosmos.root.all_coordinators():
            assert all(qid not in v.members for v in coord.vertices.values())


class TestOwnerIndex:
    def test_compress_keeps_a_built_index_current(self, deep_env):
        """``_replace_pair`` re-points the merged members in place (inside
        an adaptation round the index is stale anyway, so drive it
        directly)."""
        workload = deep_workload(deep_env, 650)
        cosmos = twin_cosmos(deep_env, workload)[0]
        cosmos.distribute(workload.queries)
        fresh = workload.new_queries(100, deep_env[3])
        for q in fresh:
            cosmos.insert(q)
        root = cosmos.root
        index = root._owner_index()
        before = len(root.vertices)
        root._sync_graph(list(root.vertices.values()))  # inserts join qg
        root._maybe_compress()
        assert len(root.vertices) < before
        assert root._owner_index() is index  # not rebuilt ...
        assert_owner_index(cosmos)           # ... and still exact
        merged = [q.query_id for q in fresh
                  if ("q", q.query_id) not in root.vertices]
        assert merged
        assert cosmos.remove(merged[0])
        for coord in root.all_coordinators():
            assert all(
                merged[0] not in v.members for v in coord.vertices.values()
            )


    def test_compress_releases_the_merged_pairs_index_arrays(self, deep_env):
        """A pair ``_replace_pair`` folds away lives on only as the merged
        vertex's ``children``: like a pair coarsening merges, it must not
        pin its cached index array (a later reader re-unpacks it)."""
        workload = deep_workload(deep_env, 650)
        cosmos = twin_cosmos(deep_env, workload)[0]
        cosmos.distribute(workload.queries)
        for q in workload.new_queries(100, deep_env[3]):
            cosmos.insert(q)
        root = cosmos.root
        root._sync_graph(list(root.vertices.values()))
        before = dict(root.vertices)
        for v in before.values():
            v.indices  # every vertex holds its array
        root._maybe_compress()
        merged = [v for vid, v in root.vertices.items() if vid not in before]
        assert merged
        for v in merged:
            for child in v.children:
                assert child._idx is None
                assert np.array_equal(child.indices, index_array(child.mask))


class TestRefreshInvalidatesRouting:
    def test_insert_sees_refreshed_loads(self, deep_env):
        """Eqn 3.1 feasibility is checked against post-refresh loads even
        with no adapt/remove between the refresh and the insert."""
        workload = deep_workload(deep_env, 660)
        warm, cold = twin_cosmos(deep_env, workload)
        probe = workload.new_queries(1, deep_env[3])[0]
        light = probe.load
        total = sum(q.load for q in workload.queries)
        hosts = []
        for cosmos in (warm, cold):
            cosmos.distribute(workload.queries[:-1])
            for _ in range(4):  # balance first: feasible children exist
                cosmos.adapt()
            # inserting warms the routing state along the probe's path
            hosts.append(cosmos.insert(probe))
        assert hosts[0] == hosts[1]
        # the probe turns out heavier than everything else together: the
        # child holding it is far over its share
        for cosmos in (warm, cold):
            cosmos.refresh_measured_loads({probe.query_id: 10.0 * total})
        # ground truth: every coordinator recomputes loads from scratch
        for coord in cold.root.all_coordinators():
            coord._invalidate_routing_state()

        # a twin has the same WEC-cheapest route; only load can divert it
        twin = replace(probe, query_id=probe.query_id + 10**6, load=light)
        assert warm.insert(twin) == cold.insert(twin) != hosts[0]
        # at the level where the twin left the probe's route, the probe's
        # child is infeasible and the chosen one is not
        for coord in warm.root._path_to(hosts[0]):
            hot = coord.assignment[("q", probe.query_id)]
            target = coord.assignment[("q", twin.query_id)]
            if target != hot:
                break
        coord._invalidate_routing_state()
        coord._ensure_routing_state()
        share = ((1.0 + coord.alpha) * coord._total_weight
                 / coord.ng.total_capability())
        assert coord._loads[hot] > share * coord.ng.capability(hot)
        assert coord._loads[target] <= share * coord.ng.capability(target)
