"""Fast-path parity: vectorized kernels match the pure-Python references.

Every vectorised kernel introduced for the optimizer keeps its reference
implementation; these property-style tests assert both paths agree on
randomized workloads:

* ``QueryGraph.wec`` (edge-array reduction) vs ``scalar_kernels.wec``
* ``diffusion_solution`` (closed form) vs ``scalar_kernels.diffusion_solution``
* ``coarsen`` vs ``pair_coarsening.coarsen`` (dict work graph, matcher,
  pair-by-pair collapse) -- identical graphs, compared exactly (weights,
  vertex order, merge steps, coarsening counters; edges as a set)
* ``CostWorkspace.attach_costs`` vs ``scalar_kernels.attach_cost``
"""

import random
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coarsening
from repro.core.coarsening import coarsen, plan_key
from repro.core.diffusion import diffusion_solution
from repro.core.fastcost import CostWorkspace
from repro.core.graphs import (
    NetVertex,
    NetworkGraph,
    build_query_graph,
    qvertex_from_query,
)
from repro.core.mapping import map_graph
from repro.obs.registry import MetricsRegistry, set_active
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec

from line_oracle import line_network
from reference import graph_build, scalar_kernels
from reference import pair_coarsening


@pytest.fixture(scope="module")
def space():
    return SubstreamSpace.random(400, sources=[0, 50, 100], seed=7)


@pytest.fixture(scope="module")
def ng():
    return line_network(
        [
            NetVertex(vid=f"P{i}", site=i * 7, capability=1.0,
                      covers=frozenset([i * 7]))
            for i in range(5)
        ]
    )


def make_queries(space, n, seed=0, universe=None):
    """``n`` random queries over the substream ids in ``universe``."""
    rng = random.Random(seed)
    universe = range(len(space)) if universe is None else universe
    queries = []
    for i in range(n):
        ids = rng.sample(universe, rng.randint(4, 18))
        mask = mask_of(ids)
        queries.append(
            QuerySpec(
                query_id=i,
                proxy=rng.choice([0, 7, 14, 21, 28]),
                mask=mask,
                group=0,
                load=0.01 * space.rate(mask),
                result_rate=1.0,
                state_size=rng.uniform(1, 5),
            )
        )
    return queries


def graph_of(space, ng, queries):
    return build_query_graph(
        [qvertex_from_query(q, space) for q in queries], space, ng
    )


def make_graph(space, ng, n, seed=0):
    return graph_of(space, ng, make_queries(space, n, seed))


def random_mapping(g, ng, seed=0):
    rng = random.Random(seed)
    targets = ng.ids()
    return {vid: rng.choice(targets) for vid in g.qverts}


def content_sig(v):
    """Everything a q-vertex's coarsening aggregates consist of, named by
    its member key (coarse ids differ between runs)."""
    return (
        plan_key(v),
        v.weight,
        v.mask,
        v.state_size,
        tuple(sorted(v.source_rates.items())),
        tuple(sorted(v.proxy_rates.items())),
    )


class TestWECParity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_vectorized_matches_reference(self, space, ng, seed):
        g = make_graph(space, ng, 30, seed=seed % 7)
        mapping = random_mapping(g, ng, seed=seed)
        fast = g.wec(mapping, ng)
        ref = scalar_kernels.wec(g, mapping, ng)
        assert fast == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_snapshot_cache_invalidated_on_mutation(self, space, ng):
        # each evaluation reads the graph as it is now
        g = make_graph(space, ng, 12, seed=1)
        mapping = random_mapping(g, ng, seed=1)
        before = g.wec(mapping, ng)
        vids = list(g.qverts)
        g.set_edge(vids[0], vids[1], 123.0)
        after = g.wec(mapping, ng)
        assert after == pytest.approx(scalar_kernels.wec(g, mapping, ng))
        assert after != pytest.approx(before)

    def test_snapshot_invalidated_by_clear_edges(self, space, ng):
        # the per-edge rebuild resets adjacency via clear_edges(); the
        # WEC must follow it even when no edge is re-added
        g = make_graph(space, ng, 10, seed=2)
        mapping = random_mapping(g, ng, seed=2)
        assert g.wec(mapping, ng) > 0.0
        graph_build.clear_edges(g)
        assert g.wec(mapping, ng) == 0.0

    def test_empty_graph(self, space, ng):
        g = build_query_graph([], space, ng)
        assert g.wec({}, ng) == 0.0

    def test_mapped_graph_wec_consistent(self, space, ng):
        # end to end: the mapping pipeline's reported WEC agrees with
        # both evaluation paths
        g = make_graph(space, ng, 30, seed=4)
        result = map_graph(g, ng)
        assert result.wec == pytest.approx(g.wec(result.mapping, ng))
        assert result.wec == pytest.approx(
            scalar_kernels.wec(g, result.mapping, ng)
        )


class TestDiffusionParity:
    @settings(max_examples=50, deadline=None)
    @given(
        loads=st.lists(
            st.floats(0.0, 100.0, allow_subnormal=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_flows_match_reference(self, loads):
        if sum(loads) <= 1e-6:
            return
        nodes = {f"n{i}": l for i, l in enumerate(loads)}
        targets = {n: 1.0 for n in nodes}
        fast = diffusion_solution(nodes, targets)
        ref = scalar_kernels.diffusion_solution(nodes, targets)
        keys = set(fast) | set(ref)
        for k in keys:
            assert fast.get(k, 0.0) == pytest.approx(
                ref.get(k, 0.0), abs=1e-9
            )

    def test_both_reject_zero_targets(self):
        for fn in (diffusion_solution, scalar_kernels.diffusion_solution):
            with pytest.raises(ValueError):
                fn({"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0})

    def test_both_trivial_on_single_node(self):
        assert diffusion_solution({"a": 3.0}, {"a": 1.0}) == {}
        assert scalar_kernels.diffusion_solution({"a": 3.0}, {"a": 1.0}) == {}


def coarse_facts(cg):
    """Everything two coarsening runs of one input must agree on, exactly.

    Coarse vertex ids come from a process-wide counter, so vertices are
    named by their member keys.  The edges are a set: no production path
    reads the result graph's edge order.
    """

    def name(vid):
        return plan_key(cg.qverts[vid]) if vid in cg.qverts else vid

    return {
        # in vertex order; a signature starts with the member key
        "sigs": [content_sig(v) for v in cg.qverts.values()],
        "nverts": list(cg.nverts),
        "edges": {
            (frozenset((name(a), name(b))), w) for a, b, w in cg.edges()
        },
        "total_qweight": cg.total_qweight(),
    }


@contextmanager
def recording_merges(steps):
    """Append ``(member key, member key)`` to ``steps`` for every merge
    inside the block, in execution order."""
    real = coarsening.merge_qvertices

    def merge(u, v, origin=None):
        steps.append((plan_key(u), plan_key(v)))
        return real(u, v, origin=origin)

    coarsening.merge_qvertices = merge
    try:
        yield
    finally:
        coarsening.merge_qvertices = real


COUNTERS = (
    "opt.coarsen_passes", "opt.coarsen_merges", "opt.coarsen_overlap_pairs"
)


def coarsen_both(g, vmax, space, seed, **kwargs):
    """``(fast facts, reference facts, fast graph, fast-run counters)``;
    each side's facts include its merge steps and its coarsening
    counters."""
    reg = MetricsRegistry()
    set_active(reg)
    fast_steps = []
    try:
        with recording_merges(fast_steps):
            fast = coarsen(g, vmax, space, rng=random.Random(seed), **kwargs)
    finally:
        set_active(None)
    ref_steps = []
    log = []
    with recording_merges(ref_steps):
        ref = pair_coarsening.coarsen(
            g, vmax, space, rng=random.Random(seed), log=log, **kwargs
        )
    fast_facts = dict(
        coarse_facts(fast), steps=fast_steps,
        counters={name: reg.counters.get(name, 0) for name in COUNTERS},
    )
    ref_facts = dict(
        coarse_facts(ref), steps=ref_steps,
        counters=pair_coarsening.counters(log, len(ref_steps)),
    )
    return fast_facts, ref_facts, fast, reg.counters


class TestCoarseningParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), vmax=st.integers(5, 30))
    def test_identical_partition_and_edges(self, space, ng, seed, vmax):
        g = make_graph(space, ng, 40, seed=seed % 5)
        fast, ref, _, _ = coarsen_both(g, vmax, space, seed)
        assert fast == ref

    def test_three_or_more_passes(self, space, ng):
        g = make_graph(space, ng, 40, seed=1)
        vmax = len(g.nverts) + 2
        fast, ref, cg, counters = coarsen_both(g, vmax, space, seed=11)
        assert fast == ref
        assert len(cg.qverts) + len(cg.nverts) == vmax
        assert counters["opt.coarsen_passes"] >= 3
        assert counters["opt.coarsen_merges"] == 40 - len(cg.qverts)

    def test_vmax_cuts_a_pass_in_the_middle(self, space, ng):
        g = make_graph(space, ng, 40, seed=2)
        # the same first pass (same rng) matches at least 15 pairs ...
        count = len(g.qverts) + len(g.nverts)
        _, _, _, whole = coarsen_both(g, count - 15, space, seed=5)
        assert whole["opt.coarsen_passes"] == 1
        # ... of which only the first 6 may collapse here
        fast, ref, cg, counters = coarsen_both(
            g, count - 6, space, seed=5
        )
        assert fast == ref
        assert counters["opt.coarsen_passes"] == 1
        assert counters["opt.coarsen_merges"] == 6
        assert len(cg.qverts) == 34
        assert len(fast["steps"]) == 6

    def test_vmax_below_nvertex_count(self, space, ng):
        # n-vertices never merge: the loop ends when no pair is left, with
        # the graph still above vmax
        g = make_graph(space, ng, 40, seed=3)
        vmax = len(g.nverts) - 2
        fast, ref, cg, _ = coarsen_both(g, vmax, space, seed=2)
        assert fast == ref
        assert len(cg.qverts) + len(cg.nverts) > vmax
        assert set(cg.nverts) == set(g.nverts)
        assert all(
            nbr not in cg.qverts
            for vid in cg.qverts for nbr in cg.neighbors(vid)
        )

    def test_qvertex_without_qneighbour(self, space, ng):
        queries = make_queries(space, 30, seed=4, universe=range(360))
        mask = mask_of(range(380, 392))  # shares no substream with them
        queries.append(replace(
            queries[0], query_id=30, mask=mask, load=0.01 * space.rate(mask)
        ))
        g = graph_of(space, ng, queries)
        loner = ("q", 30)
        assert not any(nbr in g.qverts for nbr in g.neighbors(loner))
        fast, ref, cg, _ = coarsen_both(g, len(g.nverts) + 2, space, seed=9)
        assert fast == ref
        # it can never be matched, so it survives every pass untouched
        assert cg.qverts[loner] is g.qverts[loner]


class TestCollapsePass:
    """The mechanism behind the pass-level collapse, pinned exactly."""

    def _observed_run(self, g, vmax, space, monkeypatch):
        """Coarsen with a spy on the batched kernel.

        Returns ``(counters, pairs handed to the kernel per call)``, each
        pair named by the member keys of its two vertices.
        """
        known = list(g.qverts.values())
        real_merge = coarsening.merge_qvertices

        def merge(u, v, origin=None):
            known.append(real_merge(u, v, origin=origin))
            return known[-1]

        handed = []
        real_grouped = SubstreamSpace.overlap_rates_grouped

        def spy_grouped(self, groups):
            groups = [(idx, list(others)) for idx, others in groups]
            # a vertex is known by its cached index array: merged-away
            # vertices dropped theirs, so no stale array is in the table
            owner = {
                id(v._idx[1]): plan_key(v) for v in known if v._idx is not None
            }
            handed.append([
                frozenset((owner[id(idx)], owner[id(o)]))
                for idx, others in groups for o in others
            ])
            return real_grouped(self, groups)

        monkeypatch.setattr(coarsening, "merge_qvertices", merge)
        monkeypatch.setattr(
            SubstreamSpace, "overlap_rates_grouped", spy_grouped
        )
        reg = MetricsRegistry()
        set_active(reg)
        try:
            coarsen(g, vmax, space, rng=random.Random(8))
        finally:
            set_active(None)
        return reg.counters, handed

    def test_every_coarse_edge_estimated_once_per_pass(
        self, space, ng, monkeypatch
    ):
        g = make_graph(space, ng, 40, seed=0)
        vmax = len(g.nverts) + 2
        counters, handed = self._observed_run(g, vmax, space, monkeypatch)
        log = []
        pair_coarsening.coarsen(g, vmax, space, rng=random.Random(8), log=log)
        assert len(handed) >= 3
        # one kernel call per pass ...
        assert counters["opt.coarsen_passes"] == len(handed) == len(log)
        assert counters["opt.coarsen_merges"] == 38
        for pairs, incident in zip(handed, log):
            # (a) no unordered pair is estimated twice within the pass
            assert len(pairs) == len(set(pairs))
            # ... and the pairs are exactly the coarse edges it created
            assert set(pairs) == incident
        # (b) one estimate per q-q edge at a merged vertex, summed over
        # passes -- and the same number on every run
        assert counters["opt.coarsen_overlap_pairs"] == sum(map(len, log))
        again, _ = self._observed_run(g, vmax, space, monkeypatch)
        assert again == counters

    def test_scratch_mark_clean_after_return_and_after_raise(
        self, space, ng, monkeypatch
    ):
        g = make_graph(space, ng, 40, seed=0)
        vmax = len(g.nverts) + 2
        coarsen(g, vmax, space, rng=random.Random(8))
        assert not space._mark.any()

        real_grouped = SubstreamSpace.overlap_rates_grouped
        seen = []

        def failing_groups(groups):
            for idx, others in groups:
                seen.append(idx)
                if len(seen) == 5:
                    # an index past the space: ``take`` raises inside the
                    # kernel, with the probe marked
                    others = list(others) + [np.array([len(space) + 3])]
                yield idx, others

        monkeypatch.setattr(
            SubstreamSpace, "overlap_rates_grouped",
            lambda self, groups: real_grouped(self, failing_groups(groups)),
        )
        count = len(g.qverts) + len(g.nverts)
        with pytest.raises(IndexError):
            coarsen(g, vmax, space, rng=random.Random(8))
        assert len(seen) == 5
        assert not space._mark.any()
        assert len(g.qverts) + len(g.nverts) == count


class TestAttachCostParity:
    def test_workspace_matches_scalar_reference(self, space, ng):
        g = make_graph(space, ng, 30, seed=9)
        mapping = random_mapping(g, ng, seed=9)
        pos = scalar_kernels.positions(g, mapping, ng)
        ws = CostWorkspace(g, ng)
        ws.init_positions(mapping)
        for vid in list(g.qverts)[:10]:
            fast = ws.attach_costs(vid)
            for i, t in enumerate(ng.ids()):
                assert fast[i] == pytest.approx(
                    scalar_kernels.attach_cost(g, vid, t, pos, ng),
                    rel=1e-9, abs=1e-9,
                )


class SkewedOracle:
    """An oracle whose two directions differ: ``row(u)[v] = |u - v| +
    1e-3 * u`` off the diagonal.  A real oracle differs by direction only
    in the last bits; this one makes reading the wrong row visible."""

    def __init__(self, n=128):
        self.topology = SimpleNamespace(n=n)

    def row(self, u):
        row = np.abs(np.arange(self.topology.n) - u) + 1e-3 * u
        row[u] = 0.0
        return row


class TestOracleRowRule:
    """Production's direction: a cost kernel reads the oracle row of the
    target's site (attach costs) or of an edge's first endpoint (WEC)."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return NetworkGraph(
            [
                NetVertex(vid=f"P{i}", site=i * 7, capability=1.0,
                          covers=frozenset([i * 7]))
                for i in range(5)
            ],
            SkewedOracle(),
        )

    def test_attach_costs_read_the_target_row(self, space, skewed):
        row = skewed.oracle.row
        g = make_graph(space, skewed, 30, seed=9)
        mapping = random_mapping(g, skewed, seed=9)
        pos = scalar_kernels.positions(g, mapping, skewed)
        ws = CostWorkspace(g, skewed)
        ws.init_positions(mapping)
        for vid in list(g.qverts)[:10]:
            nbrs = g.neighbors(vid).items()
            sites = [skewed.site(t) for t in skewed.ids()]
            expected = [sum(w * row(s)[pos[n]] for n, w in nbrs) for s in sites]
            transposed = [sum(w * row(pos[n])[s] for n, w in nbrs) for s in sites]
            assert expected != pytest.approx(transposed, rel=1e-9)
            assert list(ws.attach_costs(vid)) == pytest.approx(expected, rel=1e-12)

    def test_wec_reads_the_first_endpoint_row(self, space, skewed):
        row = skewed.oracle.row
        g = make_graph(space, skewed, 30, seed=4)
        mapping = random_mapping(g, skewed, seed=4)
        pos = scalar_kernels.positions(g, mapping, skewed)
        expected = sum(w * row(pos[a])[pos[b]] for a, b, w in g.edges())
        transposed = sum(w * row(pos[b])[pos[a]] for a, b, w in g.edges())
        assert expected != pytest.approx(transposed, rel=1e-9)
        assert g.wec(mapping, skewed) == pytest.approx(expected, rel=1e-12)
