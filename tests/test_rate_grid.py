"""Rates on a dyadic grid: every rate sum is exact, in any order.

Rates are rounded to multiples of 2^-24 where they are made
(:func:`repro.query.interest.on_rate_grid`).  A sum of such values is
exact in float64 while its partial sums stay below 2^29, so every
summation order -- a graph build's sparse product, the overlap kernel's
``bincount``, ``ndarray.sum``, a dict fold -- gives the same bits, and a
q-q edge weight is ``space.rate(mask_a & mask_b)`` however and whenever
it was estimated.  The last test holds that over rounds of churn; with
removals in the rounds it is a strict xfail, for a defect of the
removal path that its reason names.
"""

import random
from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.core import CosmosConfig
from repro.core.graphs import QVertex, _overlap_product
from repro.experiments.config import ExperimentConfig, build_testbed
from repro.placement.prototype import generate_prototype_workload
from repro.query import interest
from repro.query.interest import SubstreamSpace, index_array, mask_of
from repro.query.workload import QuerySpec, WorkloadParams, generate_workload
from repro.sim.workload import SimQueryFactory, SimWorkloadParams
from repro.topology import TransitStubParams


def on_grid(x):
    scaled = np.asarray(x, dtype=float) * 2**24
    return bool(np.all(scaled == np.round(scaled)))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestRatesAreMadeOnTheGrid:
    def test_random_and_hand_written_spaces(self):
        assert on_grid(SubstreamSpace.random(5000, sources=[0, 1], seed=3).rates)
        space = SubstreamSpace(rates=[0.1, 1 / 3, 2.5, 7], source_of=[0] * 4)
        assert on_grid(space.rates)
        assert space.rates[2:].tolist() == [2.5, 7.0]  # grid values stay
        # the largest move of a rate of 1 or more is half a grid step
        raw = np.random.default_rng(0).uniform(1, 10, 20_000)
        moved = SubstreamSpace(rates=raw, source_of=np.zeros(raw.size)).rates
        assert np.max(np.abs(moved - raw) / raw) <= 2.0**-25

    @pytest.mark.parametrize("factor", [3.0, 1 / 3])
    def test_after_perturbation(self, factor):
        space = SubstreamSpace.random(2000, sources=[0, 1], seed=5)
        ids = list(range(0, 2000, 7))
        before = space.rates.copy()
        space.perturb_rates(ids, factor)
        assert on_grid(space.rates)
        assert space.rates[ids] == pytest.approx(before[ids] * factor, rel=1e-7)
        untouched = np.ones(2000, bool)
        untouched[ids] = False
        assert np.array_equal(space.rates[untouched], before[untouched])

    def test_result_rates(self):
        spec = QuerySpec(query_id=0, proxy=0, mask=1, group=0, load=0.3,
                         result_rate=0.1, state_size=1.0)
        assert on_grid(spec.result_rate)
        assert spec.load == 0.3  # loads are not rounded
        workload = generate_workload(
            WorkloadParams(num_substreams=300, num_queries=50,
                           substreams_per_query=(5, 10)),
            sources=[0, 1], processors=[0, 1], seed=1,
        )
        assert on_grid([q.result_rate for q in workload.queries])
        factory = SimQueryFactory(
            SubstreamSpace.random(40, sources=[0, 1], seed=1), [2, 3],
            SimWorkloadParams(), np.random.default_rng(1),
        )
        assert on_grid([factory.make().spec.result_rate for _ in range(20)])
        proto = generate_prototype_workload(20, [0, 1], [2, 3], seed=1)
        assert on_grid([q.result_rate for q in proto.cosmos_queries])


@pytest.mark.parametrize("seed", [0, 1])
def test_sums_of_grid_rates_are_order_free(seed):
    space = SubstreamSpace.random(20_000, sources=range(100), seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        subset = rng.choice(len(space), rng.integers(20, 3000), replace=False)
        values = space.rates[subset]
        want = values.sum()
        assert bits(reduce(add, values.tolist(), 0.0)) == bits(want)
        assert bits(rng.permutation(values).sum()) == bits(want)
        by_bincount = np.bincount(np.zeros(values.size, np.intp), values)[0]
        assert bits(by_bincount) == bits(want)


def six_decades_space(seed, n):
    rng = np.random.default_rng(seed)
    return SubstreamSpace(
        rates=10.0 ** rng.uniform(-3.0, 3.0, n), source_of=np.zeros(n)
    ), rng


def test_graph_builds_and_the_kernel_agree_on_every_pair():
    """A built graph's overlap weights (the sparse product, a sequential
    sum) equal the kernel's (a ``bincount``) on wide intersections, where
    unrounded rates would differ in the last bits on most pairs."""
    space, rng = six_decades_space(7, 4000)
    verts = [
        QVertex(vid=i, weight=1.0, source_rates={}, proxy_rates={},
                mask=mask_of(rng.choice(4000, 600, replace=False).tolist()))
        for i in range(40)
    ]
    product = _overlap_product(verts, space).tocoo()
    pairs = [(i, j, w) for i, j, w in zip(product.row, product.col, product.data)
             if i != j]
    assert len(pairs) == 40 * 39
    kernel = space.overlap_rates(
        (verts[i].indices, [verts[j].indices]) for i, j, _ in pairs
    )
    assert bits(kernel).tolist() == bits([w for _, _, w in pairs]).tolist()
    assert kernel.tolist() == [
        space.rate(verts[i].mask & verts[j].mask) for i, j, _ in pairs
    ]


@pytest.mark.parametrize("flush", [1, 50, 200_000])
def test_kernel_equals_the_mask_path(monkeypatch, flush):
    monkeypatch.setattr(interest, "_OVERLAP_FLUSH", flush)
    space, rng = six_decades_space(4, 3000)

    def interest_mask():
        n = int(rng.choice([3, 12, 60, 400, 2500]))
        return mask_of(rng.choice(len(space), n, replace=False).tolist())

    groups = [
        (interest_mask(), [interest_mask() for _ in range(rng.integers(1, 9))])
        for _ in range(40)
    ]
    groups.insert(17, (interest_mask(), []))  # a probe with no others
    got = space.overlap_rates(
        (index_array(a), [index_array(b) for b in others])
        for a, others in groups
    )
    assert got.dtype == np.float64
    assert got.tolist() == [
        space.rate(a & b) for a, others in groups for b in others
    ]
    assert not space._probe.any()
    assert space.overlap_rates([]).size == 0


# ----------------------------------------------------------------------
# the invariant over a churn run
# ----------------------------------------------------------------------


def churn_testbed(seed):
    """The smoke ``opt_churn`` testbed of the e2e benchmark: 500 queries
    on 32 processors."""
    return build_testbed(ExperimentConfig(
        topology=TransitStubParams(2, 3, 3, 6),
        num_sources=6,
        num_processors=32,
        workload=WorkloadParams(
            num_substreams=600, num_queries=500, groups=8,
            substreams_per_query=(10, 20), selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=4, vmax=40, max_overlap_neighbors=20, seed=seed),
        seed=seed,
    ))


def assert_edges_exact(cosmos, space):
    """Every q-q edge of every graph whose edges are not stale weighs
    ``space.rate(mask_a & mask_b)``, to the bit.  Returns how many."""
    checked = 0
    for coord in cosmos.root.all_coordinators():
        if coord._edges_stale:
            continue
        qverts = coord.qg.qverts
        for a, b, w in coord.qg.edges():
            if a in qverts and b in qverts:
                assert w == space.rate(qverts[a].mask & qverts[b].mask), (a, b)
                checked += 1
    return checked


@pytest.mark.parametrize("removals", [
    0,
    pytest.param(10, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "a strip rewrites shared vertex objects in place, and only the "
            "owner level's graph re-estimates their edges"
        ),
    )),
])
def test_every_edge_is_the_exact_overlap_through_churn(removals):
    """``opt_churn``'s rounds (remove, insert, drift the loads of 1 % of
    the queries, adapt) with the invariant checked after distribute,
    after each round's mutations and after each adapt."""
    testbed = churn_testbed(0)
    space = testbed.workload.space
    cosmos = testbed.new_cosmos()
    cosmos.distribute(testbed.workload.queries)
    assert assert_edges_exact(cosmos, space) > 0
    for _ in range(3):
        cosmos.adapt()
        assert assert_edges_exact(cosmos, space) > 0
    rng = random.Random(0)
    live = {q.query_id: q for q in testbed.workload.queries}
    for _ in range(4):
        for query_id in rng.sample(sorted(live), removals):
            assert cosmos.remove(query_id)
            del live[query_id]
        for q in testbed.workload.new_queries(10, testbed.processors):
            cosmos.insert(q)
            live[q.query_id] = q
        drifted = rng.sample(sorted(live), 5)
        cosmos.refresh_measured_loads(
            {qid: live[qid].load * rng.uniform(0.5, 2.0) for qid in drifted}
        )
        assert assert_edges_exact(cosmos, space) > 0
        cosmos.adapt()
        assert assert_edges_exact(cosmos, space) > 0
