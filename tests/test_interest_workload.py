"""Tests for substream interest vectors and the workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import QVertex
from repro.query.interest import (
    SubstreamSpace,
    bits_of,
    index_array,
    iter_bits,
    mask_of,
)
from repro.query.workload import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def space():
    return SubstreamSpace.random(200, sources=[10, 11, 12, 13], seed=5)


class TestMasks:
    def test_mask_roundtrip(self):
        ids = [0, 3, 17, 64, 100]
        assert bits_of(mask_of(ids)) == ids

    def test_iter_bits_empty(self):
        assert list(iter_bits(0)) == []

    def test_mask_of_duplicates(self):
        assert mask_of([2, 2, 2]) == mask_of([2])


class TestSpace:
    def test_random_space_dimensions(self, space):
        assert len(space) == 200
        assert set(int(s) for s in space.source_of) <= {10, 11, 12, 13}

    def test_rates_in_range(self, space):
        assert np.all(space.rates >= 1.0) and np.all(space.rates <= 10.0)

    def test_rate_of_mask(self, space):
        mask = mask_of([0, 1, 2])
        expected = float(space.rates[0] + space.rates[1] + space.rates[2])
        assert space.rate(mask) == pytest.approx(expected)

    def test_rate_empty_mask(self, space):
        assert space.rate(0) == 0.0

    def test_overlap_rate(self, space):
        a = mask_of([0, 1, 2, 3])
        b = mask_of([2, 3, 4])
        assert space.overlap_rate(a, b) == pytest.approx(
            float(space.rates[2] + space.rates[3])
        )

    def test_disjoint_overlap_zero(self, space):
        assert space.overlap_rate(mask_of([0, 1]), mask_of([5, 6])) == 0.0

    def test_rates_by_source_sums_to_rate(self, space):
        mask = mask_of(range(0, 50))
        by_source = space.rates_by_source(mask)
        assert sum(by_source.values()) == pytest.approx(space.rate(mask))

    def test_rates_by_source_keys(self, space):
        mask = mask_of(range(len(space)))
        assert set(space.rates_by_source(mask)) == set(space.sources)

    def test_source_mask_partition(self, space):
        union = 0
        for s in space.sources:
            m = space._source_masks[s]
            assert union & m == 0  # disjoint
            union |= m
        assert union == mask_of(range(len(space)))

    def test_perturb_rates(self, space):
        before = space.rate(mask_of([7]))
        space.perturb_rates([7], 2.0)
        assert space.rate(mask_of([7])) == pytest.approx(2.0 * before)
        space.perturb_rates([7], 0.5)  # restore

    @settings(max_examples=100, deadline=None)
    @given(ids_a=st.sets(st.integers(0, 199), max_size=30),
           ids_b=st.sets(st.integers(0, 199), max_size=30))
    def test_overlap_equals_set_intersection(self, space, ids_a, ids_b):
        """The bit-vector estimate is exact (Section 3.2's design goal)."""
        expected = sum(float(space.rates[i]) for i in ids_a & ids_b)
        got = space.overlap_rate(mask_of(ids_a), mask_of(ids_b))
        assert got == pytest.approx(expected)


@st.composite
def spaces_and_masks(draw):
    """A random space (widths not divisible by 8 included) and masks over
    it: empty, all-ones, dense random and sparse random."""
    n = draw(st.integers(1, 5000))
    full = (1 << n) - 1
    mask = st.one_of(
        st.just(0),
        st.just(full),
        st.integers(0, full),
        st.sets(st.integers(0, n - 1), max_size=40).map(mask_of),
    )
    space = SubstreamSpace.random(
        n, sources=[1, 2, 3], seed=draw(st.integers(0, 2**16))
    )
    return space, draw(mask), draw(st.lists(mask, min_size=1, max_size=6))


class TestOverlapKernel:
    """The batched kernel equals the mask path *bit for bit*: it sums the
    same grid rates, and a sum of grid rates is exact in any order --
    placements depend on that."""

    @settings(max_examples=60, deadline=None)
    @given(case=spaces_and_masks(), factor=st.sampled_from([0.25, 3.0]))
    def test_bit_identical_to_mask_path(self, case, factor):
        space, probe, others = case

        def check():
            got = space.overlap_rates(
                [(index_array(probe), [index_array(o) for o in others])]
            ).tolist()
            assert got == [space.rate(probe & o) for o in others]
            assert got == [space.overlap_rate(probe, o) for o in others]
            assert not space._probe.any()  # scratch handed back clean

        check()
        # rates are read live: no cache to invalidate after a perturbation
        space.perturb_rates(bits_of(probe)[::2], factor)
        check()

    @settings(max_examples=60, deadline=None)
    @given(case=spaces_and_masks())
    def test_vertex_cache_follows_the_mask(self, case):
        """``QVertex.indices`` through fill, reuse, mask reassignment (what
        stripping a member does) and an explicit drop."""
        space, probe, others = case

        def vertex(mask):
            return QVertex(vid=("t", mask), weight=1.0, mask=mask,
                           source_rates={}, proxy_rates={})

        v = vertex(probe)
        ws = [vertex(o) for o in others]

        def check():
            got = space.overlap_rates(
                [(v.indices, [w.indices for w in ws])]
            ).tolist()
            assert got == [space.rate(v.mask & w.mask) for w in ws]

        check()
        assert v.indices is v.indices  # second read is the cached array
        space.perturb_rates(bits_of(probe)[::3], 2.0)
        check()
        v.mask, ws[0].mask = ws[0].mask, v.mask  # reassigned: re-unpacked
        check()
        assert bits_of(v.mask) == v.indices.tolist()
        for w in [v] + ws:
            w.drop_indices()
        check()

    def test_scratch_restored_after_a_failed_call(self, space):
        bad = np.array([len(space)])  # out of range for the rates vector
        with pytest.raises(IndexError):
            space.overlap_rates(
                [(index_array(0b1011), [index_array(0b11), bad])]
            )
        assert not space._probe.any()
        assert space.overlap_rates(
            [(index_array(0b1011), [index_array(0b0110)])]
        ).tolist() == [space.rate(0b0010)]


class TestWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        params = WorkloadParams(
            num_substreams=500, num_queries=120, substreams_per_query=(10, 20)
        )
        return generate_workload(
            params, sources=[1, 2, 3], processors=[50, 51, 52, 53], seed=9
        )

    def test_query_count(self, workload):
        assert len(workload.queries) == 120

    def test_substream_counts_in_range(self, workload):
        for q in workload.queries:
            assert 10 <= len(bits_of(q.mask)) <= 20

    def test_proxies_are_processors(self, workload):
        assert all(q.proxy in (50, 51, 52, 53) for q in workload.queries)

    def test_groups_in_range(self, workload):
        assert all(0 <= q.group < 20 for q in workload.queries)

    def test_load_proportional_to_input_rate(self, workload):
        for q in workload.queries[:20]:
            expected = workload.params.load_factor * q.input_rate(workload.space)
            assert q.load == pytest.approx(expected)

    def test_result_rate_below_input_rate(self, workload):
        for q in workload.queries:
            assert 0 < q.result_rate < q.input_rate(workload.space)

    def test_unique_query_ids(self, workload):
        ids = [q.query_id for q in workload.queries]
        assert len(set(ids)) == len(ids)

    def test_deterministic(self):
        params = WorkloadParams(num_substreams=300, num_queries=30,
                                substreams_per_query=(5, 10))
        a = generate_workload(params, [1], [2], seed=4)
        b = generate_workload(params, [1], [2], seed=4)
        assert [q.mask for q in a.queries] == [q.mask for q in b.queries]

    def test_new_queries_extend_population(self, workload):
        n = len(workload.queries)
        fresh = workload.new_queries(5, [50, 51])
        assert len(workload.queries) == n + 5
        assert [q.query_id for q in fresh] == list(range(n, n + 5))

    def test_refresh_loads_after_perturbation(self, workload):
        q = workload.queries[0]
        sid = bits_of(q.mask)[0]
        workload.space.perturb_rates([sid], 10.0)
        old = q.load
        workload.refresh_loads()
        assert q.load > old
        workload.space.perturb_rates([sid], 0.1)
        workload.refresh_loads()

    def test_zipf_hot_spots_cluster_within_groups(self, workload):
        """Queries of the same group overlap more than across groups."""
        import itertools

        by_group = {}
        for q in workload.queries:
            by_group.setdefault(q.group, []).append(q)
        groups = [g for g, qs in by_group.items() if len(qs) >= 3]
        intra, inter = [], []
        for g in groups[:5]:
            qs = by_group[g][:3]
            for a, b in itertools.combinations(qs, 2):
                intra.append(workload.space.overlap_rate(a.mask, b.mask))
        for ga, gb in itertools.combinations(groups[:4], 2):
            a, b = by_group[ga][0], by_group[gb][0]
            inter.append(workload.space.overlap_rate(a.mask, b.mask))
        assert np.mean(intra) > np.mean(inter)
