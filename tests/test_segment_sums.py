"""Guard: the batched overlap kernel sums exactly as ``ndarray.sum()``.

:func:`repro.query.interest.segment_sums` reproduces numpy's pairwise
float64 summation order segment by segment, so that
``SubstreamSpace.overlap_rates_grouped`` -- the coarsening engine's one
overlap kernel per pass -- returns the very bits the per-pair kernel
``overlap_rates`` returns.  That order is numpy's implementation, not its
API: if these tests fail after a numpy upgrade, the summation order
changed and coarse edge weights (hence placements) would drift.
"""

import numpy as np
import pytest

from repro.query import interest
from repro.query.interest import SubstreamSpace, segment_sums


def six_decades(rng, n):
    return 10.0 ** rng.uniform(-3.0, 3.0, n)


def per_segment(values, lengths):
    starts = np.cumsum(lengths) - lengths
    return np.array(
        [values[s:s + n].sum() for s, n in zip(starts, lengths)], dtype=float
    )


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_every_length_from_0_to_1024():
    rng = np.random.default_rng(0)
    lengths = np.arange(1025)
    values = six_decades(rng, int(lengths.sum()))
    assert_bits_equal(
        segment_sums(values, lengths), per_segment(values, lengths)
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_lengths_up_to_10k(seed):
    rng = np.random.default_rng(seed)
    # mostly the short and mid segments an overlap batch holds, some long
    lengths = np.concatenate((
        rng.integers(0, 140, 400), rng.integers(0, 10_001, 12)
    ))
    rng.shuffle(lengths)
    values = six_decades(rng, int(lengths.sum()))
    assert_bits_equal(
        segment_sums(values, lengths), per_segment(values, lengths)
    )


def test_no_segments():
    assert segment_sums(np.empty(0), np.empty(0, dtype=np.int64)).size == 0


@pytest.mark.parametrize("flush", [1, 50, 200_000])
def test_grouped_kernel_equals_the_per_probe_kernel(monkeypatch, flush):
    monkeypatch.setattr(interest, "_GROUPED_FLUSH", flush)
    space = SubstreamSpace.random(3000, sources=[0, 1, 2], seed=4)
    rng = np.random.default_rng(5)

    def interest_indices():
        n = int(rng.choice([3, 12, 60, 400, 2500]))
        picked = rng.choice(len(space), n, replace=False)
        return np.sort(picked).astype(np.int32)

    groups = [
        (
            interest_indices(),
            [interest_indices() for _ in range(rng.integers(1, 9))],
        )
        for _ in range(40)
    ]
    want = np.array(
        [r for idx, others in groups for r in space.overlap_rates(idx, others)]
    )
    got = space.overlap_rates_grouped(iter(groups))
    assert_bits_equal(got, want)
    assert not space._mark.any()
