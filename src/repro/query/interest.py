"""Substream partitioning and data-interest bit vectors.

Section 3.2 of the paper: estimating the overlap between two queries by
semantic reasoning is too expensive to do at the optimizer's frequency, so
each stream is partitioned into *substreams* and every query's data
interest becomes a bit vector over substreams.  Overlap estimation is then
a bitwise AND plus a rate lookup.

Bit vectors are plain Python ints (arbitrary precision), which makes AND /
OR / popcount fast and allocation-free for the 20,000-substream paper
configuration.  Summing rates needs the set bits as an index array;
:func:`index_array` unpacks a mask once and
:meth:`SubstreamSpace.overlap_rates` is the overlap kernel every
optimizer layer shares, working on those (cacheable) arrays;
:meth:`SubstreamSpace.overlap_rates_grouped` is its many-probe form,
bit-identical to it (:func:`segment_sums`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SubstreamSpace",
    "bits_of",
    "index_array",
    "mask_of",
    "iter_bits",
    "segment_sums",
]

#: gathered indices :meth:`SubstreamSpace.overlap_rates_grouped` holds
#: before it sums them (bounds the memory of one call)
_GROUPED_FLUSH = 200_000


def mask_of(substream_ids: Iterable[int]) -> int:
    """Bit vector with the given substream ids set."""
    mask = 0
    for sid in substream_ids:
        mask |= 1 << sid
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def bits_of(mask: int) -> List[int]:
    return list(iter_bits(mask))


def index_array(mask: int) -> np.ndarray:
    """Set-bit indices of ``mask``, ascending, as an ``intp`` array.

    The C-speed unpack behind every rate sum.  It depends on the mask
    alone (not on a space's width), so holders of a long-lived mask can
    cache the result next to it -- see ``QVertex.indices``.
    """
    raw = np.frombuffer(
        mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8
    )
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[s:e].sum()`` for consecutive segments of ``lengths``, bit
    for bit, with no Python step per segment of up to 128 terms.

    ``ndarray.sum`` on float64 is numpy's pairwise summation: under 8
    terms a left fold; up to 128 terms eight accumulators over strided
    lanes, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
    remaining terms added in order; above that the two halves, each
    summed the same way.  The first two cases run as array operations
    over all segments at once (a zero pad adds nothing to a sum); a
    longer segment calls ``.sum()`` itself.  The order is numpy's, not an
    API promise: ``tests/test_segment_sums.py`` pins it.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros(lengths.size)
    starts = np.cumsum(lengths) - lengths
    padded = np.append(np.asarray(values, dtype=float), 0.0)
    zero = padded.size - 1

    def terms(first: np.ndarray, present: np.ndarray) -> np.ndarray:
        return padded[np.where(present, first, zero)]

    short = lengths < 8
    if short.any():
        first, n = starts[short], lengths[short]
        acc = np.zeros(first.size)
        for j in range(int(n.max())):
            acc += terms(first + j, n > j)
        out[short] = acc
    mid = ~short & (lengths <= 128)
    if mid.any():
        first, n = starts[mid], lengths[mid]
        blocks, rest = n >> 3, n & 7
        lanes = first[:, None] + np.arange(8)
        r = padded[lanes]
        for b in range(1, int(blocks.max())):
            r += terms(lanes + 8 * b, (blocks > b)[:, None])
        acc = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + (
            (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
        )
        tail = first + (blocks << 3)
        for j in range(int(rest.max())):
            acc += terms(tail + j, rest > j)
        out[mid] = acc
    for i in np.flatnonzero(lengths > 128).tolist():
        out[i] = padded[starts[i]:starts[i] + lengths[i]].sum()
    return out


@dataclass
class SubstreamSpace:
    """The universe of substreams: rates and source placement.

    Attributes
    ----------
    rates:
        ``rates[i]`` is the data rate (bytes/s) of substream ``i``.
    source_of:
        ``source_of[i]`` is the topology node id of the source that
        publishes substream ``i``.
    """

    rates: np.ndarray
    source_of: np.ndarray
    _source_masks: Dict[int, int] = field(default_factory=dict, repr=False)
    #: bumped on every in-place rate mutation; consumers that cache
    #: rate-derived aggregates compare generations instead of rescanning
    rates_generation: int = field(default=0, repr=False)
    #: reusable membership scratch of :meth:`overlap_rates` (all False
    #: between calls)
    _mark: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``_node_ids[s] == s`` for every source node id: the int objects
    #: :meth:`rates_by_source` keys its maps with, built once per space
    _node_ids: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        self.source_of = np.asarray(self.source_of, dtype=np.int64)
        if len(self.rates) != len(self.source_of):
            raise ValueError("rates and source_of must have the same length")
        self._mark = np.zeros(len(self.rates), dtype=bool)
        top = int(self.source_of.max()) + 1 if len(self.source_of) else 0
        self._node_ids = list(range(top))
        self._rebuild_source_masks()

    def _rebuild_source_masks(self) -> None:
        self._source_masks.clear()
        for sid, src in enumerate(self.source_of):
            src = int(src)
            self._source_masks[src] = self._source_masks.get(src, 0) | (1 << sid)

    @classmethod
    def random(
        cls,
        num_substreams: int,
        sources: Sequence[int],
        rate_range=(1.0, 10.0),
        seed: int = 0,
        rng: "np.random.Generator" = None,
    ) -> "SubstreamSpace":
        """Random space matching the paper's simulation setup.

        Substreams are distributed to sources uniformly at random and each
        substream's rate is uniform in ``rate_range`` (the paper uses 1-10
        bytes/s over 100 sources and 20,000 substreams).  An explicit
        ``rng`` takes precedence over ``seed``, letting callers thread one
        :class:`numpy.random.Generator` through a whole simulation run.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        rates = rng.uniform(rate_range[0], rate_range[1], size=num_substreams)
        source_of = rng.choice(np.asarray(sources, dtype=np.int64), size=num_substreams)
        return cls(rates=rates, source_of=source_of)

    def __len__(self) -> int:
        return len(self.rates)

    @property
    def sources(self) -> List[int]:
        return sorted(self._source_masks)

    def rate(self, mask: int, rates=None) -> float:
        """Total rate of the substreams selected by ``mask``.

        ``rates`` optionally substitutes a measured per-substream rate
        vector (same length as the space) for the nominal one -- how the
        simulator's sampled arrival counts feed load estimation.
        """
        idx = index_array(mask)
        if idx.size == 0:
            return 0.0
        vec = self.rates if rates is None else np.asarray(rates, dtype=float)
        return float(vec[idx].sum())

    def overlap_rates(
        self, idx: np.ndarray, others: Iterable[np.ndarray]
    ) -> List[float]:
        """Overlap rate of one interest against each of ``others`` (q-q
        edge weights), all given as :func:`index_array` arrays.

        The probe's indices are marked in a boolean scratch vector and
        each other selects its marked entries, ``o[mark[o]]``: exactly the
        set bits of ``mask_a & mask_o`` in ascending order, so
        ``rates[...].sum()`` adds the same floats in the same order as
        ``rate(mask_a & mask_o)`` and the results are bit-identical to
        it.  ``rates`` is read live (rate perturbation needs no
        invalidation) and nothing is unpacked here: the cost per pair is
        one gather over the other's set bits (``take``/``compress`` rather
        than ``[]``: half the time on narrow index dtypes).
        """
        mark = self._mark
        rates = self.rates
        mark[idx] = True
        try:
            out: List[float] = []
            for o in others:
                sel = o.compress(mark.take(o))
                out.append(float(rates.take(sel).sum()) if sel.size else 0.0)
        finally:
            mark[idx] = False
        return out

    def overlap_rates_grouped(
        self, groups: Iterable[Tuple[np.ndarray, Sequence[np.ndarray]]]
    ) -> np.ndarray:
        """:meth:`overlap_rates` of many probes in one call: for every
        ``(idx, others)`` group in turn, the overlap of ``idx`` with each
        of ``others``, flat and bit-identical to it.

        A group costs one mark and one ``take`` over its others' indices
        laid end to end; the rates of the selected indices are gathered
        and summed per pair by :func:`segment_sums` once per ~200k
        gathered indices, not once per pair.  That wins where pairs are
        many and overlaps short (a coarsening pass).  The warm path's
        probes are coarse vertices whose overlaps mostly run past 128
        terms, where :func:`segment_sums` calls ``.sum()`` per segment
        anyway and the batching only adds passes over the gathered
        indices, so it keeps :meth:`overlap_rates` (on a live
        ``opt_churn`` unit, seed 0, both run on each of its 1,224 calls:
        0.71-0.73 s per-probe loop, 0.96-0.97 s this form).
        """
        mark = self._mark
        out: List[np.ndarray] = []
        picked: List[np.ndarray] = []
        at: List[np.ndarray] = []
        lengths: List[int] = []
        held = 0
        for idx, others in groups:
            gathered = np.concatenate(others)
            mark[idx] = True
            try:
                hit = mark.take(gathered).nonzero()[0]
            finally:
                mark[idx] = False
            picked.append(gathered.take(hit))
            at.append(hit + held)
            lengths.extend(map(len, others))
            held += gathered.size
            if held >= _GROUPED_FLUSH:
                out.append(self._sum_selected(picked, at, lengths))
                picked, at, lengths, held = [], [], [], 0
        out.append(self._sum_selected(picked, at, lengths))
        return np.concatenate(out)

    def _sum_selected(
        self,
        picked: List[np.ndarray],
        at: List[np.ndarray],
        lengths: List[int],
    ) -> np.ndarray:
        """Per-pair rate sums of one gathered batch: pair ``i`` spans the
        next ``lengths[i]`` gathered positions and owns the selected
        indices whose positions (``at``) fall among them."""
        if not lengths:
            return np.empty(0)
        ends = np.searchsorted(np.concatenate(at), np.cumsum(lengths))
        return segment_sums(
            self.rates.take(np.concatenate(picked)), np.diff(ends, prepend=0)
        )

    def overlap_rate(self, mask_a: int, mask_b: int) -> float:
        """Rate of the data of interest to *both* masks: the one-pair form
        of :meth:`overlap_rates` for callers that hold no index arrays
        (it unpacks just the intersection)."""
        return self.rate(mask_a & mask_b)

    def rates_by_source(
        self, mask: int, idx: Optional[np.ndarray] = None
    ) -> Dict[int, float]:
        """Per-source requested rate for a query interest mask.

        These are the q-vertex -> source n-vertex edge weights of the query
        graph.  Keys are the space's own node-id ints, so the many maps the
        optimizer holds share them instead of each boxing its own.  A
        caller that has unpacked ``mask`` already passes its
        :func:`index_array` as ``idx``.
        """
        if idx is None:
            idx = index_array(mask)
        if idx.size == 0:
            return {}
        srcs = self.source_of[idx]
        weights = self.rates[idx]
        totals = np.zeros(int(srcs.max()) + 1)
        np.add.at(totals, srcs, weights)
        nz = np.nonzero(totals)[0]
        keys = map(self._node_ids.__getitem__, nz.tolist())
        return dict(zip(keys, totals[nz].tolist()))

    def perturb_rates(
        self, substream_ids: Sequence[int], factor: float
    ) -> None:
        """Multiply the rates of the given substreams by ``factor``.

        Used by the Figure 10 experiment, which increases ("I") or
        decreases ("D") the rates of 800 random streams at runtime.
        """
        for sid in substream_ids:
            self.rates[sid] *= factor
        self.rates_generation += 1
