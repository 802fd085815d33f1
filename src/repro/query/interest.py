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
:meth:`SubstreamSpace.overlap_rates` is the one overlap kernel every
optimizer layer shares, working on those (cacheable) arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

__all__ = ["SubstreamSpace", "bits_of", "index_array", "mask_of", "iter_bits"]


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

    def overlap_rate(self, mask_a: int, mask_b: int) -> float:
        """Rate of the data of interest to *both* masks: the one-pair form
        of :meth:`overlap_rates` for callers that hold no index arrays
        (it unpacks just the intersection)."""
        return self.rate(mask_a & mask_b)

    def rates_by_source(self, mask: int) -> Dict[int, float]:
        """Per-source requested rate for a query interest mask.

        These are the q-vertex -> source n-vertex edge weights of the query
        graph.  Keys are the space's own node-id ints, so the many maps the
        optimizer holds share them instead of each boxing its own.
        """
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
