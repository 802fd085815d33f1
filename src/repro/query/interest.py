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
optimizer layer shares, working on those (cacheable) arrays.

Every rate lies on a dyadic grid (:func:`on_rate_grid`), so a sum of
rates is exact and comes out the same whatever order adds it: a graph
build's sparse product, the overlap kernel and a rate-map fold agree to
the bit.
"""

from __future__ import annotations

import random
import struct
from collections.abc import ItemsView, Mapping as MappingABC
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

__all__ = [
    "RateMap",
    "SubstreamSpace",
    "bits_of",
    "index_array",
    "mask_of",
    "iter_bits",
    "on_rate_grid",
]

#: gathered indices :meth:`SubstreamSpace.overlap_rates` holds before it
#: sums them (bounds the memory of one call)
_OVERLAP_FLUSH = 200_000


def on_rate_grid(x):
    """``x`` rounded to the nearest multiple of 2^-24, elementwise.

    Applied where rates are made -- a space's substream rates, their
    perturbation, a query's result rate -- and nowhere else.  A float64
    holds 53 significant bits, so a sum of grid values is exact, in any
    order, while every partial sum stays below 2^29 ~ 5.4e8; the largest
    aggregate at ``opt_scale``'s 100k queries is <= 3e7 (100k queries x
    <= 30 substreams x rate <= 10).  Rounding moves a rate of 1 or more
    by at most 3e-8 of its value.  Loads are not rounded:
    ``load_factor`` 0.01 is not a power of two, so their sums stay
    order-dependent.  ``tests/test_rate_grid.py`` holds the rule.
    """
    return np.round(np.asarray(x, dtype=float) * 2**24) / 2**24


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


class _RateItems(ItemsView):
    """A :class:`RateMap`'s items, zipped from its buffer (the inherited
    view would look every key up)."""

    __slots__ = ()

    def __iter__(self):
        return zip(*self._mapping._columns())


def _packed(nodes: Sequence[int], rates: Sequence[float]) -> bytes:
    """``rates`` as C ``double`` s followed by ``nodes`` as C ``int`` s."""
    n = len(rates)
    return struct.pack("%dd%di" % (n, n), *rates, *nodes)


class RateMap(MappingABC):
    """A read-only ``{node: rate}`` map: the per-source and per-proxy
    rates a query vertex aggregates.

    Held as one ``bytes`` buffer in insertion order -- the rates as C
    ``double`` s, then the nodes as C ``int`` s -- so a map costs 12
    bytes per entry plus one buffer header instead of a dict's table and
    one boxed float per entry.  It iterates, compares (``==`` a dict with
    the same items) and looks up like the dict it replaces; maps are a
    few dozen entries long and nothing on the optimizer's path looks a
    node up.  :meth:`columns` reads many maps' entries whole.

    Build one from any mapping (``RateMap(d)``), or by :meth:`merged` and
    :meth:`summed`, whose key orders are those of the dict code they
    replace: the q-n edges follow them downstream.  Their sums are of grid
    rates (:func:`on_rate_grid`), so any order adds them to the same bits.
    """

    __slots__ = ("_buf",)

    def __init__(self, items: Union[MappingABC, Iterable] = ()):
        d = dict(items.items() if isinstance(items, MappingABC) else items)
        self._buf = _packed(list(d), list(d.values()))

    @classmethod
    def from_lists(cls, nodes: List[int], rates: List[float]) -> "RateMap":
        """The map ``zip(nodes, rates)``; the caller passes distinct nodes."""
        out = cls.__new__(cls)
        out._buf = _packed(nodes, rates)
        return out

    @classmethod
    def merged(cls, a: "RateMap", b: "RateMap") -> "RateMap":
        """``a`` plus ``b``: ``a``'s nodes then ``b``'s new ones, in order,
        valued ``a[k] + b[k]`` (``0.0 + b[k]`` for a node only ``b``
        names) -- the dict ``{**a}`` updated by ``d[k] = d.get(k, 0.0) +
        b[k]`` for each ``k`` of ``b``."""
        return cls._fold(dict(zip(*a._columns())), [b])

    @classmethod
    def summed(cls, maps: Iterable["RateMap"]) -> "RateMap":
        """The left fold of ``maps`` from an empty dict: nodes in order of
        first appearance, each valued ``((0.0 + r1) + r2) + ...`` over the
        maps that name it, in order."""
        return cls._fold({}, maps)

    @classmethod
    def _fold(
        cls, out: Dict[int, float], maps: Iterable["RateMap"]
    ) -> "RateMap":
        """``out`` updated by ``out[k] = out.get(k, 0.0) + r`` for every
        ``(k, r)`` of ``maps`` in turn, as a map."""
        for m in maps:
            for node, rate in zip(*m._columns()):
                out[node] = out.get(node, 0.0) + rate
        return cls.from_lists(list(out), list(out.values()))

    @staticmethod
    def columns(maps: Sequence["RateMap"]) -> Tuple[np.ndarray, np.ndarray]:
        """Every entry of ``maps``, map after map in order, as a C ``int``
        array of nodes and a ``float64`` array of rates (one gather over
        the joined buffers)."""
        bufs = [m._buf for m in maps]
        raw = np.frombuffer(b"".join(bufs), np.uint8)
        size = np.fromiter(map(len, bufs), np.int64, len(bufs))
        n = size // 12
        start = np.cumsum(size) - size
        # entry j of a map starting at byte s with n entries: its rate at
        # byte s + 8j, its node at byte s + 8n + 4j
        j = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        at = np.repeat(start, n) + 8 * j
        rates = raw[at[:, None] + np.arange(8)].view(np.float64)
        at += np.repeat(8 * n, n) - 4 * j
        nodes = raw[at[:, None] + np.arange(4)].view(np.intc)
        return nodes.ravel(), rates.ravel()

    def _columns(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """The nodes and the rates, in order."""
        n = len(self._buf) // 12
        values = struct.unpack("%dd%di" % (n, n), self._buf)
        return values[n:], values[:n]

    def __getitem__(self, node) -> float:
        nodes, rates = self._columns()
        try:
            return rates[nodes.index(node)]
        except ValueError:
            raise KeyError(node) from None

    def __iter__(self) -> Iterator[int]:
        return iter(self._columns()[0])

    def __len__(self) -> int:
        return len(self._buf) // 12

    def items(self) -> ItemsView:
        return _RateItems(self)

    def __repr__(self) -> str:
        return f"RateMap({dict(self.items())!r})"


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
    #: reusable scratch of :meth:`overlap_rates`: a probe's rates at its
    #: indices (all zero between calls)
    _probe: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rates = on_rate_grid(self.rates)
        self.source_of = np.asarray(self.source_of, dtype=np.int64)
        if len(self.rates) != len(self.source_of):
            raise ValueError("rates and source_of must have the same length")
        self._probe = np.zeros(len(self.rates))
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
        self, groups: Iterable[Tuple[np.ndarray, Sequence[np.ndarray]]]
    ) -> np.ndarray:
        """Overlap rates (q-q edge weights) of many probes in one call: for
        every ``(idx, others)`` group in turn, the rate of the interest
        ``idx`` shares with each of ``others``, all given as
        :func:`index_array` arrays, flat in one ``float64`` array.

        A group writes the probe's rates at ``idx`` into a zeroed scratch
        vector and ``take`` s it over ``others`` laid end to end: each
        other's indices gather their rate where the probe has the bit and
        ``0.0`` where it has not.  Once per ~200k gathered indices, not
        once per pair, one ``np.add.reduceat`` sums every pair's segment.
        On the rate grid adding zeros and the order of the adds change no
        bit, so the result equals ``rate(mask_a & mask_o)``.  ``rates`` is
        read live (rate perturbation needs no invalidation) and nothing is
        unpacked here.
        """
        probe = self._probe
        rates = self.rates
        out: List[np.ndarray] = []
        pieces: List[np.ndarray] = []
        lengths: List[int] = []
        held = 0

        def flush() -> None:
            size = np.array(lengths)
            sums = np.zeros(size.size)
            # an empty other sums to 0.0 and has no segment of its own
            some = size > 0
            if some.any():
                sums[some] = np.add.reduceat(
                    pieces[0] if len(pieces) == 1 else np.concatenate(pieces),
                    (np.cumsum(size) - size)[some],
                )
            out.append(sums)
            pieces.clear()
            lengths.clear()

        for idx, others in groups:
            if not len(others):
                continue
            gathered = np.concatenate(others)
            probe[idx] = rates.take(idx)
            try:
                pieces.append(probe.take(gathered))
            finally:
                probe[idx] = 0.0
            lengths.extend(map(len, others))
            held += gathered.size
            if held >= _OVERLAP_FLUSH:
                flush()
                held = 0
        if lengths:
            flush()
        return np.concatenate(out) if out else np.empty(0)

    def overlap_rate(self, mask_a: int, mask_b: int) -> float:
        """Rate of the data of interest to *both* masks: the one-pair form
        of :meth:`overlap_rates` for callers that hold no index arrays
        (it unpacks just the intersection)."""
        return self.rate(mask_a & mask_b)

    def rates_by_source(
        self, mask: int, idx: Optional[np.ndarray] = None
    ) -> RateMap:
        """Per-source requested rate for a query interest mask.

        These are the q-vertex -> source n-vertex edge weights of the query
        graph: sources in ascending node order, each rate summed over the
        mask's substreams in ascending order.  A caller that has unpacked
        ``mask`` already passes its :func:`index_array` as ``idx``.
        """
        if idx is None:
            idx = index_array(mask)
        if idx.size == 0:
            return RateMap()
        srcs = self.source_of[idx]
        weights = self.rates[idx]
        totals = np.zeros(int(srcs.max()) + 1)
        np.add.at(totals, srcs, weights)
        nz = np.nonzero(totals)[0]
        return RateMap.from_lists(nz.tolist(), totals[nz].tolist())

    def perturb_rates(
        self, substream_ids: Sequence[int], factor: float
    ) -> None:
        """Multiply the rates of the given substreams by ``factor``.

        Used by the Figure 10 experiment, which increases ("I") or
        decreases ("D") the rates of 800 random streams at runtime.  The
        products are put back on the rate grid.
        """
        for sid in substream_ids:
            self.rates[sid] *= factor
        ids = np.asarray(substream_ids, dtype=np.intp)
        self.rates[ids] = on_rate_grid(self.rates[ids])
        self.rates_generation += 1
