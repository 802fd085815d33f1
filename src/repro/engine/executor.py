"""A per-processor continuous-query engine (the GSN substitute).

An :class:`Engine` hosts compiled query plans, routes incoming stream
tuples to the plans that read them, collects result tuples per result
stream, and accounts CPU cost so the optimizer's per-query load estimates
(Section 3.8) can be refreshed from real measurements.

Tuples enter on one of two data planes: the scalar path (:meth:`push`,
:meth:`push_query`, one ``dict`` tuple at a time) or the columnar batch
path (:meth:`push_batch`, :meth:`push_query_batch`, a
:class:`~repro.engine.tuples.TupleBatch` at a time).  The batch path is
bit-identical to pushing the batch's rows through the scalar path one by
one -- same results in the same per-query order, same CPU counters --
which is the reference the parity tests compare against (a second
engine fed row by row).  It materialises late: :meth:`push_query_batch`
answers with a :class:`BatchResults` whose result tuples are built when
they are read.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import registry as _obs
from ..query.ast import Query
from .plans import QueryPlan, compile_query
from .tuples import MergedBatch, StreamTuple, TupleBatch

__all__ = ["Engine", "BatchResults"]


class BatchResults:
    """What one :meth:`Engine.push_query_batch` produced: one entry per
    input row, in input order, each the row's results in scalar order.

    It reads like the list of lists it stands for -- ``len()``, indexing,
    iteration and ``==`` against one -- but the result tuples of a batch
    are built only when an entry is iterated (once, all rows of the
    batch together); sizes come from ``counts`` and cost nothing.  So a
    caller that only counts results never pays for their dicts.
    """

    __slots__ = ("counts", "_rows")

    def __init__(self, counts: List[int], rows):
        #: results per input row
        self.counts = counts
        #: the result rows in order: a batch (``to_tuples()`` not called
        #: yet) or, once built, the list of tuples
        self._rows = rows

    def tuples(self) -> List[StreamTuple]:
        """Every result of the batch, in order (built on first use)."""
        rows = self._rows
        if not isinstance(rows, list):
            self._rows = rows = rows.to_tuples()
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("engine.rows_materialised", len(rows))
        return rows

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator["_RowResults"]:
        start = 0
        for count in self.counts:
            yield _RowResults(self, start, count)
            start += count

    def __getitem__(self, i: int) -> "_RowResults":
        counts = self.counts
        if not -len(counts) <= i < len(counts):
            raise IndexError(f"row {i} out of range for {len(counts)} rows")
        if i < 0:
            i += len(counts)
        return _RowResults(self, sum(counts[:i]), counts[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (BatchResults, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None


class _RowResults:
    """The results of one input row of a :class:`BatchResults`: sized
    for free, built (with the rest of its batch) when iterated."""

    __slots__ = ("_batch", "_start", "_count")

    def __init__(self, batch: BatchResults, start: int, count: int):
        self._batch = batch
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StreamTuple]:
        if not self._count:
            return iter(())
        start = self._start
        return iter(self._batch.tuples()[start:start + self._count])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_RowResults, list)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class Engine:
    """One stream-processing engine instance.

    ``retain_results`` bounds the per-query :attr:`results` buffers kept
    by :meth:`push`: ``None`` retains everything (the historical
    behaviour), ``0`` disables buffering entirely, and a positive ``n``
    keeps only the newest ``n`` result tuples per query -- long
    simulation runs use this so an engine cannot leak memory while
    sinks/return values still observe every result.
    """

    def __init__(
        self,
        node: Optional[int] = None,
        retain_results: Optional[int] = None,
    ):
        if retain_results is not None and retain_results < 0:
            raise ValueError("retain_results must be None or >= 0")
        self.node = node
        self.retain_results = retain_results
        self.plans: Dict[str, QueryPlan] = {}
        #: stream name -> [(query name, alias)] subscriptions
        self._readers: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        #: result sink callbacks per query name
        self._sinks: Dict[str, List[Callable[[StreamTuple], None]]] = defaultdict(list)
        self.results: Dict[str, List[StreamTuple]] = defaultdict(list)

    # ------------------------------------------------------------------
    def add_query(self, query: Query, result_stream: Optional[str] = None) -> QueryPlan:
        """Compile and register a query; returns its plan."""
        name = query.name or f"q{len(self.plans)}"
        if name in self.plans:
            raise ValueError(f"duplicate query name {name!r}")
        plan = compile_query(query, result_stream=result_stream)
        self.plans[name] = plan
        for b in query.bindings:
            self._readers[b.stream].append((name, b.alias))
        return plan

    def remove_query(self, name: str) -> QueryPlan:
        """Unregister a query plan; returns it with operator state intact.

        Every trace of the query is dropped -- stream subscriptions, result
        sinks *and* the ``results`` buffer -- so churned queries do not leak
        memory across a long-running simulation.  The returned plan still
        holds its window state, which is what a migration hands to the
        destination engine (see :meth:`adopt_plan`).
        """
        plan = self.plans.pop(name, None)
        if plan is None:
            raise KeyError(name)
        for stream, readers in list(self._readers.items()):
            readers[:] = [(n, a) for n, a in readers if n != name]
            if not readers:
                del self._readers[stream]
        self._sinks.pop(name, None)
        self.results.pop(name, None)
        return plan

    def adopt_plan(self, plan: QueryPlan) -> QueryPlan:
        """Register an already-compiled plan, operator state included.

        The receiving side of a query migration: the source engine detaches
        the plan with :meth:`remove_query` and the destination adopts it, so
        join windows survive the move (the state whose transfer cost the
        optimizer charges migrations for).
        """
        name = plan.query.name
        if not name:
            raise ValueError("adopted plans need a named query")
        if name in self.plans:
            raise ValueError(f"duplicate query name {name!r}")
        self.plans[name] = plan
        for b in plan.query.bindings:
            self._readers[b.stream].append((name, b.alias))
        return plan

    def on_result(self, name: str, sink: Callable[[StreamTuple], None]) -> None:
        """Register a callback for a query's result tuples."""
        if name not in self.plans:
            raise KeyError(name)
        self._sinks[name].append(sink)

    # ------------------------------------------------------------------
    def _buffer_result(self, name: str, result: StreamTuple) -> None:
        """Append to the per-query results buffer, honouring the cap."""
        cap = self.retain_results
        if cap == 0:
            return
        bucket = self.results[name]
        bucket.append(result)
        if cap is not None and len(bucket) > cap:
            del bucket[: len(bucket) - cap]

    def push(self, t: StreamTuple) -> List[StreamTuple]:
        """Route one source tuple to all plans reading its stream."""
        out: List[StreamTuple] = []
        for name, alias in self._readers.get(t.stream, []):
            plan = self.plans[name]
            for result in plan.push(alias, t):
                self._buffer_result(name, result)
                out.append(result)
                for sink in self._sinks.get(name, []):
                    sink(result)
        return out

    def push_batch(self, batch: TupleBatch) -> List[StreamTuple]:
        """Route a batch of source tuples to all plans reading its stream.

        Per-query results, sinks, buffers and counters are bit-identical
        to pushing the rows through :meth:`push` one at a time; the
        returned list is grouped by plan (reader registration order)
        rather than interleaved per tuple.
        """
        out: List[StreamTuple] = []
        readers = self._readers.get(batch.stream, [])
        by_plan: Dict[str, List[str]] = {}
        for name, alias in readers:
            by_plan.setdefault(name, []).append(alias)
        rows: Optional[List[StreamTuple]] = None  # lazy, shared by fallbacks
        for name, aliases in by_plan.items():
            plan = self.plans[name]
            if len(aliases) == 1:
                results, _ = plan.push_batch(
                    [(aliases[0], batch, np.arange(batch.n))]
                )
                for result in results.to_tuples():
                    self._buffer_result(name, result)
                    out.append(result)
                    for sink in self._sinks.get(name, []):
                        sink(result)
            else:
                # scalar fallback: a plan reading one stream through two
                # aliases (self-join) must see rows interleaved per tuple
                # to keep window state evolution identical
                if rows is None:
                    rows = batch.to_tuples()
                for t in rows:
                    for alias in aliases:
                        for result in plan.push(alias, t):
                            self._buffer_result(name, result)
                            out.append(result)
                            for sink in self._sinks.get(name, []):
                                sink(result)
        return out

    def push_query(self, name: str, t: StreamTuple) -> List[StreamTuple]:
        """Route one tuple to a single named plan (simulator delivery path).

        The pub/sub layer delivers each substream tuple once per subscribed
        query, so the simulator addresses plans individually instead of
        fanning out by stream name.  Results are returned and sent to the
        query's sinks but *not* buffered in :attr:`results` -- in a
        long-running simulation the caller owns result retention.  Unknown
        names are a no-op (the query may have just churned away).
        """
        plan = self.plans.get(name)
        if plan is None:
            return []
        out: List[StreamTuple] = []
        # the plan's own bindings (at most 2) say which aliases read this
        # stream -- no need to scan the engine-wide reader lists
        for b in plan.query.bindings:
            if b.stream != t.stream:
                continue
            for result in plan.push(b.alias, t):
                out.append(result)
                for sink in self._sinks.get(name, ()):
                    sink(result)
        return out

    def push_query_batch(self, name: str, batch) -> BatchResults:
        """Route a batch to a single named plan; results grouped per row.

        The batch counterpart of :meth:`push_query`.  ``batch`` is a
        :class:`~repro.engine.tuples.TupleBatch` of one stream or a
        :class:`~repro.engine.tuples.MergedBatch` interleaving several (a
        two-input query's drain in delivery order); either way the
        result has one entry per input row, in input order (so the
        simulator can account latency and proxy traffic per source
        tuple), the query's sinks are called in the same order as
        row-at-a-time delivery, and nothing is buffered in
        :attr:`results`.  What is done before it returns: predicate
        masks, the kept ``(row, partner)`` index arrays, window state and
        every counter.  What is not: the result tuples themselves -- see
        :class:`BatchResults`; a sink on the query builds them here.
        Unknown names and rows of streams the plan does not read are
        no-ops.  Plans reading one stream through two aliases
        (self-joins) fall back to the scalar path row by row -- output
        and counters are identical either way.
        """
        plan = self.plans.get(name)
        parts = (
            batch.parts
            if isinstance(batch, MergedBatch)
            else [(batch, np.arange(batch.n))]
        )
        reading = []
        for part, positions in parts:
            aliases = () if plan is None else [
                b.alias for b in plan.query.bindings if b.stream == part.stream
            ]
            if aliases and part.n:
                reading.append((aliases, part, positions))
        if not reading:
            return BatchResults([0] * batch.n, [])
        if all(len(a) == 1 for a, _, _ in reading):
            results, row_index = plan.push_batch(
                [(a[0], part, positions) for a, part, positions in reading]
            )
            # result rows are in input-row order: a row's results are one
            # contiguous run of them
            counts = (
                [results.n]
                if batch.n == 1
                else np.bincount(row_index, minlength=batch.n).tolist()
            )
            out = BatchResults(counts, results)
        else:
            counts = []
            tuples: List[StreamTuple] = []
            for t in batch.to_tuples():
                before = len(tuples)
                for b in plan.query.bindings:
                    if b.stream == t.stream:
                        tuples.extend(plan.push(b.alias, t))
                counts.append(len(tuples) - before)
            out = BatchResults(counts, tuples)
        sinks = self._sinks.get(name)
        if sinks:
            for result in out.tuples():
                for sink in sinks:
                    sink(result)
        return out

    def run(self, tuples: Sequence[StreamTuple]) -> Dict[str, List[StreamTuple]]:
        """Push a whole trace (must be timestamp-ordered per stream)."""
        for t in tuples:
            self.push(t)
        return dict(self.results)

    # ------------------------------------------------------------------
    def cpu_costs(self) -> Dict[str, int]:
        """Per-query tuples-inspected counters (load statistics)."""
        return {name: plan.cpu_cost() for name, plan in self.plans.items()}

    def operator_metrics(self) -> Dict[str, Dict[str, int]]:
        """Per-plan operator counters (observability snapshot)."""
        return {
            name: plan.operator_counters()
            for name, plan in self.plans.items()
        }

    def state_sizes(self) -> Dict[str, int]:
        """Per-query operator state (window extents), for migration cost."""
        return {name: plan.state_size() for name, plan in self.plans.items()}
