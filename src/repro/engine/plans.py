"""Compile a parsed :class:`~repro.query.ast.Query` into an operator plan.

Plan shape (the paper's query class): per-input selection pushed down,
then a window join for two-input queries, then projection.  Single-input
queries skip the join.  The plan exposes ``push(alias, tuple)`` and
returns result tuples named after the query's result stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..query.ast import AttrRef, Query
from .operators import Project, Select, WindowJoin
from .tuples import DeferredBatch, StreamTuple, TupleBatch

__all__ = ["QueryPlan", "compile_query"]


class QueryPlan:
    """An executable plan for one continuous query."""

    def __init__(
        self,
        query: Query,
        selects: Dict[str, Select],
        join: Optional[WindowJoin],
        project: Project,
        result_stream: str,
    ):
        self.query = query
        self.selects = selects
        self.join = join
        self.project = project
        self.result_stream = result_stream
        self.results_emitted = 0

    def aliases(self) -> List[str]:
        """Input aliases the plan accepts in :meth:`push`."""
        return self.query.aliases()

    def push(self, alias: str, t: StreamTuple) -> List[StreamTuple]:
        """Feed one input tuple; returns result tuples (possibly empty)."""
        if alias not in self.selects:
            raise KeyError(f"query {self.query.name!r} has no input {alias!r}")
        survivors = self.selects[alias].process(t)
        out: List[StreamTuple] = []
        for s in survivors:
            if self.join is not None:
                for joined in self.join.process_side(alias, s):
                    out.extend(self.project.process(joined))
            else:
                qualified = StreamTuple(
                    self.result_stream,
                    {**s.qualify(alias), "timestamp": s.timestamp},
                )
                out.extend(self.project.process(qualified))
        self.results_emitted += len(out)
        return out

    def push_batch(
        self, sides: Sequence[Tuple[str, TupleBatch, np.ndarray]]
    ) -> Tuple[Union[TupleBatch, DeferredBatch], np.ndarray]:
        """Feed batches of input tuples; columnar fast path.

        ``sides`` holds, per input alias (at most one entry each), a batch
        of rows arriving on it and the increasing positions those rows
        take in one merged delivery order; a join-less plan takes exactly
        one entry.  Returns the result batch plus an index array mapping
        each result row to the merged position of the input row that
        produced it (non-decreasing).  Output rows, their order, and
        every operator's ``inspected`` counter are bit-identical to
        pushing the rows one at a time, in the merged order, through
        :meth:`push`.  A join plan's result batch is deferred (row count
        and column names known, columns gathered by ``to_tuples()``), with
        the projection of *this* push already applied.
        """
        survivors = []
        for alias, batch, positions in sides:
            if alias not in self.selects:
                raise KeyError(
                    f"query {self.query.name!r} has no input {alias!r}"
                )
            kept, rows = self.selects[alias].process_batch(batch)
            survivors.append((alias, kept, positions[rows]))
        if self.join is not None:
            joined, row_index = self.join.process_batch_sides(survivors)
            out, _ = self.project.process_batch(joined)
        else:
            ((alias, kept, row_index),) = survivors
            qualified_cols = {
                f"{alias}.{k}": col for k, col in kept.columns.items()
            }
            qualified_present = {
                f"{alias}.{k}": m for k, m in kept.present.items()
            }
            qualified_cols["timestamp"] = kept.timestamps if kept.n else \
                np.empty(0, dtype=np.float64)
            qualified = TupleBatch(
                self.result_stream,
                qualified_cols,
                kept.n,
                qualified_present or None,
            )
            out, _ = self.project.process_batch(qualified)
        self.results_emitted += out.n
        return out, row_index

    def checkpoint(self) -> "QueryPlan":
        """A deep, adoptable snapshot of this plan and its window state.

        The snapshot shares nothing mutable with the running plan --
        window extents (deque and columnar), predicate lists, and
        ``inspected``/``results_emitted`` counters are all duplicated --
        so it can be shipped to a recovery host and handed straight to
        ``Engine.adopt_plan`` while the original keeps executing.  The
        AST ``query`` is immutable and stays shared.
        """
        selects = {alias: s.clone() for alias, s in self.selects.items()}
        join = None if self.join is None else self.join.clone()
        out = QueryPlan(
            self.query, selects, join, self.project.clone(), self.result_stream
        )
        out.results_emitted = self.results_emitted
        return out

    def widen_to(self, query: Query) -> None:
        """Widen this plan *in place* to a superset ``query``.

        The shared execution plane grows a group's merged query when a
        member joins; recompiling would discard the join-window state the
        existing members still need, so instead the operators are widened
        where they stand:

        * per-alias :class:`~repro.engine.operators.Select` predicates are
          replaced by the superset query's (weaker) conjunction;
        * join window specs grow (evictions simply stop earlier from the
          next probe on -- rows already evicted under the narrower window
          predate the joining member and are never needed by it);
        * the projection becomes the union of the two select lists.

        Only widening is legal: ``query`` must contain the current plan
        query, keep its name (the engine registry key) and keep the same
        bindings/join shape.
        """
        from ..query.containment import contains

        if query.name != self.query.name:
            raise ValueError("widen_to must preserve the plan's query name")
        if not contains(query, self.query):
            raise ValueError("widen_to requires a superset query")
        for b in query.bindings:
            preds = [
                c for c in query.selections()
                if isinstance(c.left, AttrRef) and c.left.stream == b.alias
            ]
            self.selects[b.alias].predicates = preds
        if self.join is not None:
            # look bindings up by alias -- a superset query built by
            # merging may list them in the other order
            for alias, win, cols in (
                (self.join.left_alias, self.join.left_window, self.join.left_cols),
                (self.join.right_alias, self.join.right_window, self.join.right_cols),
            ):
                binding = query.binding(alias)
                win.spec = binding.window
                if cols is not None:
                    cols.spec = binding.window
        if self.project.attributes is not None:
            attrs: Optional[List[str]] = []
            for b in query.bindings:
                selected = query.projected_attrs(b.alias)
                if selected is None:
                    attrs = None
                    break
                attrs.extend(f"{b.alias}.{a}" for a in selected)
            if attrs is None:
                self.project.attributes = None
            else:
                self.project.attributes |= set(attrs)
        self.query = query

    def cpu_cost(self) -> int:
        """Tuples inspected across all operators (load estimation input)."""
        total = sum(s.inspected for s in self.selects.values())
        if self.join is not None:
            total += self.join.inspected
        total += self.project.inspected
        return total

    def operator_counters(self) -> Dict[str, int]:
        """Per-operator monotone counters, for the observability layer.

        Counters only (never gauges), so deltas between two snapshots of
        a running plan are non-negative — the span recorder diffs them
        to attribute operator work to a tracked tuple's delivery.
        """
        out: Dict[str, int] = {}
        for alias in sorted(self.selects):
            out[f"select.{alias}.inspected"] = self.selects[alias].inspected
        if self.join is not None:
            out["join.inspected"] = self.join.inspected
            out["join.evicted"] = self.join.evicted()
        out["project.inspected"] = self.project.inspected
        out["results_emitted"] = self.results_emitted
        return out

    def state_size(self) -> int:
        """Tuples held in operator state (join windows); 0 without a join."""
        return self.join.state_size() if self.join is not None else 0


def compile_query(query: Query, result_stream: Optional[str] = None) -> QueryPlan:
    """Build the operator plan for ``query``."""
    if not 1 <= len(query.bindings) <= 2:
        raise ValueError("engine supports 1- and 2-way queries")
    result_stream = result_stream or (query.name or "result")

    selects: Dict[str, Select] = {}
    for b in query.bindings:
        preds = [
            c for c in query.selections()
            if isinstance(c.left, AttrRef) and c.left.stream == b.alias
        ]
        selects[b.alias] = _bare_select(preds, b.alias)

    join = None
    if len(query.bindings) == 2:
        left, right = query.bindings
        join = WindowJoin(
            left_alias=left.alias,
            left_window=left.window,
            right_alias=right.alias,
            right_window=right.window,
            predicates=list(query.joins()),
            out_stream=result_stream,
        )

    # projection over qualified names
    attrs: Optional[List[str]] = []
    for b in query.bindings:
        selected = query.projected_attrs(b.alias)
        if selected is None:
            attrs = None
            break
        attrs.extend(f"{b.alias}.{a}" for a in selected)
    project = Project(attrs, out_stream=result_stream)
    return QueryPlan(query, selects, join, project, result_stream)


def _bare_select(predicates, alias: str) -> Select:
    """A Select evaluating ``Alias.attr OP const`` on unqualified tuples."""
    from .operators import evaluate_comparison, evaluate_predicates_batch

    class _AliasedSelect(Select):
        def process(self, t: StreamTuple):
            self.inspected += 1
            if not self.predicates:
                return [t]
            values = {f"{alias}.{k}": v for k, v in t.values.items()}
            if all(evaluate_comparison(p, values) for p in self.predicates):
                return [t]
            return []

        def process_batch(self, batch: TupleBatch):
            self.inspected += batch.n
            if not self.predicates:
                return batch, np.arange(batch.n)
            cols = {f"{alias}.{k}": c for k, c in batch.columns.items()}
            present = {f"{alias}.{k}": m for k, m in batch.present.items()}
            mask = evaluate_predicates_batch(
                self.predicates, cols, batch.n, present
            )
            return batch.filter(mask), np.flatnonzero(mask)

    return _AliasedSelect(predicates)
