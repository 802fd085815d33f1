"""Continuous operators: selection, projection, window band-join.

The engine is push-based and runs on one of two data planes:

* the scalar reference path -- every operator exposes
  ``process(tuple) -> list of output tuples``;
* the columnar batch path -- ``process_batch(TupleBatch)`` evaluates
  predicates as boolean masks over column arrays, projects by column
  selection, and joins against a :class:`~repro.engine.windows.ColumnWindow`
  with candidate index arrays instead of per-partner dict merges.

The two paths are bit-identical: same output tuples in the same order,
same ``inspected`` counters (CPU accounting).  A single operator instance
must stay on one path for its lifetime (window state is not shared
between the deque and columnar representations); :class:`WindowJoin`
raises on mixing.

Join outputs use qualified attribute names (``Alias.attr``), matching how
the paper's merged queries and split subscriptions address result-stream
attributes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..query.ast import AttrRef, Comparison, Literal, Window
from .tuples import DeferredBatch, StreamTuple, TupleBatch
from .windows import ColumnWindow, SlidingWindow

__all__ = [
    "Operator",
    "Select",
    "Project",
    "WindowJoin",
    "evaluate_comparison",
    "evaluate_predicates_batch",
]


def _operand_value(operand, values: Mapping[str, Any]):
    if isinstance(operand, Literal):
        return operand.value
    return values.get(str(operand))


def evaluate_comparison(c: Comparison, values: Mapping[str, Any]) -> bool:
    """Evaluate a predicate over qualified values; missing attrs fail."""
    left = _operand_value(c.left, values)
    right = _operand_value(c.right, values)
    if left is None or right is None:
        return False
    if c.op == "==":
        return left == right
    if c.op == "!=":
        return left != right
    if c.op == "<":
        return left < right
    if c.op == "<=":
        return left <= right
    if c.op == ">":
        return left > right
    if c.op == ">=":
        return left >= right
    raise AssertionError(c.op)


_NUMPY_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _comparison_mask(
    c: Comparison,
    columns: Mapping[str, np.ndarray],
    present: Mapping[str, np.ndarray],
    n: int,
) -> np.ndarray:
    """Boolean mask of rows satisfying one predicate (missing -> False)."""
    operands = []
    valid: Optional[np.ndarray] = None
    vectorised = True
    for operand in (c.left, c.right):
        if isinstance(operand, Literal):
            value = operand.value
            if value is None:
                return np.zeros(n, dtype=bool)
            operands.append(value)
            continue
        col = columns.get(str(operand))
        if col is None:
            return np.zeros(n, dtype=bool)
        mask = present.get(str(operand))
        if mask is not None:
            valid = mask if valid is None else (valid & mask)
        if col.dtype == object:
            vectorised = False
        operands.append(col)
    left, right = operands
    if vectorised:
        try:
            out = _NUMPY_OPS[c.op](left, right)
        except TypeError:
            vectorised = False
        else:
            if not isinstance(out, np.ndarray):  # incomparable dtypes
                out = np.full(n, bool(out))
            out = out.astype(bool, copy=False)
    if not vectorised:
        # object columns (or incomparable types): scalar semantics per row
        lv = left.tolist() if isinstance(left, np.ndarray) else [left] * n
        rv = right.tolist() if isinstance(right, np.ndarray) else [right] * n
        out = np.fromiter(
            (_compare_scalar(c.op, a, b) for a, b in zip(lv, rv)),
            dtype=bool,
            count=n,
        )
    if valid is not None:
        out &= valid
    return out


def _compare_scalar(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if op == "==":
        return bool(left == right)
    if op == "!=":
        return bool(left != right)
    if op == "<":
        return bool(left < right)
    if op == "<=":
        return bool(left <= right)
    if op == ">":
        return bool(left > right)
    return bool(left >= right)


def evaluate_predicates_batch(
    predicates: Sequence[Comparison],
    columns: Mapping[str, np.ndarray],
    n: int,
    present: Optional[Mapping[str, np.ndarray]] = None,
) -> np.ndarray:
    """Rows (as a boolean mask) passing the conjunction of ``predicates``.

    Bit-identical to evaluating :func:`evaluate_comparison` per row:
    missing attributes and ``None`` values fail, comparisons follow
    Python semantics (object columns fall back to per-row evaluation).
    """
    mask = np.ones(n, dtype=bool)
    for c in predicates:
        if not mask.any():
            break
        mask &= _comparison_mask(c, columns, present or {}, n)
    return mask


class Operator:
    """Base class; subclasses implement :meth:`process` (and, for batch
    execution, :meth:`process_batch`)."""

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Consume one tuple; return zero or more output tuples."""
        raise NotImplementedError

    def process_batch(self, batch: TupleBatch) -> Tuple[TupleBatch, np.ndarray]:
        """Consume a batch; returns (output batch, input-row index).

        The index array maps each output row back to the input row that
        produced it (non-decreasing), so callers can group results per
        source tuple exactly as the scalar path does.
        """
        raise NotImplementedError

    #: number of tuples this operator inspected (CPU accounting)
    inspected: int = 0


class Select(Operator):
    """Filter by a conjunction of predicates over qualified names."""

    def __init__(self, predicates: Sequence[Comparison], out_stream: str = ""):
        self.predicates = list(predicates)
        self.out_stream = out_stream
        self.inspected = 0

    def clone(self) -> "Select":
        """An independent copy (counters included), for checkpoints.

        ``type(self)`` keeps subclass behaviour: the alias-qualifying
        selects built by ``repro.engine.plans`` clone through here too.
        """
        out = type(self)(list(self.predicates), self.out_stream)
        out.inspected = self.inspected
        return out

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Pass ``t`` through iff every predicate holds."""
        self.inspected += 1
        # evaluate against the tuple's own mapping -- no per-tuple copy
        if all(evaluate_comparison(p, t.values) for p in self.predicates):
            out = t if not self.out_stream else StreamTuple(self.out_stream, t.values)
            return [out]
        return []

    def process_batch(self, batch: TupleBatch) -> Tuple[TupleBatch, np.ndarray]:
        """Mask-filter the batch; counters match the scalar path."""
        self.inspected += batch.n
        if not self.predicates:
            kept = batch
            rows = np.arange(batch.n)
        else:
            mask = evaluate_predicates_batch(
                self.predicates, batch.columns, batch.n, batch.present
            )
            kept = batch.filter(mask)
            rows = np.flatnonzero(mask)
        if self.out_stream:
            kept = kept.with_stream(self.out_stream)
        return kept, rows


class Project(Operator):
    """Keep only the given qualified attributes (always keeps timestamps)."""

    def __init__(self, attributes: Optional[Sequence[str]], out_stream: str = ""):
        self.attributes = None if attributes is None else set(attributes)
        self.out_stream = out_stream
        self.inspected = 0

    def clone(self) -> "Project":
        """An independent copy (counters included), for checkpoints."""
        attrs = None if self.attributes is None else sorted(self.attributes)
        out = Project(attrs, self.out_stream)
        out.inspected = self.inspected
        return out

    def _keeps(self, attr: str) -> bool:
        return (
            attr in self.attributes
            or attr.endswith("timestamp")
            or attr.endswith("timestamp_lag")
        )

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Project ``t`` onto the selected attributes (keeps timestamps)."""
        self.inspected += 1
        if self.attributes is None:
            values = dict(t.values)
        else:
            values = {k: v for k, v in t.values.items() if self._keeps(k)}
        stream = self.out_stream or t.stream
        return [StreamTuple(stream, values)]

    def process_batch(self, batch):
        """Column selection; rows map 1:1 to the input.

        Works on a :class:`~repro.engine.tuples.DeferredBatch` as well:
        which columns survive is decided here, from the projection as it
        is now, whenever the columns are gathered.
        """
        self.inspected += batch.n
        out = batch if self.attributes is None else batch.select_columns(self._keeps)
        if self.out_stream:
            out = out.with_stream(self.out_stream)
        return out, np.arange(batch.n)


def _probe_ts(left_ts, right_ts, left_pos, right_pos, left_probes) -> np.ndarray:
    """Per pair: the probing row's timestamp (the result's ``timestamp``)."""
    return np.where(left_probes, left_ts[left_pos], right_ts[right_pos])


def _lag(mine_ts, other_ts, mine_pos, other_pos, mine_probes) -> np.ndarray:
    """Per pair: one side's ``timestamp_lag`` -- 0 where that side
    probes, else the probing (other) row's timestamp minus its own."""
    return np.where(
        mine_probes, 0.0, other_ts[other_pos] - mine_ts[mine_pos]
    )


class WindowJoin(Operator):
    """Two-way sliding-window join (the paper's only join shape).

    Each input tuple joins against the *other* side's current window
    extent; matched pairs are emitted with qualified attribute names plus
    a top-level ``timestamp`` (the newer of the two).  Predicates may
    reference ``left_alias.attr`` and ``right_alias.attr``.
    """

    def __init__(
        self,
        left_alias: str,
        left_window: Window,
        right_alias: str,
        right_window: Window,
        predicates: Sequence[Comparison],
        out_stream: str,
    ):
        self.left_alias = left_alias
        self.right_alias = right_alias
        self.left_window = SlidingWindow(left_window)
        self.right_window = SlidingWindow(right_window)
        #: columnar window state, created lazily on first batch push; a
        #: join instance runs scalar OR batch for its whole life
        self.left_cols: Optional[ColumnWindow] = None
        self.right_cols: Optional[ColumnWindow] = None
        self.predicates = list(predicates)
        #: the qualified attributes the predicates read -- all a batch
        #: probe gathers before it knows which pairs survive
        self._probe_attrs = sorted(
            {
                str(operand)
                for c in self.predicates
                for operand in (c.left, c.right)
                if not isinstance(operand, Literal)
            }
        )
        self.out_stream = out_stream
        self.inspected = 0

    def clone(self) -> "WindowJoin":
        """An independent copy of the join, window state included.

        Both the scalar deque windows and the lazily created columnar
        windows are duplicated, so the clone can keep executing on
        whichever data plane the original was on.
        """
        out = WindowJoin(
            self.left_alias,
            self.left_window.spec,
            self.right_alias,
            self.right_window.spec,
            list(self.predicates),
            self.out_stream,
        )
        out.left_window = self.left_window.clone()
        out.right_window = self.right_window.clone()
        if self.left_cols is not None:
            out.left_cols = self.left_cols.clone()
        if self.right_cols is not None:
            out.right_cols = self.right_cols.clone()
        out.inspected = self.inspected
        return out

    def state_size(self) -> int:
        """Tuples currently buffered across both join windows."""
        total = len(self.left_window) + len(self.right_window)
        if self.left_cols is not None:
            total += len(self.left_cols)
        if self.right_cols is not None:
            total += len(self.right_cols)
        return total

    def evicted(self) -> int:
        """Total tuples evicted from both windows (monotone counter)."""
        total = self.left_window.evicted + self.right_window.evicted
        if self.left_cols is not None:
            total += self.left_cols.evicted
        if self.right_cols is not None:
            total += self.right_cols.evicted
        return total

    def _sides(self, alias: str):
        if alias == self.left_alias:
            return "left", self.left_alias, self.right_alias
        if alias == self.right_alias:
            return "right", self.right_alias, self.left_alias
        raise KeyError(f"unknown join input {alias!r}")

    def process_side(self, alias: str, t: StreamTuple) -> List[StreamTuple]:
        """Insert ``t`` on its side and join it against the other window."""
        side, own_alias, other_alias = self._sides(alias)
        if self.left_cols is not None or self.right_cols is not None:
            raise TypeError(
                "WindowJoin holds columnar state; scalar and batch pushes "
                "cannot be mixed on one plan"
            )
        own, other = (
            (self.left_window, self.right_window)
            if side == "left"
            else (self.right_window, self.left_window)
        )
        own.insert(t)
        out: List[StreamTuple] = []
        # evict once, then walk the deque directly -- no per-probe copy
        other.evict(t.timestamp)
        for partner in other:
            self.inspected += 1
            values = t.qualify(own_alias)
            values.update(partner.qualify(other_alias))
            values["timestamp"] = t.timestamp
            # per-alias lag relative to the result timestamp: lets split
            # subscriptions re-apply a *smaller* window downstream
            values[f"{own_alias}.timestamp_lag"] = 0.0
            values[f"{other_alias}.timestamp_lag"] = t.timestamp - partner.timestamp
            if all(evaluate_comparison(p, values) for p in self.predicates):
                out.append(StreamTuple(self.out_stream, values))
        return out

    def process_batch_sides(
        self, sides: Sequence[Tuple[str, TupleBatch, np.ndarray]]
    ) -> Tuple[DeferredBatch, np.ndarray]:
        """Insert and probe one delivery's rows of both inputs at once.

        ``sides`` holds, per input alias (at most one entry each), the
        rows arriving on it and their strictly increasing positions in
        one merged delivery order -- ``(timestamp, arrival)`` order, the
        order the scalar path consumes them in.  Bit-identical to calling
        :meth:`process_side` row by row in that order: the same output
        rows in the same order, the same ``inspected`` count (every
        candidate pair) and the same window state afterwards.

        Every arriving row is appended to its side's
        :class:`~repro.engine.windows.ColumnWindow` first.  A row's
        partners are then one contiguous range of the other side's backing
        arrays: the rows live before this delivery plus the other side's
        rows that precede it here, cut at the front by the other window's
        row cap or time horizon as of the probing row (evictions only
        move forward along the merged order, so the row's own horizon is
        the binding one).  A candidate is a pair of absolute positions,
        one per window; only the columns the predicates read are gathered
        for it, and the output is a
        :class:`~repro.engine.tuples.DeferredBatch` over the kept pairs,
        so its row count is known and its columns cost nothing until
        somebody reads them.  Returns the output and, per output row, the
        merged position of the row that probed.
        """
        if len(self.left_window) or len(self.right_window):
            raise TypeError(
                "WindowJoin holds scalar state; scalar and batch pushes "
                "cannot be mixed on one plan"
            )
        if self.left_cols is None:
            self.left_cols = ColumnWindow(self.left_window.spec)
            self.right_cols = ColumnWindow(self.right_window.spec)
        wins = {self.left_alias: self.left_cols, self.right_alias: self.right_cols}
        arriving: Dict[str, Tuple[TupleBatch, np.ndarray]] = {}
        seen = set()
        for alias, batch, positions in sides:
            self._sides(alias)
            if alias in seen:
                raise ValueError(f"two batches for join input {alias!r}")
            seen.add(alias)
            if batch.n:
                arriving[alias] = (batch, np.asarray(positions, dtype=np.int64))
        if not arriving:
            return DeferredBatch(self.out_stream, {}, 0), np.arange(0)
        before = {alias: len(win) for alias, win in wins.items()}
        for alias, (batch, _) in arriving.items():
            wins[alias].append_batch(batch)
        # backing arrays taken after both appends: every row a probe can
        # pair with sits below each window's ``end``
        bufs = {alias: win.buffers() for alias, win in wins.items()}

        probes = []  # per arriving side: positions, own slots, starts, counts
        for alias, (batch, positions) in arriving.items():
            _, own_alias, other_alias = self._sides(alias)
            n = batch.n
            own_end, own_ts, _ = bufs[own_alias]
            other_end, other_ts, _ = bufs[other_alias]
            got = arriving.get(other_alias)
            other_new = 0 if got is None else got[0].n
            # the other side's rows live before this delivery start here
            base = other_end - other_new - before[other_alias]
            ends = other_end - other_new + (
                np.zeros(n, dtype=np.int64)
                if got is None
                else got[1].searchsorted(positions)
            )
            spec = wins[other_alias].spec
            if spec.rows is not None:
                starts = np.maximum(base, ends - spec.rows)
            else:
                ts = own_ts[own_end - n:own_end]
                starts = base + other_ts[base:other_end].searchsorted(
                    ts - spec.seconds, side="left"
                )
                starts = np.minimum(starts, ends)
            probes.append((
                positions,
                np.arange(own_end - n, own_end),
                starts,
                ends - starts,
                alias == self.left_alias,
            ))
            # every probing row evicts the other side's time window; the
            # newest one decides
            wins[other_alias].evict(float(own_ts[own_end - 1]))

        if len(probes) == 1:
            positions, own_slots, starts, counts, left = probes[0]
            lefts = np.full(len(positions), left)
        else:
            positions = np.concatenate([p[0] for p in probes])
            order = np.argsort(positions, kind="stable")
            positions = positions[order]
            own_slots = np.concatenate([p[1] for p in probes])[order]
            starts = np.concatenate([p[2] for p in probes])[order]
            counts = np.concatenate([p[3] for p in probes])[order]
            lefts = np.concatenate(
                [np.full(len(p[0]), p[4]) for p in probes]
            )[order]
        total = int(counts.sum())
        self.inspected += total
        if total == 0:
            return DeferredBatch(self.out_stream, {}, 0), np.arange(0)

        probe_of = np.repeat(np.arange(len(counts)), counts)
        firsts = np.cumsum(counts) - counts
        partner = starts[probe_of] + (np.arange(total) - firsts[probe_of])
        own = own_slots[probe_of]
        left_probes = lefts[probe_of]
        left_pos = np.where(left_probes, own, partner)
        right_pos = np.where(left_probes, partner, own)

        la, ra = self.left_alias, self.right_alias
        _, left_ts, left_cols = bufs[la]
        _, right_ts, right_cols = bufs[ra]
        # an output column is ``array[index]`` over one window's backing
        # array at the pairs' positions in it (True: the left window);
        # the timestamp and the two lags are computed, not gathered
        gathers: Dict[str, Tuple[np.ndarray, Optional[np.ndarray], bool]] = {}
        for k, col, mask in left_cols:
            gathers[f"{la}.{k}"] = (col, mask, True)
        for k, col, mask in right_cols:
            gathers[f"{ra}.{k}"] = (col, mask, False)
        left_lag, right_lag = f"{la}.timestamp_lag", f"{ra}.timestamp_lag"
        computed = {
            "timestamp": lambda lp, rp, probes: _probe_ts(
                left_ts, right_ts, lp, rp, probes
            ),
            left_lag: lambda lp, rp, probes: _lag(
                left_ts, right_ts, lp, rp, probes
            ),
            right_lag: lambda lp, rp, probes: _lag(
                right_ts, left_ts, rp, lp, ~probes
            ),
        }

        # eager, over every candidate pair: what the predicates read
        cols: Dict[str, np.ndarray] = {}
        present: Dict[str, np.ndarray] = {}
        for name in self._probe_attrs:
            if name in computed:
                cols[name] = computed[name](left_pos, right_pos, left_probes)
            elif name in gathers:
                col, mask, on_left = gathers[name]
                idx = left_pos if on_left else right_pos
                cols[name] = col[idx]
                if mask is not None:
                    present[name] = mask[idx]
        keep = evaluate_predicates_batch(self.predicates, cols, total, present)

        # deferred, over the kept pairs: every column, gathered on demand
        left_pos, right_pos = left_pos[keep], right_pos[keep]
        left_probes = left_probes[keep]
        out_cols: Dict[str, Callable[[], np.ndarray]] = {}
        out_present: Dict[str, Callable[[], np.ndarray]] = {}
        for name, (col, mask, on_left) in gathers.items():
            if name in computed:
                continue
            idx = left_pos if on_left else right_pos
            out_cols[name] = partial(col.__getitem__, idx)
            if mask is not None:
                out_present[name] = partial(mask.__getitem__, idx)
        for name, fn in computed.items():
            out_cols[name] = partial(fn, left_pos, right_pos, left_probes)
        return (
            DeferredBatch(self.out_stream, out_cols, len(left_pos), out_present),
            positions[probe_of[keep]],
        )

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Unsupported: a join needs to know which side ``t`` arrives on."""
        raise TypeError("WindowJoin requires process_side(alias, tuple)")

    def process_batch(self, batch: TupleBatch) -> Tuple[TupleBatch, np.ndarray]:
        """Unsupported: a join needs to know which side a batch arrives on."""
        raise TypeError("WindowJoin requires process_batch_sides(sides)")
