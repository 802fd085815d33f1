"""Sliding windows over streams.

Time windows keep tuples with ``timestamp >= now - seconds`` (``[Now]`` is
``seconds = 0``: only tuples with the current timestamp).  Row windows
keep the last ``rows`` tuples.  Eviction is incremental: windows are
deques with monotone timestamps.

Two implementations share those semantics:

* :class:`SlidingWindow` -- a deque of :class:`StreamTuple`\\ s, the
  scalar reference path;
* :class:`ColumnWindow` -- the same extent as numpy column arrays with a
  start offset (vectorised time/row eviction, amortised append), backing
  the batch join path.  Its state after inserting a batch is element-wise
  identical to a :class:`SlidingWindow` fed the same rows one at a time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..query.ast import Window
from .tuples import StreamTuple, TupleBatch

__all__ = ["SlidingWindow", "ColumnWindow"]


class SlidingWindow:
    """The materialised extent of one window over one stream."""

    def __init__(self, spec: Window):
        self.spec = spec
        self._buf: Deque[StreamTuple] = deque()
        self._last_ts: Optional[float] = None
        #: total tuples dropped from this extent (row cap or horizon)
        self.evicted: int = 0

    def clone(self) -> "SlidingWindow":
        """An independent copy of the extent (tuples are shared, the
        deque is not), for checkpoint snapshots."""
        out = SlidingWindow(self.spec)
        out._buf = deque(self._buf)
        out._last_ts = self._last_ts
        out.evicted = self.evicted
        return out

    def insert(self, t: StreamTuple) -> None:
        """Append a tuple (timestamps must be non-decreasing)."""
        if self._last_ts is not None and t.timestamp < self._last_ts:
            raise ValueError(
                f"out-of-order tuple: {t.timestamp} after {self._last_ts}"
            )
        self._last_ts = t.timestamp
        self._buf.append(t)
        if self.spec.rows is not None:
            while len(self._buf) > self.spec.rows:
                self._buf.popleft()
                self.evicted += 1
        else:
            self.evict(t.timestamp)

    def evict(self, now: float) -> None:
        """Drop tuples that left a time window as of ``now``."""
        if self.spec.rows is not None:
            return
        horizon = now - self.spec.seconds
        while self._buf and self._buf[0].timestamp < horizon:
            self._buf.popleft()
            self.evicted += 1

    def __iter__(self) -> Iterator[StreamTuple]:
        """Iterate the extent oldest-first without copying the deque.

        Callers must not insert/evict mid-iteration; the join probe loop
        (one :meth:`evict`, then a read-only walk) satisfies that.
        """
        return iter(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ColumnWindow:
    """A sliding-window extent stored as columns (the batch join state).

    Rows live in numpy arrays of capacity >= the live extent; ``_start``
    and ``_end`` delimit the live region, so eviction is a pointer bump
    and appending amortises to O(1) per row via capacity doubling.
    Columns follow the union of attributes seen so far; rows missing an
    attribute are tracked in per-column presence masks (object columns),
    mirroring :class:`~repro.engine.tuples.TupleBatch`.
    """

    def __init__(self, spec: Window):
        self.spec = spec
        self._cols: Dict[str, np.ndarray] = {}
        self._present: Dict[str, np.ndarray] = {}
        self._ts = np.empty(0, dtype=np.float64)
        self._start = 0
        self._end = 0
        self._last_ts: Optional[float] = None
        #: total rows dropped from this extent (row cap or horizon)
        self.evicted: int = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._end - self._start

    @property
    def timestamps(self) -> np.ndarray:
        """Timestamps of the live extent, oldest first (a view)."""
        return self._ts[self._start:self._end]

    def column(self, name: str) -> Optional[np.ndarray]:
        """Live extent of one column (a view), or None if never seen."""
        col = self._cols.get(name)
        return None if col is None else col[self._start:self._end]

    def attributes(self) -> List[str]:
        return list(self._cols)

    def buffers(
        self,
    ) -> Tuple[int, np.ndarray, List[Tuple[str, np.ndarray, Optional[np.ndarray]]]]:
        """``(end, timestamps, [(name, column, presence or None)])``:
        the backing arrays themselves and the position one past the
        newest row in them.

        A snapshot that outlives the extent: appends write at ``end`` and
        beyond, eviction only advances the live start, and growing,
        demoting a column to ``object`` or adding a presence mask all
        allocate *new* arrays, so rows before ``end`` of the arrays
        returned here are never written again.  Growing keeps the live
        extent, so right after :meth:`append_batch` the rows that were
        live before it sit just below the appended ones.
        """
        present = self._present
        return (
            self._end,
            self._ts,
            [(k, col, present.get(k)) for k, col in self._cols.items()],
        )

    def clone(self) -> "ColumnWindow":
        """An independent copy of the columnar state, capacity included,
        so the clone's future growth/eviction behaviour is identical."""
        out = ColumnWindow(self.spec)
        out._cols = {k: c.copy() for k, c in self._cols.items()}
        out._present = {k: m.copy() for k, m in self._present.items()}
        out._ts = self._ts.copy()
        out._start = self._start
        out._end = self._end
        out._last_ts = self._last_ts
        out.evicted = self.evicted
        return out

    # ------------------------------------------------------------------
    def _grow(self, extra: int) -> None:
        """Compact the dead prefix / grow so ``extra`` rows fit at the tail."""
        if self._end + extra <= len(self._ts):
            return
        live = self._end - self._start
        new_cap = max(16, 2 * (live + extra))
        sl = slice(self._start, self._end)

        def moved(arr: np.ndarray) -> np.ndarray:
            out = np.empty(new_cap, dtype=arr.dtype)
            out[:live] = arr[sl]
            return out

        self._ts = moved(self._ts)
        self._cols = {k: moved(c) for k, c in self._cols.items()}
        self._present = {k: moved(m) for k, m in self._present.items()}
        self._start, self._end = 0, live

    def _as_object(self, name: str) -> None:
        """Demote a typed column to object dtype (attribute went ragged)."""
        col = self._cols[name]
        out = np.empty(len(col), dtype=object)
        out[self._start:self._end] = col[self._start:self._end].tolist()
        self._cols[name] = out

    def append_batch(self, batch: TupleBatch) -> None:
        """Insert ``batch``'s rows (non-decreasing timestamps), evicting.

        Mirrors ``SlidingWindow.insert`` row by row: row windows trim to
        the last ``rows`` entries, time windows evict up to the batch's
        final timestamp.
        """
        n = batch.n
        if n == 0:
            return
        ts = batch.timestamps
        if n > 1 and bool(np.any(np.diff(ts) < 0)):
            bad = int(np.argmax(np.diff(ts) < 0))
            raise ValueError(
                f"out-of-order tuple: {ts[bad + 1]} after {ts[bad]}"
            )
        if self._last_ts is not None and ts[0] < self._last_ts:
            raise ValueError(
                f"out-of-order tuple: {ts[0]} after {self._last_ts}"
            )
        self._last_ts = float(ts[-1])
        self._grow(n)
        live = self._end - self._start
        sl = slice(self._end, self._end + n)
        self._ts[sl] = ts
        for k, incoming in batch.columns.items():
            col = self._cols.get(k)
            if col is None:
                if live:
                    # new attribute: back-fill absent for the existing rows
                    col = np.empty(len(self._ts), dtype=object)
                    col[self._start:self._end] = None
                    self._present[k] = np.zeros(len(self._ts), dtype=bool)
                else:
                    col = np.empty(len(self._ts), dtype=incoming.dtype)
                self._cols[k] = col
            elif col.dtype != incoming.dtype and col.dtype != object:
                self._as_object(k)
                col = self._cols[k]
            if col.dtype == object and incoming.dtype != object:
                col[sl] = incoming.tolist()
            else:
                col[sl] = incoming
            in_mask = batch.present.get(k)
            mask = self._present.get(k)
            if mask is None and in_mask is not None:
                self._present[k] = mask = np.ones(len(self._ts), dtype=bool)
            if mask is not None:
                mask[sl] = True if in_mask is None else in_mask
        for k in self._cols:
            if k not in batch.columns:
                # attribute absent from the whole batch
                if self._cols[k].dtype != object:
                    self._as_object(k)
                mask = self._present.get(k)
                if mask is None:
                    self._present[k] = mask = np.ones(
                        len(self._ts), dtype=bool
                    )
                self._cols[k][sl] = None
                mask[sl] = False
        self._end += n
        if self.spec.rows is not None:
            excess = (self._end - self._start) - self.spec.rows
            if excess > 0:
                self._start += excess
                self.evicted += excess
        else:
            self.evict(float(ts[-1]))

    def evict(self, now: float) -> None:
        """Drop rows that left a time window as of ``now``."""
        if self.spec.rows is not None:
            return
        horizon = now - self.spec.seconds
        dropped = int(
            np.searchsorted(
                self._ts[self._start:self._end], horizon, side="left"
            )
        )
        self._start += dropped
        self.evicted += dropped

    def to_tuples(self, stream: str) -> List[StreamTuple]:
        """The live extent as scalar tuples (state handoff, debugging)."""
        cols = {
            k: self._cols[k][self._start:self._end] for k in self._cols
        }
        present = {
            k: m[self._start:self._end] for k, m in self._present.items()
        }
        return TupleBatch(
            stream, cols, self._end - self._start, present or None
        ).to_tuples()
