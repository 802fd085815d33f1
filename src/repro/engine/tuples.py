"""Stream tuples, schemas, and columnar tuple batches.

Two representations of stream data coexist (a third,
:class:`DeferredBatch`, is a :class:`TupleBatch` that has not been
gathered yet, and a :class:`MergedBatch` interleaves batches of several
streams in one delivery order):

* :class:`StreamTuple` -- one row as a ``dict`` (the scalar reference
  path, unchanged semantics since the seed);
* :class:`TupleBatch` -- many rows of one stream as numpy column arrays
  (the batch fast path).  Converters are bit-faithful: a column whose
  values are all Python ``int``/``float``/``bool`` round-trips through
  the matching numpy dtype, anything else (strings, mixed types) through
  an ``object`` array holding the original objects.  Rows missing an
  attribute are tracked in per-column presence masks so
  :meth:`TupleBatch.to_tuples` reproduces the exact per-row mappings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "Schema",
    "StreamTuple",
    "TupleBatch",
    "DeferredBatch",
    "MergedBatch",
]


@dataclass(frozen=True)
class Schema:
    """Attribute names of a stream; every tuple carries a ``timestamp``."""

    stream: str
    attributes: Tuple[str, ...]

    def __post_init__(self):
        if "timestamp" not in self.attributes:
            object.__setattr__(
                self, "attributes", self.attributes + ("timestamp",)
            )


@dataclass(frozen=True)
class StreamTuple:
    """One element of a stream.

    ``values`` always contains ``timestamp`` (seconds).  Joined tuples use
    qualified names (``Alias.attr``) produced by :func:`qualify`.
    """

    stream: str
    values: Mapping[str, Any]

    @property
    def timestamp(self) -> float:
        """The tuple's timestamp in seconds."""
        return float(self.values["timestamp"])

    def get(self, attr: str, default: Any = None) -> Any:
        """Attribute lookup with a default, like ``dict.get``."""
        return self.values.get(attr, default)

    def qualify(self, alias: str) -> Dict[str, Any]:
        """Values keyed as ``alias.attr`` (for join outputs)."""
        return {f"{alias}.{k}": v for k, v in self.values.items()}


#: placeholder distinguishing "attribute absent" from a stored ``None``
_MISSING = object()


def _column_array(values: List[Any]) -> np.ndarray:
    """A numpy column that round-trips the given Python values exactly.

    Homogeneous ``int``/``float``/``bool`` columns use the native dtype
    (``tolist`` restores the original Python scalars bit for bit);
    everything else falls back to an object array holding the values
    themselves.  ``bool`` is checked by exact type: it subclasses ``int``
    and must not be coerced into an int column.
    """
    kinds = {type(v) for v in values}
    try:
        if kinds == {int}:
            return np.array(values, dtype=np.int64)
        if kinds == {float}:
            return np.array(values, dtype=np.float64)
        if kinds == {bool}:
            return np.array(values, dtype=np.bool_)
    except OverflowError:
        pass  # e.g. ints beyond int64: keep the objects
    col = np.empty(len(values), dtype=object)
    col[:] = values
    return col


class TupleBatch:
    """``n`` rows of one stream, stored as per-attribute column arrays.

    ``columns`` maps attribute name to an array of length ``n``;
    ``present`` optionally maps a column name to a boolean mask marking
    rows that actually carry the attribute (columns absent from
    ``present`` are fully populated -- the fast path).  Batches are
    treated as immutable: operators build new batches sharing column
    arrays where possible (projection is column selection, filtering is
    one fancy-index per column).
    """

    __slots__ = ("stream", "columns", "present", "n")

    def __init__(
        self,
        stream: str,
        columns: Dict[str, np.ndarray],
        n: int,
        present: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.stream = stream
        self.columns = columns
        self.present = present or {}
        self.n = n

    # ------------------------------------------------------------------
    # converters
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, stream: str, tuples: Sequence[StreamTuple]
    ) -> "TupleBatch":
        """Columnarise tuples (all of ``stream``); order is preserved."""
        n = len(tuples)
        for t in tuples:
            if t.stream != stream:
                raise ValueError(
                    f"tuple of stream {t.stream!r} in a {stream!r} batch"
                )
        if n:
            # rows that all carry the first row's attributes (every source
            # batch of the simulator) need no presence bookkeeping
            first = tuples[0].values
            keys = first.keys()
            if all(t.values.keys() == keys for t in tuples):
                return cls(
                    stream,
                    {
                        k: _column_array([t.values[k] for t in tuples])
                        for k in first
                    },
                    n,
                )
        cols: Dict[str, List[Any]] = {}
        ragged = set()  # columns some row does not carry
        for i, t in enumerate(tuples):
            for k, v in t.values.items():
                col = cols.get(k)
                if col is None:
                    cols[k] = col = [_MISSING] * i
                    if i:
                        ragged.add(k)
                elif len(col) < i:
                    col.extend([_MISSING] * (i - len(col)))
                    ragged.add(k)
                col.append(v)
        masks: Dict[str, np.ndarray] = {}
        arrays: Dict[str, np.ndarray] = {}
        for k, col in cols.items():
            if len(col) < n:
                col.extend([_MISSING] * (n - len(col)))
                ragged.add(k)
            if k in ragged:
                masks[k] = np.array(
                    [v is not _MISSING for v in col], dtype=bool
                )
                arr = np.empty(n, dtype=object)
                arr[:] = [None if v is _MISSING else v for v in col]
                arrays[k] = arr
            else:
                arrays[k] = _column_array(col)
        return cls(stream, arrays, n, present=masks or None)

    def to_tuples(self) -> List[StreamTuple]:
        """The rows as :class:`StreamTuple`\\ s with original value types."""
        names = list(self.columns)
        if not names:
            return [StreamTuple(self.stream, {}) for _ in range(self.n)]
        cols = [self.columns[k].tolist() for k in names]
        stream = self.stream
        if not self.present:
            return [
                StreamTuple(stream, dict(zip(names, row)))
                for row in zip(*cols)
            ]
        masks = [
            None if (m := self.present.get(k)) is None else m.tolist()
            for k in names
        ]
        out: List[StreamTuple] = []
        for i in range(self.n):
            values = {}
            for k, col, mask in zip(names, cols, masks):
                if mask is None or mask[i]:
                    values[k] = col[i]
            out.append(StreamTuple(stream, values))
        return out

    # ------------------------------------------------------------------
    # cheap structural ops
    # ------------------------------------------------------------------
    def column(self, name: str) -> Optional[np.ndarray]:
        return self.columns.get(name)

    @property
    def timestamps(self) -> np.ndarray:
        """The ``timestamp`` column as float64 (every stream carries it)."""
        return np.asarray(self.columns["timestamp"], dtype=np.float64)

    def with_stream(self, stream: str) -> "TupleBatch":
        """Same rows under another stream name (no copying)."""
        if stream == self.stream:
            return self
        return TupleBatch(stream, self.columns, self.n, self.present or None)

    def take(self, idx: np.ndarray) -> "TupleBatch":
        """Rows at ``idx`` (an integer index array), in that order."""
        cols = {k: col[idx] for k, col in self.columns.items()}
        present = {k: m[idx] for k, m in self.present.items()}
        return TupleBatch(self.stream, cols, int(len(idx)), present or None)

    def filter(self, mask: np.ndarray) -> "TupleBatch":
        """Rows where the boolean ``mask`` holds, preserving order."""
        if mask.all():
            return self
        cols = {k: col[mask] for k, col in self.columns.items()}
        present = {k: m[mask] for k, m in self.present.items()}
        return TupleBatch(
            self.stream, cols, int(np.count_nonzero(mask)), present or None
        )

    def select_columns(self, keep) -> "TupleBatch":
        """Batch with only the columns accepted by predicate ``keep``."""
        cols = {k: c for k, c in self.columns.items() if keep(k)}
        present = {k: m for k, m in self.present.items() if k in cols}
        return TupleBatch(self.stream, cols, self.n, present or None)

    @classmethod
    def empty(cls, stream: str) -> "TupleBatch":
        return cls(stream, {}, 0)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TupleBatch({self.stream!r}, n={self.n}, "
            f"columns={sorted(self.columns)})"
        )


class DeferredBatch:
    """``n`` rows of one stream whose columns have not been gathered yet.

    ``columns`` and ``present`` map attribute names to zero-argument
    callables returning what the same-named :class:`TupleBatch` entries
    hold.  The row count and the attribute names are known at once, so a
    consumer that only counts rows pays for nothing else, and projection
    is still column selection; :meth:`batch` calls the thunks.  A join
    probe builds its output this way (``array[index]`` gathers over the
    kept pairs): the thunks hold arrays, never a window, so the rows
    they describe do not change when the window later moves on.
    """

    __slots__ = ("stream", "columns", "present", "n")

    def __init__(
        self,
        stream: str,
        columns: Dict[str, Callable[[], np.ndarray]],
        n: int,
        present: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
    ):
        self.stream = stream
        self.columns = columns
        self.present = present or {}
        self.n = n

    def with_stream(self, stream: str) -> "DeferredBatch":
        """Same rows under another stream name."""
        if stream == self.stream:
            return self
        return DeferredBatch(stream, self.columns, self.n, self.present)

    def select_columns(self, keep) -> "DeferredBatch":
        """Only the columns accepted by predicate ``keep``, decided now."""
        cols = {k: c for k, c in self.columns.items() if keep(k)}
        present = {k: m for k, m in self.present.items() if k in cols}
        return DeferredBatch(self.stream, cols, self.n, present)

    def batch(self) -> TupleBatch:
        """Gather the columns."""
        return TupleBatch(
            self.stream,
            {k: col() for k, col in self.columns.items()},
            self.n,
            {k: mask() for k, mask in self.present.items()} or None,
        )

    def to_tuples(self) -> List[StreamTuple]:
        """The rows as :class:`StreamTuple`\\ s (see :meth:`TupleBatch.to_tuples`)."""
        return self.batch().to_tuples()


class MergedBatch:
    """``n`` rows of several streams in one delivery order.

    ``parts`` holds, per stream (first-seen order), a :class:`TupleBatch`
    of that stream's rows and the increasing positions they take in the
    merged order.  A two-input query consumes one drain's rows this way
    in a single push instead of one push per same-stream run.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts: List[Tuple[TupleBatch, np.ndarray]], n: int):
        self.parts = parts
        self.n = n

    @classmethod
    def from_tuples(cls, tuples: Sequence[StreamTuple]) -> "MergedBatch":
        """Columnarise tuples of any streams; the order is the merged order."""
        by_stream: Dict[str, Tuple[List[StreamTuple], List[int]]] = {}
        for i, t in enumerate(tuples):
            entry = by_stream.get(t.stream)
            if entry is None:
                by_stream[t.stream] = entry = ([], [])
            entry[0].append(t)
            entry[1].append(i)
        return cls(
            [
                (
                    TupleBatch.from_tuples(stream, rows),
                    np.asarray(positions, dtype=np.int64),
                )
                for stream, (rows, positions) in by_stream.items()
            ],
            len(tuples),
        )

    def to_tuples(self) -> List[StreamTuple]:
        """The rows as :class:`StreamTuple`\\ s, in the merged order."""
        out: List[Optional[StreamTuple]] = [None] * self.n
        for batch, positions in self.parts:
            for i, t in zip(positions.tolist(), batch.to_tuples()):
                out[i] = t
        return out

    def __len__(self) -> int:
        return self.n

