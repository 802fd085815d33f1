"""Result-stream sharing: merged superset queries and split subscriptions.

Section 2.1 of the paper: when several queries with overlapping results
run at one processor, COSMOS composes a single query ``Q`` whose result is
a superset of all of them, runs only ``Q``, and gives every user a
pub/sub subscription that carves its own result out of ``Q``'s result
stream -- re-applying the residual selection predicates, the window
constraint (as a timestamp band) and the projection.

``merge_queries(Q3, Q4)`` reproduces the paper's ``Q5``;
``split_subscription(Q5, Q3, s5)`` reproduces ``p^3_2``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..pubsub.predicates import Constraint, Filter
from ..pubsub.subscriptions import Subscription
from .ast import (
    AttrRef,
    Comparison,
    Literal,
    Query,
    SelectItem,
    StreamBinding,
    Window,
)
from .containment import align_bindings, contains, selection_filter

__all__ = [
    "merge_queries",
    "merge_all",
    "split_subscription",
    "source_subscriptions",
    "mergeable",
]


def mergeable(a: Query, b: Query) -> bool:
    """Whether a useful superset query exists for ``a`` and ``b``.

    Requires aligned bindings (same streams and aliases, any windows) and
    identical join predicates -- the same preconditions containment uses,
    minus the window/selection/projection dominance (the merger weakens
    those).
    """
    if align_bindings(a, b) is None:
        return False
    from .containment import _join_set

    return _join_set(a) == _join_set(b)


def _window_hull(a: Window, b: Window) -> Window:
    if a.is_time and b.is_time:
        return a if a.seconds >= b.seconds else b
    if not a.is_time and not b.is_time:
        return a if a.rows >= b.rows else b
    # mixed windows: fall back to the time window (row windows cannot be
    # reconstructed from a time superset in general, so callers should
    # check `mergeable` + containment before trusting mixed merges)
    return a if a.is_time else b


def _selection_hull(a: Query, b: Query, alias: str) -> List[Comparison]:
    """Per-alias predicate hull: keep only constraints implied by BOTH."""
    fa = selection_filter(a, alias)
    fb = selection_filter(b, alias)
    hull = fa.hull(fb)
    out: List[Comparison] = []
    for attr, rng in hull.ranges().items():
        _, attrname = attr.split(".", 1)
        if rng.membership is not None:
            for v in sorted(rng.membership, key=str):
                out.append(Comparison(AttrRef(alias, attrname), "==", Literal(v)))
            continue
        if rng.low != float("-inf"):
            op = ">=" if rng.low_inclusive else ">"
            out.append(Comparison(AttrRef(alias, attrname), op, Literal(rng.low)))
        if rng.high != float("inf"):
            op = "<=" if rng.high_inclusive else "<"
            out.append(Comparison(AttrRef(alias, attrname), op, Literal(rng.high)))
    return out


def merge_queries(a: Query, b: Query, name: str = "") -> Query:
    """The superset query covering ``a`` and ``b`` (the paper's Q5).

    * windows: per-binding hull (the larger window);
    * selections: per-attribute hull (constraints both queries imply);
    * join predicates: shared (identical by precondition);
    * projection: union of the two queries' select lists, widened to
      ``Alias.*`` when either side asks for it, and always including
      timestamps (needed by the split subscriptions).
    """
    if not mergeable(a, b):
        raise ValueError("queries are not mergeable (streams/joins differ)")
    pairs = align_bindings(a, b)
    assert pairs is not None
    bindings = tuple(
        StreamBinding(
            stream=ba.stream,
            window=_window_hull(ba.window, bb.window),
            alias=ba.alias,
        )
        for ba, bb in pairs
    )

    select: List[SelectItem] = []
    for ba, _ in pairs:
        alias = ba.alias
        pa = a.projected_attrs(alias)
        pb = b.projected_attrs(alias)
        if pa is None or pb is None:
            select.append(SelectItem(alias, None))
            continue
        merged_attrs = sorted(set(pa) | set(pb) | {"timestamp"})
        select.extend(SelectItem(alias, attr) for attr in merged_attrs)

    where: List[Comparison] = []
    for ba, _ in pairs:
        where.extend(_selection_hull(a, b, ba.alias))
    where.extend(a.joins())
    return Query(
        select=tuple(select), bindings=bindings, where=tuple(where), name=name
    )


def merge_all(queries: Sequence[Query], name: str = "") -> Query:
    """Fold a non-empty sequence of pairwise-mergeable queries into the
    *tight* superset query (left fold of :func:`merge_queries`).

    Re-merging a group from its current members goes through here: unlike
    hulling against a previous merged query, the fold forgets departed
    members, so filters/windows can narrow back down.
    """
    if not queries:
        raise ValueError("cannot merge an empty query set")
    merged = queries[0]
    for q in queries[1:]:
        merged = merge_queries(merged, q, name=name)
    if merged.name != name:
        merged = Query(
            select=merged.select,
            bindings=merged.bindings,
            where=merged.where,
            name=name,
        )
    return merged


def split_subscription(
    merged: Query,
    original: Query,
    result_stream: str,
    emitted_after: Optional[float] = None,
    emitted_before: Optional[float] = None,
) -> Subscription:
    """The subscription a user inserts to get ``original``'s results out of
    ``merged``'s result stream (the paper's p^3_2 / p^4_2).

    Contains:

    * S  -- the merged result stream name;
    * P  -- the original query's projected (qualified) attributes;
    * F  -- the original residual selections plus, per non-``[Now]``
      binding of a *join* query, the window constraint as a timestamp band
      ``-W <= Alias.timestamp - Anchor.timestamp <= 0`` encoded against
      the merged stream's top-level timestamp.  Single-binding queries get
      no band: their results carry no ``timestamp_lag`` attribute and the
      window has no effect on selection-only semantics, so a band would
      (wrongly) drop every result.

    ``emitted_after`` / ``emitted_before`` bound the *lifetime span* of
    the carve: per binding, only result tuples all of whose constituent
    input tuples were emitted inside ``[emitted_after, emitted_before]``
    match.  A shared execution plane uses this under churn -- a member
    that joins a long-running merged query must not receive results
    derived from inputs that predate it (its own plan would have started
    with empty windows), and a departing member must stop at exactly the
    inputs a freshly-removed plan would have seen.
    """
    if not contains(merged, original):
        raise ValueError("merged query does not contain the original")

    projection: Optional[List[str]] = []
    for b in original.bindings:
        attrs = original.projected_attrs(b.alias)
        if attrs is None:
            merged_attrs = merged.projected_attrs(b.alias)
            if merged_attrs is None:
                projection = None
                break
            attrs = merged_attrs
        projection.extend(f"{b.alias}.{attr}" for attr in attrs)

    constraints: List[Constraint] = []
    for c in original.selections():
        assert isinstance(c.left, AttrRef)
        if isinstance(c.right, Literal):
            constraints.append(Constraint(str(c.left), c.op, c.right.value))
    # window bands: tuples in the merged result carry per-alias timestamps;
    # the newest side anchors at the result timestamp, so the partner's
    # timestamp must lie within the original (smaller) window.  Only join
    # results carry the per-alias ``timestamp_lag`` attributes the band
    # rides on; for single-binding queries the window is semantically
    # inert (no join state), so no band is needed or emitted.
    if len(original.bindings) > 1:
        for b in original.bindings:
            mb = merged.binding(b.alias)
            if b.window.is_time and mb.window.is_time:
                if mb.window.seconds > b.window.seconds:
                    constraints.append(
                        Constraint(
                            f"{b.alias}.timestamp_lag", "<=", float(b.window.seconds)
                        )
                    )
    if emitted_after is not None or emitted_before is not None:
        for b in original.bindings:
            if emitted_after is not None:
                constraints.append(
                    Constraint(f"{b.alias}.timestamp", ">=", float(emitted_after))
                )
            if emitted_before is not None:
                constraints.append(
                    Constraint(f"{b.alias}.timestamp", "<=", float(emitted_before))
                )
    if projection is not None:
        # the filter is evaluated at every overlay hop, and in-network
        # projection forwards only the union of requested attributes --
        # a subscription must request what its own filter reads, or the
        # carve silently drops everything one hop past the first
        needed = {c.attr for c in constraints}
        projection.extend(sorted(needed - set(projection)))
    return Subscription.to_streams(
        [result_stream],
        projection=projection,
        filter=Filter(constraints),
    )


def source_subscriptions(query: Query) -> List[Subscription]:
    """The ``p^1`` source subscriptions of a (merged) query.

    One subscription per distinct input stream, carrying the query's
    per-alias selection constraints with the alias prefix stripped
    (source events are unqualified) -- the paper's early data filtering.
    A stream read through several aliases (self-join) gets the
    per-alias hull, so every tuple any alias could use is delivered.
    """
    from .ast import AttrRef, Literal

    by_stream = {}
    for binding in query.bindings:
        constraints = [
            Constraint(c.left.attr, c.op, c.right.value)
            for c in query.selections()
            if isinstance(c.left, AttrRef)
            and c.left.stream == binding.alias
            and isinstance(c.right, Literal)
        ]
        filt = Filter(constraints)
        prev = by_stream.get(binding.stream)
        by_stream[binding.stream] = filt if prev is None else prev.hull(filt)
    return [
        Subscription.to_streams([stream], filter=filt)
        for stream, filt in by_stream.items()
    ]
