"""Attribute constraints, conjunctive filters, matching and covering.

Siena routes messages by comparing event content against subscriptions and
stops subscription propagation when an already-forwarded subscription
*covers* a new one.  Covering is therefore the load-bearing operation of
the whole pub/sub substrate and is implemented here with exact interval
semantics rather than syntactic comparison.

A :class:`Constraint` is ``attr OP value`` with OP in
``== != < <= > >= in``; a :class:`Filter` is a conjunction of constraints.
Internally a filter normalises its constraints per attribute into an
:class:`AttributeRange` (interval + equality set + exclusion set), which
makes both ``matches`` and ``covers`` exact for the operator set we
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Constraint", "AttributeRange", "Filter", "TRUE_FILTER"]

_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")


@dataclass(frozen=True)
class Constraint:
    """A single attribute constraint ``attr OP value``."""

    attr: str
    op: str
    value: Any

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if self.op == "in" and not isinstance(self.value, frozenset):
            object.__setattr__(self, "value", frozenset(self.value))

    def matches(self, value: Any) -> bool:
        """Whether a concrete attribute value satisfies this constraint."""
        if value is None:
            return False
        if self.op == "==":
            return value == self.value
        if self.op == "!=":
            return value != self.value
        if self.op == "<":
            return value < self.value
        if self.op == "<=":
            return value <= self.value
        if self.op == ">":
            return value > self.value
        if self.op == ">=":
            return value >= self.value
        if self.op == "in":
            return value in self.value
        raise AssertionError(self.op)

    def __str__(self) -> str:
        return f"{self.attr} {self.op} {self.value}"


@dataclass
class AttributeRange:
    """Normalised allowed-value set for one attribute.

    The allowed set is ``(low, high)`` with inclusivity flags, intersected
    with ``membership`` (if not None) and minus ``exclusions``.  ``empty``
    marks an unsatisfiable combination (e.g. ``x == 1 AND x == 2``).
    """

    low: float = float("-inf")
    low_inclusive: bool = True
    high: float = float("inf")
    high_inclusive: bool = True
    membership: Optional[FrozenSet[Any]] = None
    exclusions: FrozenSet[Any] = frozenset()
    empty: bool = False

    def add(self, c: Constraint) -> None:
        """Intersect this range with one more constraint."""
        if self.empty:
            return
        if c.op == "==":
            self._intersect_membership(frozenset([c.value]))
        elif c.op == "in":
            self._intersect_membership(c.value)
        elif c.op == "!=":
            self.exclusions = self.exclusions | frozenset([c.value])
        elif c.op in ("<", "<="):
            inc = c.op == "<="
            if c.value < self.high or (c.value == self.high and self.high_inclusive and not inc):
                self.high, self.high_inclusive = c.value, inc
        elif c.op in (">", ">="):
            inc = c.op == ">="
            if c.value > self.low or (c.value == self.low and self.low_inclusive and not inc):
                self.low, self.low_inclusive = c.value, inc
        self._normalise()

    def _intersect_membership(self, values: FrozenSet[Any]) -> None:
        if self.membership is None:
            self.membership = values
        else:
            self.membership = self.membership & values

    def _normalise(self) -> None:
        if self.membership is not None:
            kept = frozenset(
                v for v in self.membership
                if v not in self.exclusions and self._in_interval(v)
            )
            self.membership = kept
            self.exclusions = frozenset()
            if not kept:
                self.empty = True
            return
        if self.low > self.high:
            self.empty = True
        elif self.low == self.high and not (self.low_inclusive and self.high_inclusive):
            self.empty = True

    def _in_interval(self, v: Any) -> bool:
        try:
            if v < self.low or (v == self.low and not self.low_inclusive):
                return False
            if v > self.high or (v == self.high and not self.high_inclusive):
                return False
        except TypeError:
            # non-comparable value (e.g. string vs numeric bound): treat an
            # unbounded interval as allowing it, a bounded one as not.
            return self.low == float("-inf") and self.high == float("inf")
        return True

    def matches(self, value: Any) -> bool:
        if self.empty or value is None:
            return False
        if self.membership is not None:
            return value in self.membership
        if value in self.exclusions:
            return False
        return self._in_interval(value)

    def covers(self, other: "AttributeRange") -> bool:
        """Whether every value allowed by ``other`` is allowed by ``self``."""
        if other.empty:
            return True
        if self.empty:
            return False
        if other.membership is not None:
            return all(self.matches(v) for v in other.membership)
        if self.membership is not None:
            # self is a finite set but other is an interval: only coverable
            # if other is actually a finite interval degenerate case we
            # cannot enumerate -- be conservative.
            return False
        # interval vs interval: self's interval must contain other's and
        # self must not exclude anything other allows.
        if self.low > other.low or (
            self.low == other.low and not self.low_inclusive and other.low_inclusive
        ):
            return False
        if self.high < other.high or (
            self.high == other.high and not self.high_inclusive and other.high_inclusive
        ):
            return False
        return all(not other.matches(v) for v in self.exclusions)

    def hull(self, other: "AttributeRange") -> "AttributeRange":
        """Smallest representable range allowing everything both allow."""
        if self.empty:
            return other
        if other.empty:
            return self
        if self.membership is not None and other.membership is not None:
            return AttributeRange(membership=self.membership | other.membership)
        out = AttributeRange()
        lows = []
        highs = []
        for r in (self, other):
            if r.membership is not None:
                comparable = [v for v in r.membership if isinstance(v, (int, float))]
                if len(comparable) != len(r.membership):
                    return AttributeRange()  # unconstrained hull
                lows.append((min(comparable), True))
                highs.append((max(comparable), True))
            else:
                lows.append((r.low, r.low_inclusive))
                highs.append((r.high, r.high_inclusive))
        out.low, out.low_inclusive = min(lows, key=lambda t: (t[0], not t[1]))
        out.high, out.high_inclusive = max(highs, key=lambda t: (t[0], t[1]))
        out.exclusions = frozenset(
            v for v in self.exclusions | other.exclusions
            if not self.matches(v) and not other.matches(v)
        )
        return out


class Filter:
    """A conjunction of :class:`Constraint` objects.

    The empty filter is TRUE (matches everything); an unsatisfiable
    conjunction reports ``is_empty()``.
    """

    #: memoised compiled :meth:`matcher`, ``False`` when there is none
    #: (set on the instance when first asked)
    _compiled: Any = None

    def __init__(self, constraints: Iterable[Constraint] = ()):  # noqa: D107
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self._ranges: Dict[str, AttributeRange] = {}
        for c in self.constraints:
            rng = self._ranges.setdefault(c.attr, AttributeRange())
            rng.add(c)
        #: memoised emptiness -- ranges never change after construction,
        #: and ``matches`` (the per-event hot path) asks every time
        self._empty_cache: Optional[bool] = None

    @classmethod
    def of(cls, *triples: Tuple[str, str, Any]) -> "Filter":
        """Convenience constructor: ``Filter.of(('a', '>', 10), ...)``."""
        return cls(Constraint(a, op, v) for a, op, v in triples)

    def ranges(self) -> Dict[str, AttributeRange]:
        return self._ranges

    def attributes(self) -> FrozenSet[str]:
        return frozenset(self._ranges)

    def is_true(self) -> bool:
        return not self._ranges

    def is_empty(self) -> bool:
        if self._empty_cache is None:
            self._empty_cache = any(r.empty for r in self._ranges.values())
        return self._empty_cache

    def matches(self, attributes: Dict[str, Any]) -> bool:
        if self.is_empty():
            return False
        for attr, rng in self._ranges.items():
            if not rng.matches(attributes.get(attr)):
                return False
        return True

    def matcher(self) -> Callable[[Mapping[str, Any]], bool]:
        """A compiled equivalent of :meth:`matches`, built once per filter.

        Content routing evaluates a filter once per row per gating table
        entry.  A conjunction of interval bounds compiles to a flat tuple
        walk; anything else (memberships, exclusions, an unsatisfiable
        filter) and any value the bounds cannot compare with keep the
        exact generic evaluator.  The compiled walk holds the ranges, not
        the filter, so no reference cycle outlives a dropped filter.
        """
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled or self.matches

    def _compile(self):
        ranges = self._ranges
        if self.is_empty() or any(
            r.membership is not None or r.exclusions for r in ranges.values()
        ):
            return False
        tests = tuple(
            (attr, r.low, r.low_inclusive, r.high, r.high_inclusive)
            for attr, r in ranges.items()
        )

        def matches(values: Mapping[str, Any]) -> bool:
            try:
                for attr, low, low_inc, high, high_inc in tests:
                    v = values.get(attr)
                    if v is None:
                        return False
                    if v < low or (v == low and not low_inc):
                        return False
                    if v > high or (v == high and not high_inc):
                        return False
                return True
            except TypeError:
                # a value the numeric bounds cannot compare with: the
                # generic evaluator defines the semantics
                return all(r.matches(values.get(a)) for a, r in ranges.items())

        return matches

    def covers(self, other: "Filter") -> bool:
        """TRUE iff every attribute assignment matching ``other`` matches self.

        Exact for our constraint language: self covers other iff for every
        attribute self constrains, other constrains it too and other's
        range is contained in self's.
        """
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        for attr, rng in self._ranges.items():
            other_rng = other._ranges.get(attr)
            if other_rng is None:
                return False
            if not rng.covers(other_rng):
                return False
        return True

    def hull(self, other: "Filter") -> "Filter":
        """A filter covering both self and other (per-attribute hull).

        Only attributes constrained by *both* filters stay constrained --
        this is the standard conservative subscription merger.
        """
        merged = Filter()
        merged.constraints = ()
        common = self.attributes() & other.attributes()
        merged._ranges = {
            attr: self._ranges[attr].hull(other._ranges[attr]) for attr in common
        }
        merged._ranges = {
            a: r for a, r in merged._ranges.items()
            if not (r.membership is None and r.low == float("-inf")
                    and r.high == float("inf") and not r.exclusions)
        }
        merged._empty_cache = None  # ranges were rebuilt after __init__
        return merged

    def conjoin(self, other: "Filter") -> "Filter":
        """The conjunction of two filters."""
        return Filter(self.constraints + other.constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filter):
            return NotImplemented
        return self.covers(other) and other.covers(self)

    def __hash__(self) -> int:  # filters are used in sets of subscriptions
        return hash(frozenset(self._ranges))

    def __str__(self) -> str:
        if self.is_true():
            return "TRUE"
        return " AND ".join(str(c) for c in self.constraints) or "TRUE"

    def __repr__(self) -> str:
        return f"Filter({str(self)})"


#: The filter that matches every event.
TRUE_FILTER = Filter()
