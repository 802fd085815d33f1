"""Tests for the CQL parser, containment and query merging (Section 2.1)."""

import pytest

from repro.pubsub import Event
from repro.query.ast import NOW, AttrRef, Comparison, Literal, Window
from repro.query.containment import (
    contains,
    equivalent,
    selection_filter,
    selections_imply,
)
from repro.query.merging import (
    merge_all,
    merge_queries,
    mergeable,
    split_subscription,
)
from repro.query.parser import ParseError, parse_query

Q1_TEXT = """
SELECT * FROM R [Now], S [Now]
WHERE R.b = S.b AND R.a > 10 AND S.c > 10
"""

Q3_TEXT = """
SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10
"""

Q4_TEXT = """
SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp
FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2
WHERE S1.snowHeight > S2.snowHeight
"""


class TestWindow:
    def test_now_window(self):
        assert NOW.seconds == 0 and NOW.is_time

    def test_containment_time(self):
        assert Window(seconds=3600).contains(Window(seconds=1800))
        assert not Window(seconds=1800).contains(Window(seconds=3600))

    def test_containment_rows(self):
        assert Window(rows=100).contains(Window(rows=50))

    def test_mixed_windows_never_contain(self):
        assert not Window(seconds=10).contains(Window(rows=5))

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            Window()
        with pytest.raises(ValueError):
            Window(seconds=1, rows=1)
        with pytest.raises(ValueError):
            Window(rows=0)


class TestParser:
    def test_paper_q1(self):
        q = parse_query(Q1_TEXT, name="Q1")
        assert q.streams() == ["R", "S"]
        assert all(b.window == NOW for b in q.bindings)
        assert len(q.joins()) == 1
        assert len(q.selections()) == 2

    def test_paper_q3(self):
        q = parse_query(Q3_TEXT, name="Q3")
        assert q.binding("S1").window.seconds == 1800
        assert q.binding("S2").window == NOW
        assert q.projected_attrs("S2") is None  # S2.*
        assert q.projected_attrs("S1") == []

    def test_star_expansion(self):
        q = parse_query("SELECT * FROM R [Now], S [Now]")
        assert {s.stream for s in q.select} == {"R", "S"}
        assert all(s.attr is None for s in q.select)

    def test_alias_defaults_to_stream(self):
        q = parse_query("SELECT R.a FROM R [Rows 5]")
        assert q.bindings[0].alias == "R"
        assert q.bindings[0].window.rows == 5

    def test_units(self):
        q = parse_query("SELECT R.a FROM R [Range 2 Hours]")
        assert q.bindings[0].window.seconds == 7200

    def test_operators_normalised(self):
        q = parse_query("SELECT R.a FROM R [Now] WHERE R.a = 5 AND R.b <> 3")
        ops = sorted(c.op for c in q.where)
        assert ops == ["!=", "=="]

    def test_string_literal(self):
        q = parse_query("SELECT R.a FROM R [Now] WHERE R.kind = 'snow'")
        assert q.where[0].right.value == "snow"

    def test_unknown_alias_in_select_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT X.a FROM R [Now]")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.a FROM R [Now] R, S [Now] R")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT FROM WHERE")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.a FROM R [Now] garbage ] [")

    def test_roundtrip_str_parse(self):
        q = parse_query(Q3_TEXT, name="Q3")
        q2 = parse_query(str(q), name="Q3")
        assert q2.streams() == q.streams()
        assert len(q2.where) == len(q.where)


class TestContainment:
    def test_q5_contains_q3_and_q4(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        assert contains(q5, q3)
        assert contains(q5, q4)
        assert not contains(q3, q5)

    def test_selection_implication(self):
        strong = parse_query("SELECT R.a FROM R [Now] WHERE R.a > 20")
        weak = parse_query("SELECT R.a FROM R [Now] WHERE R.a > 10")
        assert selections_imply(strong, weak)
        assert not selections_imply(weak, strong)

    def test_window_blocks_containment(self):
        small = parse_query("SELECT R.a, R.timestamp FROM R [Range 10 Seconds]")
        big = parse_query("SELECT R.a, R.timestamp FROM R [Range 100 Seconds]")
        assert contains(big, small)
        assert not contains(small, big)

    def test_different_streams_not_contained(self):
        a = parse_query("SELECT R.a FROM R [Now]")
        b = parse_query("SELECT S.a FROM S [Now]")
        assert not contains(a, b)

    def test_different_joins_not_contained(self):
        a = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.x = S.x")
        b = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.y = S.y")
        assert not contains(a, b)

    def test_projection_blocks_containment(self):
        narrow = parse_query("SELECT R.a, R.timestamp FROM R [Now]")
        wants_all = parse_query("SELECT R.* FROM R [Now]")
        assert not contains(narrow, wants_all)
        assert contains(wants_all, narrow)

    def test_equivalence_is_mutual(self):
        a = parse_query("SELECT R.a, R.timestamp FROM R [Now] WHERE R.a > 5")
        b = parse_query("SELECT R.a, R.timestamp FROM R [Now] WHERE R.a > 5")
        assert equivalent(a, b)

    def test_selection_filter_extraction(self):
        q = parse_query("SELECT R.a FROM R [Now] WHERE R.a > 10 AND R.b < 5")
        f = selection_filter(q)
        assert f.matches({"R.a": 11, "R.b": 4})
        assert not f.matches({"R.a": 11, "R.b": 6})


class TestMerging:
    def test_q5_structure(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        # window hull = the larger window (1 hour)
        assert q5.binding("S1").window.seconds == 3600
        # selection hull drops the S1.snowHeight >= 10 constraint
        assert all("snowHeight" not in str(c) or c.is_join() for c in q5.where
                   if not c.is_join()) or len(q5.selections()) == 0
        # S2.* preserved (q3 wants all of S2)
        assert q5.projected_attrs("S2") is None

    def test_not_mergeable_different_streams(self):
        a = parse_query("SELECT R.a FROM R [Now]")
        b = parse_query("SELECT S.a FROM S [Now]")
        assert not mergeable(a, b)
        with pytest.raises(ValueError):
            merge_queries(a, b)

    def test_merge_is_commutative_in_containment(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        m1 = merge_queries(q3, q4)
        m2 = merge_queries(q4, q3)
        assert contains(m1, q3) and contains(m1, q4)
        assert contains(m2, q3) and contains(m2, q4)

    def test_split_subscription_reapplies_filters(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        p32 = split_subscription(q5, q3, "s5")
        assert p32.streams == frozenset({"s5"})
        # the residual selection survives in the subscription filter
        assert p32.filter.matches(
            {"S1.snowHeight": 12, "S1.timestamp_lag": 100.0}
        )
        assert not p32.filter.matches(
            {"S1.snowHeight": 5, "S1.timestamp_lag": 100.0}
        )
        # the smaller window becomes a timestamp-lag band
        assert not p32.filter.matches(
            {"S1.snowHeight": 12, "S1.timestamp_lag": 7200.0}
        )

    def test_split_subscription_requires_containment(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        small = parse_query(
            "SELECT S2.* FROM Station1 [Now] S1, Station2 [Now] S2"
            " WHERE S1.snowHeight > S2.snowHeight"
        )
        with pytest.raises(ValueError):
            split_subscription(small, q3, "s")

    def test_split_subscription_projection(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        p42 = split_subscription(q5, q4, "s5")
        assert p42.projection == frozenset(
            {"S1.snowHeight", "S1.timestamp", "S2.snowHeight", "S2.timestamp"}
        )

    def test_split_single_binding_has_no_window_band(self):
        """Selection-only results carry no ``timestamp_lag`` attribute,
        and their window has no semantic effect -- a band constraint
        (which the old code emitted) would drop every result."""
        small = parse_query(
            "SELECT R.a, R.timestamp FROM R [Range 10 Seconds] R"
            " WHERE R.a > 5", name="small",
        )
        big = parse_query(
            "SELECT R.a, R.timestamp FROM R [Range 100 Seconds] R"
            " WHERE R.a > 0", name="big",
        )
        merged = merge_queries(big, small, name="M")
        sub = split_subscription(merged, small, "s")
        assert not any(
            "timestamp_lag" in c.attr for c in sub.filter.constraints
        )
        # a selection result of the merged query still reaches the member
        assert sub.filter.matches({"R.a": 7, "R.timestamp": 3.0})
        assert not sub.filter.matches({"R.a": 3, "R.timestamp": 3.0})

    def test_split_lifetime_span_bounds(self):
        """Churn-exact carving: only results whose inputs were all
        emitted inside the member's lifetime match."""
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        sub = split_subscription(
            q5, q3, "s5", emitted_after=10.0, emitted_before=20.0
        )
        ok = {
            "S1.snowHeight": 12, "S1.timestamp_lag": 100.0,
            "S1.timestamp": 15.0, "S2.timestamp": 16.0,
        }
        assert sub.filter.matches(ok)
        assert not sub.filter.matches({**ok, "S1.timestamp": 9.0})
        assert not sub.filter.matches({**ok, "S2.timestamp": 21.0})

    def test_split_projection_requests_filter_attributes(self):
        """In-network projection forwards only requested attributes; a
        carve whose filter reads an attribute its projection strips
        would match nothing one hop out, so the projection must cover
        every filter attribute."""
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        q5 = merge_queries(q3, q4, name="Q5")
        sub = split_subscription(
            q5, q4, "s5", emitted_after=10.0, emitted_before=20.0
        )
        assert sub.projection is not None
        assert {c.attr for c in sub.filter.constraints} <= set(sub.projection)


class TestMergeAll:
    def test_fold_narrows_after_departure(self):
        q3 = parse_query(Q3_TEXT, name="Q3")
        q4 = parse_query(Q4_TEXT, name="Q4")
        merged = merge_queries(q3, q4, name="M")
        assert merged.binding("S1").window.seconds == 3600
        refolded = merge_all([q3], name="M")
        # forgetting Q4 brings the 30-minute window back
        assert refolded.binding("S1").window.seconds == 1800
        assert refolded.name == "M"

    def test_empty_fold_rejected(self):
        with pytest.raises(ValueError):
            merge_all([])
