"""Tests for the continuous-query engine and result-stream sharing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, SensorFleet, SlidingWindow, StreamTuple
from repro.pubsub import Event
from repro.query.ast import Window
from repro.query.merging import merge_queries, split_subscription
from repro.query.parser import parse_query


def tup(stream, ts, **values):
    values["timestamp"] = ts
    return StreamTuple(stream, values)


class TestSlidingWindow:
    def test_time_window_evicts(self):
        w = SlidingWindow(Window(seconds=10))
        w.insert(tup("R", 0, a=1))
        w.insert(tup("R", 15, a=2))
        w.insert(tup("R", 20, a=3))
        assert [t.get("a") for t in w] == [2, 3]

    def test_now_window_keeps_current_instant(self):
        w = SlidingWindow(Window(seconds=0))
        w.insert(tup("R", 1, a=1))
        w.insert(tup("R", 1, a=2))
        w.evict(1)
        assert len(w) == 2
        w.evict(2)
        assert len(w) == 0

    def test_row_window(self):
        w = SlidingWindow(Window(rows=2))
        for i in range(5):
            w.insert(tup("R", i, a=i))
        assert [t.get("a") for t in w] == [3, 4]

    def test_out_of_order_rejected(self):
        w = SlidingWindow(Window(seconds=10))
        w.insert(tup("R", 5))
        with pytest.raises(ValueError):
            w.insert(tup("R", 4))


class TestSingleStreamQueries:
    def test_selection(self):
        e = Engine()
        e.add_query(parse_query(
            "SELECT R.a, R.timestamp FROM R [Now] WHERE R.a > 10", name="q"))
        e.push(tup("R", 1, a=5))
        e.push(tup("R", 2, a=15))
        assert len(e.results["q"]) == 1
        assert e.results["q"][0].get("R.a") == 15

    def test_projection(self):
        e = Engine()
        e.add_query(parse_query(
            "SELECT R.a FROM R [Now]", name="q"))
        e.push(tup("R", 1, a=5, b=7))
        out = e.results["q"][0]
        assert out.get("R.a") == 5
        assert out.get("R.b") is None

    def test_star_keeps_everything(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.* FROM R [Now]", name="q"))
        e.push(tup("R", 1, a=5, b=7))
        out = e.results["q"][0]
        assert out.get("R.a") == 5 and out.get("R.b") == 7


class TestJoins:
    def q(self, text, name="j"):
        e = Engine()
        e.add_query(parse_query(text, name=name))
        return e

    def test_band_join_matches_within_window(self):
        e = self.q(
            "SELECT * FROM R [Range 10 Seconds] R, S [Now] S"
            " WHERE R.a = S.a"
        )
        e.push(tup("R", 0, a=1))
        e.push(tup("S", 5, a=1))
        assert len(e.results["j"]) == 1

    def test_join_ignores_expired_partners(self):
        e = self.q(
            "SELECT * FROM R [Range 10 Seconds] R, S [Now] S"
            " WHERE R.a = S.a"
        )
        e.push(tup("R", 0, a=1))
        e.push(tup("S", 50, a=1))  # R tuple expired
        assert e.results["j"] == []

    def test_join_predicate_filters(self):
        e = self.q(
            "SELECT * FROM R [Range 10 Seconds] R, S [Now] S"
            " WHERE R.a > S.a"
        )
        e.push(tup("R", 0, a=5))
        e.push(tup("S", 1, a=3))
        e.push(tup("S", 2, a=9))
        assert len(e.results["j"]) == 1

    def test_join_output_qualified(self):
        e = self.q(
            "SELECT * FROM R [Range 10 Seconds] R, S [Now] S WHERE R.a = S.a"
        )
        e.push(tup("R", 0, a=1, x=7))
        e.push(tup("S", 1, a=1, y=8))
        out = e.results["j"][0]
        assert out.get("R.x") == 7 and out.get("S.y") == 8
        assert out.get("R.timestamp_lag") == 1.0
        assert out.get("S.timestamp_lag") == 0.0

    def test_selection_pushdown_before_join(self):
        e = self.q(
            "SELECT * FROM R [Range 100 Seconds] R, S [Now] S"
            " WHERE R.a = S.a AND R.a > 10"
        )
        plan = e.plans["j"]
        e.push(tup("R", 0, a=5))   # filtered before the join window
        assert plan.join.state_size() == 0
        e.push(tup("R", 1, a=15))
        assert plan.join.state_size() == 1


class TestEngineManagement:
    def test_remove_query(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        e.remove_query("q")
        e.push(tup("R", 1, a=5))
        assert e.results["q"] == []

    def test_remove_query_releases_all_state(self):
        """Regression: churned queries must not leak sinks/results/readers."""
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        e.on_result("q", lambda t: None)
        e.push(tup("R", 1, a=5))
        assert e.results["q"]  # buffered before removal
        e.remove_query("q")
        assert "q" not in e.results
        assert "q" not in e._sinks
        assert all(
            n != "q" for readers in e._readers.values() for n, _ in readers
        )

    def test_remove_query_returns_plan_with_state(self):
        e = Engine()
        e.add_query(parse_query(
            "SELECT * FROM R [Range 100 Seconds] R, S [Now] S WHERE R.a = S.a",
            name="q"))
        e.push(tup("R", 1, a=1))
        plan = e.remove_query("q")
        assert plan.state_size() == 1  # join window survives the detach

    def test_adopt_plan_preserves_window_state(self):
        """A migrated join keeps matching against pre-migration tuples."""
        src = Engine()
        src.add_query(parse_query(
            "SELECT * FROM R [Range 100 Seconds] R, S [Now] S WHERE R.a = S.a",
            name="q"))
        src.push(tup("R", 1, a=1))
        plan = src.remove_query("q")
        dst = Engine()
        dst.adopt_plan(plan)
        out = dst.push(tup("S", 2, a=1))
        assert len(out) == 1  # joined against state carried over

    def test_adopt_plan_rejects_duplicates(self):
        e = Engine()
        plan = e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        e.remove_query("q")
        e.adopt_plan(plan)
        with pytest.raises(ValueError):
            e.adopt_plan(plan)

    def test_push_query_routes_to_single_plan(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q1"))
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q2"))
        out = e.push_query("q1", tup("R", 1, a=5))
        assert len(out) == 1
        assert e.plans["q1"].results_emitted == 1
        assert e.plans["q2"].results_emitted == 0
        # unknown names are a no-op (query may have churned away)
        assert e.push_query("gone", tup("R", 2, a=5)) == []

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            Engine().remove_query("nope")

    def test_duplicate_name_rejected(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        with pytest.raises(ValueError):
            e.add_query(parse_query("SELECT R.b FROM R [Now]", name="q"))

    def test_result_sink_callback(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        seen = []
        e.on_result("q", seen.append)
        e.push(tup("R", 1, a=5))
        assert len(seen) == 1

    def test_cpu_costs_accumulate(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        for i in range(10):
            e.push(tup("R", i, a=i))
        assert e.cpu_costs()["q"] >= 10


class TestRetainResults:
    """Regression: `push` must not grow `results` unboundedly when capped."""

    def q(self, **kwargs):
        e = Engine(**kwargs)
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        return e

    def test_default_retains_everything(self):
        e = self.q()
        for i in range(50):
            e.push(tup("R", i, a=i))
        assert len(e.results["q"]) == 50

    def test_cap_keeps_newest(self):
        e = self.q(retain_results=10)
        for i in range(50):
            e.push(tup("R", i, a=i))
        assert len(e.results["q"]) == 10
        assert [t.get("R.a") for t in e.results["q"]] == list(range(40, 50))

    def test_zero_disables_buffering_but_not_sinks(self):
        e = self.q(retain_results=0)
        seen = []
        e.on_result("q", seen.append)
        out = [r for i in range(20) for r in e.push(tup("R", i, a=i))]
        assert e.results["q"] == []
        assert len(seen) == 20 and len(out) == 20

    def test_cap_applies_to_push_batch(self):
        from repro.engine import TupleBatch

        e = self.q(retain_results=5)
        rows = [tup("R", float(i), a=i) for i in range(30)]
        e.push_batch(TupleBatch.from_tuples("R", rows))
        assert len(e.results["q"]) == 5
        assert [t.get("R.a") for t in e.results["q"]] == list(range(25, 30))

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Engine(retain_results=-1)


@st.composite
def checkpoint_case(draw):
    """A join workload with a checkpoint cut somewhere inside it.

    Timestamp increments are drawn from a set that includes the exact
    window extents, so runs land tuples exactly on eviction boundaries
    (``ts == now - seconds`` survives, anything older is dropped).
    """
    wr = draw(st.integers(2, 6))
    ws = draw(st.integers(2, 6))
    n = draw(st.integers(0, 20))
    rows = []
    t = 0.0
    for _ in range(n):
        t += draw(
            st.sampled_from([0.0, 1.0, float(wr), float(ws), float(max(wr, ws)) + 1.0])
        )
        rows.append((draw(st.sampled_from(["R", "S"])), t, draw(st.integers(0, 5))))
    cut = draw(st.integers(0, n))
    return wr, ws, rows, cut


class TestCheckpointRestore:
    """Satellite: ``checkpoint() -> adopt_plan()`` round-trips exactly.

    Covers empty, partially filled, and eviction-boundary windows on
    both the scalar deque plane and the columnar batch plane, and checks
    the snapshot is fully independent of the still-running original.
    """

    QUERY = (
        "SELECT * FROM R [Range {wr} Seconds] R,"
        " S [Range {ws} Seconds] S WHERE R.a > S.a"
    )

    def _engine(self, wr, ws):
        e = Engine()
        e.add_query(parse_query(self.QUERY.format(wr=wr, ws=ws), name="q"))
        return e

    @given(checkpoint_case())
    @settings(max_examples=60, deadline=None)
    def test_scalar_roundtrip_exact(self, case):
        wr, ws, rows, cut = case
        ref = self._engine(wr, ws)
        live = self._engine(wr, ws)
        for stream, t, a in rows[:cut]:
            ref.push(tup(stream, t, a=a))
            live.push(tup(stream, t, a=a))
        snap = live.plans["q"].checkpoint()
        assert snap.cpu_cost() == live.plans["q"].cpu_cost()
        assert snap.state_size() == live.plans["q"].state_size()
        restored = Engine()
        restored.adopt_plan(snap)
        n_prefix = len(ref.results["q"])
        for stream, t, a in rows[cut:]:
            # mutate the original first: a shallow snapshot would diverge
            live.push(tup(stream, t, a=a))
            restored.push(tup(stream, t, a=a))
            ref.push(tup(stream, t, a=a))
        assert [r.values for r in restored.results["q"]] == [
            r.values for r in ref.results["q"][n_prefix:]
        ]
        assert restored.plans["q"].cpu_cost() == ref.plans["q"].cpu_cost()
        assert (
            restored.plans["q"].results_emitted
            == ref.plans["q"].results_emitted
        )

    @given(checkpoint_case())
    @settings(max_examples=60, deadline=None)
    def test_batch_roundtrip_exact(self, case):
        from repro.engine import TupleBatch

        wr, ws, rows, cut = case

        def chunks(seq):
            """Consecutive same-stream rows as one multi-row batch."""
            out, run = [], []
            for stream, t, a in seq:
                if run and run[0].stream != stream:
                    out.append(TupleBatch.from_tuples(run[0].stream, run))
                    run = []
                run.append(tup(stream, t, a=a))
            if run:
                out.append(TupleBatch.from_tuples(run[0].stream, run))
            return out

        ref = self._engine(wr, ws)
        live = self._engine(wr, ws)
        for batch in chunks(rows[:cut]):
            ref.push_batch(batch)
            live.push_batch(batch)
        snap = live.plans["q"].checkpoint()
        assert snap.cpu_cost() == live.plans["q"].cpu_cost()
        assert snap.state_size() == live.plans["q"].state_size()
        restored = Engine()
        restored.adopt_plan(snap)
        n_prefix = len(ref.results["q"])
        for batch in chunks(rows[cut:]):
            live.push_batch(batch)
            restored.push_batch(batch)
            ref.push_batch(batch)
        assert [r.values for r in restored.results["q"]] == [
            r.values for r in ref.results["q"][n_prefix:]
        ]
        assert restored.plans["q"].cpu_cost() == ref.plans["q"].cpu_cost()

    def test_selection_only_plan_roundtrip(self):
        e = Engine()
        e.add_query(parse_query(
            "SELECT R.a FROM R [Now] WHERE R.a > 2", name="q"))
        e.push(tup("R", 1, a=5))
        snap = e.plans["q"].checkpoint()
        other = Engine()
        other.adopt_plan(snap)
        out = other.push(tup("R", 2, a=4))
        assert len(out) == 1
        assert other.plans["q"].results_emitted == 2  # counter carried over

    def test_checkpoint_shares_no_window_state(self):
        e = Engine()
        e.add_query(parse_query(
            "SELECT * FROM R [Range 100 Seconds] R, S [Now] S"
            " WHERE R.a = S.a", name="q"))
        e.push(tup("R", 1, a=1))
        snap = e.plans["q"].checkpoint()
        e.push(tup("R", 2, a=2))  # original grows after the snapshot
        assert snap.state_size() == 1
        assert e.plans["q"].state_size() == 2


class TestSensors:
    def test_fleet_streams_unique(self):
        fleet = SensorFleet.build(5, seed=1)
        assert len(set(fleet.streams())) == 5

    def test_trace_time_ordered_per_stream(self):
        fleet = SensorFleet.build(3, seed=1)
        trace = fleet.trace(start=0.0, steps=20)
        last = {}
        for t in trace:
            assert t.timestamp >= last.get(t.stream, -1)
            last[t.stream] = t.timestamp

    def test_readings_have_expected_attributes(self):
        fleet = SensorFleet.build(1, seed=1)
        reading = fleet.stations[0].reading(0.0)
        for attr in ("stationId", "snowHeight", "temperature", "windSpeed"):
            assert reading.get(attr) is not None

    def test_snow_height_nonnegative(self):
        fleet = SensorFleet.build(2, seed=3)
        for t in fleet.trace(0.0, 200):
            assert t.get("snowHeight") >= 0

    def test_deterministic(self):
        a = SensorFleet.build(2, seed=5).trace(0.0, 10)
        b = SensorFleet.build(2, seed=5).trace(0.0, 10)
        assert [t.values for t in a] == [t.values for t in b]


class TestResultSharing:
    """End-to-end Section 2.1: running Q5 serves both Q3 and Q4."""

    def setup_method(self):
        self.q3 = parse_query(
            "SELECT S2.* FROM Station1 [Range 30 Minutes] S1,"
            " Station2 [Now] S2 WHERE S1.snowHeight > S2.snowHeight"
            " AND S1.snowHeight >= 10",
            name="Q3",
        )
        self.q4 = parse_query(
            "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp"
            " FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2"
            " WHERE S1.snowHeight > S2.snowHeight",
            name="Q4",
        )
        self.q5 = merge_queries(self.q3, self.q4, name="Q5")
        fleet = SensorFleet.build(2, stream_prefix="Station", seed=7)
        self.trace = fleet.trace(start=0.0, steps=100)

    def _run(self, query, name):
        e = Engine()
        e.add_query(query, result_stream="out")
        for t in self.trace:
            e.push(t)
        return e.results[query.name]

    def test_carved_q3_equals_direct(self):
        direct = self._run(self.q3, "Q3")
        shared = self._run(self.q5, "Q5")
        p32 = split_subscription(self.q5, self.q3, "out")
        carved = [t for t in shared if p32.matches(Event("out", t.values))]
        assert len(carved) == len(direct)

    def test_carved_q4_equals_direct(self):
        direct = self._run(self.q4, "Q4")
        shared = self._run(self.q5, "Q5")
        p42 = split_subscription(self.q5, self.q4, "out")
        carved = [t for t in shared if p42.matches(Event("out", t.values))]
        assert len(carved) == len(direct)

    def test_shared_results_superset(self):
        direct3 = self._run(self.q3, "Q3")
        direct4 = self._run(self.q4, "Q4")
        shared = self._run(self.q5, "Q5")
        assert len(shared) >= max(len(direct3), len(direct4))


class TestPlanWidening:
    """In-place plan widening: the shared plane's member-join mechanism."""

    def setup_method(self):
        self.q3 = parse_query(
            "SELECT S2.* FROM Station1 [Range 30 Minutes] S1,"
            " Station2 [Now] S2 WHERE S1.snowHeight > S2.snowHeight"
            " AND S1.snowHeight >= 10",
            name="Q3",
        )
        self.q4 = parse_query(
            "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp"
            " FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2"
            " WHERE S1.snowHeight > S2.snowHeight",
            name="Q4",
        )
        fleet = SensorFleet.build(2, stream_prefix="Station", seed=7)
        self.trace = fleet.trace(start=0.0, steps=100)

    def test_widened_plan_equals_merged_compile(self):
        """Widening mid-stream keeps state and matches the merged query
        for every tuple pushed after the widening point."""
        widened = Engine()
        plan = widened.add_query(self.q3, result_stream="out")
        merged = merge_queries(self.q3, self.q4, name="Q3")
        cut = len(self.trace) // 2
        for t in self.trace[:cut]:
            widened.push(t)
        plan.widen_to(merged)
        after_widen = []
        for t in self.trace[cut:]:
            after_widen.extend(widened.push(t))
        # reference: the merged query compiled fresh and fed everything
        reference = Engine()
        reference.add_query(merge_queries(self.q3, self.q4, name="M"), result_stream="out")
        ref_results = []
        for i, t in enumerate(self.trace):
            out = reference.push(t)
            if i >= cut:
                ref_results.extend(out)
        # the widened plan's post-widen results that pair with post-widen
        # partners must appear in the reference run (pre-widen partners
        # outside Q3's windows are legitimately absent: they were never
        # buffered under the narrow plan)
        ref_values = [t.values for t in ref_results]
        for r in after_widen:
            assert r.values in ref_values

    def test_window_specs_updated(self):
        engine = Engine()
        plan = engine.add_query(self.q3, result_stream="out")
        merged = merge_queries(self.q3, self.q4, name="Q3")
        plan.widen_to(merged)
        assert plan.join.left_window.spec.seconds == 3600
        # the weakened selection hull dropped the >= 10 constraint
        assert plan.selects["S1"].predicates == []
        assert plan.query is merged

    def test_rejects_name_change(self):
        engine = Engine()
        plan = engine.add_query(self.q3, result_stream="out")
        with pytest.raises(ValueError):
            plan.widen_to(merge_queries(self.q3, self.q4, name="other"))

    def test_rejects_narrowing(self):
        engine = Engine()
        merged = merge_queries(self.q3, self.q4, name="M")
        plan = engine.add_query(merged, result_stream="out")
        narrow = parse_query(str(self.q3), name="M")
        with pytest.raises(ValueError):
            plan.widen_to(narrow)
