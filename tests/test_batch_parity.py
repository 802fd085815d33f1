"""Batch/scalar data-plane parity: the columnar path must be bit-identical.

Three layers of cross-checks, all seeded:

* converters and operators in isolation (``TupleBatch`` round trips,
  Select/Project/WindowJoin batch vs scalar);
* a randomized workload generator driving whole plans and ``Engine``
  instances tuple-for-tuple against the batch entry points, including
  empty batches, ``[Now]`` windows and row-window eviction boundaries;
* full simulator runs (churn + hot spots + adaptation, both execution
  planes) comparing traces, per-query delivery results, per-link traffic
  and CPU counters between production and the per-tuple reference plane
  (:mod:`reference.scalar_plane`) under the
  :class:`cluster_contract.ClusterContract`.
"""

import numpy as np
import pytest
from cluster_contract import EDGES, SCENARIOS, ClusterContract, run_on, scenario
from reference.scalar_plane import ScalarCluster

from repro.engine import (
    Engine,
    Project,
    Select,
    StreamTuple,
    TupleBatch,
    WindowJoin,
    compile_query,
)
from repro.query.ast import AttrRef, Comparison, Literal, Window
from repro.query.parser import parse_query
from repro.sim import (
    ChurnParams,
    HotSpotShift,
    ScenarioParams,
    SimWorkloadParams,
    oracle_results,
    run_scenario,
)


def tup(stream, ts, **values):
    values["timestamp"] = ts
    return StreamTuple(stream, values)


def dicts(tuples):
    return [dict(t.values) for t in tuples]


class TestTupleBatchConverters:
    def test_round_trip_preserves_values_and_types(self):
        rows = [
            tup("R", 1.0, a=5, b=2.5, c="x", d=True),
            tup("R", 2.0, a=7, b=3.5, c="y", d=False),
        ]
        back = TupleBatch.from_tuples("R", rows).to_tuples()
        assert dicts(back) == dicts(rows)
        assert [type(t.values["a"]) for t in back] == [int, int]
        assert [type(t.values["b"]) for t in back] == [float, float]
        assert [type(t.values["d"]) for t in back] == [bool, bool]

    def test_missing_attributes_round_trip(self):
        rows = [
            tup("R", 1.0, a=1),
            tup("R", 2.0, b=2),
            tup("R", 3.0, a=3, b=4),
        ]
        batch = TupleBatch.from_tuples("R", rows)
        assert dicts(batch.to_tuples()) == dicts(rows)

    def test_none_value_distinct_from_absent(self):
        rows = [tup("R", 1.0, a=None), tup("R", 2.0)]
        back = TupleBatch.from_tuples("R", rows).to_tuples()
        assert "a" in back[0].values and back[0].values["a"] is None
        assert "a" not in back[1].values

    def test_empty_batch(self):
        batch = TupleBatch.from_tuples("R", [])
        assert batch.n == 0 and batch.to_tuples() == []

    def test_wrong_stream_rejected(self):
        with pytest.raises(ValueError):
            TupleBatch.from_tuples("R", [tup("S", 1.0)])

    def test_mixed_type_column_falls_back_to_objects(self):
        rows = [tup("R", 1.0, a=1), tup("R", 2.0, a="one")]
        back = TupleBatch.from_tuples("R", rows).to_tuples()
        assert dicts(back) == dicts(rows)

    def test_slicing(self):
        rows = [tup("R", float(i), a=i) for i in range(6)]
        batch = TupleBatch.from_tuples("R", rows)
        head = batch.filter(np.array([True, True, False, False, False, False]))
        tail = batch.take(np.arange(2, 6))
        assert dicts(head.to_tuples()) == dicts(rows[:2])
        assert dicts(tail.to_tuples()) == dicts(rows[2:])
        renamed = tail.with_stream("S")
        assert renamed.stream == "S" and renamed.n == 4


def random_tuples(rng, streams, n, int_values=True, start=0.0, dt_scale=0.5):
    """Timestamp-ordered tuples over ``streams`` with integer values."""
    out = []
    t = start
    for _ in range(n):
        t += float(rng.exponential(dt_scale))
        s = streams[int(rng.integers(len(streams)))]
        values = {"value": int(rng.integers(0, 100))}
        if not int_values:
            values["value"] = float(rng.random() * 100)
        if rng.random() < 0.5:
            values["aux"] = int(rng.integers(0, 10))
        out.append(tup(s, t, **values))
    return out


def random_partition(rng, tuples, empty_every=5):
    """Split a tuple list into same-stream batches, some empty."""
    batches = []
    i = 0
    while i < len(tuples):
        if rng.random() < 1.0 / empty_every:
            batches.append(TupleBatch.from_tuples(tuples[i].stream, []))
        j = i
        k = int(rng.integers(1, 8))
        while j < len(tuples) and tuples[j].stream == tuples[i].stream and j - i < k:
            j += 1
        batches.append(TupleBatch.from_tuples(tuples[i].stream, tuples[i:j]))
        i = j
    return batches


class TestOperatorParity:
    def test_select_parity(self):
        rng = np.random.default_rng(1)
        preds = [
            Comparison(AttrRef("R", "value"), ">", Literal(30)),
            Comparison(AttrRef("R", "value"), "<=", Literal(80)),
        ]
        rows = [
            tup("R", float(i), **{"R.value": int(v)})
            for i, v in enumerate(rng.integers(0, 100, size=200))
        ]
        scalar, batch = Select(preds), Select(preds)
        want = [r for t in rows for r in scalar.process(t)]
        got_batch, rows_idx = batch.process_batch(TupleBatch.from_tuples("R", rows))
        assert dicts(got_batch.to_tuples()) == dicts(want)
        assert scalar.inspected == batch.inspected
        assert rows_idx.tolist() == sorted(rows_idx.tolist())

    def test_select_no_predicates_passes_everything(self):
        rows = [tup("R", 1.0, a=1), tup("R", 2.0, a=2)]
        sel = Select([])
        out, idx = sel.process_batch(TupleBatch.from_tuples("R", rows))
        assert dicts(out.to_tuples()) == dicts(rows)
        assert sel.inspected == 2 and idx.tolist() == [0, 1]

    def test_select_missing_attribute_fails_row(self):
        preds = [Comparison(AttrRef("R", "a"), ">", Literal(0))]
        rows = [tup("R", 1.0, **{"R.a": 1}), tup("R", 2.0)]
        scalar, batch = Select(preds), Select(preds)
        want = [r for t in rows for r in scalar.process(t)]
        got, _ = batch.process_batch(TupleBatch.from_tuples("R", rows))
        assert dicts(got.to_tuples()) == dicts(want) == [dict(rows[0].values)]

    def test_project_parity(self):
        rows = [tup("R", 1.0, **{"A.a": 1, "A.b": 2}), tup("R", 2.0, **{"A.a": 3})]
        for attrs in (None, ["A.a"], []):
            scalar, batch = Project(attrs), Project(attrs)
            want = [r for t in rows for r in scalar.process(t)]
            got, _ = batch.process_batch(TupleBatch.from_tuples("R", rows))
            assert dicts(got.to_tuples()) == dicts(want)
            assert scalar.inspected == batch.inspected

    @pytest.mark.parametrize(
        "left_win,right_win",
        [
            (Window(seconds=5), Window(seconds=3)),
            (Window(seconds=0), Window(seconds=10)),  # [Now] probe side
            (Window(rows=3), Window(seconds=4)),
            (Window(rows=1), Window(rows=5)),  # eviction boundary
        ],
    )
    def test_window_join_parity(self, left_win, right_win):
        rng = np.random.default_rng(3)
        preds = [Comparison(AttrRef("A", "value"), ">", AttrRef("B", "value"))]

        def make():
            return WindowJoin("A", left_win, "B", right_win, preds, "out")

        scalar, batch = make(), make()
        tuples = random_tuples(rng, ["L", "R"], 150)
        alias = {"L": "A", "R": "B"}
        want = []
        for t in tuples:
            want.extend(scalar.process_side(alias[t.stream], t))
        got = []
        for b in random_partition(rng, tuples):
            out, idx = batch.process_batch_sides(
                [(alias[b.stream], b, np.arange(b.n))]
            )
            got.extend(out.to_tuples())
            assert len(idx) == out.n
        assert dicts(got) == dicts(want)
        assert scalar.inspected == batch.inspected
        assert scalar.state_size() == batch.state_size()

    def test_mixed_scalar_batch_pushes_rejected(self):
        join = WindowJoin(
            "A", Window(seconds=5), "B", Window(seconds=5), [], "out"
        )
        join.process_batch_sides(
            [("A", TupleBatch.from_tuples("L", [tup("L", 1.0)]), np.arange(1))]
        )
        with pytest.raises(TypeError):
            join.process_side("A", tup("L", 2.0))
        join2 = WindowJoin(
            "A", Window(seconds=5), "B", Window(seconds=5), [], "out"
        )
        join2.process_side("A", tup("L", 1.0))
        with pytest.raises(TypeError):
            join2.process_batch_sides(
                [("A", TupleBatch.from_tuples("L", [tup("L", 2.0)]), np.arange(1))]
            )


QUERY_SHAPES = [
    "SELECT * FROM {a} [{wa}] A WHERE A.value > {thr}",
    "SELECT A.value FROM {a} [{wa}] A",
    "SELECT * FROM {a} [{wa}] A, {b} [{wb}] B WHERE A.value > B.value",
    "SELECT A.value, B.value FROM {a} [{wa}] A, {b} [{wb}] B"
    " WHERE A.value = B.value AND A.value > {thr}",
]

WINDOWS = ["Now", "Range 3 Seconds", "Range 10 Seconds", "Rows 1", "Rows 4"]


def random_queries(rng, streams, count):
    queries = []
    for i in range(count):
        shape = QUERY_SHAPES[int(rng.integers(len(QUERY_SHAPES)))]
        a, b = rng.choice(len(streams), size=2, replace=False)
        text = shape.format(
            a=streams[int(a)],
            b=streams[int(b)],
            wa=WINDOWS[int(rng.integers(len(WINDOWS)))],
            wb=WINDOWS[int(rng.integers(len(WINDOWS)))],
            thr=int(rng.integers(0, 80)),
        )
        queries.append(parse_query(text, name=f"q{i}"))
    return queries


class TestRandomizedEngineParity:
    """Satellite: seeded generator cross-checking whole engines."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_engine_push_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        streams = [f"S{i}" for i in range(4)]
        queries = random_queries(rng, streams, 6)
        scalar = Engine()
        batch = Engine()
        for q in queries:
            scalar.add_query(q)
            batch.add_query(q)
        tuples = random_tuples(rng, streams, 300)
        for t in tuples:
            scalar.push(t)
        for b in random_partition(rng, tuples):
            batch.push_batch(b)
        for q in queries:
            assert dicts(scalar.results[q.name]) == dicts(
                batch.results[q.name]
            ), f"query {q.name} diverged (seed {seed})"
        assert scalar.cpu_costs() == batch.cpu_costs()
        assert scalar.state_sizes() == batch.state_sizes()

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_push_query_batch_matches_scalar_per_row(self, seed):
        rng = np.random.default_rng(seed)
        streams = [f"S{i}" for i in range(3)]
        queries = random_queries(rng, streams, 4)
        scalar = Engine()
        batch = Engine()
        for q in queries:
            scalar.add_query(q)
            batch.add_query(q)
        tuples = random_tuples(rng, streams, 200)
        name = queries[0].name
        want_rows = [dicts(scalar.push_query(name, t)) for t in tuples]
        got_rows = []
        for b in random_partition(rng, tuples):
            got_rows.extend(dicts(row) for row in batch.push_query_batch(name, b))
        assert got_rows == want_rows
        assert scalar.plans[name].cpu_cost() == batch.plans[name].cpu_cost()

    def test_empty_batch_is_noop(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        assert e.push_batch(TupleBatch.from_tuples("R", [])) == []
        assert e.push_query_batch("q", TupleBatch.from_tuples("R", [])) == []
        assert e.cpu_costs()["q"] == 0

    def test_unknown_stream_batch_is_noop(self):
        e = Engine()
        e.add_query(parse_query("SELECT R.a FROM R [Now]", name="q"))
        out = e.push_batch(TupleBatch.from_tuples("X", [tup("X", 1.0, a=1)]))
        assert out == []

    def test_self_join_falls_back_to_scalar_interleaving(self):
        text = (
            "SELECT * FROM R [Range 10 Seconds] A, R [Range 10 Seconds] B"
            " WHERE A.value > B.value"
        )
        scalar = Engine()
        scalar.add_query(parse_query(text, name="q"))
        batch = Engine()
        batch.add_query(parse_query(text, name="q"))
        rows = [tup("R", float(i), value=int(v)) for i, v in enumerate([5, 9, 2, 7])]
        for t in rows:
            scalar.push(t)
        batch.push_batch(TupleBatch.from_tuples("R", rows))
        assert dicts(scalar.results["q"]) == dicts(batch.results["q"])
        assert scalar.cpu_costs() == batch.cpu_costs()


class TestSimulatorBatchParity(ClusterContract):
    """Production runs equal the per-tuple plane's, which defines
    fault-free runs only.  Of the run edges -- where production's last
    observation and the horizon do not coincide -- it takes the one that
    pauses units with rows queued; the per-tuple plane observes nothing,
    and its event loop ends with the last release while production's
    runs on to the coalescing timeouts scheduled past the horizon (a
    closing sample that sees that tail differs in its time and rates)."""

    cluster_cls = ScalarCluster
    seeds = (0, 7)
    disabled = (frozenset(SCENARIOS) | frozenset(EDGES)) - {
        "churn_hotspot", "paused_at_horizon",
    }

    def test_rejects_faults(self):
        with pytest.raises(ValueError, match="^faults:"):
            run_on(
                ScalarCluster,
                workload=SimWorkloadParams(num_substreams=10, num_queries=4),
                scenario=scenario(**SCENARIOS["broker_loss"]),
            )

    def test_batch_plane_matches_oracle(self):
        wl = SimWorkloadParams(num_substreams=40, num_queries=24)
        report = run_scenario(
            seed=11,
            workload=wl,
            scenario=ScenarioParams(
                duration=20.0,
                sample_interval=4.0,
                adapt_interval=8.0,
                initial_placement="skewed",
                churn=ChurnParams(arrival_rate=0.4, mean_lifetime=12.0),
                hotspot=HotSpotShift(at=10.0, substreams=8, factor=3.0),
            ),
            record=True,
        )
        oracle = oracle_results(report.actions)
        assert set(report.results) == set(oracle)
        assert sum(map(len, report.results.values())) > 0
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"
