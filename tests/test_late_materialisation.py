"""Late materialisation: results read late are the results read at once.

``Engine.push_query_batch`` answers with index arrays and counts; the
result tuples are built when somebody iterates them.  Whatever happened
to the join windows in between -- later pushes evicting, appending to
and re-allocating the partner window -- the rows built late must equal
the scalar path's, and a run that reads no result must build none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_parity import (
    dicts,
    random_partition,
    random_queries,
    random_tuples,
    tup,
)

from repro.engine import Engine, TupleBatch
from repro.obs import Observer
from repro.query.parser import parse_query
from repro.sim import ScenarioParams, SimWorkloadParams, run_scenario

STREAMS = ["S0", "S1", "S2"]

#: shapes the shared generator does not draw: a predicate over a ragged
#: attribute (presence masks in the probe) and a self-join (the scalar
#: fallback inside ``push_query_batch``)
EXTRA_QUERIES = [
    "SELECT * FROM S0 [Range 10 Seconds] A, S1 [Rows 4] B WHERE A.aux = B.aux",
    "SELECT * FROM S0 [Range 3 Seconds] A, S0 [Range 10 Seconds] B"
    " WHERE A.value > B.value",
]


def ragged_tuples(rng, n):
    """The shared generator's tuples (``aux`` on half the rows), with
    some ``aux`` values replaced by an explicit ``None``."""
    out = []
    for t in random_tuples(rng, STREAMS, n):
        if "aux" in t.values and rng.random() < 0.3:
            t = tup(t.stream, t.timestamp, **{**t.values, "aux": None})
        out.append(t)
    return out


class TestLazyRowsEqualScalarRows:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_built_after_the_window_moved_on(self, seed):
        rng = np.random.default_rng(seed)
        queries = random_queries(rng, STREAMS, 4) + [
            parse_query(text, name=f"x{i}")
            for i, text in enumerate(EXTRA_QUERIES)
        ]
        scalar = Engine()
        batch = Engine()
        for q in queries:
            scalar.add_query(q)
            batch.add_query(q)
        tuples = ragged_tuples(rng, 160)
        batches = random_partition(rng, tuples)
        for q in queries:
            reads = {b.stream for b in q.bindings}
            want = [
                dicts(scalar.push_query(q.name, t))
                for t in tuples
                if t.stream in reads
            ]
            # hold every push's results unread until the last push is in:
            # by then each partner window has evicted, appended and grown
            held = [
                batch.push_query_batch(q.name, b)
                for b in batches
                if b.stream in reads
            ]
            assert [len(row) for out in held for row in out] == [
                len(row) for row in want
            ], f"{q.name}: counts diverged (seed {seed})"
            got = [dicts(row) for out in held for row in out]
            assert got == want, f"{q.name}: rows diverged (seed {seed})"
        assert scalar.cpu_costs() == batch.cpu_costs()
        assert scalar.state_sizes() == batch.state_sizes()

    def test_reads_like_the_list_of_lists_it_stands_for(self):
        e = Engine()
        e.add_query(
            parse_query(
                "SELECT * FROM R [Rows 3] A, S [Rows 3] B WHERE A.value > B.value",
                name="q",
            )
        )
        e.push_query_batch("q", TupleBatch.from_tuples("S", [tup("S", 1.0, value=1)]))
        out = e.push_query_batch(
            "q",
            TupleBatch.from_tuples(
                "R", [tup("R", 2.0, value=0), tup("R", 3.0, value=5)]
            ),
        )
        assert len(out) == 2 and out.counts == [0, 1]
        assert [len(row) for row in out] == [0, 1]
        assert not out[0] and out[0] == []
        (result,) = out[-1]
        assert result.values["A.value"] == 5 and result.values["B.value"] == 1
        assert out == [[], [result]] and out == out
        assert out != [[], []]
        empty = e.push_query_batch("q", TupleBatch.from_tuples("R", []))
        assert empty == [] and len(empty) == 0
        assert e.push_query_batch("nope", TupleBatch.from_tuples("R", [tup("R", 4.0)])) == [[]]

    def test_rows_out_of_range_raise_like_a_list(self):
        e = Engine()
        e.add_query(parse_query("SELECT * FROM R [Now] A", name="q"))
        out = e.push_query_batch(
            "q", TupleBatch.from_tuples("R", [tup("R", float(t)) for t in range(3)])
        )
        assert [len(out[i]) for i in (-3, -1, 0, 2)] == [1, 1, 1, 1]
        for i in (-5, -4, 3, 4):
            with pytest.raises(IndexError):
                out[i]

    def test_projection_is_the_one_of_the_push(self):
        """Widening a plan after a push must not widen rows already pushed."""
        narrow = parse_query(
            "SELECT A.value FROM R [Rows 3] A, S [Rows 3] B WHERE A.value > B.value",
            name="q",
        )
        wide = parse_query(
            "SELECT A.value, B.value FROM R [Rows 3] A, S [Rows 3] B"
            " WHERE A.value > B.value",
            name="q",
        )
        e = Engine()
        plan = e.add_query(narrow)
        e.push_query_batch("q", TupleBatch.from_tuples("S", [tup("S", 1.0, value=1)]))
        before = e.push_query_batch(
            "q", TupleBatch.from_tuples("R", [tup("R", 2.0, value=5)])
        )
        plan.widen_to(wide)
        after = e.push_query_batch(
            "q", TupleBatch.from_tuples("R", [tup("R", 3.0, value=6)])
        )
        assert "B.value" not in list(before[0])[0].values
        assert "B.value" in list(after[0])[0].values

    def test_sinks_see_every_result_in_order(self):
        text = "SELECT * FROM R [Rows 5] A, S [Rows 5] B WHERE A.value > B.value"
        scalar, batch = Engine(), Engine()
        seen = {id(scalar): [], id(batch): []}
        for e in (scalar, batch):
            e.add_query(parse_query(text, name="q"))
            e.on_result("q", seen[id(e)].append)
        rng = np.random.default_rng(5)
        tuples = random_tuples(rng, ["R", "S"], 60)
        for t in tuples:
            scalar.push_query("q", t)
        for b in random_partition(rng, tuples):
            batch.push_query_batch("q", b)
        assert dicts(seen[id(batch)]) == dicts(seen[id(scalar)])
        assert seen[id(batch)]


class TestSimulatorBuildsOnlyWhatIsRead:
    """``engine.rows_materialised`` counts result tuples built from batch
    results.  Every query is a join here (``join_fraction=1``): join-less
    plans take single rows through the scalar ``push_query``, which has
    nothing to defer."""

    @staticmethod
    def run(record):
        obs = Observer(span_sample_every=0, profile=False)
        report = run_scenario(
            seed=3,
            workload=SimWorkloadParams(
                num_substreams=20, num_queries=12, join_fraction=1.0,
                rate_range=(1.0, 3.0),
            ),
            scenario=ScenarioParams(duration=8.0, sample_interval=2.0, adapt_interval=4.0),
            record=record,
            observer=obs,
        )
        built = obs.registry.counters.get("engine.rows_materialised", 0)
        return report, built

    def test_unrecorded_run_builds_no_result_tuple(self):
        report, built = self.run(record=False)
        assert report.trace.total_results() > 0
        assert built == 0

    def test_recorded_run_builds_each_result_once(self):
        report, built = self.run(record=True)
        assert built == report.trace.total_results() > 0
        assert built == sum(map(len, report.results.values()))
