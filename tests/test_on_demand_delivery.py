"""On-demand delivery == the per-publish drain scheduler, and the
two-sided join kernel == the scalar join.

The batch data plane delivers a unit's released rows only when something
observes them (a sample, an adaptation round, a fault handler, the
unit's own churn or detach, the end of the run) and pushes
one delivery into its engine at once.  What it must reproduce bit for
bit:

* whole runs of the per-publish drain scheduler
  (:mod:`reference.eager_delivery`) under the
  :class:`cluster_contract.ClusterContract`, every scenario included;
* per row, the scalar :meth:`~repro.engine.operators.WindowJoin.process_side`
  walk, for any interleaving of the two inputs handed to
  :meth:`~repro.engine.operators.WindowJoin.process_batch_sides`.
"""

import numpy as np
import pytest
from cluster_contract import WORKLOAD, ClusterContract, scenario
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.eager_delivery import EagerCluster
from test_batch_parity import dicts, random_queries, random_tuples, tup

from repro.engine import Engine, MergedBatch, TupleBatch, WindowJoin
from repro.query.ast import AttrRef, Comparison, Window
from repro.query.parser import parse_query
from repro.sim import SimCluster, run_scenario


class TestMatchesPerPublishDrains(ClusterContract):
    cluster_cls = EagerCluster
    seeds = (0, 2)


class TestObservationIsNarrow:
    def test_churn_arrival_leaves_unrelated_units_alone(self, monkeypatch):
        """A churn arrival publishes and drains only what it re-routes:
        units reading none of the new query's streams keep their queues,
        released rows included."""
        seen = []
        original = SimCluster.add_query

        def add_query(cluster, simq, host):
            now = cluster.loop.now
            before = {
                uid: list(unit.pending_rel)
                for uid, unit in cluster.units.items()
                if not set(unit.substreams) & set(simq.substreams)
            }
            qs = original(cluster, simq, host)
            for uid, rows in before.items():
                assert cluster.units[uid].pending_rel == rows
                seen.extend(row for row in rows if row[3] <= now)
            return qs

        monkeypatch.setattr(SimCluster, "add_query", add_query)
        run_scenario(seed=2, workload=WORKLOAD, scenario=scenario())
        # released, unobserved rows were there to be disturbed
        assert seen

    def test_teardown_accounts_released_rows_at_their_release(self):
        """A unit torn down with released rows nobody observed yet still
        accounts them at their release, not at the teardown instant."""
        from test_sim import TestMidDrainRemoval

        c, qs = TestMidDrainRemoval._mini_cluster(SimCluster)
        loop = c.loop
        # one row at t=1.0 (slack 1 s: it releases at 2.0)
        loop.schedule(
            1.0,
            lambda: c._publish_rows(
                0, [(1, tup("S0", loop.now, value=1))]
            ),
        )
        # nothing observes the unit until it is torn down at t=3.0
        loop.schedule(3.0, lambda: c._detach_unit(qs.unit.uid))
        loop.run()
        assert c.results_total == 1
        assert qs.lat_max == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the two-sided join kernel
# ----------------------------------------------------------------------
JOIN_WINDOWS = [
    Window(seconds=0),  # [Now]
    Window(seconds=1.5),
    Window(seconds=1),
    Window(seconds=6),
    Window(rows=1),
    Window(rows=4),
]


def drains(rng, tuples, empty_every=4):
    """Cut a timestamp-ordered tuple list into consecutive deliveries of
    1-12 rows (both streams interleaved), some of them empty."""
    out = []
    i = 0
    while i < len(tuples):
        if rng.random() < 1.0 / empty_every:
            out.append([])
        j = min(len(tuples), i + int(rng.integers(1, 13)))
        out.append(tuples[i:j])
        i = j
    return out


def sides_of(rows, alias, empty_side):
    """``process_batch_sides`` input for one delivery: per stream its
    batch and merged positions; ``empty_side`` adds a zero-row entry for
    a stream the delivery lacks."""
    sides = []
    for stream in ("L", "R"):
        idx = [i for i, t in enumerate(rows) if t.stream == stream]
        if idx or empty_side:
            sides.append((
                alias[stream],
                TupleBatch.from_tuples(stream, [rows[i] for i in idx]),
                np.asarray(idx, dtype=np.int64),
            ))
    return sides


class TestTwoSidedKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        left=st.sampled_from(JOIN_WINDOWS),
        right=st.sampled_from(JOIN_WINDOWS),
        dt_scale=st.sampled_from([0.05, 0.5, 2.0]),
        empty_side=st.booleans(),
        ties=st.booleans(),
    )
    def test_matches_scalar_process_side(
        self, seed, left, right, dt_scale, empty_side, ties
    ):
        rng = np.random.default_rng(seed)
        preds = [Comparison(AttrRef("A", "value"), ">", AttrRef("B", "value"))]
        scalar = WindowJoin("A", left, "B", right, preds, "out")
        kernel = WindowJoin("A", left, "B", right, preds, "out")
        alias = {"L": "A", "R": "B"}
        tuples = random_tuples(rng, ["L", "R"], 120, dt_scale=dt_scale)
        if ties:
            # timestamps on a coarse grid: equal ones across and within
            # sides, and partners exactly on a time window's edge
            tuples = [
                tup(t.stream, float(np.floor(t.timestamp * 2) / 2),
                    **{k: v for k, v in t.values.items() if k != "timestamp"})
                for t in tuples
            ]
        for rows in drains(rng, tuples):
            want = [
                dicts(scalar.process_side(alias[t.stream], t)) for t in rows
            ]
            out, probes = kernel.process_batch_sides(
                sides_of(rows, alias, empty_side)
            )
            assert probes.tolist() == sorted(probes.tolist())
            counts = np.bincount(probes, minlength=len(rows)).tolist()
            assert counts == [len(r) for r in want]
            assert dicts(out.to_tuples()) == [r for rs in want for r in rs]
            assert kernel.inspected == scalar.inspected
            assert kernel.state_size() == scalar.state_size()
            assert kernel.evicted() == scalar.evicted()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_engine_push_matches_scalar_rows(self, seed):
        """``push_query_batch`` of a merged delivery -- the two-sided
        kernel, or the scalar fallback for the self-join -- against
        ``push_query`` row by row on a second engine."""
        rng = np.random.default_rng(seed)
        streams = ["S0", "S1"]
        queries = random_queries(rng, streams, 4) + [
            parse_query(
                "SELECT * FROM S0 [Range 3 Seconds] A, S0 [Rows 4] B"
                " WHERE A.value > B.value",
                name="self",
            )
        ]
        scalar = Engine()
        merged = Engine()
        for q in queries:
            scalar.add_query(q)
            merged.add_query(q)
        tuples = random_tuples(rng, streams, 100)
        for q in queries:
            want = [dicts(scalar.push_query(q.name, t)) for t in tuples]
            held = [
                merged.push_query_batch(q.name, MergedBatch.from_tuples(rows))
                for rows in drains(rng, tuples)
            ]
            got = [dicts(row) for out in held for row in out]
            assert got == want, f"{q.name} diverged (seed {seed})"
        assert scalar.cpu_costs() == merged.cpu_costs()
        assert scalar.state_sizes() == merged.state_sizes()

    def test_merged_batch_round_trip(self):
        rows = [tup("R", 1.0, a=1), tup("S", 1.0, b=2.5), tup("R", 2.0, a=3)]
        batch = MergedBatch.from_tuples(rows)
        assert batch.n == len(batch) == 3
        assert [(b.stream, p.tolist()) for b, p in batch.parts] == [
            ("R", [0, 2]), ("S", [1]),
        ]
        assert dicts(batch.to_tuples()) == dicts(rows)

    def test_one_entry_per_input(self):
        join = WindowJoin("A", Window(rows=2), "B", Window(rows=2), [], "out")
        one = TupleBatch.from_tuples("L", [tup("L", 1.0)])
        with pytest.raises(ValueError):
            join.process_batch_sides(
                [("A", one, np.arange(1)), ("A", one, np.arange(1, 2))]
            )
        with pytest.raises(KeyError):
            join.process_batch_sides([("C", one, np.arange(1))])
