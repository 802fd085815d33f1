"""Fault injection, recovery invariants & elastic membership (ISSUE 6).

The contract under test: scheduled faults (processor crashes, broker
losses, link partitions) and membership events (joins, graceful leaves)
run through the seeded event loop bit-reproducibly, and the default
checkpoint recovery policy restores the system to the documented
invariants:

* queries never hosted on a failed node lose **zero** results -- they
  stay exactly oracle-equal;
* queries hosted on a crashed node lose at most the in-flight window --
  their results are a *subsequence* of the oracle's, and once the lost
  window has aged out past the recovery point they are at **full
  parity** again;
* graceful membership changes (join/leave) lose nothing at all;
* the ``none`` recovery baseline is demonstrably worse than
  ``checkpoint``.

All of it across shared/unshared execution, on production and on the
per-publish drain scheduler (:mod:`reference.eager_delivery`), and on
indexed and scanned broker tables (:mod:`reference.covering_scan`).
"""

import functools
import json

import pytest
from cluster_contract import run_on, swapped
from reference.covering_scan import ScanNetwork
from reference.eager_delivery import EagerCluster

from repro.sim import (
    BrokerLoss,
    ChurnParams,
    HotSpotShift,
    LinkPartition,
    ProcessorCrash,
    ProcessorJoin,
    ProcessorLeave,
    ScenarioParams,
    SimCluster,
    SimWorkloadParams,
    is_subsequence,
    oracle_results,
    recovery_invariants,
    run_scenario,
)

# short windows so "lost window aged out" falls well inside the run and
# the post-recovery-parity clause of the invariant is NOT vacuous
WINDOW_RANGE = (2, 4)
WINDOW_S = float(WINDOW_RANGE[1])


def fault_workload(pool: int = 6, queries: int = 24) -> SimWorkloadParams:
    return SimWorkloadParams(
        num_substreams=40,
        num_queries=queries,
        pool_substreams=pool,
        window_range=WINDOW_RANGE,
    )


def fault_scenario(**overrides) -> ScenarioParams:
    base = dict(
        duration=20.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=10.0),
        faults=(ProcessorCrash(at=6.0),),
        recovery="checkpoint",
        checkpoint_interval=3.0,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def trace_json(report) -> str:
    return json.dumps(report.trace.to_dict(), sort_keys=True)


@functools.lru_cache(maxsize=None)
def routed_crash_run(indexed: bool):
    """The seed-5 crash run on production broker tables, or on tables
    that maintain and match by scanning their entry lists (run once per
    module: the tests below only read it)."""
    kwargs = dict(
        seed=5, workload=fault_workload(), scenario=fault_scenario(), record=True
    )
    if indexed:
        return run_scenario(**kwargs)
    with swapped(PubSubNetwork=ScanNetwork):
        return run_scenario(**kwargs)


def crashed_queries(report) -> set:
    """Every query id that was hosted on a crashed/lost node."""
    hit = set()
    for entry in report.fault_log:
        if entry["kind"] == "crash":
            hit.update(entry["queries"])
    return hit


def last_resumed_at(report):
    times = [
        e["resumed_at"]
        for e in report.fault_log
        if e["kind"] == "recover" and "resumed_at" in e
    ]
    return max(times) if times else None


def total_loss(report, oracle, affected) -> int:
    """Results the oracle produced for affected queries but the run lost."""
    return sum(
        len(oracle[q]) - len(report.results.get(q, []))
        for q in affected
        if q in oracle
    )


class TestCrashRecoveryInvariants:
    """ProcessorCrash + CheckpointRecovery across every plane combo."""

    @pytest.mark.parametrize("on_demand", [True, False])
    @pytest.mark.parametrize("use_sharing", [False, True])
    def test_bounded_loss_and_post_recovery_parity(self, on_demand, use_sharing):
        """On production and on the per-publish drain scheduler it must
        reproduce (:mod:`reference.eager_delivery`)."""
        report = run_on(
            SimCluster if on_demand else EagerCluster,
            seed=3,
            workload=fault_workload(),
            scenario=fault_scenario(use_sharing=use_sharing),
            record=True,
        )
        oracle = oracle_results(report.actions)
        affected = crashed_queries(report)
        assert affected, "crash hit no hosted queries -- test is vacuous"
        resumed = last_resumed_at(report)
        assert resumed is not None, "recovery never ran"
        violations = recovery_invariants(
            report.results,
            oracle,
            affected=affected,
            resumed_at=resumed,
            window_s=WINDOW_S,
        )
        assert violations == []
        # the parity clause actually checked something: the oracle has
        # results for affected queries past the recovery horizon
        horizon = resumed + WINDOW_S
        checked = sum(
            1
            for q in affected
            for r in oracle.get(q, [])
            if r.get("timestamp", 0.0) > horizon
        )
        assert checked > 0, "post-recovery window empty -- shorten windows"

    @pytest.mark.parametrize("indexed", [True, False])
    def test_invariants_hold_on_both_routing_paths(self, indexed):
        """Indexed and scanned broker tables agree under faults too."""
        report = routed_crash_run(indexed)
        oracle = oracle_results(report.actions)
        affected = crashed_queries(report)
        assert affected
        violations = recovery_invariants(
            report.results,
            oracle,
            affected=affected,
            resumed_at=last_resumed_at(report),
            window_s=WINDOW_S,
        )
        assert violations == []

    def test_routing_paths_bit_identical_under_faults(self):
        """The table machinery never changes results."""
        runs = [routed_crash_run(indexed) for indexed in (True, False)]
        assert runs[0].results == runs[1].results
        assert runs[0].fault_log == runs[1].fault_log
        assert trace_json(runs[0]) == trace_json(runs[1])

    def test_untouched_queries_lose_nothing(self):
        report = run_scenario(
            seed=3,
            workload=fault_workload(),
            scenario=fault_scenario(),
            record=True,
        )
        oracle = oracle_results(report.actions)
        affected = crashed_queries(report)
        untouched = set(oracle) - affected
        assert untouched, "every query was hit -- zero-loss check vacuous"
        for qid in untouched:
            assert report.results.get(qid, []) == oracle[qid]

    def test_no_recovery_baseline_is_strictly_worse(self):
        """CheckpointRecovery must demonstrably beat doing nothing."""
        kwargs = dict(seed=3, workload=fault_workload(), record=True)
        rec = run_scenario(scenario=fault_scenario(), **kwargs)
        bare = run_scenario(
            scenario=fault_scenario(recovery="none"), **kwargs
        )
        # same crash either way
        assert crashed_queries(rec) == crashed_queries(bare)
        affected = crashed_queries(rec)
        oracle = oracle_results(rec.actions)
        loss_rec = total_loss(rec, oracle, affected)
        loss_bare = total_loss(bare, oracle, affected)
        assert loss_rec < loss_bare
        # even abandoned queries never corrupt or reorder: still subsequences
        for qid in affected:
            if qid in oracle:
                assert is_subsequence(bare.results.get(qid, []), oracle[qid])


    @pytest.mark.parametrize("seed", [0, 3])
    def test_adapt_round_inside_the_detect_window(self, seed):
        """An adaptation round between a crash and its recovery must
        leave the orphaned units alone: a shared group whose member's own
        placement survived (it sat on another processor) used to be
        'migrated' off the dead engine (KeyError)."""
        report = run_scenario(
            seed=seed,
            workload=fault_workload(),
            scenario=fault_scenario(
                faults=(ProcessorCrash(at=15.9),), use_sharing=True
            ),
            record=True,
        )
        kinds = [e["kind"] for e in report.fault_log]
        assert kinds == ["crash", "recover"]
        crash_t, recover_t = (e["t"] for e in report.fault_log)
        assert any(
            crash_t < a.t < recover_t for a in report.trace.adaptations
        ), "no adaptation round fell inside the detect window"
        violations = recovery_invariants(
            report.results,
            oracle_results(report.actions),
            affected=crashed_queries(report),
        )
        assert violations == []


class TestBrokerLossAndPartition:
    @pytest.mark.parametrize("use_sharing", [False, True])
    def test_broker_loss_recovery_restores_delivery(self, use_sharing):
        """A wiped broker is refilled by its neighbours: zero total loss."""
        report = run_scenario(
            seed=2,
            workload=fault_workload(),
            scenario=fault_scenario(
                faults=(BrokerLoss(at=7.0),),
                use_sharing=use_sharing,
            ),
            record=True,
        )
        kinds = [e["kind"] for e in report.fault_log]
        assert "broker_loss" in kinds and "recover" in kinds
        oracle = oracle_results(report.actions)
        # no engine died, so nothing is exempt: every query bounded,
        # and the neighbours' replay keeps loss transient
        for qid, want in oracle.items():
            assert is_subsequence(report.results.get(qid, []), want)

    def test_partition_drops_then_heals(self):
        report = run_scenario(
            seed=4,
            workload=fault_workload(),
            scenario=fault_scenario(
                faults=(LinkPartition(at=6.0, duration=3.0),),
            ),
            record=True,
        )
        kinds = [e["kind"] for e in report.fault_log]
        assert kinds.count("partition") == 1
        assert kinds.count("heal") == 1
        oracle = oracle_results(report.actions)
        for qid, want in oracle.items():
            assert is_subsequence(report.results.get(qid, []), want)

    def test_partition_is_deterministic(self):
        kwargs = dict(
            seed=4,
            workload=fault_workload(),
            scenario=fault_scenario(
                faults=(LinkPartition(at=6.0, duration=3.0),),
            ),
            record=True,
        )
        a, b = run_scenario(**kwargs), run_scenario(**kwargs)
        assert a.fault_log == b.fault_log
        assert a.results == b.results
        assert trace_json(a) == trace_json(b)


class TestElasticMembership:
    """Graceful join/leave under churn + hot spots loses nothing."""

    @pytest.mark.parametrize("use_sharing", [False, True])
    def test_join_leave_is_lossless(self, use_sharing):
        scenario = fault_scenario(
            faults=(ProcessorJoin(at=5.0), ProcessorLeave(at=11.0)),
            spare_processors=1,
            hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
            use_sharing=use_sharing,
        )
        report = run_scenario(
            seed=6, workload=fault_workload(), scenario=scenario,
            record=True,
        )
        kinds = [e["kind"] for e in report.fault_log]
        assert "join" in kinds and "leave" in kinds
        oracle = oracle_results(report.actions)
        # graceful migration: EVERY query stays exactly oracle-equal
        violations = recovery_invariants(
            report.results, oracle, affected=set()
        )
        assert violations == []

    @pytest.mark.parametrize("use_sharing", [False, True])
    def test_join_leave_is_deterministic(self, use_sharing):
        scenario = fault_scenario(
            faults=(ProcessorJoin(at=5.0), ProcessorLeave(at=11.0)),
            spare_processors=1,
            hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
            use_sharing=use_sharing,
        )
        kwargs = dict(
            seed=6, workload=fault_workload(), scenario=scenario,
            record=True,
        )
        a, b = run_scenario(**kwargs), run_scenario(**kwargs)
        assert a.fault_log == b.fault_log
        assert trace_json(a) == trace_json(b)
        assert a.results == b.results


def vertex_holders(cosmos):
    """(tree depth, query id) -> number of coordinator vertices at that
    depth holding the query.  A query on one root-to-leaf path is held
    exactly once per level."""
    counts = {}
    stack = [(cosmos.root, 0)]
    while stack:
        coord, depth = stack.pop()
        for vertex in coord.vertices.values():
            for qid in vertex.members:
                counts[(depth, qid)] = counts.get((depth, qid), 0) + 1
        stack.extend((child, depth + 1) for child in coord.children)
    return counts


class TestReplacementKeepsOnePath:
    """Re-homing a shared unit re-inserts *every* member, including the
    ones whose own COSMOS placement is a surviving processor (the group
    follows the majority, so a member's wish can sit elsewhere).  Those
    were never orphaned: re-inserting them without removing them first
    put the query on two root-to-leaf paths."""

    @pytest.mark.parametrize(
        "fault", [ProcessorCrash(at=12.0), ProcessorLeave(at=12.0)],
        ids=["crash_recover", "leave"],
    )
    @pytest.mark.parametrize("seed", [0, 6])
    def test_no_query_on_two_paths(self, fault, seed, monkeypatch):
        import repro.sim.cluster as cluster_mod

        clusters = []
        orig_init = cluster_mod.SimCluster.__init__

        def capturing_init(self, *args, **kw):
            orig_init(self, *args, **kw)
            clusters.append(self)

        monkeypatch.setattr(cluster_mod.SimCluster, "__init__", capturing_init)
        # one adaptation round (t=8) lets member wishes diverge from
        # their group's host; the run ends right after the re-placement
        report = run_scenario(
            seed=seed,
            workload=fault_workload(),
            scenario=fault_scenario(
                duration=12.6, faults=(fault,), use_sharing=True
            ),
        )
        assert report.fault_log[-1]["kind"] in ("recover", "leave")
        (cluster,) = clusters
        cosmos = cluster.cosmos
        live = sorted(q for q, qs in cluster.queries.items() if qs.alive)
        assert any(
            cosmos.placement[q] != cluster.queries[q].host for q in live
        ), "no member is placed away from its group -- test is vacuous"
        doubled = {
            qid for (_, qid), n in vertex_holders(cosmos).items() if n > 1
        }
        assert doubled == set()
        for qid in live:
            assert cosmos.remove(qid)
        left = {qid for _, qid in vertex_holders(cosmos)} & set(live)
        assert left == set()


class TestMixedFaultDeterminism:
    def test_mixed_fault_schedule_bit_identical(self):
        """Everything at once, twice: crashes, broker loss, partition,
        join, leave -- identical traces, logs and results."""
        scenario = fault_scenario(
            faults=(
                ProcessorJoin(at=3.0),
                ProcessorCrash(at=6.0),
                LinkPartition(at=8.0, duration=2.0),
                BrokerLoss(at=10.0),
                ProcessorLeave(at=13.0),
            ),
            spare_processors=2,
        )
        kwargs = dict(
            seed=9, workload=fault_workload(), scenario=scenario,
            record=True,
        )
        a, b = run_scenario(**kwargs), run_scenario(**kwargs)
        assert a.fault_log == b.fault_log
        assert trace_json(a) == trace_json(b)
        assert a.results == b.results
        # and the run still satisfies the loss bounds
        oracle = oracle_results(a.actions)
        affected = crashed_queries(a)
        violations = recovery_invariants(
            a.results,
            oracle,
            affected=affected,
            resumed_at=last_resumed_at(a),
            window_s=WINDOW_S,
        )
        assert violations == []

    def test_fault_free_runs_unaffected_by_fault_plumbing(self):
        """With no faults scheduled, the checkpoint machinery only adds
        its shipping cost -- it never changes what queries compute."""
        kwargs = dict(seed=1, workload=fault_workload(), record=True)
        plain = run_scenario(scenario=fault_scenario(faults=()), **kwargs)
        no_ckpt = run_scenario(
            scenario=fault_scenario(faults=(), checkpoint_interval=None),
            **kwargs,
        )
        assert plain.fault_log == [] and no_ckpt.fault_log == []
        assert plain.results == no_ckpt.results
        # checkpoint shipping is visible as extra control traffic only
        shipped = sum(s.control_bytes for s in plain.trace.samples)
        bare = sum(s.control_bytes for s in no_ckpt.trace.samples)
        assert shipped >= bare


class TestInvariantHelpers:
    def test_is_subsequence(self):
        assert is_subsequence([], [1, 2])
        assert is_subsequence([1, 3], [1, 2, 3])
        assert not is_subsequence([3, 1], [1, 2, 3])
        assert not is_subsequence([4], [1, 2, 3])

    def test_exact_violation_for_untouched_query(self):
        oracle = {1: [{"timestamp": 1.0}]}
        got = {1: []}
        assert recovery_invariants(got, oracle, affected=set()) == [
            (1, "exact")
        ]

    def test_subsequence_violation_for_affected_query(self):
        oracle = {1: [{"timestamp": 1.0}, {"timestamp": 2.0}]}
        got = {1: [{"timestamp": 2.0}, {"timestamp": 1.0}]}
        assert recovery_invariants(got, oracle, affected={1}) == [
            (1, "subsequence")
        ]

    def test_post_recovery_parity_violation(self):
        oracle = {1: [{"timestamp": 1.0}, {"timestamp": 9.0}]}
        got = {1: [{"timestamp": 1.0}]}
        assert recovery_invariants(
            got, oracle, affected={1}, resumed_at=2.0, window_s=4.0
        ) == [(1, "post_recovery_parity")]

    def test_bounded_loss_before_horizon_is_fine(self):
        oracle = {1: [{"timestamp": 1.0}, {"timestamp": 9.0}]}
        got = {1: [{"timestamp": 9.0}]}
        assert (
            recovery_invariants(
                got, oracle, affected={1}, resumed_at=2.0, window_s=4.0
            )
            == []
        )
