"""Tests for the discrete-event cluster simulator."""

import json

import numpy as np
import pytest

from repro.core.cosmos import CosmosConfig
from repro.query.interest import SubstreamSpace
from repro.query.workload import WorkloadParams, generate_workload
from repro.sim import (
    BrokerLoss,
    ChurnParams,
    EventLoop,
    HotSpotShift,
    LinkPartition,
    ProcessorCrash,
    ProcessorJoin,
    ProcessorLeave,
    ScenarioParams,
    SimWorkloadParams,
    measure_rates,
    oracle_results,
    run_scenario,
)
from repro.sim.workload import SimQueryFactory, stream_name
from repro.topology.latency import select_roles
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub


class TestEventLoop:
    def test_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        loop = EventLoop()
        seen = []
        for tag in "abc":
            loop.schedule(5.0, lambda t=tag: seen.append(t))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_past_scheduling_raises(self):
        """Scheduling before ``now`` is a causality bug, not a clamp."""
        loop = EventLoop()
        failures = []

        def at_two():
            try:
                loop.schedule(1.0, lambda: None)
            except ValueError as exc:
                failures.append(exc)

        loop.schedule(2.0, at_two)
        loop.run()
        assert len(failures) == 1
        assert loop.now == 2.0

    def test_past_scheduling_within_epsilon_clamped(self):
        """Float round-off below ``past_epsilon`` still clamps to now."""
        loop = EventLoop()
        seen = []
        loop.schedule(
            2.0, lambda: loop.schedule(2.0 - 1e-12, lambda: seen.append("ok"))
        )
        loop.run()
        assert seen == ["ok"]
        assert loop.now == 2.0

    def test_run_until_horizon(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(9.0, lambda: seen.append(9))
        assert loop.run_until(5.0) == 1
        assert seen == [1] and loop.now == 5.0
        assert len(loop) == 1

    def test_actions_can_reschedule(self):
        loop = EventLoop()
        ticks = []

        def tick():
            ticks.append(loop.now)
            if loop.now < 3.0:
                loop.schedule(loop.now + 1.0, tick)

        loop.schedule(1.0, tick)
        loop.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]


class TestSeedThreading:
    """Satellite: one numpy Generator reproduces every layer."""

    def test_transit_stub_rng_param(self):
        p = TransitStubParams()
        a = generate_transit_stub(p, rng=np.random.default_rng(3))
        b = generate_transit_stub(p, rng=np.random.default_rng(3))
        c = generate_transit_stub(p, rng=np.random.default_rng(4))
        assert a.adjacency == b.adjacency
        assert a.adjacency != c.adjacency
        # legacy int-seed path is untouched
        assert (
            generate_transit_stub(p, seed=5).adjacency
            == generate_transit_stub(p, seed=5).adjacency
        )

    def test_select_roles_rng_param(self):
        topo = generate_transit_stub(TransitStubParams(), seed=1)
        a = select_roles(topo, 4, 8, rng=np.random.default_rng(2))
        b = select_roles(topo, 4, 8, rng=np.random.default_rng(2))
        assert a == b

    def test_substream_space_rng_param(self):
        a = SubstreamSpace.random(50, [1, 2], rng=np.random.default_rng(9))
        b = SubstreamSpace.random(50, [1, 2], rng=np.random.default_rng(9))
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.source_of, b.source_of)

    def test_generate_workload_rng_param(self):
        params = WorkloadParams(num_substreams=100, num_queries=20)
        a = generate_workload(params, [0, 1], [5, 6, 7], rng=np.random.default_rng(4))
        b = generate_workload(params, [0, 1], [5, 6, 7], rng=np.random.default_rng(4))
        assert [q.mask for q in a.queries] == [q.mask for q in b.queries]
        assert [q.proxy for q in a.queries] == [q.proxy for q in b.queries]

    def test_sim_factory_reproducible(self):
        space = SubstreamSpace.random(30, [0], rng=np.random.default_rng(1))
        make = lambda seed: SimQueryFactory(
            space, [10, 11], SimWorkloadParams(num_substreams=30),
            np.random.default_rng(seed),
        ).make_batch(10)
        a, b = make(7), make(7)
        assert [q.text for q in a] == [q.text for q in b]
        assert [q.spec.mask for q in a] == [q.spec.mask for q in b]


class TestMeasureRates:
    def test_converges_to_nominal(self):
        space = SubstreamSpace.random(200, [0], rng=np.random.default_rng(0))
        measured = measure_rates(space, 10000.0, np.random.default_rng(1))
        assert np.allclose(measured, space.rates, rtol=0.2)

    def test_noisy_at_short_durations(self):
        space = SubstreamSpace.random(200, [0], rng=np.random.default_rng(0))
        measured = measure_rates(space, 0.5, np.random.default_rng(1))
        assert not np.allclose(measured, space.rates, rtol=1e-3)

    def test_rejects_bad_duration(self):
        space = SubstreamSpace.random(5, [0], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            measure_rates(space, 0.0, np.random.default_rng(1))


class TestMidDrainRemoval:
    """Satellite regression: on the per-tuple reference plane, a unit
    force-drained mid-stream (a member departing its shared group) leaves
    its already-scheduled release events in the loop; those stale events
    must not deliver *later* pending tuples before their own release time.
    """

    @staticmethod
    def _mini_cluster(cluster_cls):
        """A one-query ``cluster_cls`` cluster, source 0 -- 1000 ms --
        processor 1 (so the query's reordering slack is 1 s), built
        through the public constructor and ``add_query``."""
        from repro.core.cosmos import Cosmos
        from repro.query.interest import mask_of
        from repro.query.parser import parse_query
        from repro.query.workload import QuerySpec
        from repro.sim import SimQuery
        from repro.topology.latency import LatencyOracle
        from repro.topology.transit_stub import Topology

        topo = Topology(n=2, adjacency=[[], []])
        topo.add_edge(0, 1, 1000.0)
        oracle = LatencyOracle(topo)
        space = SubstreamSpace(rates=[1.0], source_of=[0])
        rng = np.random.default_rng(0)
        c = cluster_cls(
            oracle=oracle,
            sources=[0],
            processors=[1],
            space=space,
            cosmos=Cosmos(oracle, [1], space),
            params=ScenarioParams(),
            factory=SimQueryFactory(
                space, [1], SimWorkloadParams(num_substreams=1), rng
            ),
            arrival_rng=rng,
            value_rng=rng,
        )
        ast = parse_query(
            "SELECT A.value FROM S0 [Range 5 Seconds] A", name="q0"
        )
        spec = QuerySpec(
            query_id=0, proxy=1, mask=mask_of([0]), group=0,
            load=1.0, result_rate=1.0, state_size=0.0,
        )
        simq = SimQuery(
            spec=spec, ast=ast, text="", streams=("S0",), substreams=(0,)
        )
        return c, c.add_query(simq, 1)

    def test_stale_release_event_cannot_deliver_early(self):
        from reference.scalar_plane import ScalarCluster

        from repro.engine.tuples import StreamTuple

        c, qs = self._mini_cluster(ScalarCluster)
        loop = c.loop
        seq = iter(range(1, 10))

        def publish():
            t = loop.now
            tup = StreamTuple("S0", {"value": 1, "timestamp": t})
            c._publish_rows(0, [(next(seq), tup)])

        # x1 published at t=1.0, release 2.0 (slack 1s)
        loop.schedule(1.0, publish)
        # mid-drain at t=1.5: x1 force-delivered, its release event at
        # t=2.0 is now stale but still queued
        loop.schedule(1.5, lambda: c._drain_unit_completely(qs.unit))
        # x2 published at t=1.8, release max(2.8, last_release)=2.8
        loop.schedule(1.8, publish)
        loop.run()
        # x2 must be delivered at ITS release (latency 1.0s), not when
        # the stale t=2.0 event fires (latency 0.2s)
        assert c.results_total == 2
        assert qs.lat_max == pytest.approx(1.0)


def churn_scenario() -> ScenarioParams:
    return ScenarioParams(
        duration=20.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=12.0),
        hotspot=HotSpotShift(at=10.0, substreams=8, factor=3.0),
    )


def small_workload() -> SimWorkloadParams:
    return SimWorkloadParams(num_substreams=40, num_queries=24)


class TestRunScenario:
    def test_steady_state_produces_results_and_latencies(self):
        report = run_scenario(
            seed=1,
            workload=small_workload(),
            scenario=ScenarioParams(duration=15.0, sample_interval=5.0,
                                    adapt_interval=None),
        )
        summary = report.trace.summary()
        assert summary["results_total"] > 0
        assert summary["mean_latency_s"] > 0.0
        # latency can never beat the smallest intra-stub link (1 ms)
        assert summary["max_latency_s"] >= 0.001
        assert report.tuples_emitted > 0
        # no adaptation configured -> no migrations, no marks
        assert summary["migrations_total"] == 0
        assert report.trace.adaptations == []

    def test_trace_is_deterministic(self):
        a = run_scenario(seed=5, workload=small_workload(), scenario=churn_scenario())
        b = run_scenario(seed=5, workload=small_workload(), scenario=churn_scenario())
        assert json.dumps(a.trace.to_dict(), sort_keys=True) == json.dumps(
            b.trace.to_dict(), sort_keys=True
        )

    def test_trace_round_trips_through_dict(self):
        """Satellite: ``to_dict`` is versioned and ``from_dict`` inverts it."""
        from repro.sim.trace import TRACE_SCHEMA_VERSION, SimTrace

        report = run_scenario(
            seed=5, workload=small_workload(), scenario=churn_scenario()
        )
        trace = report.trace
        data = trace.to_dict(include_timing=True)
        assert data["schema_version"] == TRACE_SCHEMA_VERSION
        rebuilt = SimTrace.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == trace
        # timing-stripped dicts reconstruct with optimizer_cpu_s zeroed
        stripped = SimTrace.from_dict(trace.to_dict())
        assert stripped.to_dict() == trace.to_dict()
        assert all(a.optimizer_cpu_s == 0.0 for a in stripped.adaptations)
        # unknown versions fail loudly instead of misparsing
        bad = trace.to_dict()
        bad["schema_version"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SimTrace.from_dict(bad)

    @pytest.mark.parametrize("records", ["samples", "adaptations"])
    def test_trace_records_fail_loudly_naming_the_field(self, records):
        """A missing or unknown record field is a ``ValueError`` naming
        it, not a ``TypeError`` from deep inside a constructor."""
        from repro.sim.trace import SimTrace

        report = run_scenario(
            seed=5, workload=small_workload(), scenario=churn_scenario()
        )
        data = report.trace.to_dict()
        assert data[records], "the run produced no records to corrupt"
        last = len(data[records]) - 1
        record = data[records][last]
        field = next(iter(record))

        missing = json.loads(json.dumps(data))
        del missing[records][last][field]
        with pytest.raises(ValueError, match=f"{last}: missing field '{field}'"):
            SimTrace.from_dict(missing)

        unknown = json.loads(json.dumps(data))
        unknown[records][last]["bogus"] = 1.0
        with pytest.raises(ValueError, match="unknown field 'bogus'"):
            SimTrace.from_dict(unknown)

        not_an_object = json.loads(json.dumps(data))
        not_an_object[records][last] = [1.0, 2.0]
        with pytest.raises(ValueError, match="expected an object"):
            SimTrace.from_dict(not_an_object)

    def test_seeds_differ(self):
        a = run_scenario(seed=5, workload=small_workload(), scenario=churn_scenario())
        b = run_scenario(seed=6, workload=small_workload(), scenario=churn_scenario())
        assert json.dumps(a.trace.to_dict(), sort_keys=True) != json.dumps(
            b.trace.to_dict(), sort_keys=True
        )

    def test_churn_adaptation_improves_balance(self):
        """Satellite: churn + adaptation; stddev drops after a round."""
        report = run_scenario(
            seed=7, workload=small_workload(), scenario=churn_scenario()
        )
        assert report.trace.adaptations, "no adaptation rounds fired"
        first = report.trace.adaptations[0]
        assert first.stddev_after < first.stddev_before
        assert first.migrated_queries > 0
        # churn actually happened
        kinds = {e[1] for e in report.trace.events}
        assert "query_add" in kinds and "query_remove" in kinds

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_results_match_single_engine_oracle(self, seed):
        """Satellite: every emitted result tuple matches the oracle run."""
        report = run_scenario(
            seed=seed,
            workload=small_workload(),
            scenario=churn_scenario(),
            record=True,
        )
        oracle = oracle_results(report.actions)
        assert set(report.results) == set(oracle)
        total = 0
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"
            total += len(got)
        assert total > 0, "scenario emitted no results to compare"

    def test_hotspot_shifts_traffic(self):
        quiet = run_scenario(
            seed=3,
            workload=small_workload(),
            scenario=ScenarioParams(duration=20.0, sample_interval=5.0,
                                    adapt_interval=None),
        )
        shifted = run_scenario(
            seed=3,
            workload=small_workload(),
            scenario=ScenarioParams(duration=20.0, sample_interval=5.0,
                                    adapt_interval=None,
                                    hotspot=HotSpotShift(at=8.0, substreams=12,
                                                         factor=4.0)),
        )
        assert ("hotspot" in {e[1] for e in shifted.trace.events})
        assert shifted.tuples_emitted > quiet.tuples_emitted

    @pytest.mark.parametrize(
        "field, value",
        [
            ("initial_placement", "nope"),
            ("recovery", "pray"),
            ("duration", 0.0),
            ("duration", -1.0),
            ("sample_interval", 0.0),
            ("adapt_interval", 0.0),
            ("adapt_interval", -2.0),
            ("checkpoint_interval", 0.0),
            ("spare_processors", -1),
        ],
    )
    def test_malformed_params_fail_at_construction(self, field, value):
        """Before any topology, workload or optimizer is built, with a
        message naming the offending field."""
        with pytest.raises(ValueError, match=rf"^{field}:"):
            ScenarioParams(**{field: value})

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (CosmosConfig, "k", 1),
            (CosmosConfig, "vmax", 0),
            (CosmosConfig, "alpha", -1.0),
            (CosmosConfig, "max_overlap_neighbors", -1),
            (ChurnParams, "arrival_rate", 0.0),
            (ChurnParams, "mean_lifetime", -5.0),
            (HotSpotShift, "factor", -2.0),
            (HotSpotShift, "at", -1.0),
            (HotSpotShift, "substreams", -1),
            (ScenarioParams, "handoff_ms_per_tuple", -50.0),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_malformed_knobs_fail_at_construction(self, cls, field, value):
        """The configuration objects a run is built from reject
        out-of-range values when constructed, naming the field --
        instead of running silently or failing deep inside a run."""
        with pytest.raises(ValueError, match=rf"^{field}:"):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda: "x", r"^faults: 'x' is not a fault spec"),
            (lambda: BrokerLoss, r"^faults: <class .*BrokerLoss'> is not"),
            (lambda: LinkPartition(at=1.0, duration=-5.0), r"^LinkPartition\.duration:"),
            (lambda: LinkPartition(at=1.0, duration=0.0), r"^LinkPartition\.duration:"),
            (lambda: LinkPartition(at=-1.0), r"^LinkPartition\.at:"),
            (lambda: ProcessorCrash(at=-1.0, detect_delay=-2.0), r"^ProcessorCrash\.at:"),
            (lambda: ProcessorCrash(at=1.0, detect_delay=-2.0), r"^ProcessorCrash\.detect_delay:"),
            (lambda: BrokerLoss(at=1.0, detect_delay=float("nan")), r"^BrokerLoss\.detect_delay:"),
            (lambda: ProcessorJoin(at=-0.5), r"^ProcessorJoin\.at:"),
            (lambda: ProcessorLeave(at=float("nan")), r"^ProcessorLeave\.at:"),
        ],
        ids=[
            "not_a_spec", "a_spec_class", "negative_duration", "zero_duration",
            "partition_before_start", "crash_before_start", "negative_detect_delay",
            "nan_detect_delay", "join_before_start", "nan_leave",
        ],
    )
    def test_malformed_faults_fail_at_construction(self, fault, message):
        """A fault schedule is checked where it is declared, naming the
        spec and field -- not when the injector first reads it."""
        with pytest.raises(ValueError, match=message):
            ScenarioParams(faults=(ProcessorJoin(at=1.0), fault()))

    def test_boundary_knobs_are_valid(self):
        # no overlap edges is the ablation bench's setting
        assert CosmosConfig(max_overlap_neighbors=0, alpha=0.0, vmax=1, k=2)
        assert HotSpotShift(at=0.0, substreams=0, factor=0.0)
        assert ScenarioParams(handoff_ms_per_tuple=0.0)
        assert ScenarioParams(faults=(
            ProcessorCrash(at=0.0, detect_delay=0.0),
            BrokerLoss(at=0.0, detect_delay=0.0),
            LinkPartition(at=0.0, duration=1e-9),
            ProcessorJoin(at=0.0),
            ProcessorLeave(at=0.0),
        ))

    def test_disabled_intervals_are_valid(self):
        params = ScenarioParams(adapt_interval=None, checkpoint_interval=None)
        assert params.adapt_interval is None


class TestFig10SimLoads:
    """Satellite: fig10 sourcing loads from the simulator measurement."""

    def test_sim_load_source_runs(self):
        from repro.experiments import fig10
        from repro.experiments.config import bench_scale

        config = bench_scale(num_queries=120)
        series = fig10.run(
            config=config, pattern=("I", "D"), perturbed_streams=40,
            load_source="sim", measure_duration=20.0,
        )
        assert len(series.steps) == 3  # snapshot 0 + two perturbations
        assert series.adaptive_migrations >= 0

    def test_static_and_sim_paths_diverge(self):
        from repro.experiments import fig10
        from repro.experiments.config import bench_scale

        config = bench_scale(num_queries=120)
        static = fig10.run(config=config, pattern=("I",), perturbed_streams=40)
        sim = fig10.run(
            config=config, pattern=("I",), perturbed_streams=40,
            load_source="sim", measure_duration=5.0,
        )
        # short, noisy measurements must not match the exact static loads
        assert static.adaptive_std != sim.adaptive_std

    def test_rejects_unknown_source(self):
        from repro.experiments import fig10

        with pytest.raises(ValueError):
            fig10.run(load_source="bogus")


class TestUnitFollowsMajority:
    """The one placement policy of a delivery unit: it goes where most of
    its members were placed (a unit of one follows its query)."""

    def test_majority_ties_and_abstentions(self):
        from repro.sim import SimCluster

        vote = SimCluster._majority_host
        assert vote([7]) == 7
        assert vote([3, 5, 5]) == 5
        assert vote([7, 2]) == 2  # ties go to the smallest host id
        assert vote([None, 4, None]) == 4  # unplaced members abstain
        assert vote([None]) is None and vote([]) is None


class TestPathLatencyOrderIndependence:
    """Cached path latencies must not depend on which direction of a
    pair is asked first: float sums along a path differ by direction."""

    @staticmethod
    def _chain():
        from repro.topology.overlay import OverlayTree

        tree = OverlayTree(nodes=[0, 1, 2, 3])
        for u, v, lat in ((0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)):
            tree.add_link(u, v, lat)
        # the premise: the two directions' sums really differ
        assert tree.path_latency(0, 3) != tree.path_latency(3, 0)
        return tree

    def test_cluster_path_latency(self):
        from types import SimpleNamespace

        from repro.sim import SimCluster

        def fresh():
            return SimpleNamespace(
                network=SimpleNamespace(tree=self._chain()), _path_ms={}
            )

        forward, backward = fresh(), fresh()
        first = SimCluster._path_latency_ms(forward, 0, 3)
        assert SimCluster._path_latency_ms(backward, 3, 0) == first
        assert SimCluster._path_latency_ms(backward, 0, 3) == first

    def test_network_account_path(self):
        from repro.pubsub.network import PubSubNetwork

        forward, backward = (PubSubNetwork(self._chain()) for _ in range(2))
        first = forward.account_path(0, 3, 1.0)
        assert backward.account_path(3, 0, 1.0) == first
        assert backward.account_path(0, 3, 1.0) == first
        assert forward.account_path(3, 0, 1.0) == first
