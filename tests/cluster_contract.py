"""One contract for the simulator's reference clusters.

A reference cluster is a :class:`repro.sim.cluster.SimCluster` subclass
that defines the same run by a slower, more obviously right mechanism
(``tests/reference``).  Production must reproduce it run for run:
traces, recorded results, fault logs, link traffic and CPU counters bit
for bit, and on fault-free runs the reference must match the
single-engine oracle too.

A test class mixes :class:`ClusterContract` in and sets ``cluster_cls``
(or ``network_cls``, for a reference pub/sub network) and ``seeds``;
``disabled`` names the scenarios and run edges its reference does not
define.  The scenarios cover both execution planes,
churn, hot spots, adaptation (migrations) and every fault kind; the run
edges are the runs where the last observation and the horizon do not
coincide.
"""

import json
from contextlib import contextmanager
from functools import partial

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
    oracle_results,
    run_scenario,
)
from repro.pubsub import PubSubNetwork
from repro.sim import cluster as _cluster

WORKLOAD = SimWorkloadParams(
    num_substreams=40, num_queries=24, pool_substreams=6, window_range=(2, 4)
)
#: coalescing windows far shorter than the reordering slack
FAST = SimWorkloadParams(
    num_substreams=20, num_queries=12, pool_substreams=6, window_range=(2, 4),
    rate_range=(20.0, 40.0),
)
#: every query a join, windows of seconds
SLOW_JOINS = SimWorkloadParams(
    num_substreams=30, num_queries=24, pool_substreams=6, window_range=(2, 4),
    rate_range=(0.3, 3.0), join_fraction=1.0,
)

#: name -> ScenarioParams overrides of :func:`scenario`
SCENARIOS = {
    "churn_hotspot": {},
    "crash": dict(
        faults=(ProcessorCrash(at=6.0),), checkpoint_interval=3.0
    ),
    "broker_loss": dict(faults=(BrokerLoss(at=6.0),)),
    "partition": dict(faults=(LinkPartition(at=6.0, duration=3.0),)),
    "join_leave": dict(
        faults=(ProcessorJoin(at=5.0), ProcessorLeave(at=11.0)),
        spare_processors=1,
    ),
}

#: name -> (workload, seed, ScenarioParams overrides), churn and hot spot off
EDGES = {
    # the last sample falls before the horizon
    "indivisible": (WORKLOAD, 3, dict(duration=10.0, sample_interval=3.0)),
    # no periodic sample at all: the closing one sees everything
    "longer_than_run": (WORKLOAD, 3, dict(duration=10.0, sample_interval=15.0)),
    # rows release between the last observation and the horizon, and
    # after it: only the end-of-run drain observes them
    "released_after_last_look": (
        FAST, 3, dict(duration=3.0, sample_interval=2.0, adapt_interval=None)
    ),
    # migrations at the horizon pause units with rows queued
    "paused_at_horizon": (
        FAST, 3, dict(duration=3.0, sample_interval=2.0, adapt_interval=3.0)
    ),
    # slow joins: coalescing timeouts outlast every release
    "timeouts_outlast_releases": (
        SLOW_JOINS, 4,
        dict(duration=10.0, sample_interval=4.0, adapt_interval=None),
    ),
}


def scenario(**overrides) -> ScenarioParams:
    base = dict(
        duration=16.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=10.0),
        hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
    )
    base.update(overrides)
    return ScenarioParams(**base)


def outputs(report):
    return {
        "trace": json.dumps(report.trace.to_dict(), sort_keys=True),
        "results": report.results,
        "fault_log": report.fault_log,
        "link_bytes": report.link_bytes,
        "cpu_costs": report.cpu_costs,
    }


@contextmanager
def swapped(**classes):
    """Inside the block, :func:`repro.sim.run_scenario` builds its runs
    from ``classes`` (``SimCluster=``, ``PubSubNetwork=``) instead."""
    saved = {name: getattr(_cluster, name) for name in classes}
    for name, cls in classes.items():
        setattr(_cluster, name, cls)
    try:
        yield
    finally:
        for name, cls in saved.items():
            setattr(_cluster, name, cls)


def run_on(cluster_cls, network_cls=PubSubNetwork, **kwargs):
    """:func:`repro.sim.run_scenario` on ``cluster_cls`` over
    ``network_cls``."""
    with swapped(SimCluster=cluster_cls, PubSubNetwork=network_cls):
        return run_scenario(**kwargs)


class ClusterContract:
    """Production runs equal ``cluster_cls`` runs, scenario by scenario."""

    cluster_cls = SimCluster
    network_cls = PubSubNetwork
    seeds = (0,)
    disabled = frozenset()

    def pytest_generate_tests(self, metafunc):
        name = metafunc.function.__name__
        if name == "test_full_run":
            metafunc.parametrize("seed", self.seeds)
            metafunc.parametrize("use_sharing", [False, True])
            metafunc.parametrize(
                "case", [c for c in sorted(SCENARIOS) if c not in self.disabled]
            )
        elif name == "test_run_edges":
            metafunc.parametrize("use_sharing", [False, True])
            metafunc.parametrize(
                "edge", [e for e in EDGES if e not in self.disabled]
            )

    def assert_same_run(self, seed, params, workload=WORKLOAD):
        """Runs both clusters; returns the reference's report."""
        kwargs = dict(seed=seed, workload=workload, scenario=params, record=True)
        reference = run_on(self.cluster_cls, self.network_cls, **kwargs)
        want = outputs(reference)
        got = outputs(run_scenario(**kwargs))
        for key in want:
            assert got[key] == want[key], f"{key} diverged (seed {seed})"
        assert want["results"] and any(want["results"].values())
        return reference

    def test_full_run(self, seed, use_sharing, case):
        params = scenario(use_sharing=use_sharing, **SCENARIOS[case])
        reference = self.assert_same_run(seed, params)
        if not params.faults:
            assert reference.results == oracle_results(reference.actions)

    def test_run_edges(self, use_sharing, edge):
        workload, seed, overrides = EDGES[edge]
        self.assert_same_run(
            seed,
            scenario(
                churn=None, hotspot=None, use_sharing=use_sharing, **overrides
            ),
            workload,
        )

    def test_group_join_drains_under_the_narrow_plan(self):
        """A member joining a shared join group widens its windows in
        place; rows the group released before are joined under the
        narrow ones."""
        from test_sim_sharing import chain_cluster

        from repro.query.interest import mask_of
        from repro.query.parser import parse_query
        from repro.query.workload import QuerySpec
        from repro.sim import SimQuery

        def join_member(query_id, proxy, window):
            text = (
                f"SELECT * FROM S0 [Range {window} Seconds] A,"
                f" S1 [Range {window} Seconds] B WHERE A.value > B.value"
            )
            spec = QuerySpec(
                query_id=query_id, proxy=proxy, mask=mask_of([0, 1]),
                group=0, load=1.0, result_rate=1.0, state_size=0.0,
            )
            return SimQuery(
                spec=spec, ast=parse_query(text, name=f"q{query_id}"),
                text=text, streams=("S0", "S1"), substreams=(0, 1),
            )

        runs = []
        for cls, net in (
            (self.cluster_cls, self.network_cls), (SimCluster, PubSubNetwork)
        ):
            with swapped(PubSubNetwork=net):
                c = chain_cluster(cluster_cls=cls, rate=10.0, substreams=2)
            c.add_query(join_member(0, proxy=3, window=1), 1)
            c.loop.schedule(
                3.0, partial(c.add_query, join_member(1, proxy=4, window=4), 1)
            )
            c.start()
            c.run()
            assert len(c.units) == 1
            runs.append((
                {u.uid: u.plan.operator_counters() for u in c.units.values()},
                {q: [dict(t.values) for t in qs.results]
                 for q, qs in c.queries.items()},
                json.dumps(c.trace.to_dict(), sort_keys=True),
            ))
        assert runs[0] == runs[1]
        assert runs[0][1][0] and runs[0][1][1]
