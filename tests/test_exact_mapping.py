"""The heuristics against the exact optimum, on toy instances.

Twenty instances of 8 queries on 4 processors, drawn once at seeds 0-19
and all kept, each solved by brute force over its 65,536 assignments
(``tests/reference/exact_mapping.py``).  With k = 2 COSMOS has two
levels at 4 processors, so its per-level load ceilings can compound.
For centralized Algorithm 2, its greedy half and COSMOS
(``Cosmos.distribute``), on every instance:

* a placement within Eqn 3.1 costs no less than the optimum (a check on
  the solver as much as on the heuristics);
* a placement is within Eqn 3.1 whenever some assignment is.

Every quantity is read off one global query graph per instance
(``global_query_graph``, the centralized view), and each scheme and the
evaluation get their own latency oracle, so no run answers a scalar
lookup from rows another run cached.
"""

import itertools
from dataclasses import replace

import pytest

from reference.exact_mapping import exact_mapping

from repro.baselines.simple import (
    centralized_placement,
    global_network_graph,
    global_query_graph,
    greedy_placement,
)
from repro.core import Cosmos, CosmosConfig
from repro.experiments.config import ExperimentConfig, build_testbed
from repro.query.workload import WorkloadParams
from repro.topology import LatencyOracle, TransitStubParams

SEEDS = range(20)

#: instances where ``Cosmos.distribute`` breaks Eqn 3.1 although a
#: feasible assignment exists: each level checks the ceiling against the
#: load it received, so the slack compounds per level (ROADMAP item 4)
COSMOS_INFEASIBLE = {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15,
                     16, 17, 18}


def instance_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        topology=TransitStubParams(2, 3, 3, 6),
        num_sources=3,
        num_processors=4,
        workload=WorkloadParams(
            num_substreams=100, num_queries=8, groups=2,
            substreams_per_query=(5, 15), selectivity_range=(0.01, 0.05),
        ),
        cosmos=CosmosConfig(k=2),
        seed=seed,
    )


def evaluation(testbed):
    """The instance's global graphs over a latency oracle of their own."""
    ng = global_network_graph(
        testbed.processors, LatencyOracle(testbed.topology)
    )
    qg = global_query_graph(
        testbed.workload.queries, testbed.workload.space, ng
    )
    return qg, ng


@pytest.fixture(scope="module")
def solved():
    """seed -> (testbed, exact result), every instance solved once."""
    out = {}
    for seed in SEEDS:
        testbed = build_testbed(instance_config(seed))
        out[seed] = testbed, exact_mapping(*evaluation(testbed))
    return out


def placement(scheme: str, testbed):
    queries, processors = testbed.workload.queries, testbed.processors
    space, oracle = testbed.workload.space, LatencyOracle(testbed.topology)
    if scheme == "centralized":
        return centralized_placement(queries, processors, space, oracle)
    if scheme == "greedy":
        return greedy_placement(queries, processors, space, oracle)
    cosmos = Cosmos(oracle, processors, space, testbed.config.cosmos)
    assert cosmos.tree_height() == 2
    return cosmos.distribute(queries)


def cases():
    for seed, scheme in itertools.product(
        SEEDS, ("centralized", "greedy", "cosmos")
    ):
        marks = ()
        if scheme == "cosmos" and seed in COSMOS_INFEASIBLE:
            marks = pytest.mark.xfail(
                strict=True, reason="per-level load ceilings (ROADMAP item 4)"
            )
        yield pytest.param(seed, scheme, marks=marks, id=f"{scheme}-{seed}")


@pytest.mark.parametrize("seed, scheme", cases())
def test_no_feasible_placement_beats_the_optimum(solved, seed, scheme):
    testbed, exact = solved[seed]
    qg, ng = evaluation(testbed)
    mapping = {
        ("q", query_id): ("p", processor)
        for query_id, processor in placement(scheme, testbed).items()
    }
    feasible = qg.satisfies_load_constraint(mapping, ng)
    if feasible:
        assert qg.wec(mapping, ng) >= exact.wec
    if exact.feasible:
        assert feasible


def test_instances_overlap(solved):
    """Each instance has q-q edges to cut, and most have a feasible
    assignment."""
    feasible = 0
    for testbed, exact in solved.values():
        qg, _ = evaluation(testbed)
        overlaps = [a for a, b, _ in qg.edges() if b in qg.qverts]
        assert len(overlaps) >= len(qg.qverts)
        feasible += exact.feasible
    assert feasible >= len(SEEDS) // 2


def test_brute_force_is_the_definition():
    """On an instance's queries over 3 processors (6,561 assignments), the
    solver's answer is the least ``qg.wec`` over every assignment
    ``satisfies_load_constraint`` accepts, one assignment at a time."""
    qg, ng = evaluation(build_testbed(
        replace(instance_config(0), num_processors=3)
    ))
    targets = ng.ids()
    best = float("inf")
    for choice in itertools.product(targets, repeat=len(qg.qverts)):
        mapping = dict(zip(qg.qverts, choice))
        if qg.satisfies_load_constraint(mapping, ng):
            best = min(best, qg.wec(mapping, ng))
    exact = exact_mapping(qg, ng)
    assert exact.feasible and exact.wec == best
    assert qg.wec(exact.mapping, ng) == best
