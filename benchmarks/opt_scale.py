"""Optimizer scale probe: cold start, then steady and churn adaptation rounds.

Builds a COSMOS tree over a synthetic latency oracle, distributes the
workload, adapts to quiescence, then times steady rounds (nothing
changed) and localized-churn rounds (one leaf cluster's region sheds and
gains queries and 1 % of the live loads drift).  It prints what it
measured and asserts nothing; ``benchmarks/e2e`` judges speed claims.

    PYTHONPATH=src python benchmarks/opt_scale.py                  # 100k x 1k
    PYTHONPATH=src python benchmarks/opt_scale.py --queries 1500 --processors 32
"""

import argparse
import random
import time
from collections import Counter

from repro.core import Cosmos, CosmosConfig
from repro.obs import MetricsRegistry, set_active
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec
from repro.topology import SyntheticOracle

SEED, SOURCES, SUBSTREAMS, VMAX = 11, 100, 2000, 150
ROUNDS, CHURN_EVENTS, MAX_ADAPT_ROUNDS = 3, 200, 12


def make_query(qid, proxies, space, rng):
    mask = mask_of(rng.sample(range(SUBSTREAMS), rng.randint(10, 30)))
    return QuerySpec(
        query_id=qid, proxy=rng.choice(proxies), mask=mask, group=0,
        load=0.01 * space.rate(mask), result_rate=1.0, state_size=1.0,
    )


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def churn(cosmos, specs, region, space, rng):
    """Remove and insert ``CHURN_EVENTS`` queries in ``region``, drift loads."""
    hosted = sorted(q for q, host in cosmos.placement.items() if host in region)
    removed = rng.sample(hosted, min(CHURN_EVENTS // 2, len(hosted)))
    for qid in removed:
        cosmos.remove(qid)
        del specs[qid]
    next_id = max(specs) + 1
    for qid in range(next_id, next_id + CHURN_EVENTS - len(removed)):
        specs[qid] = make_query(qid, region, space, rng)
        cosmos.insert(specs[qid])
    hosted = sorted(q for q, host in cosmos.placement.items() if host in region)
    drift = rng.sample(hosted, min(max(1, len(specs) // 100), len(hosted)))
    cosmos.refresh_measured_loads(
        {qid: specs[qid].load * rng.uniform(0.5, 2.0) for qid in drift}
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=100_000)
    parser.add_argument("--processors", type=int, default=1000)
    args = parser.parse_args(argv)

    rng = random.Random(SEED)
    processors = list(range(SOURCES, SOURCES + args.processors))
    oracle = SyntheticOracle(SOURCES + args.processors, seed=SEED)
    space = SubstreamSpace.random(
        SUBSTREAMS, sources=list(range(SOURCES)), seed=SEED
    )
    specs = {
        i: make_query(i, processors, space, rng) for i in range(args.queries)
    }

    registry = MetricsRegistry()
    set_active(registry)
    try:
        cosmos = Cosmos(oracle, processors, space, CosmosConfig(k=4, vmax=VMAX))
        coordinators = cosmos.root.all_coordinators()
        _, secs = timed(cosmos.distribute, list(specs.values()))
        print(f"distribute       {secs:9.3f} s  {args.queries} queries, "
              f"{args.processors} processors, {len(coordinators)} coordinators")

        for i in range(1, MAX_ADAPT_ROUNDS + 1):
            report, secs = timed(cosmos.adapt)
            moves = report.coordinator_moves + report.refinement_moves
            print(f"adapt round {i:<4} {secs:9.3f} s  {moves} moves")
            if moves == 0:
                break
        quiet = f"{i}" if moves == 0 else f"> {MAX_ADAPT_ROUNDS}"
        print(f"rounds to quiescence: {quiet}")
        load = Counter()
        for qid, host in cosmos.placement.items():
            load[host] += specs[qid].load
        mean = sum(load.values()) / len(processors)
        print(f"at quiescence: max/mean load {max(load.values()) / mean:.2f}, "
              f"{len(processors) - len(load)} idle processors")

        for i in range(1, ROUNDS + 1):
            _, secs = timed(cosmos.adapt)
            print(f"steady round {i:<3} {secs:9.3f} s")
        leaves = [c for c in coordinators if c.is_leaf]
        for i in range(1, ROUNDS + 1):
            region = sorted(leaves[(i - 1) % len(leaves)].cluster.members)
            churn(cosmos, specs, region, space, rng)
            _, secs = timed(cosmos.adapt)
            print(f"churn round {i:<4} {secs:9.3f} s  {CHURN_EVENTS} events")
    finally:
        set_active(None)

    for name, value in sorted(registry.counters.items()):
        if name.startswith("opt."):
            print(f"{name:<32} {value}")


if __name__ == "__main__":
    main()
