"""Turn the units of one run into the named metrics of BENCHMARK.json.

The harness owns its arithmetic (percentiles, spreads, span totals): it
borrows no helper from the program it measures.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence

from tracing import LAYERS, GroupStats, Recorder, analyse


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (what the driver computes);
    (max - min) / median below four samples, 0.0 below two."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def peak_rss_mb() -> float:
    """High-water resident set of this interpreter (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest(passes):
    """The fastest execution of each unit: ``passes`` holds one list of
    units per pass, the same seeds in the same order."""
    return [min(executions, key=lambda u: u.run_s) for executions in zip(*passes)]


def end_to_end(passes) -> Dict[str, float]:
    """The user-visible numbers of an untraced run.

    A unit's timed section is taken slice by slice from whichever pass
    ran that slice fastest, and its set-up from the pass that set up
    fastest: the inputs of the passes are identical, so what differs is
    the machine.  ``run_s`` and ``ops_per_s`` are then panel totals (mean
    unit, ops over seconds), which averages out the differences between
    the inputs of the units; ``setup_s`` is the median unit.
    """
    run = [
        sum(min(slices) for slices in zip(*(u.slices for u in executions)))
        for executions in zip(*passes)
    ]
    setup = [min(u.setup_s for u in executions) for executions in zip(*passes)]
    return {
        "setup_s": statistics.median(setup),
        "run_s": sum(run) / len(run),
        "ops_per_s": sum(u.ops for u in passes[0]) / sum(run),
        "peak_rss_mb": peak_rss_mb(),
    }


def _sum_groups(windows) -> Dict[str, GroupStats]:
    total: Dict[str, GroupStats] = {}
    for window in windows:
        for name, g in window.groups.items():
            t = total.setdefault(name, GroupStats(durations=[]))
            t.busy_s += g.busy_s
            t.self_s += g.self_s
            t.calls += g.calls
            t.a += g.a
            t.b += g.b
            t.durations.extend(g.durations)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(units, recorder: Recorder, check_attempted: int, check_failed: int) -> Dict[str, float]:
    """The per-layer numbers of a traced run, as per-unit means.

    ``busy_s`` / ``calls`` / counts cover a whole unit (set-up and timed
    section); ``*_self_s`` splits and the latency statistics of single
    calls (``first_s``, ``round_*``, ``p50``/``p99``) cover the timed
    section only.
    """
    k = len(units)
    run_windows = [analyse(recorder, *u.spans, u.t_run, u.t_end) for u in units]
    setup_windows = [analyse(recorder, *u.spans, u.t_start, u.t_run) for u in units]
    run = _sum_groups(run_windows)
    whole = _sum_groups(run_windows + setup_windows)
    empty = GroupStats(durations=[])

    def g(name: str) -> GroupStats:
        return whole.get(name, empty)

    def r(name: str) -> GroupStats:
        return run.get(name, empty)

    def fact(name: str) -> float:
        return sum(u.facts.get(name, 0.0) for u in units) / k

    run_s = sum(u.run_s for u in units) / k
    m: Dict[str, float] = {}

    # core ----------------------------------------------------------------
    for name in ("distribute", "coarsen", "map", "adapt", "rebalance", "diffusion",
                 "refine", "insert", "remove", "refresh_loads"):
        m[f"core.{name}.busy_s"] = g(f"core.{name}").busy_s / k
    for name in ("coarsen", "adapt", "rebalance", "insert", "remove"):
        m[f"core.{name}.calls"] = g(f"core.{name}").calls / k
    m["core.collect.self_s"] = g("core.collect").self_s / k
    m["core.adapt.self_s"] = g("core.adapt").self_s / k
    rounds = r("core.adapt").durations
    firsts = [w.groups["core.adapt"].durations[:1] for w in run_windows if "core.adapt" in w.groups]
    m["core.adapt.first_s"] = _ratio(sum(d[0] for d in firsts if d), k)
    m["core.adapt.round_mean_ms"] = 1e3 * _ratio(sum(rounds), len(rounds))
    m["core.adapt.round_p50_ms"] = 1e3 * percentile(rounds, 50)
    m["core.adapt.round_max_ms"] = 1e3 * max(rounds, default=0.0)
    for name in ("insert", "remove"):
        durations = r(f"core.{name}").durations
        m[f"core.{name}.p50_ms"] = 1e3 * percentile(durations, 50)
        m[f"core.{name}.p99_ms"] = 1e3 * percentile(durations, 99)
    for name in ("moves.total", "moves.first_round", "moves.per_op", "wec",
                 "load_stddev", "load_max_over_mean", "idle_processors",
                 "coordinators", "rounds_to_quiescence"):
        m[f"core.{name}"] = fact(f"core.{name}")

    # engine --------------------------------------------------------------
    push = g("engine.push")
    m["engine.push.busy_s"] = push.busy_s / k
    m["engine.push.calls"] = push.calls / k
    m["engine.push.rows_in"] = push.a / k
    m["engine.push.rows_out"] = push.b / k
    m["engine.push.rows_in_per_call"] = _ratio(push.a, push.calls)
    m["engine.push.us_per_call"] = 1e6 * _ratio(push.busy_s, push.calls)
    m["engine.push.us_per_row_out"] = 1e6 * _ratio(push.busy_s, push.b)
    m["engine.deploy.busy_s"] = g("engine.deploy").busy_s / k
    m["engine.deploy.calls"] = g("engine.deploy").calls / k
    m["engine.inspected"] = fact("engine.inspected")
    m["engine.state_tuples"] = fact("engine.state_tuples")

    # sim -----------------------------------------------------------------
    m["sim.build.busy_s"] = g("sim.build").busy_s / k
    for name in ("loop.events", "tuples", "results", "migrations", "adapt_rounds",
                 "user_queries", "executed_queries", "result_latency_mean_s",
                 "data_bytes"):
        m[f"sim.{name}"] = fact(f"sim.{name}")
    m["sim.loop.events_per_s"] = _ratio(m["sim.loop.events"], run_s)
    m["sim.results_per_tuple"] = _ratio(m["sim.results"], m["sim.tuples"])
    m["sim.executed_ratio"] = _ratio(m["sim.executed_queries"], m["sim.user_queries"])

    # pubsub --------------------------------------------------------------
    publish = g("pubsub.publish")
    m["pubsub.publish.busy_s"] = publish.busy_s / k
    m["pubsub.publish.calls"] = publish.calls / k
    m["pubsub.publish.rows"] = publish.a / k
    m["pubsub.publish.deliveries"] = publish.b / k
    m["pubsub.publish.us_per_row"] = 1e6 * _ratio(publish.busy_s, publish.a)
    m["pubsub.publish.deliveries_per_row"] = _ratio(publish.b, publish.a)
    for name in ("control", "account_path"):
        m[f"pubsub.{name}.busy_s"] = g(f"pubsub.{name}").busy_s / k
        m[f"pubsub.{name}.calls"] = g(f"pubsub.{name}").calls / k
    m["pubsub.link_bytes"] = fact("pubsub.link_bytes")
    m["pubsub.routing_entries"] = fact("pubsub.routing_entries")

    # query, topology -----------------------------------------------------
    m["query.generate.busy_s"] = g("query.generate").busy_s / k
    for name in ("parse", "merge"):
        m[f"query.{name}.busy_s"] = g(f"query.{name}").busy_s / k
        m[f"query.{name}.calls"] = g(f"query.{name}").calls / k
    for name in ("generate", "overlay", "oracle_row"):
        m[f"topology.{name}.busy_s"] = g(f"topology.{name}").busy_s / k
    m["topology.oracle_row.calls"] = g("topology.oracle_row").calls / k

    # where the timed section and the set-up went, by layer ---------------
    for layer in LAYERS:
        run_self = sum(w.layer_self_s[layer] for w in run_windows) / k
        setup_self = sum(w.layer_self_s[layer] for w in setup_windows) / k
        # the sim layer's self time is the event loop outside every other
        # layer's span: batch assembly, release/drain, accounting, routing
        m["sim.cluster.self_s" if layer == "sim" else f"{layer}.run_self_s"] = run_self
        m[f"{layer}.setup_self_s"] = setup_self
    m["sim.cluster.self_share"] = _ratio(m["sim.cluster.self_s"], run_s)

    # harness -------------------------------------------------------------
    # tracing overhead is traced_run_s over the run_s of an untraced run of
    # the same arguments: it takes two runs, so `report` computes it
    m["harness.traced_run_s"] = run_s
    m["harness.spans"] = sum(hi - lo for lo, hi in (u.spans for u in units)) / k
    m["harness.tap_missing"] = len(recorder.missing)
    m["harness.untapped_s"] = run_s - sum(w.covered_s for w in run_windows) / k
    m["harness.unit_spread"] = _ratio(
        max(u.run_s for u in units) - min(u.run_s for u in units),
        statistics.median(u.run_s for u in units),
    )
    m["harness.failed_ops_share"] = _ratio(check_failed, check_attempted)
    return m
