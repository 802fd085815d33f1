"""``cosmos-obs``: summarize and query a recorded observability run.

Subcommands operate on the JSON file written by
:meth:`repro.obs.Observer.write`::

    cosmos-obs summary OBS.json            # headline numbers
    cosmos-obs metrics OBS.json [--like X] # counters/gauges/histograms
    cosmos-obs profile OBS.json            # subsystem wall-clock table
    cosmos-obs spans OBS.json [--seq N] [--limit K]
    cosmos-obs record --out OBS.json [--seed S] [--duration D]
                      [--sample-every N] [--sharing]  # run + record
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Dict

__all__ = ["main"]


def _load(path: str) -> Dict:
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema", "")
    if not str(schema).startswith("cosmos-obs/"):
        raise SystemExit(f"{path}: not a cosmos-obs record (schema={schema!r})")
    return data


def _cmd_summary(args) -> int:
    data = _load(args.record)
    spans = data.get("spans") or []
    metrics = data.get("metrics") or {}
    profile = data.get("profile") or {}
    print(f"schema:   {data['schema']}")
    print(f"seed:     {data.get('seed')}")
    print(f"wall:     {data.get('wall_s', 0.0):.3f} s")
    print(f"spans:    {len(spans)} sampled tuples")
    print(f"counters: {len(metrics.get('counters', {}))}")
    print(f"gauges:   {len(metrics.get('gauges', {}))}")
    print(f"links:    {len(data.get('links', {}))}")
    if profile.get("totals_s"):
        cov = profile.get("coverage")
        cov_s = f" ({cov:.0%} of wall attributed)" if cov is not None else ""
        print(f"profiled: {len(profile['totals_s'])} subsystems{cov_s}")
    return 0


def _cmd_metrics(args) -> int:
    data = _load(args.record)
    metrics = data.get("metrics") or {}
    pattern = args.like or "*"
    for group in ("counters", "gauges"):
        rows = [
            (name, value)
            for name, value in sorted(metrics.get(group, {}).items())
            if fnmatch.fnmatch(name, pattern)
        ]
        if rows:
            print(f"[{group}]")
            for name, value in rows:
                print(f"  {name} = {value:g}")
    hists = {
        name: h
        for name, h in sorted(metrics.get("histograms", {}).items())
        if fnmatch.fnmatch(name, pattern)
    }
    if hists:
        print("[histograms]")
        for name, h in hists.items():
            print(
                f"  {name}: n={h['count']} sum={h['sum']:g} "
                f"min={h['min']:g} p50={h['p50']:g} p95={h['p95']:g} "
                f"max={h['max']:g}"
            )
    return 0


def _cmd_profile(args) -> int:
    data = _load(args.record)
    profile = data.get("profile") or {}
    totals = profile.get("totals_s", {})
    calls = profile.get("calls", {})
    wall = profile.get("wall_s", data.get("wall_s", 0.0))
    if not totals:
        print("no profile in record")
        return 1
    width = max(len(n) for n in totals)
    for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = f"{secs / wall:6.1%}" if wall else "     -"
        print(f"  {name:<{width}}  {secs:9.4f} s  {share}  "
              f"x{calls.get(name, 0)}")
    if wall:
        attributed = sum(totals.values())
        print(f"  {'(attributed)':<{width}}  {attributed:9.4f} s  "
              f"{attributed / wall:6.1%}  of {wall:.4f} s wall")
    return 0


def _cmd_spans(args) -> int:
    data = _load(args.record)
    spans = data.get("spans") or []
    if args.seq is not None:
        spans = [s for s in spans if s["seq"] == args.seq]
        if not spans:
            print(f"no span for seq {args.seq}")
            return 1
    for span in spans[: args.limit]:
        print(
            f"seq {span['seq']} substream {span['substream']} "
            f"t_emit {span['t_emit']:.6f}"
        )
        for hop in span["hops"]:
            extra = {
                k: v for k, v in hop.items() if k not in ("kind", "t")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            print(f"  {hop['t']:12.6f}  {hop['kind']:<10} {detail}")
        for note in span["annotations"]:
            extra = {
                k: v for k, v in note.items() if k not in ("kind", "t")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            print(f"  {note['t']:12.6f}  !{note['kind']:<9} {detail}")
    shown = min(len(spans), args.limit)
    if shown < len(spans):
        print(f"... {len(spans) - shown} more (raise --limit)")
    return 0


def _cmd_record(args) -> int:
    from ..sim.cluster import ChurnParams, ScenarioParams, run_scenario
    from .observer import Observer

    obs = Observer(span_sample_every=args.sample_every)
    scenario = ScenarioParams(
        duration=args.duration,
        churn=ChurnParams(),
        use_sharing=args.sharing,
    )
    run_scenario(seed=args.seed, scenario=scenario, observer=obs)
    obs.write(args.out)
    spans = obs.spans.to_list() if obs.spans is not None else []
    print(
        f"wrote {args.out}: wall {obs.wall_s:.3f} s, {len(spans)} spans"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cosmos-obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="headline numbers of a record")
    p.add_argument("record")
    p.set_defaults(fn=_cmd_summary)

    p = sub.add_parser("metrics", help="dump counters/gauges/histograms")
    p.add_argument("record")
    p.add_argument("--like", help="glob filter on metric names")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("profile", help="subsystem wall-clock table")
    p.add_argument("record")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("spans", help="print sampled provenance spans")
    p.add_argument("record")
    p.add_argument("--seq", type=int, help="only the span for this seq")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=_cmd_spans)

    p = sub.add_parser("record", help="run a scenario under observation")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--sample-every", type=int, default=16)
    p.add_argument("--sharing", action="store_true")
    p.set_defaults(fn=_cmd_record)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
