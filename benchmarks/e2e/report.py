"""Whole-benchmark reports and the comparison of two of them.

    python3 benchmarks/e2e/run.py report [--repeats 3] [--out PATH]
    python3 benchmarks/e2e/run.py compare A.json B.json

``report`` runs every workload ``--repeats`` times untraced and once
traced, each run in a fresh interpreter (so ``peak_rss_mb`` is per run
and no module global of the program leaks between runs), and writes the
medians with an environment block.  ``compare`` judges report B against
report A with the bounds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

from metrics import spread
from run import HERE, OUT_DIR, ROOT, THREAD_VARS, load_spec


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_once(workload: str, args, trace: int, index: int) -> dict:
    """One ``run.py`` child; returns its detail JSON."""
    out = OUT_DIR / f"run_{workload}_{'traced' if trace else index}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", args.scale, "--out", str(out),
    ]
    started = perf_counter()
    child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(child.stderr)
    # exit status 1 is a completed run whose outputs were wrong
    if child.returncode not in (0, 1) or not out.exists():
        sys.stderr.write(child.stdout)
        raise SystemExit(f"{workload}: run.py exited with {child.returncode}")
    print(
        f"{workload}: {'traced' if trace else 'untraced'} run took "
        f"{perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    with open(out) as fh:
        return json.load(fh)


def _timed_s(detail: dict) -> float:
    return sum(e["run_s"] for e in detail["executions"])


def report(argv) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py report")
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(OUT_DIR / "report.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    result = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "threads": {var: "1" for var in THREAD_VARS},  # run.py pins them
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "repeats": args.repeats,
            "git_commit": _git_commit(),
        },
        "workloads": {},
    }
    ok = True
    for name in args.workload or names:
        started = perf_counter()
        runs = [_run_once(name, args, 0, i) for i in range(args.repeats)]
        traced = None if args.no_trace else _run_once(name, args, 1, 0)
        entry = {"end_to_end": {}, "per_layer": {}, "facts": runs[0]["facts"]}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "spread": spread(values),
                "values": values,
            }
        everything = runs + ([traced] if traced else [])
        entry["attempted"] = sum(r["attempted"] for r in everything)
        entry["failed"] = sum(r["failed"] for r in everything)
        entry["notes"] = [note for r in everything for note in r["notes"]]
        # equal arguments must give equal outputs, traced or not
        digests = {r["digest"] for r in everything}
        entry["digest"] = runs[0]["digest"]
        entry["attempted"] += 1
        if len(digests) != 1:
            entry["failed"] += 1
            entry["notes"].append(f"{len(digests)} different digests over {len(everything)} runs")
        if traced:
            entry["per_layer"] = traced["metrics"]
            # same inputs, same executions: what differs is the taps
            entry["per_layer"]["harness.trace_overhead_ratio"] = {
                "value": _timed_s(traced) / statistics.median(_timed_s(r) for r in runs),
                "unit": "ratio",
            }
        entry["wall_s"] = perf_counter() - started
        result["workloads"][name] = entry
        ok = ok and entry["failed"] == 0

    print()
    for name, entry in result["workloads"].items():
        print(f"{name}  (wall {entry['wall_s']:.1f} s including set-up, verification and tracing)")
        for metric, m in entry["end_to_end"].items():
            print(
                f"  {metric:<34} {m['median']:>14.6g} {m['unit']:<6} "
                f"n={m['n']} min={m['min']:.6g} max={m['max']:.6g}"
            )
        for metric, m in entry["per_layer"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  failed_ops_share                   {entry['failed']}/{entry['attempted']}")
        for note in entry["notes"]:
            print(f"  FAILED: {note}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {args.out}")
    return 0 if ok else 1


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge median ``b`` against median ``a``: worse by more than the
    bound is a regression, better by more than the runs' own spread an
    improvement, and a spread wider than the bound settles nothing."""
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    noise = max(a["spread"], b["spread"])
    if noise > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > noise:
        return "improved"
    return "unchanged"


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="report of the parent commit")
    parser.add_argument("b", help="report of the change")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    spec = load_spec()
    for key in ("nproc", "python", "numpy", "seed", "seconds", "scale"):
        if a["environment"][key] != b["environment"][key]:
            print(
                f"warning: {key} differs ({a['environment'][key]} vs "
                f"{b['environment'][key]}): the reports are not comparable"
            )
    regressed = False
    print(f"{'workload':<11} {'metric':<13} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            ma = a["workloads"][name]["end_to_end"][metric["name"]]
            mb = b["workloads"][name]["end_to_end"][metric["name"]]
            word = verdict(ma, mb, metric["better"], metric["bound"])
            regressed = regressed or word == "regressed"
            change = (mb["median"] - ma["median"]) / ma["median"]
            print(
                f"{name:<11} {metric['name']:<13} {ma['median']:>12.5g} {mb['median']:>12.5g} "
                f"{change:>+8.1%} {metric['bound']:>6.0%}  {word}"
                f" (base {ma['median']:.5g} {metric['unit']}, n={ma['n']}/{mb['n']})"
            )
        for side in (a, b):
            entry = side["workloads"][name]
            if entry["failed"]:
                regressed = True
                print(f"{name:<11} failed_ops_share {entry['failed']}/{entry['attempted']}  regressed")
    print("\nper-layer (one traced run each; no bounds)")
    for name in a["workloads"]:
        la = a["workloads"][name]["per_layer"]
        lb = b["workloads"].get(name, {}).get("per_layer", {})
        for metric in la:
            if metric not in lb or (la[metric]["value"] == 0 and lb[metric]["value"] == 0):
                continue
            va, vb = la[metric]["value"], lb[metric]["value"]
            change = f"{(vb - va) / va:>+8.1%}" if va else "     new"
            print(f"{name:<11} {metric:<34} {va:>12.5g} {vb:>12.5g} {change} {la[metric]['unit']}")
    return 1 if regressed else 0


def main(argv) -> int:
    return {"report": report, "compare": compare}[argv[0]](argv[1:])
