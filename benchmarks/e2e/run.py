#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one run.

    python3 benchmarks/e2e/run.py --workload sim_dense --seed 0 --seconds 20 --trace 0

runs a workload's panel of units single-threaded, prints every metric by
name with its unit, checks that the program's outputs are correct, and
ends with one JSON line.  ``--trace 0`` measures the end-to-end metrics
with nothing installed but one timestamp hook; ``--trace 1`` wraps the
public functions of every layer (``tracing.TAPS``) and reports the
per-layer metrics instead.  ``report`` and ``compare`` (see report.py)
run all workloads in fresh interpreters and compare two reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def single_run(args, spec: dict) -> int:
    # one thread, pinned before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import metrics
    import tracing

    try:
        from workloads import PASSES, WORKLOADS, Check, reset_id_counters, unit_seed
    except ImportError as exc:
        print(f"run.py: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    wall = perf_counter()
    workload = WORKLOADS[args.workload]
    seeds = [unit_seed(args.seed, i) for i in range(workload.units(args.scale, args.seconds))]
    check = Check()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
    passes = []
    for _ in range(PASSES):
        passes.append([])
        for seed in seeds:
            first_span = len(recorder) if recorder is not None else 0
            reset_id_counters()
            unit = workload.run_unit(args.scale, seed, check)
            if recorder is not None:
                unit.spans = (first_span, len(recorder))
                unit.facts.update(recorder.drain_receivers())
            passes[-1].append(unit)
    e2e = metrics.end_to_end(passes)  # reads peak RSS: before verification
    if recorder is not None:
        recorder.uninstall()
    for executions in zip(*passes):
        check.attempted += 1
        if len({u.digest for u in executions}) != 1:
            check.fail(f"unit {executions[0].seed}: digests differ between passes")
    workload.verify(args.scale, seeds[0], check)
    correct = check.failed == 0
    units = metrics.fastest(passes)

    if args.trace:
        values = metrics.per_layer(units, recorder, check.attempted, check.failed)
        declared = spec["per_layer"]
    else:
        values = e2e
        declared = spec["end_to_end"]
    for name in sorted(set(values) - {d["name"] for d in declared}):
        print(f"warning: {name} is computed but not in BENCHMARK.json", file=sys.stderr)
    reported = {}
    for d in declared:
        if d["name"] not in values:
            print(f"warning: {d['name']} is not computed; reporting 0", file=sys.stderr)
        reported[d["name"]] = {"value": values.get(d["name"], 0.0), "unit": d["unit"]}

    print(
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
        f"seconds {args.seconds:g}  trace {args.trace}  units {len(units)} x {PASSES} passes"
    )
    print(f"  op = {workload.op}")
    executions = [u for units_of_pass in passes for u in units_of_pass]
    per_unit = {
        "setup_s": [u.setup_s for u in executions],
        "run_s": [u.run_s for u in executions],
        "ops_per_s": [u.ops / u.run_s for u in executions],
    }
    for name, m in reported.items():
        line = f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6}"
        if name in per_unit and not args.trace:
            v = per_unit[name]
            line += f" n={len(v)} min={min(v):.6g} max={max(v):.6g}"
        print(line)
    facts = {
        name: sum(u.facts.get(name, 0.0) for u in units) / len(units)
        for name in sorted({k for u in units for k in u.facts})
    }
    if not args.trace:
        for name, value in facts.items():
            print(f"  {name:<34} {value:>16.6g} (mean of {len(units)} units)")
    digest = hashlib.sha256("".join(u.digest for u in units).encode()).hexdigest()
    print(f"  failed_ops_share                   {check.failed}/{check.attempted}")
    for note in check.notes:
        print(f"  FAILED: {note}")
    print(f"  digest {digest}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "executions": [
            {"seed": u.seed, "setup_s": u.setup_s, "run_s": u.run_s, "slices": u.slices,
             "ops": u.ops, "digest": u.digest}
            for u in executions
        ],
        "metrics": reported,
        "facts": facts,
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
        "digest": digest,
        "wall_s": perf_counter() - wall,
    }
    out = args.out
    if args.trace:
        detail["trace"] = tracing.export_spans(recorder, units[0].t_start)
        out = out or OUT_DIR / f"trace_{args.workload}.json"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(detail, fh)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("report", "compare"):
        sys.path.insert(0, str(HERE))
        import report

        return report.main(argv)
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=None, help="also write the run's detail JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
