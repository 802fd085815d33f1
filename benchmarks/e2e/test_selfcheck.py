"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs the whole benchmark at ``--scale smoke`` and checks the contract of
its output against BENCHMARK.json, then checks the span arithmetic on
synthetic functions.
"""

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def run_py(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    child = run_py("report", "--scale", "smoke", "--seconds", 1, "--repeats", 2, "--out", out)
    assert child.returncode == 0, child.stdout + child.stderr
    return json.loads(out.read_text()), child.stdout, out


def test_every_declared_workload_and_metric_is_reported(smoke):
    report, stdout, _ = smoke
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in report["workloads"].items():
        assert NAME.match(name)
        for metric in SPEC["end_to_end"]:
            m = entry["end_to_end"][metric["name"]]
            assert m["unit"] == metric["unit"] and m["n"] == 2
            assert m["median"] > 0, (name, metric["name"])
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        reported = {k: v["unit"] for k, v in entry["per_layer"].items()}
        assert reported.pop("harness.trace_overhead_ratio") == "ratio"
        assert reported == declared
        assert entry["failed"] == 0 and entry["attempted"] > 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"])
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b",
                         stdout, re.M), metric["name"]
    environment = report["environment"]
    for key in ("nproc", "python", "numpy", "threads", "seed", "scale", "repeats", "git_commit"):
        assert key in environment


def test_layers_partition_the_timed_section(smoke):
    report, _, _ = smoke
    for name, entry in report["workloads"].items():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        selfs = [layer["sim.cluster.self_s"]] + [
            layer[f"{x}.run_self_s"] for x in tracing.LAYERS if x != "sim"
        ]
        assert all(s >= 0 for s in selfs), name
        assert all(v >= 0 for k, v in layer.items() if k.endswith("self_s")), name
        total = sum(selfs) + layer["harness.untapped_s"]
        assert total == pytest.approx(layer["harness.traced_run_s"], rel=1e-6), name
        assert layer["harness.untapped_s"] >= 0
        assert layer["harness.tap_missing"] == 0


def test_single_run_ends_with_the_contract_json(tmp_path):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        child = run_py("--workload", "sim_shared", "--seed", 3, "--seconds", 1, "--trace", trace,
                       "--scale", "smoke", "--out", tmp_path / "detail.json")
        assert child.returncode == 0, child.stderr
        last = json.loads(child.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_compare_judges_with_the_declared_bounds(smoke, tmp_path):
    report, _, path = smoke
    same = run_py("compare", path, path)
    assert same.returncode == 0 and "regressed" not in same.stdout
    assert "unchanged" in same.stdout
    slower = json.loads(json.dumps(report))
    m = slower["workloads"]["opt_cold"]["end_to_end"]["run_s"]
    m["median"] *= 2
    m["spread"] = 0.0
    report["workloads"]["opt_cold"]["end_to_end"]["run_s"]["spread"] = 0.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(slower))
    worse = run_py("compare", a, b)
    assert worse.returncode == 1
    assert re.search(r"opt_cold\s+run_s.*regressed", worse.stdout)
    better = run_py("compare", b, a)
    assert better.returncode == 0
    assert re.search(r"opt_cold\s+run_s.*improved", better.stdout)


# ----------------------------------------------------------------------
# span arithmetic on synthetic functions
# ----------------------------------------------------------------------
SYNTHETIC = """
import time

def outer(depth):
    time.sleep(0.002)
    return inner(depth)

def inner(depth):
    time.sleep(0.002)
    if depth:
        return inner(depth - 1)
    return leaf()

def leaf():
    time.sleep(0.002)
    return "done"
"""


@pytest.fixture
def synthetic():
    module = types.ModuleType("repro._e2e_selfcheck")
    exec(SYNTHETIC, module.__dict__)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_recursion_is_not_double_counted(synthetic):
    recorder = tracing.Recorder(
        (
            tracing.Tap("core.walk", "repro._e2e_selfcheck.outer"),
            tracing.Tap("core.walk", "repro._e2e_selfcheck.inner"),
            tracing.Tap("engine.leaf", "repro._e2e_selfcheck.leaf"),
        )
    )
    recorder.install()
    start = time.perf_counter()
    assert synthetic.outer(3) == "done"
    end = time.perf_counter()
    recorder.uninstall()
    assert synthetic.outer.__name__ == "outer" and not hasattr(synthetic.outer, "__wrapped__")
    assert recorder.missing == [] and len(recorder) == 6  # outer, inner x4, leaf

    window = tracing.analyse(recorder, 0, len(recorder), start, end)
    walk, leaf = window.groups["core.walk"], window.groups["engine.leaf"]
    # the group is entered once however deep it recurses
    assert walk.calls == 1 and leaf.calls == 1
    assert walk.busy_s == pytest.approx(recorder.end[0] - recorder.start[0])
    assert walk.busy_s <= end - start
    # self time excludes the leaf, which belongs to another layer
    assert 0 <= walk.self_s == pytest.approx(walk.busy_s - leaf.busy_s)
    assert window.layer_self_s["core"] + window.layer_self_s["engine"] == pytest.approx(
        window.covered_s
    )
    assert window.covered_s == pytest.approx(walk.busy_s)


def test_a_tap_that_no_longer_resolves_is_counted_not_raised(synthetic, capsys):
    recorder = tracing.Recorder(
        (
            tracing.Tap("core.gone", "repro._e2e_selfcheck.renamed_away"),
            tracing.Tap("core.gone", "repro.no_such_module.Thing.method"),
            tracing.Tap("engine.leaf", "repro._e2e_selfcheck.leaf"),
        )
    )
    recorder.install()
    synthetic.leaf()
    recorder.uninstall()
    assert len(recorder.missing) == 2 and len(recorder) == 1
    assert "not installed" in capsys.readouterr().err
