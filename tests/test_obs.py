"""Tests for the cross-layer observability subsystem (``repro.obs``).

The load-bearing contract: observation must never perturb the
simulation.  The matrix tests run the same seeded scenario with the
observer off, on at full span sampling and on at a coarse sampling
rate, across the batch/scalar x shared/unshared plane combinations and
a fault scenario, and require bit-identical traces, per-query results,
link bytes and CPU costs every time.
"""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Observer,
    SpanRecorder,
    Stopwatch,
    SubsystemProfiler,
    set_active,
)
from repro.obs import registry as obs_registry
from repro.obs.cli import main as obs_main
from repro.sim import (
    ChurnParams,
    ScenarioParams,
    SimWorkloadParams,
    run_scenario,
)
from repro.sim.faults import ProcessorCrash


# ---------------------------------------------------------------------------
# instruments in isolation
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a.hits")
        reg.inc("a.hits", 4)
        reg.gauge("b.level", 2.5)
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("c.sizes", v)
        out = reg.to_dict()
        assert out["counters"] == {"a.hits": 5}
        assert out["gauges"] == {"b.level": 2.5}
        hist = out["histograms"]["c.sizes"]
        assert hist["count"] == 4
        assert hist["sum"] == 10.0
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["p50"] <= hist["p95"] <= hist["max"]

    def test_to_dict_is_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        assert list(reg.to_dict()["counters"]) == ["a", "z"]

    def test_set_active_installs_and_clears(self):
        reg = MetricsRegistry()
        set_active(reg)
        try:
            assert obs_registry.ACTIVE is reg
        finally:
            set_active(None)
        assert obs_registry.ACTIVE is None


class TestSubsystemProfiler:
    def test_exclusive_attribution(self):
        prof = SubsystemProfiler()
        with prof.section("outer"):
            with prof.section("inner"):
                pass
        assert prof.calls == {"outer": 1, "inner": 1}
        # exclusive times: outer excludes inner's elapsed share
        assert prof.totals["outer"] >= 0.0
        assert prof.totals["inner"] >= 0.0

    def test_reentrant_sections_accumulate(self):
        prof = SubsystemProfiler()
        for _ in range(3):
            prof.start("loop")
            prof.stop()
        assert prof.calls["loop"] == 3

    def test_to_dict_with_wall(self):
        prof = SubsystemProfiler()
        with prof.section("a"):
            pass
        out = prof.to_dict(wall_s=1.0)
        assert out["wall_s"] == 1.0
        assert 0.0 <= out["coverage"] <= 1.0


class TestSpanRecorder:
    def test_sampling_rule_is_seq_keyed(self):
        rec = SpanRecorder(sample_every=4)
        assert [s for s in range(12) if rec.wants(s)] == [0, 4, 8]
        assert SpanRecorder(sample_every=1).wants(7)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            SpanRecorder(sample_every=0)

    def test_lookup_is_identity_keyed(self):
        rec = SpanRecorder(sample_every=1)
        tup = {"value": 1}
        span = rec.begin(0, 3, tup, 0.5)
        assert rec.lookup(tup) is span
        assert rec.lookup({"value": 1}) is None  # equal but not the object

    def test_hops_and_annotations_serialize(self):
        rec = SpanRecorder(sample_every=1)
        tup = object()
        span = rec.begin(8, 2, tup, 1.0)
        span.hop("publish", 1.0, source=4)
        span.annotate("migrate", 2.0, src=4, dst=5)
        (out,) = rec.to_list()
        assert out["seq"] == 8 and out["substream"] == 2
        assert out["hops"][0]["kind"] == "publish"
        assert out["annotations"][0]["dst"] == 5
        json.dumps(out)  # JSON-ready


class TestTiming:
    def test_stopwatch_monotone(self):
        watch = Stopwatch()
        a = watch.elapsed()
        b = watch.elapsed()
        assert 0.0 <= a <= b
        watch.restart()
        assert watch.elapsed() < b + 1.0


# ---------------------------------------------------------------------------
# the no-perturbation matrix
# ---------------------------------------------------------------------------
def _workload(use_sharing: bool) -> SimWorkloadParams:
    # a small substream pool on the shared plane forces real overlap so
    # merged groups (and the p^2 carve path) actually form
    return SimWorkloadParams(
        num_substreams=40,
        num_queries=24,
        pool_substreams=8 if use_sharing else None,
    )


def _scenario(use_batches: bool, use_sharing: bool, faults: bool = False):
    kwargs = dict(
        duration=10.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=8.0),
        use_batches=use_batches,
        use_sharing=use_sharing,
    )
    if faults:
        kwargs.update(
            faults=(ProcessorCrash(at=5.0),), checkpoint_interval=2.5
        )
    return ScenarioParams(**kwargs)


def _digest(report) -> str:
    return json.dumps(
        {
            "trace": report.trace.to_dict(),
            "results": {str(k): v for k, v in report.results.items()},
            "link_bytes": sorted(
                (list(k), v) for k, v in report.link_bytes.items()
            ),
            "cpu_costs": {str(k): v for k, v in report.cpu_costs.items()},
        },
        sort_keys=True,
    )


class TestNoPerturbation:
    @pytest.mark.parametrize("use_batches", [True, False])
    @pytest.mark.parametrize("use_sharing", [True, False])
    def test_off_on_sampled_identical(self, use_batches, use_sharing):
        params = _scenario(use_batches, use_sharing)
        workload = _workload(use_sharing)

        def run(observer=None):
            return run_scenario(
                seed=11, workload=workload, scenario=params,
                record=True, observer=observer,
            )

        base = _digest(run())
        full = Observer(span_sample_every=1)
        assert _digest(run(observer=full)) == base
        sparse = Observer(span_sample_every=16)
        assert _digest(run(observer=sparse)) == base
        # full sampling traced every emitted tuple; 1/16 strictly fewer
        assert len(full.spans.to_list()) > len(sparse.spans.to_list()) > 0
        # the active-registry global never leaks past the run
        assert obs_registry.ACTIVE is None

    def test_fault_plane_identical(self):
        params = _scenario(True, False, faults=True)
        workload = _workload(False)

        def run(observer=None):
            return run_scenario(
                seed=3, workload=workload, scenario=params,
                record=True, observer=observer,
            )

        base = _digest(run())
        obs = Observer(span_sample_every=1)
        watched = run(observer=obs)
        assert _digest(watched) == base
        assert any(e["kind"] == "crash" for e in watched.fault_log)
        counters = obs.registry.to_dict()["counters"]
        assert counters["recovery.crash_recoveries"] >= 1
        assert counters["recovery.checkpoints"] > 0

    def test_observed_spans_are_deterministic(self):
        params = _scenario(True, False)
        workload = _workload(False)
        exports = []
        for _ in range(2):
            obs = Observer(span_sample_every=8)
            run_scenario(
                seed=11, workload=workload, scenario=params, observer=obs
            )
            exports.append(obs.spans.to_list())
        assert exports[0] == exports[1]


# ---------------------------------------------------------------------------
# observer export + CLI
# ---------------------------------------------------------------------------
class TestObserverExport:
    def _observed(self):
        obs = Observer(span_sample_every=8)
        run_scenario(
            seed=11, workload=_workload(False),
            scenario=_scenario(True, False), observer=obs,
        )
        return obs

    def test_export_envelope(self):
        obs = self._observed()
        out = obs.export()
        assert out["schema"] == "cosmos-obs/1"
        assert out["seed"] == 11
        assert out["wall_s"] > 0.0
        assert out["spans"] and out["metrics"]["counters"]
        assert out["profile"]["coverage"] >= 0.9
        assert out["engines"] and out["brokers"] and out["links"]
        # per-layer counters from every instrumented subsystem
        counters = out["metrics"]["counters"]
        assert counters["broker.advertisements"] > 0
        assert counters["broker.index_probes"] > 0
        assert counters["opt.insertions"] > 0
        gauges = out["metrics"]["gauges"]
        assert gauges["network.total_link_bytes"] > 0
        assert gauges["broker.total_delivered"] > 0
        span = out["spans"][0]
        kinds = [h["kind"] for h in span["hops"]]
        assert kinds[0] == "publish"
        assert "sink" in kinds or "engine" in kinds

    def test_disabled_instruments_export_none(self):
        obs = Observer(span_sample_every=0, metrics=False, profile=False)
        run_scenario(
            seed=11, workload=_workload(False),
            scenario=_scenario(True, False), observer=obs,
        )
        out = obs.export()
        assert out["spans"] is None
        assert out["metrics"] is None
        assert out["profile"] is None

    def test_cli_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "OBS.json")
        obs = self._observed()
        obs.write(path)
        assert obs_main(["summary", path]) == 0
        assert "spans" in capsys.readouterr().out
        assert obs_main(["metrics", path, "--like", "broker.*"]) == 0
        assert "broker.index_probes" in capsys.readouterr().out
        assert obs_main(["profile", path]) == 0
        assert "event_loop" in capsys.readouterr().out
        assert obs_main(["spans", path, "--limit", "2"]) == 0
        assert "publish" in capsys.readouterr().out

    def test_cli_record(self, tmp_path, capsys):
        path = str(tmp_path / "OBS.json")
        rc = obs_main([
            "record", "--out", path, "--seed", "3",
            "--duration", "6.0", "--sample-every", "8",
        ])
        assert rc == 0
        data = json.load(open(path))
        assert data["schema"] == "cosmos-obs/1"
        assert data["seed"] == 3
        assert obs_main(["summary", path]) == 0
        capsys.readouterr()

    def test_cli_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "not-obs"}))
        with pytest.raises(SystemExit):
            obs_main(["summary", str(path)])
