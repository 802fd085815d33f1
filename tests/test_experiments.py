"""Smoke tests for the experiment drivers (tiny configurations).

The benchmarks run the figure-scale versions; these tests only verify the
drivers are wired correctly and their headline claims hold at toy scale.
"""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, table2
from repro.experiments.config import (
    ExperimentConfig,
    bench_scale,
    build_testbed,
    paper_scale,
)


def tiny(num_queries=200):
    from dataclasses import replace

    cfg = bench_scale(num_queries)
    return replace(
        cfg,
        num_processors=12,
        num_sources=6,
        workload=replace(
            cfg.workload,
            num_substreams=1000,
            substreams_per_query=(8, 16),
        ),
        cosmos=replace(cfg.cosmos, vmax=40),
    )


class TestConfig:
    def test_bench_scale_defaults(self):
        cfg = bench_scale()
        assert cfg.workload.num_queries == 1500

    def test_paper_scale_matches_paper(self):
        cfg = paper_scale()
        assert cfg.num_processors == 256
        assert cfg.num_sources == 100
        assert cfg.workload.num_substreams == 20000
        assert cfg.topology.node_count() >= 4096

    def test_with_queries(self):
        assert bench_scale().with_queries(42).workload.num_queries == 42

    def test_with_k(self):
        assert bench_scale().with_k(8).cosmos.k == 8

    def test_build_testbed(self):
        bed = build_testbed(tiny(50))
        assert len(bed.processors) == 12
        assert len(bed.workload.queries) == 50
        assert bed.cost(
            {q.query_id: q.proxy for q in bed.workload.queries}
        ) > 0


class TestTable2:
    def test_scheme_ordering(self):
        results = table2.run()
        assert results["scheme3"] < results["scheme2"] < results["scheme1"]

    def test_algorithm2_not_worse_than_naive_scheme(self):
        results = table2.run()
        assert results["algorithm2"] <= results["scheme1"] + 1e-9

    def test_format_mentions_ordering(self):
        text = table2.format_results(table2.run())
        assert "scheme3 < scheme2 < scheme1: True" in text

    def test_wec_values_exact(self):
        # the Figure 5 instance's latencies come from a LatencyOracle over
        # its six links; every pair's shortest path is its direct link
        assert table2.run() == {
            "scheme1": 115.0,
            "scheme2": 105.0,
            "scheme3": 85.0,
            "algorithm2": 105.0,
            "algorithm2_relaxed": 80.0,
        }


class TestFig6:
    def test_rows_and_ordering(self):
        rows = fig6.run(tiny(), query_counts=(100, 200))
        assert [r.num_queries for r in rows] == [100, 200]
        for r in rows:
            assert r.cost_naive >= r.cost_hierarchical * 0.9
            assert r.time_hierarchical_response <= r.time_hierarchical_total + 1e-9
        assert "Figure 6" in fig6.format_rows(rows)


class TestFig7:
    def test_adaptation_improves_random_start(self):
        series = fig7.run(tiny(), rounds=3)
        assert len(series.rounds) == 4
        assert series.a_inaccurate_cost[-1] <= series.na_inaccurate_cost[-1]
        assert "Figure 7" in fig7.format_series(series)


class TestFig8:
    def test_series_lengths(self):
        series = fig8.run(tiny(), intervals=2, batch_size=10)
        assert len(series.intervals) == 3
        assert len(series.random_cost) == 3
        assert "Figure 8" in fig8.format_series(series)


class TestFig9:
    def test_rows(self):
        rows = fig9.run(tiny(), ks=(2, 4), insertions=20, num_processors=16)
        assert {r.k for r in rows} == {2, 4}
        assert all(r.throughput > 0 for r in rows)
        assert "Figure 9" in fig9.format_rows(rows)


class TestFig10:
    def test_migration_accounting(self):
        series = fig10.run(tiny(), pattern=("I", "D"), perturbed_streams=40)
        assert len(series.steps) == 3
        assert series.remapping_migrations >= 0
        assert "migrations" in fig10.format_series(series)


class TestFig11:
    def test_rows(self):
        rows = fig11.run(query_counts=(60, 120), num_nodes=20, num_sensors=40)
        assert [r.num_queries for r in rows] == [60, 120]
        assert all(r.cost_cosmos > 0 for r in rows)
        assert "Figure 11" in fig11.format_rows(rows)
