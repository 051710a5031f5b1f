"""The bench perf trajectories and CI regression gates.

These are mostly pure-mechanics tests over synthetic reports — the
actual sweeps are exercised by ``benchmarks/``; here we pin the shared
history format (append, bound, legacy migration, stamping) for both
the crawl and serve benches, each bench's throughput gate, and the
serve sweep's rule that every timed cell starts equally warm.
"""

import json
import re

from repro.parallel.bench import (
    BenchCell,
    BenchReport,
    load_trajectory,
    regression_message,
)
from repro.serve.bench import (
    ServeBenchCell,
    ServeBenchReport,
    run_serve_bench,
    serve_regression_message,
)


def _cell(workers: int = 1, rps: float = 100.0) -> BenchCell:
    return BenchCell(
        workers=workers,
        wall_seconds=1.0,
        wall_seconds_median=1.1,
        repeats=3,
        pages=60,
        requests=100,
        failures=0,
        requests_per_second=rps,
        speedup_vs_workers_1=1.0,
        dataset_sha256="d" * 64,
        byte_identical_to_sequential=True,
    )


def _report(rps: float = 100.0, **overrides) -> BenchReport:
    fields = dict(
        benchmark="crawl",
        scale="smoke",
        seed=7,
        route_via_gateway=False,
        queries=4,
        locations=9,
        treatments=18,
        rounds=4,
        cpus=1,
        start_method="fork",
        repeats=3,
    )
    fields.update(overrides)
    report = BenchReport(**fields)
    report.cells.append(_cell(rps=rps))
    return report


class TestTrajectory:
    def test_write_appends_and_stamps_entries(self, tmp_path):
        path = tmp_path / "BENCH_crawl.json"
        _report(rps=100.0).write(path)
        _report(rps=120.0).write(path)
        raw = json.loads(path.read_text())
        assert raw["format"] == "trajectory-v1"
        entries = raw["entries"]
        assert len(entries) == 2
        assert entries[0]["cells"][0]["requests_per_second"] == 100.0
        assert entries[1]["cells"][0]["requests_per_second"] == 120.0
        for entry in entries:
            assert re.fullmatch(
                r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", entry["timestamp"]
            )
            # In a git checkout the sha is stamped; outside one it is null.
            assert "git_sha" in entry

    def test_write_keeps_last_n(self, tmp_path):
        path = tmp_path / "BENCH_crawl.json"
        for index in range(5):
            _report(rps=float(index)).write(path, keep=3)
        entries = load_trajectory(path)
        assert [e["cells"][0]["requests_per_second"] for e in entries] == [
            2.0,
            3.0,
            4.0,
        ]

    def test_legacy_snapshot_becomes_oldest_entry(self, tmp_path):
        path = tmp_path / "BENCH_crawl.json"
        legacy = _report(rps=50.0).to_dict()  # pre-trajectory: bare report
        path.write_text(json.dumps(legacy))
        assert load_trajectory(path) == [legacy]
        _report(rps=80.0).write(path)
        entries = load_trajectory(path)
        assert len(entries) == 2
        assert entries[0]["cells"][0]["requests_per_second"] == 50.0
        assert entries[1]["cells"][0]["requests_per_second"] == 80.0

    def test_load_trajectory_tolerates_missing_and_foreign_content(
        self, tmp_path
    ):
        assert load_trajectory(tmp_path / "absent.json") == []
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert load_trajectory(garbage) == []
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps([1, 2, 3]))
        assert load_trajectory(foreign) == []


class TestRegressionGate:
    def _history(self, rps: float = 100.0, **overrides) -> list:
        entry = _report(rps=rps, **overrides).to_dict()
        entry["git_sha"] = "abc1234"
        entry["timestamp"] = "2026-08-08T00:00:00Z"
        return [entry]

    def test_fires_past_threshold(self):
        message = regression_message(
            _report(rps=70.0), self._history(rps=100.0), threshold_pct=20.0
        )
        assert message is not None
        assert "PERF REGRESSION" in message
        assert "30.0% below" in message
        assert "abc1234" in message

    def test_passes_within_threshold(self):
        assert (
            regression_message(
                _report(rps=85.0), self._history(rps=100.0), threshold_pct=20.0
            )
            is None
        )

    def test_passes_on_improvement(self):
        assert (
            regression_message(
                _report(rps=150.0), self._history(rps=100.0), threshold_pct=20.0
            )
            is None
        )

    def test_no_comparable_baseline_passes(self):
        report = _report(rps=10.0)
        assert regression_message(report, [], threshold_pct=20.0) is None
        # Same file, different config axes: not comparable.
        for overrides in (
            {"scale": "standard"},
            {"route_via_gateway": True},
            {"seed": 999},
        ):
            history = self._history(rps=100.0, **overrides)
            assert (
                regression_message(report, history, threshold_pct=20.0) is None
            )

    def test_compares_against_latest_comparable_entry(self):
        history = self._history(rps=100.0) + self._history(rps=10.0)
        # Latest entry (10 rps) is the baseline: 8 rps is within 20%.
        assert (
            regression_message(
                _report(rps=8.5), history, threshold_pct=20.0
            )
            is None
        )


def _serve_cell(gateways: int = 1, rps: float = 500.0) -> ServeBenchCell:
    return ServeBenchCell(
        gateways=gateways,
        replication=min(2, gateways),
        requests=400,
        wall_seconds=1.0,
        requests_per_second=rps,
        served_fresh=395,
        served_stale=3,
        shed=0,
        failed=2,
        cache_hit_rate=0.05,
        hedges=0,
        rerouted=0,
        hot_promotions=0,
        memo_misses=0,
    )


def _serve_report(rps: float = 500.0, **overrides) -> ServeBenchReport:
    fields = dict(
        seed=7,
        clients=50_000,
        requests=400,
        rate_per_minute=40.0,
        routing="round-robin",
        cache_size=4096,
        replication=2,
    )
    fields.update(overrides)
    report = ServeBenchReport(**fields)
    report.cells.append(_serve_cell(rps=rps))
    report.cells.append(_serve_cell(gateways=2, rps=rps * 2))
    return report


class TestServeTrajectory:
    def test_write_shares_the_trajectory_mechanics(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        _serve_report(rps=500.0).write(path)
        _serve_report(rps=520.0).write(path, keep=1)
        raw = json.loads(path.read_text())
        assert raw["format"] == "trajectory-v1"
        assert raw["benchmark"] == "serve"
        entries = raw["entries"]
        assert len(entries) == 1  # keep=1 bounded the history
        assert entries[0]["cells"][0]["requests_per_second"] == 520.0
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", entries[0]["timestamp"]
        )
        assert "git_sha" in entries[0]

    def test_degraded_is_reported_apart_from_ok(self):
        rendered = _serve_report().render()
        assert "stale" in rendered
        cell = _serve_report().cells[0]
        assert cell.served_fresh + cell.served_stale + cell.shed + cell.failed == 400


class TestServeSweep:
    def test_every_timed_cell_starts_equally_warm(self):
        """The first cell is not timed cold: untimed passes warm the
        shared ranker memo until a pass adds no misses, so every timed
        cell adds the same number of memo misses."""
        report = run_serve_bench(
            fleet_sizes=(1, 1, 2), requests=120, clients=5000, seed=9
        )
        assert [cell.gateways for cell in report.cells] == [1, 1, 2]
        assert {cell.memo_misses for cell in report.cells} == {0}
        for cell in report.cells:
            assert (
                cell.served_fresh + cell.served_stale + cell.shed + cell.failed
                == 120
            )


class TestServeRegressionGate:
    def _history(self, rps: float = 500.0, **overrides) -> list:
        entry = _serve_report(rps=rps, **overrides).to_dict()
        entry["git_sha"] = "abc1234"
        entry["timestamp"] = "2026-08-08T00:00:00Z"
        return [entry]

    def test_fires_on_single_gateway_regression(self):
        message = serve_regression_message(
            _serve_report(rps=300.0),
            self._history(rps=500.0),
            threshold_pct=20.0,
        )
        assert message is not None
        assert "PERF REGRESSION" in message
        assert "40.0% below" in message

    def test_passes_within_threshold_and_on_improvement(self):
        history = self._history(rps=500.0)
        for rps in (450.0, 700.0):
            assert (
                serve_regression_message(
                    _serve_report(rps=rps), history, threshold_pct=20.0
                )
                is None
            )

    def test_different_load_shape_is_not_comparable(self):
        report = _serve_report(rps=100.0)
        for overrides in (
            {"clients": 999},
            {"routing": "geo-affinity"},
            {"replication": 1},
            {"cache_size": 64},
            {"pin_frontend": True},
            {"hedge_after_minutes": 0.5},
        ):
            history = self._history(rps=500.0, **overrides)
            assert (
                serve_regression_message(
                    report, history, threshold_pct=20.0
                )
                is None
            )
