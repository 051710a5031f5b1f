"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.datastore import SerpDataset
from repro.core.experiment import StudyConfig
from repro.core.runner import Study
from repro.queries.corpus import build_corpus


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    corpus = build_corpus()
    queries = [corpus.get("School"), corpus.get("Starbucks"), corpus.get("Gay Marriage"),
               corpus.get("Barack Obama")]
    config = StudyConfig.small(queries, days=2, locations_per_granularity=3)
    dataset = Study(config).run()
    path = tmp_path_factory.mktemp("cli") / "dataset.jsonl.gz"
    dataset.save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--out", "x.jsonl"])
        assert args.scale == "small"

    def test_report_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--dataset", "x", "--figure", "9"])


class TestCommands:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mini.jsonl"
        # A 1-day small run is the cheapest full pipeline exercise.
        assert main(["run", "--scale", "small", "--days", "1", "--out", str(out)]) == 0
        assert SerpDataset.load(out)
        assert main(["report", "--dataset", str(out), "--figure", "2"]) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out

    def test_report_all_figures(self, saved_dataset, capsys):
        assert main(["report", "--dataset", str(saved_dataset), "--figure", "all"]) == 0
        out = capsys.readouterr().out
        for figure in ("Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Figure 8"):
            assert figure in out

    def test_validate_command(self, capsys):
        assert main(["validate", "--machines", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "result agreement" in out

    def test_demographics_command(self, saved_dataset, capsys):
        assert main(["demographics", "--dataset", str(saved_dataset), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "median_income" in out
        assert "physical_distance_miles" in out

    def test_chart_command(self, saved_dataset, capsys):
        assert main(["chart", "--dataset", str(saved_dataset), "--figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "█" in out

    def test_chart_fig8(self, saved_dataset, capsys):
        assert main(
            ["chart", "--dataset", str(saved_dataset), "--figure", "8",
             "--granularity", "county"]
        ) == 0
        assert "noise floor" in capsys.readouterr().out

    def test_content_command(self, saved_dataset, capsys):
        assert main(["content", "--dataset", str(saved_dataset)]) == 0
        out = capsys.readouterr().out
        assert "locality" in out
        assert "source mix" in out

    def test_carryover_command(self, capsys):
        assert main(["carryover", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Session carryover" in out

    def test_export_command(self, saved_dataset, tmp_path, capsys):
        out_dir = tmp_path / "export"
        assert main(
            ["export", "--dataset", str(saved_dataset), "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "fig2.csv").exists()
        assert (out_dir / "fig8_county.json").exists()

    def test_audit_command(self, capsys):
        assert main(["audit", "Coffee", "Barack Obama", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Coffee" in out
        assert "verdict" in out

    def test_diff_command(self, saved_dataset, capsys):
        assert main(["diff", "--a", str(saved_dataset), "--b", str(saved_dataset)]) == 0
        out = capsys.readouterr().out
        assert "identical pages: 100.0%" in out

    def test_reportcard_command(self, saved_dataset, tmp_path, capsys):
        out_file = tmp_path / "REPORT.md"
        assert main(
            ["reportcard", "--dataset", str(saved_dataset), "--out", str(out_file)]
        ) == 0
        assert "## Headline" in out_file.read_text()

    def test_serve_bench_command(self, capsys):
        assert main(
            ["serve-bench", "--requests", "120", "--clients", "25", "--seed", "9",
             "--routing", "geo-affinity", "--cache-size", "256"]
        ) == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "hit-rate" in out
        assert "per-replica" in out

    def test_serve_bench_rejects_bad_routing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--routing", "coin-flip"])

    @pytest.mark.parametrize("gateways", ["0", "-1"])
    def test_serve_bench_rejects_fleet_size_below_one(self, gateways, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve-bench", "--gateways", gateways])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_serve_bench_fleet_mode_times_each_size(self, capsys):
        args = ["serve-bench", "--gateways", "2", "--requests", "150",
                "--clients", "5000", "--seed", "9"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert "stale" in printed  # stale column, never folded into fresh
        rows = [line.split() for line in printed.splitlines()]
        cells = [row for row in rows if row and row[0].isdigit()]
        assert [row[0] for row in cells] == ["1", "2"]
        assert all(float(row[2]) > 0 for row in cells)  # req/s

    def test_serve_bench_pin_frontend_and_hedge_after_take_effect(
        self, monkeypatch, capsys
    ):
        import repro.serve.bench as serve_bench
        from repro.serve.fleet import GatewayFleet

        frontends = set()
        submit = GatewayFleet.submit

        def spy(fleet, request):
            frontends.add(request.frontend_ip)
            return submit(fleet, request)

        monkeypatch.setattr(GatewayFleet, "submit", spy)
        reports = []
        sweep = serve_bench.run_serve_bench

        def record(**kwargs):
            reports.append(sweep(**kwargs))
            return reports[-1]

        monkeypatch.setattr(serve_bench, "run_serve_bench", record)

        def entry(*flags):
            frontends.clear()
            assert main(
                ["serve-bench", "--requests", "200", "--clients", "2000",
                 "--seed", "9", "--rate", "600", *flags]
            ) == 0
            return reports[-1]

        plain = entry()
        assert len(frontends) > 1
        pinned = entry("--pin-frontend")
        assert len(frontends) == 1  # one DNS answer for every client
        hedged = entry("--hedge-after", "0.05")
        capsys.readouterr()
        assert pinned.pin_frontend and not plain.pin_frontend
        assert hedged.hedge_after_minutes == 0.05
        assert plain.cells[0].hedges == 0
        assert hedged.cells[0].hedges > 0

    def test_chaos_serve_smoke_accounts_for_everything(self, tmp_path, capsys):
        ledger = tmp_path / "serve-ledger.json"
        assert main(["chaos-serve", "--smoke", "--requests", "200",
                     "--seed", "9", "--fault-seed", "11",
                     "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "unaccounted=0 (OK)" in out
        import json

        raw = json.loads(ledger.read_text())
        assert raw["unaccounted"] == 0
        assert raw["requests"] == 200
        assert raw["requests"] == (
            raw["served_fresh"] + raw["served_stale"]
            + raw["shed"] + raw["failed"]
        )
        assert sum(raw["faults_injected"].values()) > 0

    def test_run_with_workers_matches_sequential(self, tmp_path):
        sequential = tmp_path / "seq.jsonl"
        parallel = tmp_path / "par.jsonl"
        assert main(["run", "--scale", "small", "--days", "1",
                     "--out", str(sequential)]) == 0
        assert main(["run", "--scale", "small", "--days", "1",
                     "--out", str(parallel), "--workers", "2"]) == 0
        assert sequential.read_bytes() == parallel.read_bytes()

    def test_schedule_command(self, capsys):
        assert main(["schedule", "--machines", "44"]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        assert main(["schedule", "--machines", "1"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out


class TestChaosCommand:
    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fault ledger (injected = recovered + lost):" in out
        assert "retry histogram" in out
        assert "location coverage" in out
        assert "all injected faults accounted for" in out

    @pytest.mark.parametrize(
        "extra", [[], ["--kill-workers"]], ids=["plain", "kill-workers"]
    )
    def test_chaos_smoke_parallel_with_checkpoint(self, tmp_path, capsys, extra):
        ckpt = tmp_path / "chaos.ckpt"
        first, replay = tmp_path / "first.jsonl", tmp_path / "replay.jsonl"
        argv = ["chaos", "--smoke", "--workers", "2", "--checkpoint", str(ckpt)]
        assert main(argv + extra + ["--out", str(first)]) == 0
        assert ckpt.exists()
        assert "all injected faults accounted for" in capsys.readouterr().out
        # Re-running against the completed journal replays rather than
        # re-crawling and reaches the same verdict and the same bytes.
        assert main(argv + extra + ["--out", str(replay)]) == 0
        assert "all injected faults accounted for" in capsys.readouterr().out
        assert replay.read_bytes() == first.read_bytes()

    def test_run_with_checkpoint_is_reproducible(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        ckpt = tmp_path / "mini.ckpt"
        argv = ["run", "--scale", "small", "--days", "1", "--out", str(out),
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert ckpt.exists()
        assert main(argv) == 0
        assert out.read_bytes() == first


class TestObservabilityCommands:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs")
        out = root / "mini.jsonl"
        trace = root / "mini.trace.jsonl"
        metrics = root / "mini.metrics.json"
        argv = [
            "run", "--scale", "small", "--days", "1", "--workers", "2",
            "--gateway", "--plan", "flaky-network", "--fault-seed", "7",
            "--out", str(out), "--trace", str(trace), "--metrics", str(metrics),
        ]
        assert main(argv) == 0
        return trace, metrics

    def test_trace_check_passes(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", str(trace), "--check"]) == 0
        assert ": ok (" in capsys.readouterr().out

    def test_trace_check_fails_on_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.trace.jsonl"
        bogus.write_text('{"kind":"span","id":"x"}\n', encoding="utf-8")
        assert main(["trace", str(bogus), "--check"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_trace_profile_default(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "top spans" in out

    def test_trace_chrome_export(self, traced_run, tmp_path):
        import json

        trace, _ = traced_run
        chrome = tmp_path / "mini.chrome.json"
        assert main(["trace", str(trace), "--chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        assert doc["traceEvents"]

    def test_metrics_table_and_prom(self, traced_run, capsys):
        _, metrics = traced_run
        assert main(["metrics", str(metrics)]) == 0
        table = capsys.readouterr().out
        assert "crawl_pages_total" in table
        assert "gateway_requests_total" in table
        assert main(["metrics", str(metrics), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_crawl_pages_total counter" in prom

    def test_run_trace_with_checkpoint(self, tmp_path, capsys):
        trace = str(tmp_path / "x.trace")
        argv = [
            "run", "--scale", "small", "--days", "1",
            "--out", str(tmp_path / "x.jsonl"),
            "--trace", trace,
            "--checkpoint", str(tmp_path / "x.ckpt"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["trace", trace, "--check"]) == 0
        assert ": ok (trace " in capsys.readouterr().out

    def test_run_trace_and_events_together_is_a_usage_error(self, tmp_path, capsys):
        argv = [
            "run", "--scale", "small", "--days", "1",
            "--out", str(tmp_path / "x.jsonl"),
            "--trace", str(tmp_path / "x.trace"),
            "--events", str(tmp_path / "x.events"),
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "not allowed with argument --trace" in capsys.readouterr().err
        assert not (tmp_path / "x.trace").exists()

    def test_serve_bench_trace(self, tmp_path, capsys):
        trace = tmp_path / "serve.trace.jsonl"
        assert main(
            ["serve-bench", "--requests", "200", "--clients", "40",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--check"]) == 0
        assert "0 round(s)" in capsys.readouterr().out

    def test_chaos_retry_histogram_renders_bars(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "retry histogram (attempts per delivered query):" in out
        assert "attempt(s):" in out
        assert "#" in out


class TestAuditServiceCLI:
    def test_terms_subcommand_explicit(self, capsys):
        assert main(["audit", "terms", "Coffee", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Coffee" in out and "verdict" in out

    def test_run_once_smoke_writes_store_and_ledger(self, tmp_path, capsys):
        store = tmp_path / "audits"
        ledger = tmp_path / "alerts.jsonl"
        argv = [
            "audit", "run-once", "--smoke", "--cycles", "2",
            "--store", str(store), "--ledger", str(ledger),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "smoke: cycles 2/2" in out
        assert (store / "smoke.audit.jsonl").exists()
        assert ledger.exists()

    def test_run_once_is_deterministic_across_invocations(self, tmp_path, capsys):
        store_a, store_b = tmp_path / "a", tmp_path / "b"
        for store in (store_a, store_b):
            assert main(
                ["audit", "run-once", "--smoke", "--cycles", "2",
                 "--store", str(store)]
            ) == 0
        capsys.readouterr()
        assert (store_a / "smoke.audit.jsonl").read_bytes() == (
            store_b / "smoke.audit.jsonl"
        ).read_bytes()

    def test_status_subcommand(self, tmp_path, capsys):
        store = tmp_path / "audits"
        assert main(
            ["audit", "run-once", "--smoke", "--cycles", "1", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["audit", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "smoke: 1 cycle(s)" in out

    def test_status_empty_directory(self, tmp_path, capsys):
        assert main(["audit", "status", "--store", str(tmp_path)]) == 0
        assert "no audit stores" in capsys.readouterr().out

    def test_serve_check_round_trips_every_route(self, tmp_path, capsys):
        argv = [
            "audit", "serve", "--smoke", "--cycles", "1",
            "--store", str(tmp_path / "audits"), "--port", "0", "--check",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for path in ("/healthz", "/audits", "/metrics", "/audits/smoke/series"):
            assert f"GET {path} -> 200" in out
