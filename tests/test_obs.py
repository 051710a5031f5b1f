"""Observability layer: deterministic traces, unified metrics, profiling.

The tentpole invariant under test: the event log written with
``run(trace=path)``, its crawl events plus one ``span`` event per root
span tree, is **byte-identical for any worker count** — gateway on or
off, faults active — because span identity is positional (round,
treatment, sibling ordinal), workers emit per-round trees the parent
merges in canonical order, and gateway spans are synthesized at merge
time by replaying admission over the canonical request stream.

The metrics registry's contract: one snapshot/merge/restore protocol
for every stats holder, strict about unknown keys, and composable with
checkpoint kill-and-resume (the snapshot after a resumed run equals
the uninterrupted run's).
"""

import json

import pytest

from repro.core.experiment import StudyConfig
from repro.core.runner import CrawlStats, Study
from repro.faults.checkpoint import CheckpointError
from repro.faults.injector import FaultStats
from repro.faults.plan import FaultPlan
from repro.obs.events import EventLog, read_events
from repro.obs.exporters import chrome_trace, read_trace, validate_trace
from repro.obs.metrics import Histogram, MetricsRegistry, render_prometheus
from repro.obs.profile import profile_trace
from repro.obs.trace import NULL_TRACER, Tracer, study_span_id, trace_id_for
from repro.queries.corpus import build_corpus
from repro.serve.stats import GatewayStats
from repro.store import fsck_path
from repro.store.record_log import reframe_line, unframe_line

FLAKY = FaultPlan.named("flaky-network", seed=7)


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


def _config(**overrides):
    config = StudyConfig.small(
        _queries(), days=2, locations_per_granularity=2
    ).with_overrides(machine_count=5, fault_plan=FLAKY, max_retries=2)
    return config.with_overrides(**overrides) if overrides else config


def _trace_bytes(config, path, workers: int) -> bytes:
    Study(config).run(workers=workers, trace=str(path))
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_observe_buckets_by_upper_bound(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]  # <=1, <=2, overflow
        assert histogram.count == 4
        assert histogram.max_minutes == 5.0
        assert histogram.mean_minutes == pytest.approx(2.0)

    def test_merge_requires_matching_bounds(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_sums_counts_and_keeps_max(self):
        a, b = Histogram(), Histogram()
        a.observe(0.2)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.max_minutes == 3.0

    def test_from_counts_is_exact(self):
        histogram = Histogram.from_counts({1: 36, 2: 12})
        assert histogram.count == 48
        assert histogram.mean_minutes == pytest.approx(1.25)
        rendered = histogram.render(indent="  ", unit="attempt(s)")
        assert "<=1 attempt(s): 36" in rendered
        assert "count=48" in rendered

    def test_render_empty(self):
        assert Histogram().render(indent="  ") == "  (empty)"

    def test_restore_round_trip_and_strictness(self):
        histogram = Histogram()
        histogram.observe(0.3)
        state = histogram.capture_state()
        fresh = Histogram()
        fresh.restore_state(state)
        assert fresh == histogram
        with pytest.raises(ValueError):
            fresh.restore_state({**state, "bogus": 1})


# ---------------------------------------------------------------------------
# MetricSet protocol on the real stats holders
# ---------------------------------------------------------------------------


class TestMetricSetProtocol:
    def test_crawl_stats_round_trip(self):
        stats = CrawlStats(requests=7, pages=5, retries=2)
        stats.record_failure_kind("timeout")
        fresh = CrawlStats()
        fresh.restore_state(stats.capture_state())
        assert fresh == stats

    def test_crawl_stats_merge_sums_kind_breakdown(self):
        a, b = CrawlStats(), CrawlStats()
        a.record_failure_kind("timeout")
        b.record_failure_kind("timeout")
        b.record_failure_kind("dns-failure")
        a.merge(b)
        assert a.failures_by_kind == {"timeout": 2, "dns-failure": 1}

    def test_restore_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            CrawlStats().restore_state({**CrawlStats().capture_state(), "x": 1})

    def test_restore_rejects_missing_keys(self):
        state = CrawlStats().capture_state()
        state.pop("requests")
        with pytest.raises(ValueError, match="missing"):
            CrawlStats().restore_state(state)

    def test_fault_stats_retry_histogram_keys_survive_json(self):
        stats = FaultStats()
        stats.record_attempts(2)
        stats.record_attempts(2)
        state = json.loads(json.dumps(stats.capture_state()))
        fresh = FaultStats()
        fresh.restore_state(state)
        assert fresh.retry_histogram == {2: 2}

    def test_gateway_stats_restore_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            GatewayStats().restore_state(
                {**GatewayStats().capture_state(), "legacy_field": 3}
            )

    def test_gateway_stats_render_reports_service_and_total_max(self):
        stats = GatewayStats()
        stats.service.observe(0.2)
        stats.total.observe(0.5)
        rendered = stats.render()
        assert "service 12.00s avg / 12.00s max" in rendered
        assert "total 30.00s avg / 30.00s max" in rendered

    def test_gateway_stats_merge_takes_max_depth(self):
        a, b = GatewayStats(), GatewayStats()
        a.record_dispatch("dc00", depth=3)
        b.record_dispatch("dc01", depth=9)
        a.merge(b)
        assert a.max_queue_depth == 9
        assert a.replica_requests == {"dc00": 1, "dc01": 1}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer()
        tracer.begin("x", start=0.0)
        tracer.event("e", at=0.0)
        tracer.end()
        assert tracer.drain() == []
        assert not NULL_TRACER.enabled

    def test_span_ids_are_positional(self):
        def build():
            tracer = Tracer()
            tracer.enable("abc")
            tracer.begin_round(3)
            tracer.begin("crawl", start=1.0, treatment=5)
            tracer.begin("attempt", start=1.0)
            tracer.end(status="ok")
            tracer.end(outcome="ok")
            return tracer.drain()

        assert build() == build()

    def test_default_end_covers_children_and_events(self):
        tracer = Tracer()
        tracer.enable("abc")
        tracer.begin("crawl", start=0.0, treatment=0)
        tracer.event("late", at=4.0)
        tracer.end()
        (tree,) = tracer.drain()
        assert tree["end"] == 4.0

    def test_drain_with_open_span_raises(self):
        tracer = Tracer()
        tracer.enable("abc")
        tracer.begin("crawl", start=0.0, treatment=0)
        with pytest.raises(RuntimeError, match="open"):
            tracer.drain()

    def test_trace_id_is_a_pure_function_of_the_fingerprint(self):
        assert trace_id_for({"a": 1}) == trace_id_for({"a": 1})
        assert trace_id_for({"a": 1}) != trace_id_for({"a": 2})


# ---------------------------------------------------------------------------
# Trace determinism (the tentpole invariant)
# ---------------------------------------------------------------------------


class TestTraceDeterminism:
    @pytest.mark.parametrize("gateway", [False, True], ids=["direct", "gateway"])
    def test_trace_is_byte_identical_across_worker_counts(self, tmp_path, gateway):
        config = _config(route_via_gateway=gateway)
        baseline = _trace_bytes(config, tmp_path / "w1.trace", workers=1)
        for workers in (2, 4):
            shard = _trace_bytes(config, tmp_path / f"w{workers}.trace", workers)
            assert shard == baseline, f"workers={workers} gateway={gateway}"

    def test_rerun_reproduces_the_same_trace(self, tmp_path):
        first = _trace_bytes(_config(), tmp_path / "a.trace", workers=1)
        second = _trace_bytes(_config(), tmp_path / "b.trace", workers=2)
        assert first == second

    def test_trace_does_not_perturb_the_dataset(self, tmp_path):
        plain = Study(_config()).run()
        traced = Study(_config()).run(trace=str(tmp_path / "t.trace"))
        assert [r.to_dict() for r in traced] == [r.to_dict() for r in plain]

    def test_traced_resume_of_an_untraced_journal_is_refused(self, tmp_path):
        class Killed(Exception):
            pass

        def dying_sink(record):
            raise Killed

        for workers in (1, 2):
            journal = str(tmp_path / f"w{workers}.ckpt")
            with pytest.raises(Killed):
                Study(_config()).run(
                    workers=workers, sink=dying_sink, checkpoint=journal
                )
            earlier = tmp_path / f"w{workers}.trace"
            earlier.write_bytes(b"an earlier run's trace\n")
            with pytest.raises(CheckpointError, match="untraced"):
                Study(_config()).run(
                    workers=workers, checkpoint=journal, trace=str(earlier)
                )
            # Refused before the trace is opened: the file is untouched.
            assert earlier.read_bytes() == b"an earlier run's trace\n"

    def test_tracing_off_by_default(self, tmp_path):
        study = Study(_config())
        study.run()
        assert not study.tracer.enabled


def _unreadable_traces(tmp_path):
    """An untraced event log and a pre-one-log trace file, each mapped
    to the problem ``validate_trace`` reports for it."""
    untraced = tmp_path / "untraced.events.jsonl"
    log = EventLog(untraced, log_id="abc")
    log.emit({"id": "e0", "stream": "crawl", "ts": 0.0})
    log.close()
    old_format = tmp_path / "old.trace.jsonl"
    old_format.write_text(
        "".join(
            reframe_line(json.dumps(record)) + "\n"
            for record in (
                {"kind": "header", "version": 1, "trace_id": "abc", "meta": {}},
                {"kind": "span", "id": "r", "parent": "", "name": "study.run",
                 "start": 0.0, "end": 0.0, "attrs": {}, "events": []},
                {"kind": "summary", "trace_id": "abc", "rounds": 0, "spans": 1},
            )
        ),
        encoding="utf-8",
    )
    return {
        untraced: "written without --trace",
        old_format: "unknown wide-event record kind 'span'",
    }


class TestTraceFile:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "study.trace.jsonl"
        Study(_config(route_via_gateway=True)).run(trace=str(path))
        return path

    def test_validates_clean(self, trace_path):
        assert validate_trace(trace_path) == []

    def test_fsck_finds_the_trace_clean(self, trace_path):
        _, events, _ = read_events(trace_path)
        report = fsck_path(trace_path)
        assert report.exit_code == 0
        assert not report.truncated and report.corrupt_records == 0
        assert report.records == len(events) + 2  # plus header and summary

    def test_one_log_holds_crawl_events_and_span_trees(self, trace_path):
        header, events, summary = read_events(trace_path)
        study = Study(_config(route_via_gateway=True))
        rounds = study.round_count()
        assert summary["streams"] == {
            "crawl": rounds * len(study.treatments),
            "span": rounds + 1,  # one tree per round, then study.run
        }
        # Each round's tree, then its crawl cells; study.run closes the log.
        expected = []
        for ordinal in range(rounds):
            expected += [("span", ordinal)]
            expected += [("crawl", ordinal)] * len(study.treatments)
        assert [
            ("crawl", event["ordinal"])
            if event["stream"] == "crawl"
            else (event["stream"], event["attrs"]["ordinal"])
            for event in events[:-1]
        ] == expected
        root = events[-1]
        assert root["name"] == "study.run" and root["id"] == study_span_id(
            header["log_id"]
        )
        for tree in events:
            if tree["stream"] == "span":
                assert tree["ts"] == tree["start"]

    def test_check_reports_damage_without_raising(self, trace_path, tmp_path, capsys):
        from repro.cli import main

        lines = trace_path.read_text(encoding="utf-8").splitlines()
        first_tree = next(i for i, line in enumerate(lines) if '"stream":"span"' in line)

        def damaged(name, damage):
            tree = json.loads(unframe_line(lines[first_tree]))
            damage(tree)
            path = tmp_path / name
            edited = lines[:first_tree] + [reframe_line(json.dumps(tree))]
            path.write_text(
                "\n".join(edited + lines[first_tree + 1 :]) + "\n", encoding="utf-8"
            )
            return path

        cases = {
            damaged(
                "no-end.trace.jsonl", lambda tree: tree["children"][0].pop("end")
            ): "has no numeric start and end",
            damaged(
                "no-ordinal.trace.jsonl", lambda tree: tree["attrs"].pop("ordinal")
            ): "has no ordinal",
            **_unreadable_traces(tmp_path),
        }
        for path, expected in cases.items():
            problems = validate_trace(path)
            assert any(expected in problem for problem in problems), (path, problems)
            assert main(["trace", str(path), "--check"]) == 1
            err = capsys.readouterr().err
            assert "INVALID: " in err and expected in err

    def test_outputs_report_unreadable_logs_without_raising(self, tmp_path, capsys):
        # The profile and the three exports validate first too: an
        # untraced log is not an empty trace, and an unknown record
        # kind is an INVALID: line, not a traceback.
        from repro.cli import main

        out = tmp_path / "out"
        for path, expected in _unreadable_traces(tmp_path).items():
            for flags in ([], ["--chrome", str(out)], ["--folded", str(out)],
                          ["--speedscope", str(out)]):
                assert main(["trace", str(path), *flags]) == 1, flags
                captured = capsys.readouterr()
                assert "INVALID: " in captured.err and expected in captured.err
                assert captured.out == ""
                assert not out.exists()

    def test_header_meta_is_the_fingerprint(self, trace_path):
        header, _, _ = read_trace(trace_path)
        assert header["meta"] == Study(
            _config(route_via_gateway=True)
        ).checkpoint_fingerprint()

    def test_contains_every_layer(self, trace_path):
        _, spans, _ = read_trace(trace_path)
        names = {span["name"] for span in spans}
        assert {
            "study.run",
            "round",
            "crawl",
            "attempt",
            "gateway.queue",
            "gateway.service",
        } <= names
        events = {
            event["name"] for span in spans for event in span["events"]
        }
        assert "fault.injected" in events
        assert "net.dns" in events

    def test_round_count_matches_schedule(self, trace_path):
        _, spans, summary = read_trace(trace_path)
        rounds = [span for span in spans if span["name"] == "round"]
        assert len(rounds) == Study(_config()).round_count()
        (root,) = [span for span in spans if span["name"] == "study.run"]
        assert root["attrs"]["rounds"] == len(rounds)

    def test_validator_catches_tampering(self, trace_path, tmp_path):
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        trees = [i for i, line in enumerate(lines) if '"stream":"span"' in line]
        broken = tmp_path / "tampered.trace.jsonl"
        broken.write_text(
            "\n".join(lines[: trees[3]] + lines[trees[3] + 1 :]) + "\n",
            encoding="utf-8",
        )
        assert validate_trace(broken)

    def test_torn_tail_is_reported_not_raised(self, trace_path, tmp_path):
        data = trace_path.read_bytes()
        torn = tmp_path / "torn.trace.jsonl"
        torn.write_bytes(data + b'{"kind": "span", "name": "cra')
        header, spans, summary = read_trace(torn)  # must not raise
        assert summary is not None  # the durable prefix is complete
        problems = validate_trace(torn)
        assert any(
            "truncated: true" in p and str(len(data)) in p for p in problems
        )

    def test_mid_file_cut_returns_durable_prefix(self, trace_path, tmp_path):
        data = trace_path.read_bytes()
        cut = tmp_path / "cut.trace.jsonl"
        cut.write_bytes(data[: int(len(data) * 0.6)])
        header, spans, summary = read_trace(cut)
        assert header is not None
        assert spans  # everything before the torn byte survives
        assert summary is None
        assert any("truncated: true" in p for p in validate_trace(cut))

    def test_chrome_export(self, trace_path):
        doc = chrome_trace(trace_path)
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "crawl" for e in events)
        assert any(e["ph"] == "i" for e in events)
        schedule_rows = [
            e for e in events if e["ph"] == "M" and e["args"]["name"] == "schedule"
        ]
        assert len(schedule_rows) == 1
        json.dumps(doc)  # must be serializable as-is

    def test_profile(self, trace_path):
        profile = profile_trace(trace_path)
        assert len(profile.rounds) == Study(_config()).round_count()
        for round_profile in profile.rounds:
            assert round_profile.makespan_minutes >= 0
            assert all(v >= 0 for v in round_profile.attribution.values())
        rendered = profile.render(top=5)
        assert "critical-path attribution" in rendered
        assert "round makespan" in rendered
        assert "slowest rounds" in rendered


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_duplicate_registration_rejected(self):
        stats = CrawlStats()
        registry = MetricsRegistry()
        registry.register_counter("x_total", stats, "requests")
        with pytest.raises(ValueError, match="twice"):
            registry.register_counter("x_total", stats, "requests")

    def test_snapshot_reads_live_objects(self):
        stats = CrawlStats()
        registry = MetricsRegistry()
        registry.register_counter("x_total", stats, "requests")
        stats.requests = 9
        assert registry.snapshot()["metrics"]["x_total"]["value"] == 9

    def test_restore_is_strict(self):
        registry = MetricsRegistry()
        registry.register_counter("x_total", CrawlStats(), "requests")
        snapshot = registry.snapshot()
        snapshot["metrics"]["rogue"] = {"kind": "counter", "value": 1}
        with pytest.raises(ValueError, match="unregistered"):
            registry.restore(snapshot)
        with pytest.raises(ValueError, match="missing"):
            registry.restore({"version": 1, "metrics": {}})

    def test_merge_folds_another_snapshot(self):
        a, b = CrawlStats(requests=3), CrawlStats(requests=4)
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.register_counter("x_total", a, "requests")
        registry_b.register_counter("x_total", b, "requests")
        registry_a.merge(registry_b.snapshot())
        assert a.requests == 7

    def test_study_registry_snapshot_round_trips_through_json(self):
        study = Study(_config(route_via_gateway=True))
        study.run()
        registry = study.metrics_registry()
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["metrics"]["crawl_pages_total"]["value"] == study.stats.pages
        fresh = Study(_config(route_via_gateway=True))
        fresh.metrics_registry().restore(snapshot)
        assert fresh.stats == study.stats
        assert fresh.fault_stats == study.fault_stats
        assert fresh.gateway.stats == study.gateway.stats

    def test_ranker_cache_counters_are_opt_in(self):
        # Cache traffic depends on *how* a run executed (sharding,
        # resume), so the default registry must exclude it — the
        # snapshot is part of the kill/resume byte-identity contract.
        study = Study(_config())
        study.run()
        default = study.metrics_registry().snapshot()["metrics"]
        assert "ranker_cache_hits_total" not in default
        assert "ranker_cache_misses_total" not in default
        ranker = study.engine.ranker
        opted = study.metrics_registry(include_caches=True).snapshot()["metrics"]
        assert opted["ranker_cache_hits_total"]["value"] == ranker._hits
        assert opted["ranker_cache_misses_total"]["value"] == ranker._misses
        assert ranker._hits > 0

    def test_prometheus_rendering(self):
        stats = GatewayStats()
        stats.record_dispatch("dc00", depth=2)
        stats.queue_wait.observe(0.3)
        registry = MetricsRegistry()
        registry.register_counter(
            "gw_admitted_total", stats, "admitted", help="requests admitted"
        )
        registry.register_labeled(
            "gw_replica_requests_total", stats, "replica_requests", label="replica"
        )
        registry.register_histogram("gw_queue_wait_minutes", stats, "queue_wait")
        text = registry.render_prometheus()
        assert "# HELP repro_gw_admitted_total requests admitted" in text
        assert "repro_gw_admitted_total 1" in text
        assert 'repro_gw_replica_requests_total{replica="dc00"} 1' in text
        assert 'repro_gw_queue_wait_minutes_bucket{le="+Inf"} 1' in text
        assert "repro_gw_queue_wait_minutes_count 1" in text
        assert render_prometheus(registry.snapshot()) == text


class TestMetricsAcrossResume:
    def test_snapshot_identical_after_kill_and_resume(self, tmp_path):
        """`repro metrics` before a kill equals after checkpoint resume."""
        baseline = Study(_config())
        baseline.run()
        expected = baseline.metrics_registry().snapshot()

        from tests.test_checkpoint_resume import Killed, _killing_sink

        path = tmp_path / "obs.ckpt"
        sink, _ = _killing_sink(9)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        resumed = Study(_config())
        resumed.run(checkpoint=str(path))
        assert resumed.metrics_registry().snapshot() == expected

    def test_failures_by_kind_survives_parallel_resume(self, tmp_path):
        config = _config(fault_plan=FaultPlan.named("chaos"), max_retries=0)
        baseline = Study(config)
        baseline.run()
        assert baseline.stats.failures_by_kind  # chaos plan loses some

        from tests.test_checkpoint_resume import Killed, _killing_sink

        path = tmp_path / "par.ckpt"
        sink, _ = _killing_sink(11)
        with pytest.raises(Killed):
            Study(config).run(sink=sink, workers=2, checkpoint=str(path))
        resumed = Study(config)
        resumed.run(workers=2, checkpoint=str(path))
        assert resumed.stats.failures_by_kind == baseline.stats.failures_by_kind
        assert sum(resumed.stats.failures_by_kind.values()) == len(resumed.failures)
