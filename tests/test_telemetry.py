"""The unified telemetry plane: wide events, rollups, SLOs, flamegraphs.

The tentpole invariants under test:

- the wide-event log written with ``run(events=path)`` is
  **byte-identical for any worker count** — gateway on or off, faults
  active — and across a kill-and-resume, because crawl events are
  synthesized parent-side from canonical round outcomes;
- the burn-rate SLO engine *observes* the fleet's brownout controller
  (via ``counted`` marks on serve events) and reproduces its window
  accounting exactly — integer for integer — rather than re-deriving
  it;
- the rollup engine groups events into deterministic cells with
  exemplar span links, and the flamegraph exports (folded stacks,
  speedscope) conserve the trace's virtual time.
"""

import json

import pytest

from repro.core.experiment import StudyConfig
from repro.core.runner import Study
from repro.engine.datacenters import DatacenterCluster
from repro.faults.plan import FaultPlan
from repro.obs.events import (
    NULL_RECORDER,
    EventLog,
    EventRecorder,
    read_events,
    validate_events,
)
from repro.obs.exporters import (
    chrome_trace,
    read_trace,
    speedscope_trace,
    validate_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import folded_stacks
from repro.obs.slo import (
    DEFAULT_SLOS,
    evaluate_slos,
    is_bad_serve_outcome,
    verify_brownout_accounting,
)
from repro.obs.telemetry import filter_events, format_kv_rows, rollup
from repro.obs.trace import Tracer, trace_id_for
from repro.queries.corpus import build_corpus
from repro.serve import (
    BrownoutPolicy,
    LazyClientPopulation,
    LoadGenerator,
    ServeChaos,
    build_fleet,
)
from repro.serve.loadgen import run_load
from repro.web.world import WebWorld

FLAKY = FaultPlan.named("flaky-network", seed=7)


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


def _config(**overrides):
    config = StudyConfig.small(
        _queries(), days=2, locations_per_granularity=2
    ).with_overrides(machine_count=5, fault_plan=FLAKY, max_retries=2)
    return config.with_overrides(**overrides) if overrides else config


def _event_bytes(config, path, workers: int) -> bytes:
    Study(config).run(workers=workers, events=str(path))
    return path.read_bytes()


def _serve_harness(*, brownout=None, plan_seed=11, replication=1, seed=21):
    world = WebWorld(21)
    cluster = DatacenterCluster()
    corpus = build_corpus()
    population = LazyClientPopulation(seed, 100_000, cluster)
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=3,
        corpus=corpus,
        seed=seed,
        cache_size=512,
        replication=replication,
        plan=FaultPlan.named("serve-chaos", seed=plan_seed),
        brownout=brownout,
    )
    loadgen = LoadGenerator(list(corpus), population, seed, rate_per_minute=40.0)
    return ServeChaos(fleet, loadgen)


# ---------------------------------------------------------------------------
# Crawl wide events: the byte-identity tentpole
# ---------------------------------------------------------------------------


class TestCrawlEventDeterminism:
    @pytest.mark.parametrize("gateway", [False, True], ids=["direct", "gateway"])
    def test_events_byte_identical_across_worker_counts(self, tmp_path, gateway):
        config = _config(route_via_gateway=gateway)
        baseline = _event_bytes(config, tmp_path / "w1.events", workers=1)
        for workers in (2, 4):
            shard = _event_bytes(config, tmp_path / f"w{workers}.events", workers)
            assert shard == baseline, f"workers={workers} gateway={gateway}"

    def test_events_byte_identical_after_kill_and_resume(self, tmp_path):
        class Killed(Exception):
            pass

        def killing_sink(after):
            seen = []

            def sink(record):
                seen.append(record)
                if len(seen) >= after:
                    raise Killed(f"killed after {after}")

            return sink

        uninterrupted = _event_bytes(_config(), tmp_path / "base.events", 1)
        events_path = tmp_path / "resumed.events"
        with pytest.raises(Killed):
            Study(_config()).run(
                sink=killing_sink(17),
                checkpoint=str(tmp_path / "crawl.ckpt"),
                events=str(events_path),
            )
        Study(_config()).run(
            checkpoint=str(tmp_path / "crawl.ckpt"), events=str(events_path)
        )
        assert events_path.read_bytes() == uninterrupted

    def test_untraced_resume_of_a_traced_journal_writes_no_spans(self, tmp_path):
        class Killed(Exception):
            pass

        def dying_sink(record):
            raise Killed

        uninterrupted = _event_bytes(_config(), tmp_path / "base.events", 1)
        checkpoint = str(tmp_path / "crawl.ckpt")
        with pytest.raises(Killed):
            Study(_config()).run(
                sink=dying_sink,
                checkpoint=checkpoint,
                trace=str(tmp_path / "killed.trace"),
            )
        events_path = tmp_path / "resumed.events"
        Study(_config()).run(checkpoint=checkpoint, events=str(events_path))
        assert events_path.read_bytes() == uninterrupted

    def test_events_do_not_perturb_the_dataset(self, tmp_path):
        plain = Study(_config()).run()
        logged = Study(_config()).run(events=str(tmp_path / "e.events"))
        assert [r.to_dict() for r in logged] == [r.to_dict() for r in plain]

    def test_log_is_structurally_valid_and_carries_every_dimension(
        self, tmp_path
    ):
        path = tmp_path / "crawl.events"
        study = Study(_config())
        dataset = study.run(events=str(path))
        assert validate_events(str(path)) == []
        header, events, summary = read_events(str(path))
        assert header["kind"] == "header"
        assert summary["events"] == len(events)
        # One event per scheduled crawl cell: rounds x treatments.
        assert len(events) == study.round_count() * len(study.treatments)
        ok = [e for e in events if e["outcome"] == "ok"]
        assert len(ok) == len(dataset)
        for dim in (
            "id",
            "stream",
            "ts",
            "ordinal",
            "treatment",
            "granularity",
            "location",
            "query",
            "day",
            "machine",
            "outcome",
            "span",
        ):
            assert all(dim in e for e in events), dim
        # Exemplar linkage: the span id matches the trace's crawl span
        # for the same (round, treatment) position.
        trace_path = tmp_path / "crawl.trace"
        Study(_config()).run(trace=str(trace_path))
        _, spans, _ = read_trace(str(trace_path))
        round_ordinals = {
            s["id"]: s["attrs"]["ordinal"]
            for s in spans
            if s["name"] == "round"
        }
        crawl_spans = {
            (round_ordinals[s["parent"]], s["attrs"]["treatment"]): s["id"]
            for s in spans
            if s["name"] == "crawl"
        }
        for event in events[:24]:
            assert crawl_spans[(event["ordinal"], event["treatment"])] == (
                event["span"]
            )


class TestEventLogUnit:
    def test_null_recorder_is_disabled_and_inert(self):
        assert not NULL_RECORDER.enabled
        NULL_RECORDER.emit("serve", key=("x",), outcome="ok")  # no-op

    def test_recorder_ids_are_deterministic_and_unique(self, tmp_path):
        def emit_three(path):
            log = EventLog(str(path), log_id="abc", meta={})
            recorder = EventRecorder()
            recorder.attach(log)
            for nonce in ("n1", "n2", "n3"):
                recorder.emit("serve", key=(nonce,), outcome="ok")
            recorder.detach()
            log.close()
            return path.read_bytes()

        first = emit_three(tmp_path / "a.events")
        second = emit_three(tmp_path / "b.events")
        assert first == second
        _, events, _ = read_events(str(tmp_path / "a.events"))
        assert len({e["id"] for e in events}) == 3

    def test_validate_events_catches_truncation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), log_id="abc", meta={})
        recorder = EventRecorder()
        recorder.attach(log)
        recorder.emit("serve", key=("n",), ts=0.0, outcome="ok")
        log.close()
        assert validate_events(str(path)) == []
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary
        assert validate_events(str(path)) != []


# ---------------------------------------------------------------------------
# Serve wide events
# ---------------------------------------------------------------------------


class TestServeEvents:
    @pytest.fixture(scope="class")
    def serve_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "serve.events.jsonl"
        report = _serve_harness().run(300, events=str(path))
        return report, path

    def test_one_event_per_request_matching_the_ledger(self, serve_log):
        report, path = serve_log
        assert validate_events(str(path)) == []
        _, events, _ = read_events(str(path))
        serve = [e for e in events if e["stream"] == "serve"]
        assert len(serve) == report.requests
        by_outcome = rollup(serve, ["outcome"])
        counts = {cell.key[0]: cell.count for cell in by_outcome.cells}
        assert counts.get("served_fresh", 0) == report.served_fresh
        assert counts.get("served_stale", 0) == report.served_stale
        assert counts.get("shed", 0) == report.shed
        assert counts.get("failed", 0) == report.failed

    def test_control_stream_records_every_injected_fault(self, serve_log):
        report, path = serve_log
        _, events, _ = read_events(str(path))
        controls = [e for e in events if e["stream"] == "serve.control"]
        injected = [
            e for e in controls if e["control"].startswith("fault.")
        ]
        assert len(injected) == sum(report.faults_injected.values())

    def test_identical_configs_produce_identical_logs(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.events.jsonl"
            _serve_harness().run(120, events=str(path))
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_events_carry_rung_cache_and_latency(self, serve_log):
        _, path = serve_log
        _, events, _ = read_events(str(path))
        serve = [e for e in events if e["stream"] == "serve"]
        rungs = {e["rung"] for e in serve}
        assert "primary" in rungs
        assert all(e["cache"] in ("hit", "bypass", "stale", "miss") for e in serve)
        assert all(e["latency"] >= 0.0 for e in serve)
        assert all(isinstance(e["counted"], bool) for e in serve)


# ---------------------------------------------------------------------------
# Burn-rate SLO engine
# ---------------------------------------------------------------------------


def _synthetic_serve(count, bad_indices, *, start=0.0, step=0.1):
    events = []
    for index in range(count):
        events.append(
            {
                "stream": "serve",
                "ts": start + index * step,
                "outcome": "shed" if index in bad_indices else "served_fresh",
                "latency": 0.01,
            }
        )
    return events


class TestSLOEngine:
    def test_bad_outcome_classifier(self):
        assert not is_bad_serve_outcome("served_fresh")
        for outcome in ("served_stale", "shed", "failed"):
            assert is_bad_serve_outcome(outcome)

    def test_clean_log_meets_every_slo_with_empty_ledger(self):
        report = evaluate_slos(_synthetic_serve(200, set()))
        assert all(result.met for result in report.results)
        assert report.ledger == []
        assert report.violations == []

    def test_bad_burst_fires_and_resolves_deterministically(self):
        # A dense burst of bad outcomes inside both windows trips the
        # 14.4x fast / 6x slow burn thresholds; the later clean stretch
        # lets the fast window drain and the alert resolve.
        events = _synthetic_serve(800, set(range(100, 160)))
        report = evaluate_slos(events)
        availability = next(
            r for r in report.results if r.slo.name == "serve-availability"
        )
        states = [entry["state"] for entry in availability.alerts]
        assert states == ["firing", "resolved"]
        assert not availability.firing
        # Identical input, identical ledger — entry for entry.
        assert evaluate_slos(events).ledger == report.ledger

    def test_still_firing_at_end_of_log_is_a_violation(self):
        events = _synthetic_serve(300, set(range(200, 300)))
        report = evaluate_slos(events)
        assert any("still firing" in problem for problem in report.violations)

    def test_latency_slo_uses_threshold_not_outcome(self):
        events = _synthetic_serve(100, set())
        for event in events[:20]:
            event["latency"] = 5.0  # way past the 1-minute threshold
        report = evaluate_slos(events)
        latency = next(
            r for r in report.results if r.slo.name == "serve-latency"
        )
        assert latency.bad == 20
        assert not latency.met


class TestBrownoutAccounting:
    """The SLO engine must reproduce the fleet controller's window
    arithmetic exactly — same samples, same prune points, same
    integers — never a parallel reimplementation that drifts."""

    @pytest.fixture(scope="class")
    def brownout_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("brownout") / "events.jsonl"
        policy = BrownoutPolicy(
            window_minutes=2.0, max_bad_fraction=0.1, min_window_requests=10
        )
        report = _serve_harness(brownout=policy).run(300, events=str(path))
        _, events, _ = read_events(str(path))
        return report, events

    def test_controller_transitions_reach_the_log(self, brownout_log):
        report, events = brownout_log
        controls = [
            e["control"]
            for e in events
            if e["stream"] == "serve.control"
            and e["control"].startswith("brownout.")
        ]
        assert controls.count("brownout.enter") == report.brownout_entries
        assert report.brownout_entries >= 2
        assert "brownout.exit" in controls

    def test_replay_reproduces_the_window_integers_exactly(self, brownout_log):
        _, events = brownout_log
        assert verify_brownout_accounting(events) == []

    def test_tampered_window_count_is_detected(self, brownout_log):
        _, events = brownout_log
        tampered = [dict(e) for e in events]
        for event in tampered:
            if event["stream"] == "serve.control" and event["control"].startswith(
                "brownout."
            ):
                event["window_bad"] += 1
                break
        assert verify_brownout_accounting(tampered) != []

    def test_brownout_transitions_join_the_alert_ledger(self, brownout_log):
        report, events = brownout_log
        slo_report = evaluate_slos(events)
        assert slo_report.brownout_mismatches == []
        brownouts = [
            entry
            for entry in slo_report.ledger
            if entry["kind"] == "brownout"
        ]
        firing = [e for e in brownouts if e["state"] == "firing"]
        assert len(firing) == report.brownout_entries
        ats = [entry["at"] for entry in slo_report.ledger]
        assert ats == sorted(ats)


class TestAuditEventsInLedger:
    def test_audit_drift_alerts_become_ledger_entries(self):
        events = [
            {
                "stream": "audit",
                "ts": 3.0,
                "audit": "weather",
                "cycle": 3,
                "outcome": "ok",
                "alerts": 2,
                "alert_series": ["jaccard", "kendall"],
            }
        ]
        report = evaluate_slos(events)
        drift = [e for e in report.ledger if e["kind"] == "audit-drift"]
        assert [entry["series"] for entry in drift] == ["jaccard", "kendall"]
        assert all(entry["slo"] == "audit:weather" for entry in drift)


# ---------------------------------------------------------------------------
# Rollups
# ---------------------------------------------------------------------------


class TestRollup:
    EVENTS = [
        {"stream": "serve", "outcome": "ok", "shard": "a", "latency": 1.0,
         "span": "s1", "id": "e1"},
        {"stream": "serve", "outcome": "ok", "shard": "b", "latency": 3.0,
         "id": "e2"},
        {"stream": "serve", "outcome": "shed", "shard": "a", "id": "e3"},
        {"stream": "crawl", "outcome": "ok", "id": "e4"},
    ]

    def test_groups_and_counts(self):
        roll = rollup(self.EVENTS, ["outcome"])
        assert {cell.key: cell.count for cell in roll.cells} == {
            ("ok",): 3,
            ("shed",): 1,
        }
        assert roll.total_events == 4

    def test_missing_dimension_groups_under_dash(self):
        roll = rollup(self.EVENTS, ["shard"])
        assert {cell.key: cell.count for cell in roll.cells} == {
            ("a",): 2,
            ("b",): 1,
            ("-",): 1,
        }

    def test_value_aggregation(self):
        roll = rollup(self.EVENTS[:2], ["outcome"], value="latency")
        (cell,) = roll.cells
        assert cell.value_sum == 4.0
        assert cell.value_mean == 2.0
        assert cell.value_min == 1.0
        assert cell.value_max == 3.0
        assert cell.histogram.count == 2

    def test_exemplars_prefer_span_links(self):
        roll = rollup(self.EVENTS, ["outcome"])
        ok_cell = next(cell for cell in roll.cells if cell.key == ("ok",))
        assert ok_cell.exemplars[0]["span"] == "s1"
        assert "[s1]" in roll.render()

    def test_filter_events_compares_as_strings(self):
        assert len(filter_events(self.EVENTS, stream="serve")) == 3
        assert (
            len(filter_events(self.EVENTS, where={"outcome": "shed"})) == 1
        )
        assert filter_events(self.EVENTS, where={"outcome": "nope"}) == []

    def test_rollup_requires_dimensions(self):
        with pytest.raises(ValueError):
            rollup(self.EVENTS, [])

    def test_format_kv_rows_is_the_shared_gutter(self):
        assert format_kv_rows([("label", "value")]) == ["  label             value"]


# ---------------------------------------------------------------------------
# Prometheus conformance (satellite)
# ---------------------------------------------------------------------------


class _Holder:
    pass


class TestPrometheusConformance:
    @pytest.fixture()
    def exposition(self):
        from repro.obs.metrics import Histogram

        holder = _Holder()
        holder.count = 7
        holder.depth = 3
        holder.by_kind = {'sh"ard\\a\n': 2, "shard-b": 5}
        histogram = Histogram()
        for value in (0.2, 1.5, 40.0):
            histogram.observe(value)
        holder.wait = histogram
        registry = MetricsRegistry()
        registry.register_counter(
            "requests_total", holder, "count", help='all "offered"\nrequests\\'
        )
        registry.register_gauge("queue_depth", holder, "depth")
        registry.register_labeled(
            "by_kind", holder, "by_kind", label="kind", help="per kind"
        )
        registry.register_histogram("wait_minutes", holder, "wait")
        return registry.render_prometheus()

    def test_every_sample_family_is_typed(self, exposition):
        typed = set()
        for line in exposition.splitlines():
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
        for line in exposition.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{")[0].split()[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
            assert base in typed, line

    def test_max_sidecar_is_its_own_gauge_family(self, exposition):
        assert "# TYPE repro_wait_minutes histogram" in exposition
        assert "# TYPE repro_wait_minutes_max gauge" in exposition
        lines = exposition.splitlines()
        max_type = lines.index("# TYPE repro_wait_minutes_max gauge")
        assert lines[max_type + 1].startswith("repro_wait_minutes_max ")

    def test_buckets_are_cumulative_and_end_at_inf(self, exposition):
        buckets = []
        for line in exposition.splitlines():
            if line.startswith("repro_wait_minutes_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets.append((le, float(line.split()[-1])))
        assert buckets[-1][0] == "+Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        count_line = next(
            line
            for line in exposition.splitlines()
            if line.startswith("repro_wait_minutes_count")
        )
        assert float(count_line.split()[-1]) == buckets[-1][1] == 3.0

    def test_label_and_help_escaping(self, exposition):
        assert 'kind="sh\\"ard\\\\a\\n"' in exposition
        assert 'all \\"offered\\"' not in exposition  # quotes stay raw in HELP
        assert "all \"offered\"\\nrequests\\\\" in exposition
        # The exposition must stay single-line-per-sample.
        for line in exposition.splitlines():
            assert "\n" not in line


# ---------------------------------------------------------------------------
# Fleet spans -> Chrome trace (satellite)
# ---------------------------------------------------------------------------


class TestFleetChromeTrace:
    @pytest.fixture(scope="class")
    def fleet_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fleettrace") / "fleet.trace.jsonl"
        harness = _serve_harness()
        meta = {"bench": "fleet", "seed": 21}
        trace_id = trace_id_for(meta)
        tracer = Tracer()
        tracer.enable(trace_id)
        harness.fleet.tracer = tracer
        run_load(harness.fleet, harness.loadgen, 60)
        log = EventLog(str(path), log_id=trace_id, meta=meta)
        for tree in tracer.drain():
            log.emit_span(tree)
        log.close()
        return path

    def test_trace_validates_and_covers_every_request(self, fleet_trace):
        assert validate_trace(str(fleet_trace)) == []
        _, spans, _ = read_trace(str(fleet_trace))
        requests = [s for s in spans if s["name"] == "fleet.request"]
        assert len(requests) == 60
        assert all(s["end"] >= s["start"] for s in spans)

    def test_chrome_export_nests_fleet_spans(self, fleet_trace):
        exported = chrome_trace(str(fleet_trace))
        events = exported["traceEvents"]
        fleet_events = [
            e for e in events if e.get("name") == "fleet.request"
        ]
        assert len(fleet_events) == 60
        # Every instant event (fleet.reroute, fleet.fault, ...) lands
        # inside the overall trace bounds.
        complete = [e for e in events if e.get("ph") == "X"]
        lo = min(e["ts"] for e in complete)
        hi = max(e["ts"] + e["dur"] for e in complete)
        for event in events:
            if event.get("ph") == "i":
                assert lo <= event["ts"] <= hi


# ---------------------------------------------------------------------------
# Flamegraph exports
# ---------------------------------------------------------------------------


class TestFlamegraphExports:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("flame") / "crawl.trace.jsonl"
        Study(_config()).run(trace=str(path))
        return path

    def test_folded_stacks_conserve_virtual_time(self, trace_path):
        lines = folded_stacks(str(trace_path))
        assert lines == sorted(lines)
        weights = {}
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack
            weights[stack] = int(weight)
        assert all(weight > 0 for weight in weights.values())
        # Self times are bounded by the trace's virtual time: at least
        # the root spans' total (overlapping siblings clamp a parent's
        # self time at zero but never create negative weight), at most
        # the sum of every span's own duration.
        _, spans, _ = read_trace(str(trace_path))
        by_id = {s["id"] for s in spans}
        micros = 60_000_000
        roots = sum(
            s["end"] - s["start"] for s in spans if s["parent"] not in by_id
        )
        everything = sum(s["end"] - s["start"] for s in spans)
        total = sum(weights.values())
        assert roots * micros - len(spans) <= total <= everything * micros + len(spans)

    def test_folded_stacks_are_deterministic(self, trace_path, tmp_path):
        other = tmp_path / "again.trace.jsonl"
        Study(_config()).run(trace=str(other))
        assert folded_stacks(str(trace_path)) == folded_stacks(str(other))

    def test_speedscope_profiles_are_balanced_and_bounded(self, trace_path):
        doc = speedscope_trace(str(trace_path))
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        frames = doc["shared"]["frames"]
        assert doc["profiles"], "at least the schedule row"
        names = [p["name"] for p in doc["profiles"]]
        assert names[0] == "schedule"
        for profile in doc["profiles"]:
            assert profile["unit"] == "microseconds"
            depth = 0
            last = profile["startValue"]
            for event in profile["events"]:
                assert profile["startValue"] <= event["at"] <= profile["endValue"]
                assert event["at"] >= last
                last = event["at"]
                assert 0 <= event["frame"] < len(frames)
                depth += 1 if event["type"] == "O" else -1
                assert depth >= 0
            assert depth == 0, "every opened frame closes"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestTelemetryCLI:
    @pytest.fixture(scope="class")
    def serve_events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "serve.events.jsonl"
        _serve_harness().run(200, events=str(path))
        return path

    def test_summary_validates_the_log(self, serve_events, capsys):
        from repro.cli import main

        assert main(["telemetry", str(serve_events)]) == 0
        out = capsys.readouterr().out
        assert "ok (" in out
        assert "stream serve" in out

    def test_rollup_subcommand(self, serve_events, capsys):
        from repro.cli import main

        assert main(
            [
                "telemetry",
                str(serve_events),
                "rollup",
                "--stream",
                "serve",
                "--by",
                "rung,cache",
                "--value",
                "latency",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "rollup by (rung, cache)" in out
        assert "primary" in out

    def test_query_subcommand_emits_json_lines(self, serve_events, capsys):
        from repro.cli import main

        assert main(
            [
                "telemetry",
                str(serve_events),
                "query",
                "--stream",
                "serve",
                "--where",
                "outcome=served_fresh",
                "--limit",
                "3",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(
            json.loads(line)["outcome"] == "served_fresh" for line in lines
        )

    def test_slo_subcommand_and_html_report(
        self, serve_events, tmp_path, capsys
    ):
        from repro.cli import main

        ledger = tmp_path / "ledger.json"
        html = tmp_path / "report.html"
        code = main(
            [
                "telemetry",
                str(serve_events),
                "slo",
                "--ledger",
                str(ledger),
                "--html",
                str(html),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slo report" in out
        assert "brownout replay" in out and "exact" in out
        assert json.loads(ledger.read_text()) is not None
        assert "<html" in html.read_text()

    def test_slo_check_gates_on_violations(self, serve_events):
        from repro.cli import main

        # serve-chaos sheds >1% of requests, so availability is violated.
        assert main(["telemetry", str(serve_events), "slo", "--check"]) == 1

    def test_trace_flamegraph_exports(self, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "t.trace.jsonl"
        Study(_config()).run(trace=str(trace_path))
        folded = tmp_path / "t.folded"
        speedscope = tmp_path / "t.speedscope.json"
        assert main(
            [
                "trace",
                str(trace_path),
                "--folded",
                str(folded),
                "--speedscope",
                str(speedscope),
            ]
        ) == 0
        assert folded.read_text().strip()
        assert json.loads(speedscope.read_text())["profiles"]

    def test_metrics_out_writes_the_rendering(self, tmp_path):
        from repro.cli import main

        study = Study(_config())
        study.run()
        snapshot_path = tmp_path / "metrics.json"
        snapshot_path.write_text(
            json.dumps(study.metrics_registry().snapshot())
        )
        out = tmp_path / "metrics.prom"
        assert main(
            ["metrics", str(snapshot_path), "--format", "prom", "--out", str(out)]
        ) == 0
        assert "# TYPE" in out.read_text()
