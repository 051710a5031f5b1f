"""Tests for the benchmark's statistics, span accounting and output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from perfbench import child as child_module
from perfbench import harness, tracing, workloads
from perfbench import run as run_module
from perfbench.child import ZERO_LAYER_FACTS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentiles -------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = list(range(1, 1001))
    assert harness.percentile(samples, 50) == 500
    assert harness.percentile(samples, 99) == 990
    assert harness.percentile(samples[::-1], 90) == 900


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        harness.percentile(range(999), 99)
    assert harness.percentile(range(1000), 99) == 989
    with pytest.raises(ValueError):
        harness.percentile(range(19), 50)
    assert harness.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile(range(100), 100)


# -- self time ---------------------------------------------------------------


def _s(ns):
    return ns / 1e9


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0, 100, -1),
        ("child", 10, 40, 0),
        ("leaf", 15, 25, 1),
        ("child", 50, 60, 0),
    ]
    times = harness.self_times(spans)
    assert times["root"] == pytest.approx(_s(60))
    assert times["child"] == pytest.approx(_s(30))
    assert times["leaf"] == pytest.approx(_s(10))
    assert sum(times.values()) == pytest.approx(_s(100))


def test_self_time_of_recursive_spans_counts_each_instant_once():
    spans = [
        ("f", 0, 100, -1),
        ("f", 10, 90, 0),
        ("f", 20, 80, 1),
        ("g", 30, 40, 2),
    ]
    times = harness.self_times(spans)
    assert times["f"] == pytest.approx(_s(90))
    assert times["g"] == pytest.approx(_s(10))
    assert sum(times.values()) == pytest.approx(_s(100))


def test_window_profile_keeps_spans_that_start_inside():
    spans = [
        ("setup", 0, 50, -1),
        ("a", 100, 200, -1),
        ("b", 120, 150, 1),
        ("a", 250, 450, -1),
        ("c", 260, 270, 3),
    ]
    seconds, calls, unattributed = harness.window_profile(spans, (100, 400))
    assert "setup" not in seconds
    assert calls == {"a": 2, "b": 1, "c": 1}
    assert seconds["a"] == pytest.approx(_s(70 + 140))
    assert unattributed == pytest.approx(_s(50))
    assert sum(seconds.values()) + unattributed == pytest.approx(_s(300))


def test_window_profile_makes_orphans_roots():
    spans = [("outer", 0, 300, -1), ("inner", 150, 250, 0)]
    seconds, calls, unattributed = harness.window_profile(spans, (100, 300))
    assert calls == {"inner": 1}
    assert seconds["inner"] == pytest.approx(_s(100))
    assert unattributed == pytest.approx(_s(100))


def test_recorder_wraps_and_nests(tmp_path):
    recorder = tracing.SpanRecorder(str(tmp_path))

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder.wrap(Box, "outer", "outer")
    recorder.wrap(Box, "inner", "inner")
    recorder.op_id = 7
    assert Box().outer() == 2
    assert [span[0] for span in recorder.spans] == ["outer", "inner"]
    assert recorder.spans[1][3] == 0
    assert [span[4] for span in recorder.spans] == [7, 7]
    assert recorder.stack == []
    assert set(harness.self_times(recorder.spans)) == {"outer", "inner"}


# -- host speed --------------------------------------------------------------


def test_host_speeds_average_probes_and_leave_out_steal():
    ref = harness.PROBE_REFERENCE_NS
    probes = [(0, ref, 0, 0), (10, 2 * ref, 0, 50), (20, 4 * ref, 10, 100), (30, ref, 10, 100)]
    speeds = harness.host_speeds(probes, 0, 30)
    assert speeds["cpu"] == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert speeds["wall"] == pytest.approx(speeds["cpu"] * 0.9)
    assert harness.host_speeds(probes, 30, 40) == {"cpu": 1.0, "wall": 1.0}
    with pytest.raises(ValueError):
        harness.host_speeds(probes, 40, 50)


def test_steal_counters_parse_the_aggregate_cpu_line(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  10 1 5 100 3 2 1 7 0 0\ncpu0 5 0 2 50 1 1 0 3 0 0\n")
    fd = os.open(stat, os.O_RDONLY)
    try:
        assert harness._steal_busy(fd) == (7, 10 + 1 + 5 + 2 + 1 + 7)
    finally:
        os.close(fd)


def test_op_speeds_use_the_probes_around_each_op():
    ref = harness.PROBE_REFERENCE_NS
    half = harness.OP_SPEED_HALF_WIDTH_NS
    probes = [(0, ref, 0, 0), (10 * half, 2 * ref, 0, 0), (10 * half + 1, 2 * ref, 0, 0)]
    speeds = harness.op_speeds(probes, [(0, 1), (10 * half, 10 * half + 5)], 0.2)
    assert speeds == pytest.approx([0.8, 0.4])
    with pytest.raises(ValueError):
        harness.op_speeds(probes, [(5 * half, 5 * half + 1)], 0.0)


def test_speed_probe_samples_while_the_process_works():
    probe = harness.SpeedProbe().start()
    started = time.perf_counter_ns()
    while time.perf_counter_ns() - started < 0.3e9:
        sum(range(1000))
    ended = time.perf_counter_ns()
    probe.stop()
    assert len(probe.probes) >= 5
    speeds = harness.host_speeds(probe.probes, started, ended)
    assert 0 < speeds["wall"] <= speeds["cpu"]


def test_end_to_end_scales_times_by_host_speed():
    samples = [_sample({"ok": True}), _sample({"ok": True})]
    scaled = run_module.end_to_end("serve-zipf", samples)
    plain = run_module.end_to_end("serve-zipf", samples, scaled=False)
    assert plain["pages_per_s"] == pytest.approx(100.0)
    assert scaled["pages_per_s"] == pytest.approx(200.0)
    assert scaled["cpu_ms_per_page"] == pytest.approx(plain["cpu_ms_per_page"] / 2)
    assert scaled["op_p50_ms"] == pytest.approx(plain["op_p50_ms"] / 2)
    assert scaled["result_s"] == plain["result_s"]
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]


# -- CPU per page ------------------------------------------------------------


def test_cpu_per_page_counts_reaped_children():
    before = harness.cpu_reading()
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import time\nend = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass",
        ],
        check=True,
    )
    after = harness.cpu_reading()
    assert after[1] - before[1] >= 0.25
    cpu_s = harness.cpu_seconds(before, after)
    assert harness.cpu_ms_per_page(cpu_s, 10) >= 25.0


def test_cpu_per_page_arithmetic():
    assert harness.cpu_seconds((1.0, 2.0), (1.5, 3.0)) == pytest.approx(1.5)
    assert harness.cpu_ms_per_page(1.5, 3) == pytest.approx(500.0)
    with pytest.raises(ValueError):
        harness.cpu_ms_per_page(1.0, 0)


# -- output checks fail on tampered output -------------------------------------


@pytest.fixture(scope="module")
def small_crawl(tmp_path_factory):
    """A two-query checkpointed, evented crawl plus its dataset digest."""
    from repro.core.experiment import StudyConfig
    from repro.core.runner import Study
    from repro.parallel.bench import dataset_digest
    from repro.queries.corpus import build_corpus

    directory = tmp_path_factory.mktemp("crawl")
    config = StudyConfig.small(
        list(build_corpus())[:2], days=1, locations_per_granularity=2
    )
    checkpoint = str(directory / "crawl.ckpt")
    events = str(directory / "crawl.events.jsonl")
    dataset = Study(config).run(checkpoint=checkpoint, events=events)
    return dataset, dataset_digest(dataset), checkpoint, events


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def test_dataset_digest_check_fails_on_tampered_record(small_crawl):
    from repro.core.datastore import SerpDataset, SerpRecord
    from repro.parallel.bench import dataset_digest

    dataset, digest, _, _ = small_crawl
    records = [record.to_dict() for record in dataset]
    records[0]["urls"][0] += "x"
    tampered = SerpDataset()
    for payload in records:
        tampered.add(SerpRecord.from_dict(payload))
    assert dataset_digest(dataset) == digest
    assert dataset_digest(tampered) != digest


def test_figure_rows_digest_fails_on_tampered_row(small_crawl):
    rows = workloads._figure_rows(small_crawl[0])
    digest = workloads.sha256_json(rows)
    rows["fig2"][0]["pairs"] += 1
    assert workloads.sha256_json(rows) != digest


def test_journal_check_fails_on_corruption_and_torn_tail(small_crawl, tmp_path):
    _, _, checkpoint, _ = small_crawl
    assert workloads.log_is_clean(checkpoint)
    with open(checkpoint, "rb") as handle:
        data = handle.read()
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(data)
    _flip_byte(corrupt, len(data) // 2)
    assert not workloads.log_is_clean(str(corrupt))
    torn = tmp_path / "torn.ckpt"
    torn.write_bytes(data[:-5])
    assert not workloads.log_is_clean(str(torn))


def test_event_check_fails_on_tampered_log(small_crawl, tmp_path):
    from repro.obs.events import validate_events

    _, _, _, events = small_crawl
    assert validate_events(events) == []
    with open(events, "rb") as handle:
        data = handle.read()
    tampered = tmp_path / "tampered.events.jsonl"
    tampered.write_bytes(data)
    _flip_byte(tampered, len(data) // 2)
    assert validate_events(str(tampered)) != []


def test_store_digest_fails_on_tampered_bytes(tmp_path):
    store = tmp_path / "a.audit.jsonl"
    store.write_bytes(b'{"kind": "header"}\n{"kind": "cycle"}\n')
    digest = workloads.file_digest(str(store))
    _flip_byte(store, 5)
    assert workloads.file_digest(str(store)) != digest


def test_recoveries_check_fails_on_a_recovery():
    from repro.supervise.stats import SupervisorReport

    clean = SupervisorReport(workers=2)
    assert workloads.recoveries_ok([clean, clean])
    recovered = SupervisorReport(workers=2)
    recovered.stats.respawns = 1
    assert not workloads.recoveries_ok([clean, recovered])
    assert not workloads.recoveries_ok([None])


def test_partition_check_fails_on_lost_request():
    from repro.serve.stats import FleetStats

    stats = FleetStats(requests=10, served_fresh=7, served_stale=1, shed=1, failed=1)
    assert workloads.partition_ok(stats, 10)
    stats.served_fresh -= 1
    assert not workloads.partition_ok(stats, 10)
    assert not workloads.partition_ok(FleetStats(requests=9, served_fresh=9), 10)


def test_served_digest_fails_on_tampered_or_reordered_page():
    pages = ["<html>a</html>", "<html>b</html>"]
    digest = workloads.pages_digest(pages)
    assert workloads.pages_digest(iter(pages)) == digest
    assert workloads.pages_digest([pages[0], "<html>c</html>"]) != digest
    assert workloads.pages_digest(pages[::-1]) != digest


def _sample(checks):
    return {
        "pages": 100,
        "attempted": 100,
        "failed": 0,
        "page_s": 1.0,
        "cpu_s": 1.0,
        "result_s": 1.0,
        "setup_s": 1.0,
        "window_s": 1.0,
        "peak_rss_mb": 10.0,
        "ops_ms": [float(i) for i in range(1, 2001)],
        "ops_ref_ms": [i / 2.0 for i in range(1, 2001)],
        "speed": {"setup": 1.0, "pages": 0.5, "cpu": 0.5, "window": 1.0},
        "checks": checks,
    }


@pytest.mark.parametrize("digest_ok", [True, False])
def test_run_is_incorrect_when_an_iteration_fails_a_check(monkeypatch, digest_ok):
    samples = iter(
        [_sample({"dataset_digest": True}), _sample({"dataset_digest": digest_ok})]
        + [_sample({"dataset_digest": True})] * 20
    )
    monkeypatch.setattr(run_module, "spawn", lambda *a, **k: next(samples))
    args = run_module.argparse.Namespace(
        workload="serve-zipf", seed=3, seconds=0.0, trace=0
    )
    result = run_module.run(args, run_module.load_benchmark())
    assert result["correct"] is digest_ok
    assert result["metrics"]["pages_per_s"]["value"] == pytest.approx(200.0)


def test_expected_digest_mismatch_fails_the_check(tmp_path):
    args = run_module.argparse.Namespace(
        variant=3, workdir=str(tmp_path), spawn_ns=0
    )
    ctx = child_module.Context(args)
    ctx.probe.stop()
    ctx._expected = {"serve-zipf": {"3": {"served": "0" * 64}}}
    digest = workloads.pages_digest(["<html>a</html>"])
    assert (digest == ctx.expected("serve-zipf", "served")) is False
    ctx._expected = {"serve-zipf": {"3": {"served": digest}}}
    assert digest == ctx.expected("serve-zipf", "served")


# -- the declared metrics are the measured ones --------------------------------


def _layer_metrics(recorder, window):
    facts = dict(ZERO_LAYER_FACTS)
    facts.update(
        {
            "parallel.parent_cpu_s": 0.0,
            "parallel.worker_cpu_s": 0.0,
            "parallel.parent_idle_s": 0.0,
        }
    )
    return tracing.layer_metrics(
        recorder,
        window=window,
        gc_pauses=tracing.GcPauses(),
        pages=1,
        memo=[0, 0],
        layer_facts=facts,
    )


def test_layer_metrics_cover_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    measured, _ = _layer_metrics(tracing.SpanRecorder(str(tmp_path)), (0, 1))
    assert set(measured) | {"trace.overhead_pct"} == declared
    assert set(tracing.SELF_TIME_METRICS) <= set(measured)


def _accounting(recorder, window):
    metrics, wall = _layer_metrics(recorder, window)
    attributed = sum(metrics[name] for name in tracing.SELF_TIME_METRICS)
    return child_module.accounting_closes(
        attributed, metrics["trace.unattributed_s"], wall
    )


def test_accounting_closes_over_reported_self_times(tmp_path):
    recorder = tracing.SpanRecorder(str(tmp_path))
    recorder.spans = [
        ["batch.prewarm", 0, 400, -1, 0],
        ["engine.handle", 500, 900, -1, 1],
        ["engine.rank", 600, 800, 1, 1],
        ["parser", 900, 1000, -1, 1],
    ]
    assert _accounting(recorder, (500, 1000))


def test_accounting_fails_on_a_span_no_metric_reports(tmp_path):
    recorder = tracing.SpanRecorder(str(tmp_path))
    recorder.spans = [
        ["engine.handle", 0, 400, -1, 1],
        ["unmapped.layer", 400, 1000, -1, 1],
    ]
    assert not _accounting(recorder, (0, 1000))
