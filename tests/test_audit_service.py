"""The continuous audit service: store durability, drift, determinism, HTTP.

The acceptance bar from the issue: a registered audit that survives a
supervised worker kill *and* a daemon kill/resume (between cycles and
mid-cycle) must produce a byte-identical audit store and alert ledger
versus an uninterrupted run, and the same must hold for workers=1 vs 2.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.audit import (
    AlertRecord,
    AuditAPIServer,
    AuditScheduler,
    AuditService,
    AuditSpec,
    AuditStore,
    AuditStoreError,
    CusumDetector,
    DriftConfig,
    DriftMonitor,
    build_smoke_service,
    handle_path,
    sliding_mann_whitney,
)
from repro.core.experiment import StudyConfig
from repro.queries.corpus import build_corpus
from repro.supervise import KillSpec

from .conftest import TEST_SEED


def _smoke_config(seed=TEST_SEED):
    return StudyConfig.small(
        list(build_corpus())[:4], seed=seed, days=1, locations_per_granularity=2
    )


def _spec(name="aud", **overrides):
    kwargs = dict(
        config=_smoke_config(), drift=DriftConfig(baseline_cycles=1, mw_window=1)
    )
    kwargs.update(overrides)
    return AuditSpec(name=name, **kwargs)


def _run_cycles(tmp_path, label, spec, cycles, **run_kwargs):
    scheduler = AuditScheduler(str(tmp_path / label))
    audit = scheduler.register(spec)
    for _ in range(cycles):
        scheduler.run_cycle(spec.name, **run_kwargs)
    store_bytes = (tmp_path / label / f"{spec.name}.audit.jsonl").read_bytes()
    ledger = audit.store.alert_ledger_bytes()
    scheduler.close()
    return store_bytes, ledger


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Three uninterrupted cycles: the reference store and alert ledger."""
    tmp_path = tmp_path_factory.mktemp("audit-baseline")
    store_bytes, ledger = _run_cycles(tmp_path, "ref", _spec(), 3)
    assert ledger, "baseline must trip alerts or the ledger checks are vacuous"
    return store_bytes, ledger


class TestAuditStore:
    FP = {"version": 1, "who": "test"}

    def _result(self, ordinal):
        return {"cycle": ordinal, "pages": 3, "cells": {}}

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        store.append_cycle(self._result(0), [])
        store.append_cycle(self._result(1), [{"series": "x"}])
        store.close()
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        assert [c["ordinal"] for c in store.cycles] == [0, 1]
        assert store.alerts() == [{"series": "x"}]
        store.close()

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        store.append_cycle(self._result(0), [])
        store.close()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "cycle", "ordinal": 1, "res')  # no newline
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        assert len(store.cycles) == 1
        store.append_cycle(self._result(1), [])
        store.close()
        header, cycles = AuditStore.read(path)
        assert [c["ordinal"] for c in cycles] == [0, 1]

    def test_garbage_line_marks_durable_prefix(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        store.append_cycle(self._result(0), [])
        store.close()
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        assert len(store.cycles) == 1
        store.close()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        AuditStore.open(path, audit="a", fingerprint=self.FP).close()
        with pytest.raises(AuditStoreError, match="different audit"):
            AuditStore.open(path, audit="a", fingerprint={"version": 2})

    def test_audit_name_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        AuditStore.open(path, audit="a", fingerprint=self.FP).close()
        with pytest.raises(AuditStoreError, match="belongs to audit"):
            AuditStore.open(path, audit="b", fingerprint=self.FP)

    def test_out_of_order_cycle_refused(self, tmp_path):
        path = str(tmp_path / "a.audit.jsonl")
        store = AuditStore.open(path, audit="a", fingerprint=self.FP)
        with pytest.raises(AuditStoreError, match="out of order"):
            store.append_cycle(self._result(5), [])
        store.close()

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "a.audit.jsonl"
        path.write_text('{"kind": "cycle", "ordinal": 0}\n')
        with pytest.raises(AuditStoreError, match="header"):
            AuditStore.read(str(path))


class TestDrift:
    def test_no_alarm_during_baseline(self):
        detector = CusumDetector(DriftConfig(baseline_cycles=3))
        assert [detector.observe(v) for v in (1.0, 1.1, 0.9)] == [None] * 3
        assert detector.baseline_mean == pytest.approx(1.0)

    def test_upward_shift_fires_high(self):
        detector = CusumDetector(DriftConfig(baseline_cycles=2, threshold=2.0))
        for value in (1.0, 1.0):
            detector.observe(value)
        fired = None
        for _ in range(10):
            fired = detector.observe(5.0)
            if fired:
                break
        assert fired is not None and fired[0] == "drift-high"
        assert detector.s_high == 0.0  # reset after alarm

    def test_downward_shift_fires_low(self):
        detector = CusumDetector(
            DriftConfig(baseline_cycles=2, threshold=2.0, min_std=0.5)
        )
        detector.observe(10.0)
        detector.observe(10.0)
        fired = None
        for _ in range(10):
            fired = detector.observe(2.0)
            if fired:
                break
        assert fired is not None and fired[0] == "drift-low"

    def test_flat_baseline_uses_min_std_floor(self):
        detector = CusumDetector(DriftConfig(baseline_cycles=2))
        detector.observe(1.0)
        detector.observe(1.0)
        assert detector.baseline_std == DriftConfig().min_std

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(baseline_cycles=0)
        with pytest.raises(ValueError):
            DriftConfig(threshold=0.0)
        with pytest.raises(ValueError):
            DriftConfig(slack=-1.0)

    def test_monitor_sorts_series_and_stamps_records(self):
        monitor = DriftMonitor("aud", DriftConfig(baseline_cycles=1, threshold=1.0))
        monitor.observe_cycle(0, {"b": 0.0, "a": 0.0})
        alerts = monitor.observe_cycle(1, {"b": 100.0, "a": 100.0})
        assert [a.series for a in alerts] == ["a", "b"]
        assert all(a.audit == "aud" and a.cycle == 1 for a in alerts)

    def test_alert_record_roundtrip(self):
        record = AlertRecord(
            audit="a",
            cycle=3,
            series="net:local:county",
            kind="drift-high",
            value=1.23456789012345,
            baseline_mean=1.0,
            baseline_std=0.1,
            statistic=5.0,
            threshold=4.0,
        )
        raw = record.to_dict()
        assert raw["value"] == round(1.23456789012345, 10)
        assert AlertRecord.from_dict(raw).series == record.series

    def test_sliding_mann_whitney_needs_two_windows(self):
        assert sliding_mann_whitney([1.0, 2.0, 3.0], window=2) is None
        result = sliding_mann_whitney(
            [1.0, 1.0, 1.0, 9.0, 9.0, 9.0], window=3
        )
        assert result is not None
        assert result.significant


class TestDeterminism:
    """Byte-identity of store and alert ledger across every failure mode."""

    def test_daemon_restart_between_cycles(self, tmp_path, baseline):
        scheduler = AuditScheduler(str(tmp_path / "restart"))
        scheduler.register(_spec())
        scheduler.run_cycle("aud")
        scheduler.run_cycle("aud")
        scheduler.close()  # daemon stops...
        scheduler = AuditScheduler(str(tmp_path / "restart"))  # ...and returns
        audit = scheduler.register(_spec())
        assert audit.next_cycle == 2
        scheduler.run_cycle("aud")
        assert (
            tmp_path / "restart" / "aud.audit.jsonl"
        ).read_bytes() == baseline[0]
        assert audit.store.alert_ledger_bytes() == baseline[1]
        scheduler.close()

    @pytest.mark.parametrize("supervise", [False, True])
    def test_mid_cycle_kill_resumes_byte_identical(
        self, tmp_path, baseline, supervise
    ):
        spec = _spec(checkpoint_cycles=True, supervise=supervise)
        scheduler = AuditScheduler(str(tmp_path / "midkill"))
        scheduler.register(spec)
        scheduler.run_cycle("aud")
        store_path = tmp_path / "midkill" / "aud.audit.jsonl"
        durable_before = store_path.read_bytes()

        class Killed(RuntimeError):
            pass

        seen = {"records": 0}

        def hook(record):
            seen["records"] += 1
            if seen["records"] >= 10:
                raise Killed("daemon killed mid-cycle")

        with pytest.raises(Killed):
            scheduler.run_cycle("aud", record_hook=hook)
        scheduler.close()
        # The dead cycle left its crawl checkpoint but no store line.
        checkpoint = tmp_path / "midkill" / "aud.audit.jsonl.cycle1.ckpt"
        assert checkpoint.exists()
        assert store_path.read_bytes() == durable_before

        scheduler = AuditScheduler(str(tmp_path / "midkill"))
        scheduler.register(spec)
        scheduler.run_cycle("aud")  # resumes from the crawl checkpoint
        scheduler.run_cycle("aud")
        assert not checkpoint.exists()  # consumed once the cycle is durable
        assert store_path.read_bytes() == baseline[0]
        assert scheduler.audits["aud"].store.alert_ledger_bytes() == baseline[1]
        scheduler.close()

    def test_workers_two_byte_identical(self, tmp_path, baseline):
        store_bytes, ledger = _run_cycles(
            tmp_path, "w2", _spec(workers=2), 3
        )
        assert store_bytes == baseline[0]
        assert ledger == baseline[1]

    def test_supervised_worker_kill_byte_identical(self, tmp_path, baseline):
        spec = _spec(supervise=True, workers=2)
        store_bytes, ledger = _run_cycles(
            tmp_path,
            "killed",
            spec,
            3,
            kill_specs=(KillSpec(shard=0, ordinal=1),),
        )
        assert store_bytes == baseline[0]
        assert ledger == baseline[1]

    def test_tampered_alerts_refused_on_register(self, tmp_path, baseline):
        store_dir = tmp_path / "tampered"
        _run_cycles(tmp_path, "tampered", _spec(), 3)
        path = store_dir / "aud.audit.jsonl"
        from repro.store import reframe_line, unframe_line

        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            payload = json.loads(unframe_line(line))
            if payload.get("kind") == "cycle" and payload["alerts"]:
                payload["alerts"] = []
                lines[index] = reframe_line(json.dumps(payload, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        scheduler = AuditScheduler(str(store_dir))
        with pytest.raises(AuditStoreError, match="does not reproduce"):
            scheduler.register(_spec())


class TestSchedulerValidation:
    def test_duplicate_register_refused(self, tmp_path):
        scheduler = AuditScheduler(str(tmp_path))
        scheduler.register(_spec())
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register(_spec())
        scheduler.close()

    def test_kill_specs_require_supervised_spec(self, tmp_path):
        scheduler = AuditScheduler(str(tmp_path))
        scheduler.register(_spec())
        with pytest.raises(ValueError, match="supervised"):
            scheduler.run_cycle("aud", kill_specs=(KillSpec(shard=0, ordinal=0),))
        scheduler.close()

    def test_cycle_budget_enforced(self, tmp_path):
        scheduler = AuditScheduler(str(tmp_path))
        scheduler.register(_spec(cycles=1))
        scheduler.run_cycle("aud")
        assert scheduler.audits["aud"].done
        assert scheduler.pending() == []
        with pytest.raises(ValueError, match="budget"):
            scheduler.run_cycle("aud")
        scheduler.close()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            _spec(name="bad name!")
        with pytest.raises(ValueError, match="workers"):
            _spec(workers=0)
        with pytest.raises(ValueError, match="interval"):
            _spec(interval_minutes=0.0)

    def test_fingerprint_excludes_execution_knobs(self):
        assert _spec(workers=1).fingerprint() == _spec(
            workers=4, supervise=True
        ).fingerprint()
        assert _spec().fingerprint() != _spec(
            config=_smoke_config(seed=TEST_SEED + 1)
        ).fingerprint()

    def test_cycle_seeds_differ(self):
        spec = _spec()
        seeds = {spec.cycle_config(c).seed for c in range(4)}
        assert len(seeds) == 4
        assert spec.config.seed not in seeds


class TestServiceAndAPI:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        service = build_smoke_service(
            str(tmp_path_factory.mktemp("svc")), seed=TEST_SEED, cycles=3
        )
        service.run_once(cycles=2)
        yield service
        service.close()

    def test_status_shape(self, service):
        status = service.status()
        audit = status["audits"]["smoke"]
        assert audit["cycles"] == 2
        assert audit["budget"] == 3
        assert not audit["done"]
        assert audit["series"]
        for state in audit["series"].values():
            assert state["points"] == 2
        assert status["stats"]["cycles_completed"] == 2

    def test_render_status_mentions_series(self, service):
        text = service.render_status()
        assert "smoke: cycles 2/3" in text
        assert "net:local:" in text

    def test_routes(self, service):
        status, ctype, body = handle_path(service, "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}
        status, _, body = handle_path(service, "/audits")
        assert status == 200 and "smoke" in json.loads(body)["audits"]
        status, _, body = handle_path(service, "/audits/smoke")
        payload = json.loads(body)
        assert status == 200 and len(payload["cycles"]) == 2
        status, _, body = handle_path(service, "/audits/smoke/series")
        series = json.loads(body)["series"]
        assert status == 200 and all(len(v) == 2 for v in series.values())
        status, _, body = handle_path(service, "/audits/smoke/alerts")
        assert status == 200
        assert json.loads(body)["alerts"] == service._scheduler.audits[
            "smoke"
        ].store.alerts()

    def test_unknown_routes_404(self, service):
        assert handle_path(service, "/nope")[0] == 404
        assert handle_path(service, "/audits/ghost")[0] == 404
        assert handle_path(service, "/audits/smoke/bogus")[0] == 404

    def test_metrics_prometheus_text(self, service):
        status, ctype, body = handle_path(service, "/metrics")
        text = body.decode("utf-8")
        assert status == 200 and ctype.startswith("text/plain")
        assert "repro_audit_cycles_completed_total 2" in text
        assert 'repro_audit_alerts_total{audit="smoke"}' in text
        assert "# TYPE repro_audit_registered gauge" in text

    def test_http_requests_counted(self, service):
        before = service.stats.http_requests
        handle_path(service, "/healthz")
        assert service.stats.http_requests == before + 1

    def test_socket_round_trip(self, service):
        server = AuditAPIServer(service, port=0).start()
        try:
            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=10
            ) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}
            with urllib.request.urlopen(
                f"{server.url}/audits/smoke/series", timeout=10
            ) as response:
                assert "series" in json.loads(response.read())
        finally:
            server.close()

    def test_run_once_respects_budget(self, service):
        outcomes = service.run_once(cycles=5)  # budget caps at 3 total
        assert len(outcomes) == 1
        assert service.status()["audits"]["smoke"]["done"]
        assert service.run_once(cycles=1) == []


class TestServiceResume:
    def test_service_resumes_store(self, tmp_path):
        service = build_smoke_service(str(tmp_path), seed=TEST_SEED, cycles=2)
        first = service.run_once(cycles=1)
        service.close()
        service = build_smoke_service(str(tmp_path), seed=TEST_SEED, cycles=2)
        resumed = service.run_once(cycles=1)
        assert first[0].cycle == 0 and resumed[0].cycle == 1
        service.close()
