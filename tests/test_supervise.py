"""Supervised parallel execution (repro.supervise).

The contract under test: killing, hanging, or erroring any worker at
any point of the crawl is *invisible* in the output — recovery
re-executes the lost shard from its last snapshot and the merged
dataset serialises to the same bytes as the sequential run — and when
a shard fails deterministically, the loss is structured and visible,
never silent.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.comparisons import per_location_coverage
from repro.core.experiment import StudyConfig
from repro.core.runner import Study
from repro.faults.plan import FaultPlan
from repro.obs.events import read_events
from repro.obs.exporters import validate_trace
from repro.obs.trace import study_span_id
from repro.parallel import WorkerFailure, plan_shards, run_parallel
from repro.queries.corpus import build_corpus
from repro.supervise import KillSpec, SupervisorPolicy

#: Fast stall detection for tests: tenths of a second, not minutes.
FAST_STALLS = SupervisorPolicy(
    stall_timeout_seconds=30.0, stall_grace_seconds=0.3, stall_rounds=1
)


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


def _config(**overrides):
    # machine_count=5 < treatment count so browsers share crawl
    # machines — the coupling the machine-granular shard plan preserves.
    config = StudyConfig.small(
        _queries(), days=1, locations_per_granularity=2
    ).with_overrides(machine_count=5)
    return config.with_overrides(**overrides) if overrides else config


def _serialized(dataset) -> str:
    return "".join(json.dumps(record.to_dict()) + "\n" for record in dataset)


@pytest.fixture(scope="module")
def baseline():
    study = Study(_config())
    return _serialized(study.run()), study


@pytest.fixture(scope="module")
def gateway_baseline():
    study = Study(_config(route_via_gateway=True))
    return _serialized(study.run()), study


def _run(config, *, workers, **kwargs):
    study = Study(config)
    dataset = run_parallel(study, workers=workers, supervise=True, **kwargs)
    return _serialized(dataset), study


class TestValidation:
    def test_kill_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="kill mode"):
            KillSpec(shard=0, ordinal=0, mode="maim")

    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(stall_rounds=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_respawns=-1)

    def test_supervise_knobs_require_supervise(self):
        with pytest.raises(ValueError, match="supervise"):
            run_parallel(Study(_config()), workers=2, kill_specs=(
                KillSpec(shard=0, ordinal=0),
            ))


class TestCleanSupervised:
    def test_clean_run_is_byte_identical_and_heartbeats(self, baseline):
        expected, seq = baseline
        got, study = _run(_config(), workers=2)
        assert got == expected
        report = study.supervisor
        assert report.clean
        # One heartbeat per (shard, round): 2 shards x 3 rounds.
        assert report.stats.heartbeats == 6
        assert report.stats.rounds_received == 6
        assert study.stats == seq.stats

    def test_run_api_supervise_flag(self, baseline):
        expected, _ = baseline
        study = Study(_config())
        dataset = study.run(workers=2, supervise=True)
        assert _serialized(dataset) == expected
        assert study.supervisor is not None


class TestCrashRecovery:
    @pytest.mark.parametrize("ordinal", [0, 1, 2])
    def test_boundary_kill_any_round_keeps_parity(self, baseline, ordinal):
        expected, seq = baseline
        got, study = _run(
            _config(),
            workers=2,
            kill_specs=(KillSpec(shard=0, ordinal=ordinal),),
        )
        assert got == expected, f"kill at round boundary {ordinal} drifted"
        stats = study.supervisor.stats
        assert stats.crashes_detected == 1
        assert stats.recoveries == 1
        assert study.stats == seq.stats
        assert study.failures == seq.failures

    def test_midround_kill_keeps_parity(self, baseline):
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=2,
            kill_specs=(KillSpec(shard=1, ordinal=1, request=2),),
        )
        assert got == expected
        assert study.supervisor.stats.crashes_detected == 1

    def test_four_workers_two_kills(self, baseline):
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=4,
            kill_specs=(
                KillSpec(shard=0, ordinal=0),
                KillSpec(shard=2, ordinal=1, request=1),
            ),
        )
        assert got == expected
        assert study.supervisor.stats.crashes_detected == 2

    def test_gateway_routed_crash_keeps_parity(self, gateway_baseline):
        expected, seq = gateway_baseline
        got, study = _run(
            _config(route_via_gateway=True),
            workers=2,
            kill_specs=(KillSpec(shard=0, ordinal=1),),
        )
        assert got == expected
        assert study.supervisor.stats.crashes_detected == 1
        assert study.stats == seq.stats

    def test_reassignment_when_respawn_budget_exhausted(self, baseline):
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=2,
            policy=SupervisorPolicy(max_respawns=0),
            kill_specs=(KillSpec(shard=0, ordinal=0),),
        )
        assert got == expected
        stats = study.supervisor.stats
        assert stats.respawns == 0
        assert stats.reassignments == 1
        assert stats.workers_lost == 1


class TestStallRecovery:
    def test_virtual_deadline_detects_hang(self, baseline):
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=2,
            policy=FAST_STALLS,
            kill_specs=(KillSpec(shard=0, ordinal=1, mode="stall"),),
        )
        assert got == expected
        stats = study.supervisor.stats
        assert stats.stalls_detected == 1
        assert stats.crashes_detected == 0

    def test_slow_replacement_build_is_not_a_second_stall(
        self, baseline, monkeypatch
    ):
        # The replacement builds its study and restores the shard's
        # snapshot before its first heartbeat, while the leader is
        # already ahead: a build slower than the stall grace (a busy
        # host) is not a hang.  Workers fork, so they inherit the patch.
        restore = Study.restore_state

        def slow_restore(study, state):
            time.sleep(3 * FAST_STALLS.stall_grace_seconds)
            return restore(study, state)

        monkeypatch.setattr(Study, "restore_state", slow_restore)
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=2,
            policy=FAST_STALLS,
            kill_specs=(KillSpec(shard=0, ordinal=1, mode="stall"),),
        )
        assert got == expected
        stats = study.supervisor.stats
        assert stats.stalls_detected == 1
        assert stats.crashes_detected == 0

    def test_wall_clock_watchdog_backstops_single_worker(self, baseline):
        # workers=1: no leader to define a virtual deadline, so only
        # the wall-clock watchdog can notice the hang.
        expected, _ = baseline
        got, study = _run(
            _config(),
            workers=1,
            policy=SupervisorPolicy(stall_timeout_seconds=1.0),
            kill_specs=(KillSpec(shard=0, ordinal=1, mode="stall"),),
        )
        assert got == expected
        assert study.supervisor.stats.stalls_detected == 1


class TestQuarantine:
    def test_deterministic_failure_is_structured_loss(self):
        config = _config()
        study = Study(config)
        dataset = run_parallel(
            study,
            workers=2,
            supervise=True,
            policy=SupervisorPolicy(quarantine_after=2),
            # generation=None: every incarnation dies at the same
            # request — a deterministic failure no respawn can clear.
            kill_specs=(KillSpec(shard=0, ordinal=1, request=1, generation=None),),
        )
        report = study.supervisor
        assert report.stats.quarantined_shards == 1
        assert not report.clean
        # Shard 0 delivered round 0, then lost rounds 1-2: one
        # synthesized failure per (lost round, shard-0 treatment), zero
        # silent loss.
        plan = plan_shards(len(study.treatments), len(study.fleet), 2)
        lost_cells = 2 * len(plan.assignments[0])
        expected_cells = study.round_count() * len(study.treatments)
        assert len(dataset) + len(study.failures) == expected_cells
        assert report.stats.quarantined_failures == len(study.failures) == lost_cells
        assert {f.kind for f in study.failures} == {"shard-quarantined"}
        coverage = per_location_coverage(dataset, study.failures)
        lost = {
            name: slot.lost_by_kind
            for name, slot in coverage.items()
            if slot.lost
        }
        assert lost, "quarantine must be visible in per-location coverage"
        for by_kind in lost.values():
            assert by_kind == {"shard-quarantined": by_kind["shard-quarantined"]}


class TestPlanDrivenChaos:
    def test_worker_crash_faults_recover_with_parity(self):
        # Same study config as the baseline but with worker-crash
        # faults armed: sequential execution ignores them (there is no
        # worker to kill), so the sequential run still defines truth.
        # The per-request rate compounds across a round (~7 draws), so
        # keep it low and the quarantine threshold high — this test is
        # about recovery, not deterministic-failure classification.
        # Stall detection keeps its default 10 s grace: a fast grace
        # could judge a slow but healthy worker stalled on a busy host
        # before any crash is seen.
        config = _config(
            fault_plan=FaultPlan(seed=5, worker_crash_rate=0.06)
        )
        seq = Study(config)
        expected = _serialized(seq.run())
        policy = SupervisorPolicy(quarantine_after=10)
        got, study = _run(config, workers=2, policy=policy)
        assert got == expected
        stats = study.supervisor.stats
        assert stats.crashes_detected >= 1, "0.15 crash rate drew no kills"
        assert stats.quarantined_shards == 0
        assert study.stats == seq.stats

    def test_named_plan_exists(self):
        plan = FaultPlan.named("unstable-workers", seed=1)
        assert plan.has_worker_faults
        assert not plan.is_zero


class TestUnsupervisedFailureIsStructured:
    def test_dead_worker_raises_worker_failure(self, monkeypatch):
        # Without supervision a worker death must still surface as a
        # structured error, not a deadlocked parent (fork start method
        # propagates the patch into workers).
        original = Study.run_shard

        def dying(self, indices, **kwargs):
            if 0 in indices:
                os._exit(9)
            return original(self, indices, **kwargs)

        monkeypatch.setattr(Study, "run_shard", dying)
        with pytest.raises(WorkerFailure) as info:
            run_parallel(Study(_config()), workers=2, start_method="fork")
        assert info.value.exit_code == 9
        assert info.value.worker_id == 0
        assert "supervise=True" in str(info.value)

    def test_hung_worker_raises_worker_failure(self, monkeypatch):
        # A worker that is alive but silent must not hang the parent:
        # the shared watchdog kills it and the run fails structured.
        original = Study.run_shard

        def hanging(self, indices, **kwargs):
            if 0 in indices:
                while True:
                    time.sleep(3600)
            return original(self, indices, **kwargs)

        monkeypatch.setattr(Study, "run_shard", hanging)
        started = time.monotonic()
        with pytest.raises(WorkerFailure) as info:
            run_parallel(
                Study(_config()), workers=2, start_method="fork", policy=FAST_STALLS
            )
        assert time.monotonic() - started < 5.0
        assert info.value.worker_id == 0
        assert info.value.exit_code == -9


class TestObservability:
    def test_registry_exports_supervisor_counters(self):
        got, study = _run(
            _config(),
            workers=2,
            kill_specs=(KillSpec(shard=0, ordinal=0),),
        )
        snapshot = study.metrics_registry().snapshot()
        metrics = snapshot["metrics"]
        assert metrics["supervisor_crashes_detected_total"]["value"] == 1
        assert metrics["supervisor_heartbeats_total"]["value"] >= 6
        assert metrics["supervisor_quarantined_shards_total"]["value"] == 0

    def test_traced_recovery_ends_the_log_as_supervisor_spans(self, tmp_path):
        trace = tmp_path / "supervised.trace"
        _, study = _run(
            _config(),
            workers=2,
            trace=str(trace),
            kill_specs=(KillSpec(shard=0, ordinal=1),),
        )
        assert validate_trace(trace) == []
        header, events, _ = read_events(trace)
        ledger = study.supervisor.events
        # A crash, then a respawn or, if the other worker is idle by
        # then, a reassignment.
        assert len(ledger) == 2 and ledger[0].kind == "crash-detected"
        *recoveries, root = [e for e in events if e["stream"] == "span"][-3:]
        assert root["name"] == "study.run"
        for span, event in zip(recoveries, ledger):
            assert span["name"] == f"supervisor.{event.kind}"
            # The kill fires after round 1 is delivered: shard 0 resumes at 2.
            assert span["attrs"] == {
                "worker": event.worker,
                "shard": 0,
                "generation": event.generation,
                "resume_ordinal": 2,
            }
            assert span["parent"] == study_span_id(header["log_id"])
            assert span["start"] == span["end"] == span["ts"] == event.virtual_minutes
            # The wall-clock-bearing detail stays in the ledger.
            assert event.detail and "detail" not in span["attrs"]

    def test_ledger_round_trips_to_dict(self):
        got, study = _run(
            _config(),
            workers=2,
            kill_specs=(KillSpec(shard=1, ordinal=2),),
        )
        payload = study.supervisor.to_dict()
        assert payload["workers"] == 2
        assert payload["stats"]["crashes_detected"] == 1
        kinds = [event["kind"] for event in payload["events"]]
        assert "crash-detected" in kinds
        rendered = study.supervisor.render()
        assert "crash-detected" in rendered
        assert "supervision ledger" in rendered
