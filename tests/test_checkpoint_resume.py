"""Kill-and-resume parity for checkpointed crawls.

The contract under test (the PR's acceptance bar): a study run with
``checkpoint=path`` that is killed at *any* point — any round boundary,
mid-round, sequential or sharded over workers — and then re-run with
the same arguments produces a dataset, failure log, and stats that are
byte-identical to an uninterrupted run, with zero lost records and
every injected fault accounted for.

The kill mechanism is a sink that raises after N records: records are
released to the sink only after their round is durable in the journal,
so raising there models dying at the worst possible moment for every
value of N — deterministically, with no signal-delivery flakiness.
"""

import json
import os

import pytest

from repro.core.experiment import StudyConfig
from repro.core.runner import Study
from repro.engine.sessions import SessionStore
from repro.faults.checkpoint import CheckpointError, load_checkpoint
from repro.faults.plan import FaultPlan
from repro.parallel import ShardPlan, run_parallel
from repro.parallel import executor as executor_module
from repro.queries.corpus import build_corpus
from repro.store import StoreCorruption
from repro.store.record_log import read_log
from repro.supervise import KillSpec, SupervisorPolicy

#: >10% request-level fault rate, every fault kind enabled.
CHAOS = FaultPlan.named("chaos")


class Killed(Exception):
    """Simulated process death."""


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


def _config(**overrides):
    config = StudyConfig.small(
        _queries(), days=2, locations_per_granularity=2
    ).with_overrides(machine_count=5, fault_plan=CHAOS, max_retries=2)
    return config.with_overrides(**overrides) if overrides else config


def _serialized(dataset) -> str:
    return "".join(json.dumps(record.to_dict()) + "\n" for record in dataset)


def _killing_sink(after: int):
    """A sink that dies once it has seen ``after`` records."""
    seen = []

    def sink(record):
        seen.append(record)
        if len(seen) >= after:
            raise Killed(f"killed after {after} records")

    return sink, seen


def _checkpointed_run(study, path, sink, workers, options):
    """``Study.run``, or ``run_parallel`` for its executor-only options."""
    if "policy" in options or "kill_specs" in options:
        return run_parallel(
            study, workers=workers, sink=sink, checkpoint=str(path), **options
        )
    return study.run(sink=sink, workers=workers, checkpoint=str(path), **options)


def _log_options(prefix) -> dict:
    """The traced event log's path next to the journal ``<prefix>.ckpt``."""
    return {"trace": f"{prefix}.trace"}


def _logs(prefix) -> tuple:
    """The traced event log and the journal a run left at ``prefix``."""
    return tuple(
        open(f"{prefix}{suffix}", "rb").read() for suffix in (".trace", ".ckpt")
    )


def _whole_logs(config, prefix, workers: int = 1) -> tuple:
    """An uninterrupted traced, checkpointed run's logs."""
    Study(config).run(
        workers=workers, checkpoint=f"{prefix}.ckpt", **_log_options(prefix)
    )
    return _logs(prefix)


def _run_killed_then_resumed(
    config, path, kill_after: int, workers: int = 1, **options
):
    """Kill a checkpointed run after N records, resume, return both studies.

    ``options`` (``supervise``, ``policy``, ``kill_specs``, ``trace``,
    ``events``) go to both runs.
    """
    sink, _ = _killing_sink(kill_after)
    killed = Study(config)
    with pytest.raises(Killed):
        _checkpointed_run(killed, path, sink, workers, options)
    resumed = Study(config)
    replayed = []
    dataset = _checkpointed_run(resumed, path, replayed.append, workers, options)
    return killed, resumed, dataset, replayed


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run everything must be byte-identical to."""
    study = Study(_config())
    dataset = study.run()
    return study, dataset


class TestSequentialResume:
    def test_uninterrupted_checkpointed_run_matches_plain(self, baseline, tmp_path):
        base_study, base_dataset = baseline
        study = Study(_config())
        dataset = study.run(checkpoint=str(tmp_path / "crawl.ckpt"))
        assert _serialized(dataset) == _serialized(base_dataset)
        assert study.stats == base_study.stats
        assert study.failures == base_study.failures
        assert study.fault_stats == base_study.fault_stats

    def test_kill_at_every_round_boundary(self, baseline, tmp_path):
        base_study, base_dataset = baseline
        expected = _serialized(base_dataset)
        expected_logs = _whole_logs(_config(), tmp_path / "whole")
        rounds = base_study.round_count()
        treatments = len(base_study.treatments)
        assert rounds == 6
        # Kill exactly at each round boundary: the sink has seen all of
        # rounds 0..k's records and dies before round k+1 begins.
        boundaries = []
        committed = 0
        for scheduled in base_study.iter_rounds():
            round_records = treatments - sum(
                1
                for f in base_study.failures
                if f.query == scheduled.query.text and f.day == scheduled.day_offset
            )
            committed += round_records
            boundaries.append(committed)
        for kill_after in boundaries[:-1]:
            if kill_after == 0:
                continue
            prefix = tmp_path / f"boundary-{kill_after}"
            _, resumed, dataset, replayed = _run_killed_then_resumed(
                _config(), f"{prefix}.ckpt", kill_after, **_log_options(prefix)
            )
            assert _serialized(dataset) == expected, f"kill@{kill_after}"
            # The spans ride the journal, so the trace resumes like the
            # event log: both logs and the journal match the whole run's.
            assert _logs(prefix) == expected_logs, f"kill@{kill_after}"
            assert resumed.stats == base_study.stats
            assert resumed.failures == base_study.failures
            assert resumed.fault_stats == base_study.fault_stats
            assert resumed.fault_stats.unaccounted() == {}
            # the resumed sink stream is the complete canonical stream
            assert _serialized(dataset) == _serialized(replayed)

    def test_kill_mid_round(self, baseline, tmp_path):
        base_study, base_dataset = baseline
        expected = _serialized(base_dataset)
        # Odd kill points land mid-round (rounds hold ~12 records).
        for kill_after in (1, 5, 17, len(base_dataset) - 1):
            path = tmp_path / f"midround-{kill_after}.ckpt"
            _, resumed, dataset, _ = _run_killed_then_resumed(
                _config(), path, kill_after
            )
            assert _serialized(dataset) == expected, f"kill@{kill_after}"
            assert resumed.failures == base_study.failures

    def test_double_kill_then_resume(self, baseline, tmp_path):
        """Dying twice at different points still converges."""
        base_study, base_dataset = baseline
        path = tmp_path / "double.ckpt"
        sink, _ = _killing_sink(7)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        sink, _ = _killing_sink(9)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        dataset = Study(_config()).run(checkpoint=str(path))
        assert _serialized(dataset) == _serialized(base_dataset)

    def test_resume_tolerates_partial_tail(self, baseline, tmp_path):
        base_study, base_dataset = baseline
        path = tmp_path / "tail.ckpt"
        sink, _ = _killing_sink(13)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        # simulate dying mid-write: a torn, newline-less JSON fragment
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "round", "ordinal": 99, "outco')
        dataset = Study(_config()).run(checkpoint=str(path))
        assert _serialized(dataset) == _serialized(base_dataset)

    def test_completed_journal_replays_without_crawling(self, tmp_path):
        path = tmp_path / "done.ckpt"
        first = Study(_config())
        expected = _serialized(first.run(checkpoint=str(path)))
        replay = Study(_config())
        dataset = replay.run(checkpoint=str(path))
        assert _serialized(dataset) == expected
        assert replay.stats == first.stats


class TestParallelResume:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"supervise": True},
            # Shard 0's worker dies after delivering round 0, so round 1
            # only flushes once a respawned worker re-delivers it: any
            # parent kill past two rounds' records comes after the crash.
            {"supervise": True, "kill_specs": (KillSpec(shard=0, ordinal=0),)},
        ],
        ids=["unsupervised", "supervised", "supervised-worker-crash"],
    )
    def test_kill_mid_shard_with_two_workers(self, baseline, tmp_path, options):
        base_study, base_dataset = baseline
        expected = _serialized(base_dataset)
        # The last case's worker crash leaves no span in the resumed trace:
        # recovery spans come from the in-memory ledger, and the resumed run
        # starts past the crashed round, so it matches an uncrashed run.
        expected_logs = _whole_logs(_config(), tmp_path / "whole", workers=2)
        for kill_after in (3, 11, 25):
            prefix = tmp_path / f"par-{kill_after}"
            killed, resumed, dataset, replayed = _run_killed_then_resumed(
                _config(),
                f"{prefix}.ckpt",
                kill_after,
                workers=2,
                **_log_options(prefix),
                **options,
            )
            assert _serialized(dataset) == expected, f"workers=2 kill@{kill_after}"
            assert resumed.stats == base_study.stats
            assert resumed.failures == base_study.failures
            assert resumed.fault_stats == base_study.fault_stats
            assert resumed.fault_stats.unaccounted() == {}
            assert _serialized(dataset) == _serialized(replayed)
            assert _logs(prefix) == expected_logs, f"workers=2 kill@{kill_after}"
            if options.get("kill_specs") and kill_after == 25:
                assert killed.supervisor.stats.crashes_detected == 1
                assert killed.supervisor.stats.recoveries == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_gateway_run_resumes_identically(self, tmp_path, workers):
        config = _config(route_via_gateway=True)
        expected = _serialized(Study(config).run())
        expected_logs = _whole_logs(config, tmp_path / "whole", workers)
        for kill_after in (11, 25):
            prefix = tmp_path / f"gateway-{kill_after}"
            _, _, dataset, _ = _run_killed_then_resumed(
                config, f"{prefix}.ckpt", kill_after, workers, **_log_options(prefix)
            )
            assert _serialized(dataset) == expected, f"kill@{kill_after}"
            assert _logs(prefix) == expected_logs, f"kill@{kill_after}"

    @pytest.mark.parametrize(
        "first, second",
        [(False, True), (True, False)],
        ids=["unsupervised-then-supervised", "supervised-then-unsupervised"],
    )
    def test_journal_resumes_across_supervision_modes(
        self, baseline, tmp_path, first, second
    ):
        base_study, base_dataset = baseline
        path = tmp_path / "modes.ckpt"
        sink, _ = _killing_sink(11)
        with pytest.raises(Killed):
            Study(_config()).run(
                sink=sink, workers=2, checkpoint=str(path), supervise=first
            )
        resumed = Study(_config())
        dataset = resumed.run(workers=2, checkpoint=str(path), supervise=second)
        assert _serialized(dataset) == _serialized(base_dataset)
        assert resumed.stats == base_study.stats
        assert resumed.failures == base_study.failures
        assert resumed.fault_stats == base_study.fault_stats

    def test_quarantine_then_parent_kill_resumes_identically(self, tmp_path):
        options = {
            "supervise": True,
            "policy": SupervisorPolicy(quarantine_after=2),
            # generation=None: every incarnation dies at the same request,
            # so shard 0 is quarantined from round 1 on.
            "kill_specs": (
                KillSpec(shard=0, ordinal=1, request=1, generation=None),
            ),
        }
        whole = Study(_config())
        whole_events = tmp_path / "whole.events.jsonl"
        expected = _serialized(
            run_parallel(whole, workers=2, events=str(whole_events), **options)
        )
        assert whole.supervisor.stats.quarantined_shards == 1
        # Kill at 3 lands before the quarantine is journalled (the resume
        # re-runs shard 0 into it); at 20 the journal holds the marker.
        for kill_after in (3, 20):
            path = tmp_path / f"quarantine-{kill_after}.ckpt"
            events = tmp_path / f"quarantine-{kill_after}.events.jsonl"
            _, resumed, dataset, replayed = _run_killed_then_resumed(
                _config(), path, kill_after, workers=2, events=str(events), **options
            )
            assert _serialized(dataset) == expected, f"kill@{kill_after}"
            assert _serialized(replayed) == expected
            assert resumed.failures == whole.failures
            assert resumed.stats == whole.stats
            assert resumed.fault_stats == whole.fault_stats
            assert events.read_bytes() == whole_events.read_bytes()
            assert resumed.supervisor.stats.quarantined_shards == 1

    def test_uninterrupted_parallel_checkpoint_matches_sequential(
        self, baseline, tmp_path
    ):
        _, base_dataset = baseline
        study = Study(_config())
        dataset = study.run(workers=2, checkpoint=str(tmp_path / "par.ckpt"))
        assert _serialized(dataset) == _serialized(base_dataset)

    def test_sequential_kill_parallel_resume_is_refused(self, tmp_path):
        path = tmp_path / "cross.ckpt"
        sink, _ = _killing_sink(5)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="worker"):
            Study(_config()).run(workers=2, checkpoint=str(path))


class TestCaptureDropsStaleSessions:
    """A capture leaves the live session store equal to its snapshot."""

    def test_live_store_equals_restored_snapshot_after_every_capture(
        self, baseline, tmp_path, monkeypatch
    ):
        base_study, base_dataset = baseline
        capture = SessionStore.capture_state
        checks = []

        def checked_capture(store, now_minutes):
            state = capture(store, now_minutes)
            restored = SessionStore(window_minutes=store.window_minutes)
            restored.restore_state(json.loads(json.dumps(state)))
            checks.append(store._sessions == restored._sessions)
            return state

        monkeypatch.setattr(SessionStore, "capture_state", checked_capture)
        study = Study(_config())
        dataset = study.run(checkpoint=str(tmp_path / "crawl.ckpt"))
        assert _serialized(dataset) == _serialized(base_dataset)
        assert len(checks) == base_study.round_count()
        assert all(checks)
        # A run that never captures keeps one session per crawled page;
        # the checkpointed one keeps only the last 3 windows' worth.
        assert len(base_study.engine.sessions) == len(base_dataset)
        assert len(study.engine.sessions) < len(dataset)


class TestMismatchRejection:
    def test_different_config_is_refused(self, tmp_path):
        path = tmp_path / "mismatch.ckpt"
        sink, _ = _killing_sink(5)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        other = _config(seed=_config().seed + 1)
        with pytest.raises(CheckpointError, match="different study"):
            Study(other).run(checkpoint=str(path))

    def test_different_fault_plan_is_refused(self, tmp_path):
        path = tmp_path / "plan.ckpt"
        sink, _ = _killing_sink(5)
        with pytest.raises(Killed):
            Study(_config()).run(sink=sink, checkpoint=str(path))
        other = _config(fault_plan=FaultPlan.named("flaky-network"))
        with pytest.raises(CheckpointError):
            Study(other).run(checkpoint=str(path))

    def test_garbage_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_text("this is not a checkpoint\n", encoding="utf-8")
        with pytest.raises(CheckpointError):
            Study(_config()).run(checkpoint=str(path))

    def test_different_shard_layout_is_refused(self, tmp_path, monkeypatch):
        # Same worker count, machines dealt round-robin instead of in
        # contiguous runs: each worker's snapshot belongs to other
        # browsers, so resuming would restore the wrong shard's state.
        def round_robin(treatment_count, machine_count, workers):
            effective = min(workers, machine_count, treatment_count)
            shards = [[] for _ in range(effective)]
            for index in range(treatment_count):
                shards[index % machine_count % effective].append(index)
            return ShardPlan(effective, tuple(tuple(shard) for shard in shards))

        path = tmp_path / "layout.ckpt"
        sink, _ = _killing_sink(11)
        with monkeypatch.context() as patched:
            patched.setattr(executor_module, "plan_shards", round_robin)
            with pytest.raises(Killed):
                Study(_config()).run(sink=sink, workers=2, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="2-worker"):
            Study(_config()).run(workers=2, checkpoint=str(path))


class TestFramedJournalDamage:
    """Satellite 4: the framed journal under byte-level disk damage."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        """A complete 1-day checkpointed run and its journal geometry."""
        config = StudyConfig.small(
            _queries(), days=1, locations_per_granularity=2
        ).with_overrides(machine_count=5)
        path = tmp_path_factory.mktemp("journal") / "full.ckpt"
        study = Study(config)
        study.run(checkpoint=str(path))
        data = path.read_bytes()
        # One round's group = a round line + one state line (workers=1);
        # a round is durable at the end of its state line.
        round_ends = [
            end
            for payload, end in read_log(str(path))
            if payload.get("kind") == "state"
        ]
        assert len(round_ends) >= 2
        return study, data, round_ends

    def test_torn_tail_at_every_byte_of_a_round_boundary(
        self, journal, tmp_path
    ):
        """Property sweep: truncate the journal at *every* byte offset
        across one full round group (round line + state line) and load.

        Whatever the cut — mid frame header, mid checksum, mid payload,
        exactly on the newline — the loader must return precisely the
        rounds whose groups are complete, never raise, and truncate the
        file back to that durable prefix.
        """
        study, data, round_ends = journal
        fingerprint = study.checkpoint_fingerprint()
        shards = [range(len(study.treatments))]  # the sequential layout
        target = tmp_path / "torn.ckpt"
        start, stop = round_ends[0], round_ends[1]
        for cut in range(start, stop + 1):
            target.write_bytes(data[:cut])
            state = load_checkpoint(
                str(target), expected_fingerprint=fingerprint, shards=shards
            )
            expected = 2 if cut == stop else 1
            assert state.next_ordinal == expected, f"cut@{cut}"
            assert os.path.getsize(target) == round_ends[expected - 1], (
                f"cut@{cut}: partial tail not truncated"
            )

    def test_bit_flip_that_still_parses_as_json_is_detected(
        self, journal, tmp_path
    ):
        """A low-bit flip on a digit keeps the payload valid JSON — the
        corruption an unframed journal would silently resume from.  The
        frame's checksum must turn it into a loud ``StoreCorruption``."""
        study, data, _ = journal
        fingerprint = study.checkpoint_fingerprint()
        shards = [range(len(study.treatments))]  # the sequential layout
        header_len = len(b"~F1 ") + 8 + 1 + 8 + 1
        lines = data.split(b"\n")
        line = bytearray(lines[1])  # round 0's line, before valid data
        for i in range(header_len, len(line)):
            if chr(line[i]).isdigit():
                line[i] ^= 1
                break
        json.loads(bytes(line[header_len:]))  # still parses as JSON
        lines[1] = bytes(line)
        target = tmp_path / "flipped.ckpt"
        target.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreCorruption) as excinfo:
            load_checkpoint(
                str(target), expected_fingerprint=fingerprint, shards=shards
            )
        assert excinfo.value.record_index == 1
        assert "fsck" in str(excinfo.value)


class TestNoFaultCheckpoint:
    def test_checkpointing_works_without_a_fault_plan(self, tmp_path):
        config = StudyConfig.small(
            _queries(), days=1, locations_per_granularity=2
        ).with_overrides(machine_count=5)
        base = _serialized(Study(config).run())
        path = tmp_path / "plain.ckpt"
        sink, _ = _killing_sink(9)
        with pytest.raises(Killed):
            Study(config).run(sink=sink, checkpoint=str(path))
        dataset = Study(config).run(checkpoint=str(path))
        assert _serialized(dataset) == base
