"""Process-parallel crawl execution with byte-identical parity.

The paper's crawl ran on 44 machines precisely because lock-step
rounds are embarrassingly parallel: within a round, every treatment
issues the same query independently.  This executor exploits the same
structure on one host.

Design
------
* **Sharding is machine-granular.**  Treatments are grouped by the
  crawl machine their browser is bound to (``index % machine_count`` —
  the fleet assignment in :meth:`Study._build_treatments`), and each
  worker is dealt a contiguous, treatment-balanced run of machines in
  fleet order.  The per-IP rate limiter is the only cross-treatment
  coupling in the engine, and its decisions depend only on the per-IP
  request sequence — keeping every browser of a machine in one worker
  preserves that sequence exactly, so admission (and therefore
  CAPTCHAs, retries, and failures) is identical to the sequential run.
  A location's treatment and control have consecutive browser indices,
  so they sit on neighbouring machines and a contiguous run keeps the
  pair on one worker unless a cut falls between them; a cold worker
  then builds the static pools, suggestion strips, and Maps cards of
  its own locations only.  (With an odd machine count a pair can wrap
  from the last machine to machine 0, and so span the last and first
  workers.)
* **Workers inherit, they do not rebuild.**  Unsupervised runs
  construct and pre-warm the whole apparatus once in the parent
  (world, engine, ranking pools, digest caches —
  :meth:`Study.prefork_warmup`), then forked workers inherit it
  copy-on-write; ``spawn`` platforms receive the same built study
  pickled.  Everything inherited is either pure in the seed (world,
  caches — shared bytes, never diverge) or freshly zeroed serving
  state (sessions, rate-limiter windows, nonce counters — the state a
  rebuilt worker would start with anyway), so shard output is
  byte-identical to building from the config.  Only if the study will
  not pickle does a spawn worker fall back to rebuilding from the
  :class:`StudyConfig`; ``Study.worker_rebuilds`` counts the shard
  executions that built from the config (0 for unsupervised runs on
  fork platforms — the invariant the tests pin).  Supervised runs
  leave the parent cold and build every shard execution from the
  config, so a respawn after a failure starts exactly like the
  first execution.
* **Everything else is request-determined.**  Nonces derive from
  (browser id, per-browser ordinal); DNS rotation keys on the nonce;
  per-datacenter index skew keys on the DNS-resolved frontend IP;
  sessions key on per-browser cookies.  None of it depends on how
  requests from different treatments interleave.
* **One loop, one protocol, one merge.**  Each shard runs in its own
  one-shot worker process, which crawls it from its resume point
  through :meth:`Study.run_shard` — the loop the in-process run uses —
  streams ``heartbeat`` / ``round`` messages and then ``shard-done``
  (or ``error``) over one shared result queue, and exits.  Messages
  carry ``(shard, generation)``.  The parent keeps only the arrival
  bookkeeping: once every shard has delivered a round, it sorts the
  outcomes by treatment index and commits the round through the
  run's :class:`~repro.core.runner.RoundMerge`, the same commit the
  in-process run makes — journal, event log (spans included when
  traced), then failures, dataset, and sink.  :class:`CrawlStats`
  counters are sums and merge associatively.
* **Recovery is a switch, not a second executor.**  With
  ``supervise=True`` a crashed, hung, or erroring shard is respawned
  as itself — a new process, generation + 1 — from its last accepted
  snapshot, and messages from earlier generations are ignored (see
  :mod:`repro.supervise` for the policy).  Without it the same
  watchdog turns the first crash or stall into a structured
  :class:`WorkerFailure`, and a worker exception into a
  ``RuntimeError`` carrying its traceback.
* **Checkpoints are merge-time.**  Under ``checkpoint=path`` each
  worker ships its :meth:`Study.capture_state` snapshot with every
  round; the merge journals a round (outcomes, every shard's state,
  and, traced, the round's spans) durably *before* releasing it to the
  event log, dataset, and sink.  On resume, every shard
  restores its own snapshot and re-enters the schedule at the first
  un-journalled round — a worker that had raced ahead of the
  durable prefix simply re-crawls, byte-identically, because its state
  was reset to the prefix boundary.  A quarantined shard has no state
  to journal; its state slot holds a marker instead, so a resumed run
  re-quarantines it rather than re-crawling it.

The result: ``SerpDataset``, ``CrawlStats``, and the failure list are
byte-identical to ``Study.run()`` on a single core, for any worker
count, with or without the serving gateway in the path, supervised or
not, and with or without a kill-and-resume in between.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.datastore import SerpDataset
from repro.core.runner import CrawlFailure, CrawlStats, RoundMerge, Study
from repro.faults.injector import FaultStats
from repro.supervise.stats import SupervisorEvent, SupervisorReport
from repro.supervise.supervisor import KillSpec, SupervisorPolicy

__all__ = ["ShardPlan", "WorkerFailure", "plan_shards", "run_parallel"]

#: Per-worker message-queue slack before backpressure kicks in.
_QUEUE_DEPTH_PER_WORKER = 8

#: Exit codes chosen by injected kills (visible in ledger details).
_BOUNDARY_CRASH_EXIT = 73
_MIDROUND_CRASH_EXIT = 74
_PLAN_CRASH_EXIT = 57


class WorkerFailure(RuntimeError):
    """A crawl worker process died or hung before completing its shard.

    Raised by the *unsupervised* parallel path (``Study.run(workers=N)``
    without ``supervise=True``), where a lost worker is unrecoverable:
    the run fails fast and structured — worker id, exit code (``-9``
    when the watchdog killed a hung worker), and the shard's treatment
    indices — instead of blocking on a pipe that will never produce.
    Supervised runs recover instead of raising; see
    :mod:`repro.supervise`.
    """

    def __init__(self, worker_id: int, exit_code: Optional[int], shard) -> None:
        self.worker_id = worker_id
        self.exit_code = exit_code
        self.shard: Tuple[int, ...] = tuple(shard)
        super().__init__(
            f"crawl worker {worker_id} (treatments {list(self.shard)}) died "
            f"with exit code {exit_code} before completing its shard; "
            "run with supervise=True for automatic recovery"
        )


@dataclass(frozen=True)
class ShardPlan:
    """Treatment → worker assignment for one study."""

    workers: int
    """Effective worker count (clamped to the number of machine groups)."""

    assignments: Tuple[Tuple[int, ...], ...]
    """Per worker, the treatment indices it crawls (ascending)."""

    def __post_init__(self) -> None:
        seen = set()
        for shard in self.assignments:
            for index in shard:
                if index in seen:
                    raise ValueError(f"treatment {index} assigned twice")
                seen.add(index)


def plan_shards(
    treatment_count: int, machine_count: int, workers: int
) -> ShardPlan:
    """Partition treatments so no crawl machine spans two workers.

    Treatments sharing a machine share a client IP; the engine's
    rolling per-IP rate limiter must see that IP's requests as one
    ordered sequence for parity, so the machine group is the atomic
    unit of sharding.  Workers the plan cannot feed (more workers than
    occupied machines) are dropped rather than spawned idle.

    Each worker takes a contiguous run of machines in fleet order:
    worker ``w``'s run ends at the first machine that brings the
    treatments dealt so far to ``(w + 1) / workers`` of the total, so
    the largest shard exceeds an even share by less than one machine's
    load.  A location's copies get consecutive browser indices, hence
    neighbouring machines, so a run keeps a location's treatment and
    control on one worker unless a cut falls between them — and
    everything the engine builds per location (candidate pools, static
    scores, suggestion strips, Maps cards) is built by one worker.
    Neighbouring holds when ``machine_count`` is a multiple of the
    copies per location (even, for pairs); otherwise a location can
    wrap from the last machine to machine 0, and so span the last and
    first workers.
    """
    if treatment_count < 1:
        raise ValueError("need at least one treatment")
    if machine_count < 1:
        raise ValueError("need at least one machine")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    occupied_machines = min(machine_count, treatment_count)
    effective = min(workers, occupied_machines)
    shards: List[List[int]] = [[] for _ in range(effective)]
    worker = dealt = 0
    for machine in range(occupied_machines):
        members = range(machine, treatment_count, machine_count)
        shards[worker].extend(members)
        dealt += len(members)
        # Machine loads never grow along the fleet, so the cut for each
        # worker leaves every later worker at least one machine.
        if dealt * effective >= (worker + 1) * treatment_count:
            worker += 1
    return ShardPlan(
        workers=effective,
        assignments=tuple(tuple(sorted(shard)) for shard in shards),
    )


def _preferred_start_method() -> str:
    """``fork`` where the platform offers it (cheap, and unsupervised
    workers inherit the parent's built study copy-on-write), else the
    platform default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _WorkerHarness:
    """One shard execution inside a worker.

    Bridges the running :class:`Study` to the parent: heartbeats and
    round results onto the shared queue, and — with recovery on —
    :class:`KillSpec` murder points and the ``FaultPlan`` worker-fault
    context (the injector calls :meth:`crash`/:meth:`stall` through the
    duck-typed ``worker_context`` hook, keyed on :attr:`generation`).
    """

    def __init__(
        self,
        shard_id: int,
        generation: int,
        result_queue,
        kill_specs: Sequence[KillSpec],
    ) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.queue = result_queue
        self.specs = [
            spec
            for spec in kill_specs
            if spec.shard == shard_id
            and spec.generation in (None, generation)
        ]
        self._ordinal = -1
        self._submits = 0

    def arm(self, study: Study) -> None:
        network = study.network
        # Plan-driven worker faults fire only with recovery on: the
        # injector consults this context (when the plan carries worker
        # rates) before dispatching each request.
        network.worker_context = self
        if any(spec.request is not None for spec in self.specs):
            original = network.submit

            def submit(*args, **kwargs):
                self._submits += 1
                for spec in self.specs:
                    if (
                        spec.request is not None
                        and spec.ordinal == self._ordinal
                        and spec.request == self._submits
                    ):
                        self._die(spec.mode, flush=False)
                return original(*args, **kwargs)

            network.submit = submit

    def heartbeat(self, ordinal: int, timestamp: float) -> None:
        self._ordinal = ordinal
        self._submits = 0
        self.queue.put(
            ("heartbeat", self.shard_id, self.generation, timestamp)
        )

    def emit_round(self, ordinal: int, outcomes, state, spans) -> None:
        self.queue.put(
            ("round", self.shard_id, self.generation, ordinal, outcomes, state, spans)
        )
        for spec in self.specs:
            if spec.request is None and spec.ordinal == ordinal:
                self._die(spec.mode, flush=True)

    # -- murder weapons (also the FaultPlan worker_context protocol) ----------

    def crash(self) -> None:
        """Plan-driven crash, pre-dispatch: nothing of the partial
        round escapes the process, so resume is byte-exact."""
        self._flush_queue()
        os._exit(_PLAN_CRASH_EXIT)

    def stall(self) -> None:
        """Plan-driven hang: block until the watchdog SIGKILLs us."""
        while True:
            time.sleep(3600)

    def _flush_queue(self) -> None:
        """Drain the feeder thread before dying.

        ``multiprocessing.Queue`` writes happen on a background feeder
        thread under a write lock *shared across processes*.  Exiting
        while our feeder is mid-write would take that lock to the
        grave and wedge every surviving worker's queue — so even
        "dirty" deaths drain first.  The current partial round is still
        discarded with the process: its round message was never
        enqueued, only already-complete rounds and heartbeats flush.
        """
        try:
            self.queue.close()
            self.queue.join_thread()
        except Exception:
            pass

    def _die(self, mode: str, *, flush: bool) -> None:
        self._flush_queue()
        if mode == "stall":
            self.stall()
        os._exit(_BOUNDARY_CRASH_EXIT if flush else _MIDROUND_CRASH_EXIT)


def _worker_main(
    shard_id: int,
    generation: int,
    indices: Tuple[int, ...],
    start_ordinal: int,
    state: Optional[dict],
    payload,
    result_queue,
    kill_specs: Tuple[KillSpec, ...],
    recover: bool,
    capture: bool,
    trace: bool,
) -> None:
    """Worker entry point: crawl one shard once, report, and exit.

    ``payload`` is the parent's built-and-warmed :class:`Study`
    (unsupervised runs: inherited copy-on-write under ``fork``,
    arriving pickled under ``spawn``) or a :class:`StudyConfig`
    (supervised runs, and the fallback for a study that will not
    pickle).  ``state``, when given, is restored first, so a resumed or
    respawned shard continues exactly where its last accepted round
    left off.  ``shard-done`` reports whether the execution built from
    the config; a shard that raises reports its traceback instead.
    ``capture`` ships a :meth:`Study.capture_state` snapshot with every
    round; ``trace`` ships the round's span trees.
    """
    try:
        rebuilt = not isinstance(payload, Study)
        study = Study(payload) if rebuilt else payload
        if state is not None:
            study.restore_state(state)
        harness = _WorkerHarness(shard_id, generation, result_queue, kill_specs)
        if recover:
            harness.arm(study)
        study.run_shard(
            list(indices),
            on_round=harness.emit_round,
            on_round_start=harness.heartbeat,
            start_ordinal=start_ordinal,
            capture_state=capture,
            trace=trace,
        )
        result_queue.put(
            (
                "shard-done",
                shard_id,
                generation,
                study.stats,
                study.fault_stats,
                rebuilt,
            )
        )
    except Exception:  # an interrupt ends the worker: the parent sees a crash
        result_queue.put(("error", shard_id, generation, traceback.format_exc()))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one shard's lifecycle."""

    shard_id: int
    indices: Tuple[int, ...]
    next_ordinal: int = 0
    """First round not yet accepted — the resume point."""
    snapshot: Optional[dict] = None
    """Last accepted round's :meth:`Study.capture_state` payload, or the
    quarantine marker once the shard is given up on."""
    generation: int = 0
    """Total failures so far == generation of the current process."""
    failures_since_progress: int = 0
    done: bool = False
    quarantined: bool = False
    last_virtual: float = 0.0
    """Virtual minutes of the last heartbeat (schedule position)."""
    process: Optional[multiprocessing.process.BaseProcess] = None
    """The current generation's worker process."""
    last_message_wall: float = 0.0
    """Wall-clock time of the current process's spawn or last message."""
    leader_at_spawn: Optional[int] = None
    """The leader's next round when the current process was spawned,
    until its first message (None after)."""


class _Executor:
    """The parent side of one run: spawn, watch, merge, and recover."""

    def __init__(
        self,
        study: Study,
        plan: ShardPlan,
        context,
        payload,
        *,
        merge: RoundMerge,
        recover: bool,
        policy: SupervisorPolicy,
        kill_specs: Tuple[KillSpec, ...],
        capture: bool,
        trace: bool,
    ) -> None:
        self.study = study
        self.context = context
        self.payload = payload
        self.merge = merge
        self.recover = recover
        self.policy = policy
        self.kill_specs = kill_specs
        self.capture = capture
        self.trace = trace
        self.report = SupervisorReport(workers=plan.workers)
        self.stats = self.report.stats
        self.total_rounds = study.round_count()
        self.shards = [
            _ShardState(shard_id=i, indices=tuple(indices))
            for i, indices in enumerate(plan.assignments)
        ]
        self.result_queue = context.Queue(
            maxsize=plan.workers * _QUEUE_DEPTH_PER_WORKER
        )
        # Merge state, keyed by round ordinal.  Arrivals hold shard-id
        # sets: each shard's round is accepted once, from the shard's
        # current generation.
        self.pending: dict = {}  # (treatment index, outcome) pairs
        self.states: dict = {}  # shard id -> snapshot, journalled runs only
        self.spans: dict = {}  # span trees from all shards, traced runs only
        self.arrivals: dict = {}
        self.next_flush = 0
        self._all_shards = frozenset(s.shard_id for s in self.shards)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Open the merge (replaying a journal's durable prefix), spawn shards."""
        resume = self.merge.open([shard.indices for shard in self.shards])
        self.next_flush = resume.next_ordinal
        for shard in self.shards:
            shard.next_ordinal = resume.next_ordinal
            shard.snapshot = resume.worker_states.get(shard.shard_id)
            if shard.snapshot is not None and "quarantined" in shard.snapshot:
                self._quarantine(shard)
            else:
                self._spawn(shard)

    def _spawn(self, shard: _ShardState) -> None:
        """Start the shard's current generation from its resume point."""
        shard.process = self.context.Process(
            target=_worker_main,
            args=(
                shard.shard_id,
                shard.generation,
                shard.indices,
                shard.next_ordinal,
                shard.snapshot,
                self.payload,
                self.result_queue,
                self.kill_specs,
                self.recover,
                self.capture,
                self.trace,
            ),
            name=f"crawl-shard-{shard.shard_id}",
            daemon=True,
        )
        shard.process.start()
        shard.last_message_wall = time.monotonic()
        shard.leader_at_spawn = self._leader()

    def run(self) -> None:
        while not all(s.done or s.quarantined for s in self.shards):
            try:
                message = self.result_queue.get(timeout=self.policy.poll_seconds)
            except queue_module.Empty:
                pass
            else:
                self._dispatch(message)
                # Judge liveness only against an empty queue: a slow
                # parent must not mistake queued messages for silence.
                self._drain()
            self._watchdog()
        self._flush_ready()
        if self.next_flush != self.total_rounds:
            raise RuntimeError(
                f"parallel merge incomplete: flushed {self.next_flush} "
                f"of {self.total_rounds} rounds"
            )

    def close(self) -> None:
        """Stop every worker, then close the merge's journal and log."""
        self._shutdown()
        self.merge.close(self.report)

    def _shutdown(self) -> None:
        # A finished shard's worker exits on its own; a busy one means
        # the run is being abandoned, so it is terminated.
        for shard in self.shards:
            if shard.process is not None and not shard.done:
                shard.process.terminate()
        deadline = time.monotonic() + 5.0
        for shard in self.shards:
            if shard.process is None:
                continue
            shard.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join()

    # -- message handling ----------------------------------------------------

    def _dispatch(self, message) -> None:
        kind, shard_id, generation = message[:3]
        shard = self.shards[shard_id]
        if shard.done or shard.quarantined or generation != shard.generation:
            return  # a settled shard, or an earlier generation's leftovers
        shard.last_message_wall = time.monotonic()
        shard.leader_at_spawn = None
        if kind == "heartbeat":
            shard.last_virtual = message[3]
            self.stats.heartbeats += 1
        elif kind == "round":
            ordinal, outcomes, state, round_spans = message[3:]
            self.pending.setdefault(ordinal, []).extend(outcomes)
            if round_spans is not None:
                self.spans.setdefault(ordinal, []).extend(round_spans)
            if self.merge.journal is not None:
                self.states.setdefault(ordinal, {})[shard_id] = state
            self.arrivals.setdefault(ordinal, set()).add(shard_id)
            shard.snapshot = state
            shard.next_ordinal = ordinal + 1
            shard.failures_since_progress = 0
            self.stats.rounds_received += 1
            self._flush_ready()
        elif kind == "shard-done":
            stats, fault_stats, rebuilt = message[3:]
            shard.done = True
            # The completing generation restored the shard's snapshot,
            # so its counters cover the *whole* shard — merge once.
            self.study.stats.merge(stats)
            self.study.fault_stats.merge(fault_stats)
            self.study.worker_rebuilds += rebuilt
        else:  # "error": the worker reported its traceback and is exiting
            tb = message[3]
            if not self.recover:
                raise RuntimeError(f"crawl worker {shard_id} failed:\n{tb}")
            shard.process.join()
            self.stats.worker_errors += 1
            detail = tb.strip().splitlines()[-1] if tb.strip() else "unknown error"
            self._handle_failure(shard, "worker-error", detail)

    def _flush_ready(self) -> None:
        """Commit every round all shards delivered, in schedule order."""
        while self.arrivals.get(self.next_flush) == self._all_shards:
            ordinal = self.next_flush
            del self.arrivals[ordinal]
            self.merge.commit(
                ordinal,
                sorted(self.pending.pop(ordinal), key=lambda pair: pair[0]),
                self.states.pop(ordinal, None),
                self.spans.pop(ordinal, []),
            )
            self.next_flush += 1

    # -- detection -----------------------------------------------------------

    def _leader(self) -> int:
        """Next round of the most advanced live shard."""
        return max(
            (s.next_ordinal for s in self.shards if not s.quarantined),
            default=0,
        )

    def _watchdog(self) -> None:
        now = time.monotonic()
        leader = self._leader()
        for shard in self.shards:
            if shard.done or shard.quarantined:
                continue
            process = shard.process
            if process.exitcode is not None:
                # Drain in-flight messages first: the dead worker's
                # final rounds may still sit in the queue, and accepting
                # them moves the resume point forward.
                self._drain()
                if shard.done or shard.quarantined or shard.process is not process:
                    continue  # the drain settled it (shard-done or error)
                self.stats.crashes_detected += 1
                kind = "crash-detected"
                detail = f"exit code {process.exitcode}"
            else:
                silence = now - shard.last_message_wall
                wall_stalled = silence >= self.policy.stall_timeout_seconds
                # Until its first message a worker is building its
                # study and restoring the shard's snapshot, so it is
                # late only once the leader has moved on since the
                # spawn, not for where the leader already stood (a
                # respawned shard starts behind).
                start = shard.next_ordinal
                if shard.leader_at_spawn is not None:
                    start = max(start, shard.leader_at_spawn)
                virtual_stalled = (
                    silence >= self.policy.stall_grace_seconds
                    and leader - start >= self.policy.stall_rounds
                )
                if not (wall_stalled or virtual_stalled):
                    continue
                self.stats.stalls_detected += 1
                process.kill()
                process.join()
                kind = "stall-detected"
                detail = (
                    f"{'wall watchdog' if wall_stalled else 'virtual deadline'}: "
                    f"silent {silence:.1f}s at round {shard.next_ordinal} "
                    f"(leader {leader})"
                )
            if not self.recover:
                raise WorkerFailure(shard.shard_id, process.exitcode, shard.indices)
            self._handle_failure(shard, kind, detail)

    def _drain(self) -> None:
        """Process every message already in the queue, without blocking."""
        while True:
            try:
                message = self.result_queue.get_nowait()
            except queue_module.Empty:
                return
            self._dispatch(message)

    # -- recovery ------------------------------------------------------------

    def _event(self, kind: str, shard: _ShardState, detail: str) -> None:
        self.report.record(
            SupervisorEvent(
                kind=kind,
                shard=shard.shard_id,
                generation=shard.generation,
                resume_ordinal=shard.next_ordinal,
                virtual_minutes=shard.last_virtual,
                detail=detail,
            )
        )

    def _handle_failure(self, shard: _ShardState, kind: str, detail: str) -> None:
        """Respawn the failed shard as itself, or quarantine it."""
        shard.generation += 1
        shard.failures_since_progress += 1
        self._event(kind, shard, detail)
        if shard.failures_since_progress >= self.policy.quarantine_after:
            self._quarantine(shard)
            return
        self.stats.respawns += 1
        self._spawn(shard)
        self._event(
            "respawned",
            shard,
            f"replacement process (generation {shard.generation})",
        )

    # -- quarantine ----------------------------------------------------------

    def _quarantine(self, shard: _ShardState) -> None:
        """Give up on a deterministically failing shard — loudly.

        The crawled prefix is kept (stats from the last snapshot, rounds
        already merged); every remaining (round × treatment) cell
        becomes a structured failure that flows through
        ``per_location_coverage`` like any other, so the hole is
        visible, attributable, and never silent.  The shard's snapshot
        becomes the quarantine marker — the prefix counters plus the
        forfeited cells — which is journalled in the shard's state slot
        for every remaining round; a run resuming from the journal
        finds it there and re-quarantines from the marker alone.
        """
        if shard.snapshot is None or "quarantined" not in shard.snapshot:
            shard.snapshot = self._quarantine_marker(shard)
        marker = shard.snapshot
        shard.quarantined = True
        self.stats.quarantined_shards += 1
        self._event(
            "quarantined",
            shard,
            f"after {marker['failures']} consecutive failures "
            f"without progress; rounds {marker['quarantined']}.."
            f"{self.total_rounds - 1} forfeited",
        )
        prefix_stats = CrawlStats()
        prefix_stats.restore_state(marker["stats"])
        self.study.stats.merge(prefix_stats)
        prefix_faults = FaultStats()
        prefix_faults.restore_state(marker["fault_stats"])
        self.study.fault_stats.merge(prefix_faults)
        reason = (
            f"shard {shard.shard_id} quarantined after "
            f"{marker['failures']} consecutive worker failures"
        )
        for scheduled in self.study.iter_rounds():
            if scheduled.ordinal < shard.next_ordinal:
                continue
            for index in shard.indices:
                treatment = self.study.treatments[index]
                self.pending.setdefault(scheduled.ordinal, []).append(
                    (
                        index,
                        CrawlFailure(
                            query=scheduled.query.text,
                            location_name=treatment.region.qualified_name,
                            day=scheduled.day_offset,
                            copy_index=treatment.copy_index,
                            reason=reason,
                            kind="shard-quarantined",
                        ),
                    )
                )
                self.stats.quarantined_failures += 1
            self.arrivals.setdefault(scheduled.ordinal, set()).add(shard.shard_id)
            if self.merge.journal is not None:
                self.states.setdefault(scheduled.ordinal, {})[shard.shard_id] = marker

    def _quarantine_marker(self, shard: _ShardState) -> dict:
        """The journal's stand-in for a quarantined shard's state."""
        stats, faults = CrawlStats(), FaultStats()
        if shard.snapshot is not None:
            stats.restore_state(shard.snapshot["stats"])
            faults.restore_state(shard.snapshot["fault_stats"])
        forfeited = (self.total_rounds - shard.next_ordinal) * len(shard.indices)
        for _ in range(forfeited):
            stats.record_failure_kind("shard-quarantined")
        return {
            "quarantined": shard.next_ordinal,
            "failures": shard.failures_since_progress,
            "stats": stats.capture_state(),
            "fault_stats": faults.capture_state(),
        }


def run_parallel(
    study: Study,
    *,
    workers: int,
    sink=None,
    start_method: Optional[str] = None,
    checkpoint: Optional[str] = None,
    trace: Optional[str] = None,
    events: Optional[str] = None,
    supervise: bool = False,
    policy: Optional[SupervisorPolicy] = None,
    kill_specs: Sequence[KillSpec] = (),
) -> SerpDataset:
    """Run ``study``'s full schedule sharded across worker processes.

    The parent commits each round, once every shard has reported it,
    through the same :class:`~repro.core.runner.RoundMerge` the
    in-process run uses, in canonical (round, treatment) order, and
    leaves ``study.stats`` / ``study.failures`` holding the merged
    counters — exactly the observable state a sequential
    :meth:`Study.run` leaves behind.

    Args:
        study: A freshly constructed study (its browsers must not have
            issued any requests — per-browser nonce streams restart in
            each worker).
        workers: Requested worker count; the effective count is
            clamped to the number of occupied crawl machines.
        sink: Optional per-record callable, as in :meth:`Study.run`.
        start_method: ``multiprocessing`` start method override
            (default: ``fork`` when available).
        checkpoint, trace, events: As in :meth:`Study.run` (``trace``
            and ``events`` name one log; pass one); a resumed journal
            restarts every shard from its durable boundary with its
            own state restored, after the merge releases the
            journalled rounds (and, traced, their spans) again.
        supervise: Turn recovery on: a crashed, hung, or erroring
            shard is respawned as itself (a new worker process,
            generation + 1) from its last snapshot instead of failing
            the run, and the
            :class:`~repro.supervise.stats.SupervisorReport` (counters
            + ordered recovery ledger) is left on ``study.supervisor``.
            Off, the first crash or stall raises :class:`WorkerFailure`
            and a worker exception raises with its traceback.
        policy: Optional :class:`~repro.supervise.SupervisorPolicy`.
            Its detection fields (stall deadlines, poll interval) apply
            to every run; its recovery field (``quarantine_after``)
            only with ``supervise``.
        kill_specs: Optional :class:`~repro.supervise.KillSpec` murder
            points (supervised runs only — tests and the chaos CLI).

    Returns:
        The merged :class:`SerpDataset`.
    """
    if kill_specs and not supervise:
        raise ValueError("kill_specs require supervise=True")
    if study.stats.requests or study.failures:
        raise ValueError(
            "parallel run requires a freshly constructed Study "
            "(this one has already crawled)"
        )
    merge = RoundMerge(
        study, sink=sink, checkpoint=checkpoint, trace=trace, events=events
    )
    plan = plan_shards(len(study.treatments), len(study.fleet), workers)
    context = multiprocessing.get_context(start_method or _preferred_start_method())
    # Zero-rebuild delivery for unsupervised runs: warm every pure cache
    # once in the parent, then hand workers the built study itself —
    # inherited copy-on-write under fork, pickled by multiprocessing
    # under spawn.  Only a study that cannot pickle makes spawn workers
    # rebuild from the config.  Supervised runs stay cold in the parent
    # and build each shard execution from the config, as a re-execution
    # must anyway; inheriting a warmed parent measured slower and ~50%
    # heavier in peak RSS on the supervised audit (docs/ROBUSTNESS.md).
    payload = study.config
    if not supervise:
        study.prefork_warmup()
        payload = study
        if context.get_start_method() != "fork":
            try:
                pickle.dumps(study)
            except Exception:
                payload = study.config
    executor = _Executor(
        study,
        plan,
        context,
        payload,
        merge=merge,
        recover=supervise,
        policy=policy or SupervisorPolicy(),
        kill_specs=tuple(kill_specs),
        capture=supervise or checkpoint is not None,
        trace=trace is not None,
    )
    if supervise:
        study.supervisor = executor.report
    try:
        executor.start()
        executor.run()
    finally:
        executor.close()
    return merge.dataset
