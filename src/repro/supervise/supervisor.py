"""Self-healing parallel execution: supervise, detect, recover.

The paper's 44-machine lock-step crawl only worked because a dead
machine could be re-imaged and rejoined without invalidating the other
43.  ``Study.run(workers=N, supervise=True)`` gives the crawl the same
property on one host: worker processes are monitored, failures are
classified, and the failed worker's shard is re-executed from its last
state snapshot — on a respawned process or reassigned to a surviving
worker — with the merged dataset staying byte-identical to the
sequential run.

Execution model
---------------
There is one executor, :func:`repro.parallel.run_parallel`, and
``supervise`` turns its recovery on.  Every worker is a *shard
executor*, not a one-shot process: it loops on a private command
queue, receiving ``("run", shard, indices, start_ordinal, state,
generation)`` assignments and streaming heartbeats and results back
over the shared result queue.  That is what makes reassignment cheap —
handing a dead worker's shard to an idle survivor is just another
command, no new process required — and what lets the pool degrade
gracefully from N workers to N−1 … 1.  This module holds the knobs
(:class:`SupervisorPolicy`) and the test harness (:class:`KillSpec`);
:mod:`repro.supervise.stats` holds the counters and the ledger.

Detection
---------
* **Crash** — the worker process has an exit code while its shard is
  unfinished (OOM kill, ``os._exit``, interpreter abort).  Detected by
  polling ``Process.exitcode``; in-flight messages are drained first so
  the resume point is as far forward as the worker actually got.
* **Stall** — the worker is alive but silent.  Liveness is virtual-time
  first: every worker heartbeats at each round boundary with its
  schedule position, so a worker ``stall_rounds`` behind the leader
  that has also been wall-silent for ``stall_grace_seconds`` missed its
  deadline.  A pure wall-clock watchdog (``stall_timeout_seconds``)
  backstops the case where *no* leader is advancing (e.g. workers=1).
  Stalled workers are SIGKILLed and handled like crashes.
* **Worker error** — the shard raised inside a live worker; the worker
  reports a traceback and stays in the pool.

Detection runs with recovery off too: an unsupervised run raises
:class:`~repro.parallel.WorkerFailure` on the first crash or stall.

Recovery
--------
The shard's last accepted per-round snapshot (the same
:meth:`Study.capture_state` payload checkpoint resume uses) restores
engine/browser/stats state exactly, so re-execution resumes at the
first unreceived round and is byte-identical — the partial round a
crash discarded is re-crawled from the same state it started from.  A
shard that fails ``quarantine_after`` consecutive times *without
delivering a round* is deterministic-failure-quarantined: its crawled
prefix is kept, every remaining (round × treatment) cell becomes a
structured ``CrawlFailure(kind="shard-quarantined")``, and the hole
stays visible in ``per_location_coverage`` — never silent loss.

Determinism under test
----------------------
:class:`KillSpec` murders workers at exact points (round boundary or
the Nth request of a round) for the parity matrix, and
``FaultPlan.worker_fault`` drives chaos-style crashes/stalls keyed on
(request nonce, incarnation generation) — generation keying is what
lets a respawned worker get *past* the request that killed its
predecessor, so plan-driven crashes recover instead of looping.  Both
fire only with recovery on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "KillSpec",
    "SupervisorPolicy",
]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Detection/recovery knobs for one parallel run.

    The detection fields (stall deadlines, poll interval) apply to
    every run; the recovery fields (``quarantine_after``,
    ``max_respawns``) only to supervised ones.  The defaults are
    deliberately conservative: a false stall positive costs a wasted
    re-execution under supervision (parity is unaffected and the
    quarantine counter resets on progress) but fails an unsupervised
    run, and a too-eager watchdog on a loaded CI host would churn.
    """

    quarantine_after: int = 3
    """Consecutive failures *without progress* before a shard is
    quarantined.  The counter resets every time the shard delivers a
    round, so an unlucky chaos plan does not look deterministic."""

    max_respawns: Optional[int] = None
    """Replacement-process budget for the whole run (``None`` =
    unlimited).  Once exhausted, recovery degrades to reassigning
    shards to surviving workers."""

    stall_timeout_seconds: float = 120.0
    """Wall-clock silence after which a busy worker is presumed hung,
    regardless of schedule position (the watchdog fallback)."""

    stall_grace_seconds: float = 10.0
    """Minimum wall-clock silence before the virtual deadline below
    may fire (absorbs scheduler hiccups on loaded hosts)."""

    stall_rounds: int = 2
    """Virtual-time liveness deadline: a silent worker this many rounds
    behind the most advanced shard has missed its heartbeat.  Until its
    first message after an assignment (while it builds its study) a
    worker is behind only by the rounds the leader ran since then."""

    poll_seconds: float = 0.2
    """Result-queue poll interval (bounds detection latency)."""

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.max_respawns is not None and self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 or None")
        if self.stall_rounds < 1:
            raise ValueError("stall_rounds must be >= 1")


@dataclass(frozen=True)
class KillSpec:
    """Kill a worker at an exact, reproducible point (test harness).

    A spec targets a *shard* (not a worker slot — reassignment moves
    shards between slots) and fires inside whichever incarnation is
    executing it.
    """

    shard: int
    """Shard the kill targets."""

    ordinal: int
    """Schedule round the kill fires in."""

    request: Optional[int] = None
    """``None`` kills at the round boundary, *after* the round's result
    message is flushed to the parent; ``n`` kills mid-round, before the
    shard's n-th engine request of that round is dispatched."""

    mode: str = "crash"
    """``"crash"`` = ``os._exit`` (SIGKILL-equivalent); ``"stall"`` =
    block forever (exercises the hang watchdog)."""

    generation: Optional[int] = 0
    """Which incarnation dies: ``0`` = only the first (recovery
    succeeds), ``None`` = every incarnation (deterministic failure —
    the quarantine path)."""

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "stall"):
            raise ValueError(f"unknown kill mode {self.mode!r}")
