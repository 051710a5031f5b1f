"""Supervision metrics and the recovery ledger.

:class:`SupervisorStats` is a :class:`~repro.obs.metrics.MetricSet`
like every other stats holder in the repo — plain summable counters —
so it snapshots, restores, and registers into the unified metrics
registry with zero bespoke plumbing.  :class:`SupervisorEvent` records
are the *ledger*: one structured entry per detection/recovery action,
in the order the supervisor took them, which is what
``repro chaos --kill-workers`` prints and CI uploads as an artifact.

Counters and ledger answer different questions: the counters say *how
much* supervision happened (and merge into the registry), the ledger
says *what exactly* happened to which shard, in order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.obs.metrics import MetricSet
from repro.obs.trace import study_span_id, supervisor_span_id

__all__ = ["SupervisorStats", "SupervisorEvent", "SupervisorReport"]


@dataclass
class SupervisorStats(MetricSet):
    """Counters for one supervised parallel run."""

    heartbeats: int = 0
    """Liveness messages received (one per worker per round start)."""
    rounds_received: int = 0
    """Round results received (re-executed rounds counted once)."""
    crashes_detected: int = 0
    """Worker processes found dead (non-zero exit or dead pipe)."""
    stalls_detected: int = 0
    """Workers killed after missing their liveness deadline."""
    worker_errors: int = 0
    """Shard executions that raised inside a live worker."""
    respawns: int = 0
    """Replacement worker processes spawned."""
    reassignments: int = 0
    """Shards handed to a surviving worker instead of a respawn."""
    workers_lost: int = 0
    """Worker slots permanently retired (degradation N -> N-1)."""
    quarantined_shards: int = 0
    """Shards given up on after K deterministic failures."""
    quarantined_failures: int = 0
    """``shard-quarantined`` CrawlFailures synthesized for lost rounds."""

    @property
    def recoveries(self) -> int:
        """Recovery actions taken (respawn or reassign)."""
        return self.respawns + self.reassignments


@dataclass(frozen=True)
class SupervisorEvent:
    """One entry in the recovery ledger."""

    kind: str
    """``crash-detected`` / ``stall-detected`` / ``worker-error`` /
    ``respawned`` / ``reassigned`` / ``quarantined``."""
    worker: int
    """Worker slot the event concerns."""
    shard: int
    """Shard (index into the run's shard plan) the event concerns."""
    generation: int
    """How many times this shard had failed when the event fired."""
    resume_ordinal: int
    """The round re-execution (re)starts from, at event time."""
    virtual_minutes: float
    """Virtual time of the shard's last heartbeat (schedule position)."""
    detail: str = ""
    """Human-readable specifics (exit code, silence, survivor, ...)."""


@dataclass
class SupervisorReport:
    """What a supervised run leaves behind: counters + ordered ledger."""

    workers: int
    """Worker slots the run started with."""
    stats: SupervisorStats = field(default_factory=SupervisorStats)
    events: List[SupervisorEvent] = field(default_factory=list)

    def record(self, event: SupervisorEvent) -> None:
        self.events.append(event)

    @property
    def clean(self) -> bool:
        """True when no failure was ever detected."""
        return not self.events

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "stats": self.stats.capture_state(),
            "events": [asdict(event) for event in self.events],
        }

    def trace_trees(self, trace_id: str) -> List[dict]:
        """The recovery ledger as zero-length spans under the study root.

        ``detail`` stays in the ledger: it can carry wall-clock readings
        (a stall's silence), and no wall-clock value enters a span.
        """
        return [
            {
                "id": supervisor_span_id(trace_id, seq),
                "parent": study_span_id(trace_id),
                "name": f"supervisor.{event.kind}",
                "start": event.virtual_minutes,
                "end": event.virtual_minutes,
                "attrs": {
                    key: getattr(event, key)
                    for key in ("worker", "shard", "generation", "resume_ordinal")
                },
                "events": [],
                "children": [],
            }
            for seq, event in enumerate(self.events)
        ]

    def render(self, *, limit: Optional[int] = None) -> str:
        """The recovery ledger as the chaos CLI prints it."""
        stats = self.stats
        lines = [
            "supervision ledger "
            f"(workers={self.workers}, heartbeats={stats.heartbeats}):",
            f"  detected   crashes={stats.crashes_detected} "
            f"stalls={stats.stalls_detected} errors={stats.worker_errors}",
            f"  recovered  respawned={stats.respawns} "
            f"reassigned={stats.reassignments} workers-lost={stats.workers_lost}",
            f"  quarantined shards={stats.quarantined_shards} "
            f"(synthesized failures={stats.quarantined_failures})",
        ]
        events = self.events if limit is None else self.events[-limit:]
        for event in events:
            lines.append(
                f"  t={event.virtual_minutes:9.2f}  {event.kind:16s} "
                f"shard={event.shard} worker={event.worker} "
                f"gen={event.generation} resume@{event.resume_ordinal}"
                + (f"  {event.detail}" if event.detail else "")
            )
        if not self.events:
            lines.append("  (no failures detected)")
        return "\n".join(lines)
