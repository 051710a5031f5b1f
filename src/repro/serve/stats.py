"""Serving metrics: what the gateway and the fleet count and report.

Everything is measured in *virtual* time (study minutes) except
throughput, which the load driver measures against the wall clock.  The
counters mirror what a production serving stack exports: cache
hit/miss/eviction, admission and shedding, retries, hedges, queue
depth, and per-stage latency.

Latency series are :class:`~repro.obs.metrics.Histogram` instances —
the shared fixed-bucket type every reporter uses.  Snapshot/merge/
restore come from :class:`~repro.obs.metrics.MetricSet`, so
``restore_state`` rejects unknown keys instead of blindly
``setattr``-ing whatever a snapshot contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.metrics import Histogram, MetricSet
from repro.obs.telemetry import format_kv_rows

__all__ = ["GatewayStats", "FleetStats"]


@dataclass
class GatewayStats(MetricSet):
    """Counters for one gateway instance.

    Cache counters are incremented by the :class:`~repro.serve.cache.
    SerpCache` the gateway owns; everything else by the gateway itself.
    """

    _MAX_FIELDS = ("max_queue_depth",)

    requests: int = 0

    # -- SERP cache ---------------------------------------------------------
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    """Requests not eligible for caching (they carried session state)."""
    cache_evictions: int = 0
    """Entries dropped for capacity (LRU order)."""
    cache_expirations: int = 0
    """Entries dropped because their virtual day rolled over."""

    # -- admission control ----------------------------------------------------
    admitted: int = 0
    rejected: int = 0
    """Requests shed because every replica queue was full."""
    retries: int = 0
    """Re-dispatches after a RATE_LIMITED response, with backoff."""
    hedges: int = 0
    """Requests dispatched to a second replica to cut tail latency."""
    rate_limited: int = 0
    """RATE_LIMITED responses seen from replicas (before retries)."""
    degraded_served: int = 0
    """Requests answered from the stale SERP store because no replica
    could take them (degraded mode; the response carries DEGRADED)."""
    max_queue_depth: int = 0

    # -- routing ---------------------------------------------------------------
    replica_requests: Dict[str, int] = field(default_factory=dict)

    # -- virtual latency --------------------------------------------------------
    queue_wait: Histogram = field(default_factory=Histogram)
    service: Histogram = field(default_factory=Histogram)
    total: Histogram = field(default_factory=Histogram)

    def record_dispatch(self, replica_name: str, depth: int) -> None:
        """Book-keep one request dispatched to a replica."""
        self.admitted += 1
        self.replica_requests[replica_name] = (
            self.replica_requests.get(replica_name, 0) + 1
        )
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Cache hits over cache-eligible lookups."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def render(self) -> str:
        """A human-readable metrics report."""
        rows = [
            ("requests", self.requests),
            (
                "cache",
                f"hits={self.cache_hits} misses={self.cache_misses} "
                f"bypasses={self.cache_bypasses} hit-rate={self.hit_rate:.1%}",
            ),
            (
                "cache churn",
                f"evictions={self.cache_evictions} "
                f"expirations={self.cache_expirations}",
            ),
            (
                "admission",
                f"admitted={self.admitted} rejected={self.rejected} "
                f"max-depth={self.max_queue_depth}",
            ),
            (
                "resilience",
                f"retries={self.retries} hedges={self.hedges} "
                f"rate-limited={self.rate_limited} degraded={self.degraded_served}",
            ),
            (
                "virtual latency",
                f"wait {self.queue_wait.mean_minutes * 60:.2f}s avg / "
                f"{self.queue_wait.max_minutes * 60:.2f}s max, "
                f"service {self.service.mean_minutes * 60:.2f}s avg / "
                f"{self.service.max_minutes * 60:.2f}s max, "
                f"total {self.total.mean_minutes * 60:.2f}s avg / "
                f"{self.total.max_minutes * 60:.2f}s max",
            ),
        ]
        if self.replica_requests:
            share = ", ".join(
                f"{name}={count}" for name, count in sorted(self.replica_requests.items())
            )
            rows.append(("per-replica", share))
        return "\n".join(["gateway stats"] + format_kv_rows(rows))


@dataclass
class FleetStats(MetricSet):
    """Counters for the consistent-hash gateway fleet.

    The four outcome counters partition ``requests`` exactly — the
    accounting invariant the chaos harness audits: every offered
    request is served fresh, served stale, deliberately shed, or
    failed; nothing vanishes.  Ladder and fault counters ride along so
    a chaos ledger can explain *why* the outcomes happened.
    """

    requests: int = 0
    """Requests offered to the front tier."""

    # -- outcome partition ----------------------------------------------------
    served_fresh: int = 0
    """OK responses computed or cache-hit on a live shard."""
    served_stale: int = 0
    """DEGRADED responses from a stale store (shard- or fleet-level)."""
    shed: int = 0
    """OVERLOADED answers: queues full, owners dark, or brownout."""
    failed: int = 0
    """Terminal non-OK answers (rate-limited past retries, 5xx)."""

    # -- degradation ladder ---------------------------------------------------
    rerouted: int = 0
    """Requests served by a replica shard because the primary owner was
    down, partitioned, or browned out."""
    fleet_stale_served: int = 0
    """Stale answers found by scanning live peers after every owner of
    the key was unreachable (the fleet-level stale rung)."""
    backfills: int = 0
    """Anti-entropy repair passes run when a crashed shard rejoined."""
    backfilled_entries: int = 0
    """Cache entries copied from peers during those repairs."""
    hot_promotions: int = 0
    """Keys promoted to the hot set (served by every shard)."""
    hot_requests: int = 0
    """Requests routed via the hot set instead of ring owners."""
    brownout_entries: int = 0
    """Times the SLO controller switched the fleet into brownout."""
    brownout_shed: int = 0
    """Requests deliberately shed while browned out."""

    # -- fault injection -------------------------------------------------------
    faults_injected: Dict[str, int] = field(default_factory=dict)
    """Per-kind serve faults the chaos plan fired (by kind value)."""

    # -- routing ---------------------------------------------------------------
    shard_requests: Dict[str, int] = field(default_factory=dict)
    """Requests delegated to each shard gateway (by shard name)."""
    shard_outcomes: Dict[str, int] = field(default_factory=dict)
    """Per-shard outcome partition, keyed ``"shard:outcome"`` — each
    shard's fresh/stale/shed/failed split (flat keys so snapshots merge
    per key like every other labeled counter)."""

    def record_outcome(self, outcome: str) -> None:
        """Bump the outcome partition; ``outcome`` is a counter name."""
        setattr(self, outcome, getattr(self, outcome) + 1)

    def record_shard_outcome(self, shard_name: str, outcome: str) -> None:
        """Bump one shard's request count and outcome split."""
        self.shard_requests[shard_name] = (
            self.shard_requests.get(shard_name, 0) + 1
        )
        key = f"{shard_name}:{outcome}"
        self.shard_outcomes[key] = self.shard_outcomes.get(key, 0) + 1

    def unaccounted(self) -> int:
        """Offered requests missing from the outcome partition (0 = all
        accounted for; negative = double-counted)."""
        return self.requests - (
            self.served_fresh + self.served_stale + self.shed + self.failed
        )

    def render(self) -> str:
        """A human-readable fleet report."""
        unaccounted = self.unaccounted()
        rows = [
            ("requests", self.requests),
            (
                "outcomes",
                f"fresh={self.served_fresh} "
                f"stale={self.served_stale} shed={self.shed} "
                f"failed={self.failed}",
            ),
            (
                "accounting",
                f"unaccounted={unaccounted} "
                f"({'OK' if unaccounted == 0 else 'VIOLATION'})",
            ),
            (
                "ladder",
                f"rerouted={self.rerouted} "
                f"fleet-stale={self.fleet_stale_served} "
                f"backfills={self.backfills} "
                f"backfilled-entries={self.backfilled_entries}",
            ),
            (
                "hot keys",
                f"promotions={self.hot_promotions} "
                f"requests={self.hot_requests}",
            ),
            (
                "brownout",
                f"entries={self.brownout_entries} "
                f"shed={self.brownout_shed}",
            ),
        ]
        if self.faults_injected:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.faults_injected.items())
            )
            rows.append(("faults injected", kinds))
        if self.shard_requests:
            share = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.shard_requests.items())
            )
            rows.append(("per-shard", share))
        if self.shard_outcomes:
            split = ", ".join(
                f"{key}={count}"
                for key, count in sorted(self.shard_outcomes.items())
            )
            rows.append(("shard outcomes", split))
        return "\n".join(["fleet stats"] + format_kv_rows(rows))
