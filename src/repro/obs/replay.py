"""Canonical gateway spans via merge-time admission replay.

Why replay instead of recording?  When a crawl is sharded over N
workers, each worker rebuilds its own gateway, and that gateway's
*telemetry* — queue depth, queue wait, which replica round-robin picks
— depends on which shard of the traffic it saw.  The served bytes
don't (replicas are interchangeable and pages are request-determined,
which is why the dataset stays byte-identical), but live gateway spans
would differ per worker count and break the trace-parity invariant.

So the crawl path never records gateway spans live.  Instead, at merge
time — where attempts from all shards are already in canonical (round,
treatment, attempt) order — :class:`GatewayReplay` re-runs the
admission model over the full request stream: the same
:class:`~repro.serve.admission.ReplicaQueue` maths, the same routing
policy, the same replica fleet, fed in the order the sequential
gateway would have seen.  The resulting ``gateway.queue`` /
``gateway.service`` spans are the canonical serving timeline of the
study, identical for every worker count by construction.

Scope: the study crawl's gateway mode (no SERP cache, no hedging —
both are disabled for parity crawls) with gateway-internal retries not
modelled separately (the runner's own retry loop re-enters the replay
as a fresh attempt).  Attempts that never reached the serving surface
— pre-dispatch injected faults (crash / DNS / timeout / 5xx / storm)
and breaker fast-fails, which issue no request at all — are skipped,
exactly as the live gateway never saw them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.datacenters import Datacenter
from repro.engine.frontend import DEFAULT_LOCATION
from repro.geo.coords import LatLon
from repro.serve.admission import ReplicaQueue
from repro.serve.routing import make_policy

from repro.obs.trace import child_span_id

__all__ = ["GatewayReplay"]

#: Attempt statuses that short-circuited *before* the serving surface:
#: the gateway never saw these requests, so the replay skips them.
_PRE_DISPATCH_STATUSES = frozenset(
    {"browser-crash", "dns-failure", "timeout", "server-error", "rate-limit-storm"}
)


@dataclass
class _ReplayReplica:
    """Routing-visible stand-in for one serving replica."""

    datacenter: Datacenter
    queue: ReplicaQueue

    @property
    def name(self) -> str:
        return self.datacenter.name


class GatewayReplay:
    """Synthesizes canonical gateway spans into merged round trees."""

    def __init__(
        self,
        datacenters: List[Datacenter],
        *,
        policy: str = "round-robin",
        queue_capacity: int = 32,
        service_minutes: float = 0.1,
    ):
        self.policy = make_policy(policy)
        self.replicas = [
            _ReplayReplica(
                datacenter=datacenter,
                queue=ReplicaQueue(
                    capacity=queue_capacity, service_minutes=service_minutes
                ),
            )
            for datacenter in datacenters
        ]

    @classmethod
    def from_study(cls, study) -> Optional["GatewayReplay"]:
        """A replay mirroring the study's gateway, or ``None`` without one."""
        gateway = getattr(study, "gateway", None)
        if gateway is None:
            return None
        probe = gateway.replicas[0].queue
        return cls(
            [replica.datacenter for replica in gateway.replicas],
            policy=study.config.gateway_routing,
            queue_capacity=probe.capacity,
            service_minutes=probe.service_minutes,
        )

    def annotate_round(self, trees: List[dict]) -> None:
        """Feed one merged round through the admission model, in place.

        ``trees`` must already be in canonical treatment order — the
        order the sequential gateway would have admitted them.  Queue
        state persists across rounds, like the live gateway's.
        """
        for tree in trees:
            gps = tree["attrs"].get("gps")
            location = LatLon(gps[0], gps[1]) if gps else DEFAULT_LOCATION
            for attempt in tree["children"]:
                if attempt["name"] != "attempt":
                    continue
                if attempt["attrs"].get("status") in _PRE_DISPATCH_STATUSES:
                    continue
                self._admit(attempt, location)
            for child in tree["children"]:
                if child["end"] > tree["end"]:
                    tree["end"] = child["end"]

    def _admit(self, attempt: dict, location: LatLon) -> None:
        arrival = attempt["start"]
        preference = self.policy.rank(self.replicas, None, location, arrival)
        chosen = slot = None
        for replica in preference:
            slot = replica.queue.try_admit(arrival)
            if slot is not None:
                chosen = replica
                break
        if chosen is None:
            attempt["events"].append(
                {"name": "gateway.shed", "at": arrival, "attrs": {}}
            )
            return
        seq = len(attempt["children"])
        queue_id = child_span_id(attempt["id"], "gateway.queue", seq)
        service_id = child_span_id(attempt["id"], "gateway.service", seq + 1)
        attempt["children"].append(
            {
                "id": queue_id,
                "parent": attempt["id"],
                "name": "gateway.queue",
                "start": arrival,
                "end": slot.start_minutes,
                "attrs": {},
                "events": [],
                "children": [],
            }
        )
        attempt["children"].append(
            {
                "id": service_id,
                "parent": attempt["id"],
                "name": "gateway.service",
                "start": slot.start_minutes,
                "end": slot.completion_minutes,
                "attrs": {"replica": chosen.name},
                "events": [],
                "children": [],
            }
        )
        if slot.completion_minutes > attempt["end"]:
            attempt["end"] = slot.completion_minutes
