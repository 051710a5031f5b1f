"""The serve-chaos harness: hurt the fleet, audit the accounting.

The crawl side has ``repro chaos``: run under a fault plan, then prove
every injected fault is accounted for in the recovery ledger.  This is
the serving analogue over the virtual clock.  :class:`ServeChaos`
drives a seeded load stream through a :class:`~repro.serve.fleet.
GatewayFleet` whose :class:`~repro.faults.plan.FaultPlan` serve gates
crash shards, black out replicas, wipe and slow caches, and partition
the front tier — then checks the fleet's outcome partition:

    served fresh + served stale + shed + failed == requests

Nothing may vanish, nothing may double-count, no matter which faults
fired or how the degradation ladder rerouted around them.  The ledger
is the fleet's own :class:`~repro.serve.stats.FleetStats` — its
snapshot is the JSON CI artifact, and
:meth:`~repro.serve.stats.FleetStats.unaccounted` is the exit-code
signal the ``repro chaos-serve`` command gates on.

Determinism: the fault schedule keys on request nonces and the load
stream on the seed, and the ledger holds no wall-clock value, so two
runs of one configuration produce identical ledgers — byte-for-byte —
which the chaos tests pin.
"""

from __future__ import annotations

from typing import Optional

from repro.serve.fleet import GatewayFleet
from repro.serve.loadgen import LoadGenerator, run_load
from repro.serve.stats import FleetStats

__all__ = ["ServeChaos"]


class ServeChaos:
    """Drive chaos load through a fleet; its stats are the audit ledger."""

    def __init__(self, fleet: GatewayFleet, loadgen: LoadGenerator):
        self.fleet = fleet
        self.loadgen = loadgen

    def run(self, count: int, *, events: Optional[str] = None) -> FleetStats:
        """Serve ``count`` requests; return the fleet's counters.

        With ``events``, the fleet journals one wide event per request
        (``serve`` stream) plus its control transitions
        (``serve.control``) to that path — the log the telemetry plane
        queries.  The log id derives from (loadgen seed, count), so a
        repeated configuration writes identical bytes.
        """
        if events is None:
            run_load(self.fleet, self.loadgen, count)
            return self.fleet.stats
        from repro.obs.events import EventLog, EventRecorder, NULL_RECORDER
        from repro.obs.trace import format_id
        from repro.seeding import stable_hash

        log = EventLog(
            events,
            log_id=format_id(
                stable_hash("serve-events", self.loadgen.seed, count)
            ),
            meta={"seed": self.loadgen.seed, "count": count},
        )
        recorder = EventRecorder()
        recorder.attach(log)
        self.fleet.events = recorder
        try:
            run_load(self.fleet, self.loadgen, count)
        finally:
            self.fleet.events = NULL_RECORDER
            recorder.detach()
            log.close()
        return self.fleet.stats
