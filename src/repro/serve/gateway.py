"""The serving gateway: replica routing, SERP cache, admission control.

A :class:`Gateway` serves in two roles: as one shard behind a
:class:`~repro.serve.fleet.GatewayFleet` (the front door every serving
driver uses; a one-shard fleet is the single-gateway case), and as the
study crawl's checkpointable parity surface (``route_via_gateway``).

Topology
--------
One :class:`Replica` per datacenter in the cluster, each wrapping its
own :class:`~repro.engine.frontend.SearchEngine` built over the *same*
synthetic web and engine seed — replicas are interchangeable compute,
exactly like frontends over a shared index.  The page a replica serves
is fully determined by the request (the per-datacenter index skew keys
on the DNS-resolved ``frontend_ip`` the request carries, not on which
replica executes it), so the choice of replica is purely a capacity
decision and every routing policy yields byte-identical datasets — the
property the parity test pins down.

Request path
------------
1. resolve a location (GPS fix → GeoIP → continental default) for
   routing and cache keying;
2. consult the SERP cache (when enabled): hits are served at the edge,
   misses *canonicalise* the request (GPS snapped to the cell centre,
   nonce derived from the cache key) so the computed bytes are
   deterministic per key — see :mod:`repro.serve.cache`;
3. admission control: dispatch to the first replica in routing
   preference order with queue room, spilling down the order under
   backpressure and shedding (``OVERLOADED``) when every queue is full;
   optionally hedge to a second replica when the projected queue wait
   crosses a threshold;
4. retry with escalating virtual-time backoff when a replica answers
   ``RATE_LIMITED``.

The gateway is duck-type compatible with
:class:`~repro.engine.frontend.SearchEngine` where the crawl plumbing
needs it (``.dialect`` and ``.handle()``), so
:class:`repro.core.browser.Network` can front either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Union

from repro.engine.calibration import EngineCalibration
from repro.engine.datacenters import Datacenter, DatacenterCluster
from repro.engine.dialect import EngineDialect
from repro.engine.frontend import DEFAULT_LOCATION, SearchEngine
from repro.engine.request import ResponseStatus, SearchRequest, SearchResponse
from repro.faults.breaker import BreakerBoard
from repro.faults.retry import DEFAULT_RETRY_CAP_MINUTES, RetryPolicy
from repro.geo.coords import LatLon
from repro.net.geoip import GeoIPDatabase
from repro.obs.trace import NULL_TRACER
from repro.queries.corpus import QueryCorpus
from repro.seeding import stable_hash
from repro.serve.admission import DEFAULT_SERVICE_MINUTES, ReplicaQueue
from repro.serve.cache import CacheKey, SerpCache
from repro.serve.routing import RoutingPolicy, make_policy
from repro.serve.stats import GatewayStats
from repro.web.world import WebWorld

__all__ = ["Replica", "GatewayResult", "Gateway", "build_replicas"]


@dataclass
class Replica:
    """One serving unit: a datacenter, its engine, and its queue."""

    datacenter: Datacenter
    engine: SearchEngine
    queue: ReplicaQueue

    @property
    def name(self) -> str:
        return self.datacenter.name


def build_replicas(
    world: WebWorld,
    cluster: DatacenterCluster,
    geoip: GeoIPDatabase,
    *,
    corpus: Optional[QueryCorpus] = None,
    calibration: Optional[EngineCalibration] = None,
    seed: int = 0,
    dialect: Optional[EngineDialect] = None,
    queue_capacity: int = 32,
    service_minutes: float = DEFAULT_SERVICE_MINUTES,
    ranker=None,
) -> List[Replica]:
    """One replica per datacenter, all over the same world and seed.

    Every replica's engine is constructed identically; what replicas
    do *not* share is serving state (queues, per-replica rate limiters,
    session stores) — the operational surface the gateway manages.
    Pass ``ranker`` to have every engine reuse it instead of warming a
    private copy per datacenter.  That choice is not byte-neutral: a
    ranker's organic-card memo is keyed on URL, two documents can share
    a URL, and each ranker serves the first card it built for one, so
    replicas whose rankers have seen different traffic can serve one
    request different bytes (see
    :class:`~repro.engine.frontend.SearchEngine`).
    """
    return [
        Replica(
            datacenter=datacenter,
            engine=SearchEngine(
                world,
                cluster,
                geoip,
                corpus=corpus,
                calibration=calibration,
                seed=seed,
                dialect=dialect,
                ranker=ranker,
            ),
            queue=ReplicaQueue(capacity=queue_capacity, service_minutes=service_minutes),
        )
        for datacenter in cluster
    ]


@dataclass(frozen=True)
class GatewayResult:
    """One request's outcome with its serving telemetry."""

    response: SearchResponse
    served_by: str
    """Replica name, or ``"cache"`` / ``"stale-cache"`` / ``"shed"``."""
    cache_hit: bool = False
    wait_minutes: float = 0.0
    latency_minutes: float = 0.0
    attempts: int = 0
    hedged: bool = False
    degraded: bool = False
    """Served from the stale cache because no replica could take the
    request (the DEGRADED flag; also set on ``response.degraded``)."""

    @property
    def outcome(self) -> str:
        """The request's place in the serving outcome partition.

        ``served_stale`` (a DEGRADED page), ``served_fresh`` (any other
        OK page), ``shed`` (OVERLOADED) or ``failed`` (every other
        status) — the one classifier behind
        :class:`~repro.serve.stats.FleetStats`, its reports and the
        ``serve`` wide events.
        """
        if self.degraded:
            return "served_stale"
        if self.response.ok:
            return "served_fresh"
        if self.response.status is ResponseStatus.OVERLOADED:
            return "shed"
        return "failed"

    @classmethod
    def shed(cls, *, attempts: int = 0, hedged: bool = False) -> "GatewayResult":
        """The OVERLOADED answer for a request nothing could take."""
        return cls(
            response=SearchResponse(
                status=ResponseStatus.OVERLOADED, html=_OVERLOAD_HTML
            ),
            served_by="shed",
            attempts=attempts,
            hedged=hedged,
        )

    @classmethod
    def stale(
        cls,
        page: SearchResponse,
        served_by: str,
        *,
        attempts: int = 0,
        hedged: bool = False,
    ) -> "GatewayResult":
        """A stale-store ``page`` served with the DEGRADED flag."""
        return cls(
            response=replace(page, degraded=True),
            served_by=served_by,
            attempts=attempts,
            hedged=hedged,
            degraded=True,
        )


_OVERLOAD_HTML = (
    "<!DOCTYPE html>\n<html><body>"
    '<div id="overload"><h1>Server busy</h1>'
    "<p>Please retry your search shortly.</p></div>"
    "</body></html>\n"
)


class Gateway:
    """Routes, caches, and admission-controls search traffic.

    Args:
        replicas: The serving fleet (see :func:`build_replicas`).
        geoip: Database used to resolve GPS-less requests for routing
            and cache keying.
        policy: A :class:`~repro.serve.routing.RoutingPolicy` instance
            or registered policy name.
        cache_size: SERP-cache capacity; ``0`` disables caching *and*
            request canonicalisation — the byte-parity mode the study
            crawl uses.
        cell_miles: Cache-key snap cell (use the engine's
            ``snap_cell_miles``).
        max_retries: Re-dispatches after a ``RATE_LIMITED`` response.
        retry_backoff_minutes: Virtual backoff before the first retry
            (the base of the shared :class:`RetryPolicy` — capped
            exponential, no longer unbounded doubling).
        retry_policy: Full override of the retry schedule; when given,
            ``retry_backoff_minutes`` is ignored.
        hedge_after_minutes: Projected queue wait beyond which a
            duplicate request is dispatched to the next-preferred
            replica (``None`` disables hedging).
        breakers: Optional per-replica (per-datacenter) circuit
            breakers: replicas whose breaker is open are skipped in
            preference order, and replica outcomes feed the breaker
            state machine.  Off by default — breaker decisions depend
            on the full traffic stream, so they are a serving-path
            feature, not for parity-checked study crawls.
        serve_stale_when_down: Degraded mode — when admission finds no
            replica at all (every queue full or every breaker open), a
            cacheable request is answered from the *stale* SERP store
            (last expired page for the same query/cell/datacenter,
            ignoring the virtual day) with the ``DEGRADED`` flag set,
            instead of shedding.  Requires an enabled cache to have any
            inventory; session-carrying requests still shed.
    """

    def __init__(
        self,
        replicas: List[Replica],
        geoip: GeoIPDatabase,
        *,
        policy: Union[str, RoutingPolicy] = "round-robin",
        cache_size: int = 0,
        cell_miles: float = 1.7,
        max_retries: int = 2,
        retry_backoff_minutes: float = 1.5,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_after_minutes: Optional[float] = None,
        stats: Optional[GatewayStats] = None,
        breakers: Optional[BreakerBoard] = None,
        serve_stale_when_down: bool = False,
    ):
        if not replicas:
            raise ValueError("a gateway needs at least one replica")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.replicas = list(replicas)
        self.geoip = geoip
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.stats = stats if stats is not None else GatewayStats()
        self.cache = SerpCache(cache_size, cell_miles=cell_miles, stats=self.stats)
        self.max_retries = max_retries
        self.retry_policy = retry_policy or RetryPolicy(
            base_minutes=retry_backoff_minutes,
            cap_minutes=max(DEFAULT_RETRY_CAP_MINUTES, retry_backoff_minutes),
        )
        self.hedge_after_minutes = hedge_after_minutes
        self.breakers = breakers
        self.serve_stale_when_down = serve_stale_when_down
        self.cluster = replicas[0].engine.cluster
        # Virtual instant until which every replica is unreachable (a
        # fleet-injected blackout); 0.0 = no blackout, the normal case.
        self._replicas_down_until = 0.0
        # Live serving traces only (the serve bench).  A parity-mode
        # study crawl leaves this disabled: per-shard gateway telemetry
        # is not canonical, so crawl traces reconstruct gateway spans
        # at merge time via repro.obs.replay instead.
        self.tracer = NULL_TRACER

    # -- SearchEngine-compatible surface --------------------------------------

    @property
    def dialect(self) -> EngineDialect:
        return self.replicas[0].engine.dialect

    def handle(self, request: SearchRequest) -> SearchResponse:
        """Serve one request (the :class:`Network`-facing entry point)."""
        return self.submit(request).response

    # -- full gateway surface ----------------------------------------------------

    def submit(
        self, request: SearchRequest, *, key: Optional[CacheKey] = None
    ) -> GatewayResult:
        """Serve one request, returning response plus serving telemetry.

        ``key`` is the request's :meth:`cache_key` when the caller has
        already built it — the fleet's front tier shards on it — so a
        request is keyed once.  It is ignored when the request is not
        cacheable here.
        """
        self.stats.requests += 1
        now = request.timestamp_minutes
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(
                "gateway.request", start=now, query=request.query_text
            )

        dispatch_request = request
        if self.cache.capacity == 0:
            key = None
        elif request.cookie_id is not None:
            # Session state personalises the page; never cache it.
            key = None
            self.stats.cache_bypasses += 1
            if tracing:
                self.tracer.event("cache.bypass", at=now)
        else:
            if key is None:
                key = self.cache_key(request)
            cached = self.cache.get(key, now)
            if cached is not None:
                self.stats.queue_wait.record(0.0)
                self.stats.total.record(0.0)
                if tracing:
                    self.tracer.event("cache.hit", at=now)
                    self.tracer.end(served_by="cache")
                return GatewayResult(
                    response=cached, served_by="cache", cache_hit=True
                )
            if tracing:
                self.tracer.event("cache.miss", at=now)
            dispatch_request = replace(
                request,
                gps=self.cache.canonical_location(key),
                nonce=stable_hash("serve-canonical-nonce", *key),
            )

        result = self._dispatch(
            dispatch_request, self._resolve_location(request), key
        )
        if key is not None and result.response.ok and not result.degraded:
            self.cache.put(key, result.response, now)
        if tracing:
            self.tracer.end(served_by=result.served_by, attempts=result.attempts)
        return result

    def cache_key(self, request: SearchRequest) -> CacheKey:
        """The SERP-cache key of a cookie-less request.

        The one recipe: the fleet's front tier shards on this key, and
        the shard gateway caches under it.
        """
        return self.cache.key_for(
            self.dialect.name,
            request.query_text,
            self._resolve_location(request),
            request.day,
            page=request.page,
            datacenter=self.cluster.by_ip(request.frontend_ip).name,
        )

    # -- internals -----------------------------------------------------------------

    def _resolve_location(self, request: SearchRequest) -> LatLon:
        """GPS fix → GeoIP → continental default.

        Routing-grade resolution only: the engine re-resolves with full
        session semantics when it builds the page.
        """
        if request.gps is not None:
            return request.gps
        by_ip = self.geoip.lookup(request.client_ip)
        if by_ip is not None:
            return by_ip
        return DEFAULT_LOCATION

    def _dispatch(
        self,
        request: SearchRequest,
        location: LatLon,
        key=None,
    ) -> GatewayResult:
        """Admission control + routing + RATE_LIMITED retries."""
        arrival = request.timestamp_minutes
        attempt_request = request
        response: Optional[SearchResponse] = None
        served_by = "shed"
        wait = latency = 0.0
        hedged_any = False
        attempts = 0

        for attempt in range(self.max_retries + 1):
            attempts = attempt + 1
            now = attempt_request.timestamp_minutes
            if now < self._replicas_down_until:
                # Replica blackout: admission sees an empty fleet and
                # falls through to the stale/shed ladder below.
                preference = []
            else:
                preference = self.policy.rank(
                    self.replicas, attempt_request, location, now
                )
            if self.breakers is not None:
                # Replicas with an open breaker are skipped outright;
                # recovery happens inside allow(), which flips an open
                # breaker to half-open after its cooldown and admits
                # the probe requests that can close it again.
                preference = [
                    replica
                    for replica in preference
                    if self.breakers.allow(replica.name, now)
                ]
            chosen = slot = None
            for index, replica in enumerate(preference):
                admitted = replica.queue.try_admit(now)
                if admitted is not None:
                    chosen, slot = replica, admitted
                    break
            if chosen is None:
                if self.serve_stale_when_down and key is not None:
                    stale = self.cache.get_stale(key)
                    if stale is not None:
                        # Degraded mode: nothing can take the request
                        # (queues full and/or breakers open), but we
                        # hold a previously served page for this
                        # query/cell — better a flagged-stale SERP than
                        # an error page.
                        self.stats.degraded_served += 1
                        if self.tracer.enabled:
                            self.tracer.event("gateway.degraded", at=now)
                        return GatewayResult.stale(
                            stale,
                            "stale-cache",
                            attempts=attempts,
                            hedged=hedged_any,
                        )
                self.stats.rejected += 1
                if self.tracer.enabled:
                    self.tracer.event("gateway.shed", at=now)
                return GatewayResult.shed(attempts=attempts, hedged=hedged_any)

            hedged = self._maybe_hedge(preference, index, slot, now)
            if hedged is not None:
                hedged_any = True
                hedged_replica, hedged_slot = hedged
                if hedged_slot.completion_minutes < slot.completion_minutes:
                    chosen, slot = hedged_replica, hedged_slot

            self.stats.record_dispatch(chosen.name, chosen.queue.depth(now))
            if self.tracer.enabled:
                self.tracer.begin("gateway.queue", start=now)
                self.tracer.end(end=slot.start_minutes)
                self.tracer.begin(
                    "gateway.service", start=slot.start_minutes, replica=chosen.name
                )
                self.tracer.end(end=slot.completion_minutes)
            # The replica computes the page deterministically; a hedged
            # duplicate occupies capacity but the bytes are modelled once.
            response = chosen.engine.handle(attempt_request)
            served_by = chosen.name
            wait = slot.wait_minutes
            latency = slot.completion_minutes - arrival

            if response.status is not ResponseStatus.RATE_LIMITED:
                if self.breakers is not None:
                    self.breakers.record_success(chosen.name, now)
                break
            if self.breakers is not None:
                self.breakers.record_failure(chosen.name, now)
            self.stats.rate_limited += 1
            if attempt < self.max_retries:
                self.stats.retries += 1
                if self.tracer.enabled:
                    self.tracer.event("gateway.retry", at=now, replica=chosen.name)
                attempt_request = replace(
                    attempt_request,
                    timestamp_minutes=now
                    + self.retry_policy.delay_minutes(
                        attempt, "gateway", request.nonce
                    ),
                )

        assert response is not None
        self.stats.queue_wait.record(wait)
        self.stats.service.record(slot.completion_minutes - slot.start_minutes)
        self.stats.total.record(latency)
        return GatewayResult(
            response=response,
            served_by=served_by,
            wait_minutes=wait,
            latency_minutes=latency,
            attempts=attempts,
            hedged=hedged_any,
        )

    def _maybe_hedge(self, preference, chosen_index, slot, now):
        """Dispatch a duplicate to the next replica when the wait is long.

        Returns the ``(replica, slot)`` of the hedge, or ``None``.
        """
        if self.hedge_after_minutes is None:
            return None
        if slot.wait_minutes <= self.hedge_after_minutes:
            return None
        for replica in preference[chosen_index + 1 :]:
            hedged_slot = replica.queue.try_admit(now)
            if hedged_slot is not None:
                self.stats.hedges += 1
                if self.tracer.enabled:
                    self.tracer.event("gateway.hedge", at=now, replica=replica.name)
                return replica, hedged_slot
        return None

    # -- fleet levers ---------------------------------------------------------

    def blackout(self, until_minutes: float) -> None:
        """Mark every replica unreachable until the given virtual time.

        The cache keeps serving; misses walk the degraded ladder
        (stale store, then shed).  Overlapping blackouts extend rather
        than shorten each other.  Used by the serve-chaos injector.
        """
        self._replicas_down_until = max(self._replicas_down_until, until_minutes)

    # -- health ---------------------------------------------------------------

    def replica_health(self, now_minutes: float) -> dict:
        """Per-replica health report, driven by the breaker board.

        Breaker state maps onto operational health: CLOSED replicas are
        ``healthy``, OPEN ones ``quarantined`` (skipped by routing until
        their cooldown), HALF_OPEN ones in ``probation`` (admitting
        probe traffic that can close the breaker).  Without breakers
        every replica reports healthy — there is nothing tracking
        failure.  Queue depth rides along as the load signal.
        """
        from repro.faults.breaker import BreakerState

        health_by_state = {
            BreakerState.CLOSED: "healthy",
            BreakerState.OPEN: "quarantined",
            BreakerState.HALF_OPEN: "probation",
        }
        report = {}
        for replica in self.replicas:
            state = (
                self.breakers.state_of(replica.name)
                if self.breakers is not None
                else BreakerState.CLOSED
            )
            report[replica.name] = {
                "health": health_by_state[state],
                "breaker": state.value,
                "queue_depth": replica.queue.depth(now_minutes),
            }
        return report

    # -- checkpointing -------------------------------------------------------

    def capture_state(self, now_minutes: float) -> dict:
        """JSON-able snapshot of all mutable serving state.

        Only parity mode (``cache_size=0``) is checkpointable: SERP
        cache entries are whole HTML pages, and a cached crawl is not
        byte-reproducible anyway.
        """
        if self.cache.capacity > 0:
            raise ValueError(
                "gateway state with an enabled SERP cache is not "
                "checkpointable; run with cache_size=0"
            )
        state = {
            "replicas": {
                replica.name: {
                    "engine": replica.engine.capture_state(now_minutes),
                    "queue": replica.queue.capture_state(),
                }
                for replica in self.replicas
            },
            "policy": self.policy.capture_state(),
            "stats": self.stats.capture_state(),
        }
        if self.breakers is not None:
            state["breakers"] = self.breakers.capture_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`."""
        for replica in self.replicas:
            snapshot = state["replicas"][replica.name]
            replica.engine.restore_state(snapshot["engine"])
            replica.queue.restore_state(snapshot["queue"])
        self.policy.restore_state(state["policy"])
        self.stats.restore_state(state["stats"])
        if self.breakers is not None and "breakers" in state:
            self.breakers.restore_state(state["breakers"])
