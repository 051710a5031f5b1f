"""The gateway fleet: consistent-hash sharding that survives chaos.

One :class:`~repro.serve.gateway.Gateway` is a single point of failure
— the paper lost data every time one of its 245 vantage points died.
:class:`GatewayFleet` puts N gateway *shards* behind a consistent-hash
front tier so the SERP cache partitions by canonicalised
(query, grid-cell) key, each key replicated on R shards, and the fleet
keeps answering while individual shards are being hurt on purpose.

Sharding
--------
The ring hashes each shard name at ``vnodes`` points; a key's owners
are the first R distinct shards clockwise from the key's hash.  The
shard key is the cache key *minus its virtual day* — a query/cell pair
must not migrate between shards at midnight, or every day rollover
would cold-start the whole cache.  Virtue of consistent hashing:
adding or removing one shard remaps only the keys adjacent to its
vnodes (~1/N of the keyspace), which the remap-bound test pins.

Zipf head keys get special treatment: once a key's request count
crosses ``hot_key_threshold`` it is *promoted* — routed round-robin
across every live shard instead of its R owners, so each shard's cache
independently warms the head and no single owner melts under the most
popular queries.

Degradation ladder
------------------
Failover is deterministic and observable.  In order:

1. **reroute** — primary owner down/partitioned: walk the remaining
   owners (replica shards) in ring order;
2. **anti-entropy backfill** — a crashed shard rejoins with an empty
   cache and copies its owned (and hot) live entries back from peers;
3. **serve stale** — no replica behind a shard can take the request:
   the shard's day-less stale store answers with DEGRADED (the
   gateway-level rung), and when *every* owner of a key is dark the
   front tier scans live peers' stale stores (the fleet-level rung);
4. **brownout/shed** — a windowed SLO controller watches the bad-
   outcome fraction and, past threshold, deterministically sheds a
   fraction of traffic until the window recovers.

Every rung shows up as tracer events (``fleet.*``) and counters in
:class:`~repro.serve.stats.FleetStats`, whose four outcome counters
partition offered requests exactly — the accounting invariant the
chaos harness audits.  Each fault, backfill and brownout transition is
reported through one hook, :meth:`GatewayFleet._control`, which writes
the ``fleet.<control>`` tracer event and the ``serve.control`` wide
event with the same attrs.

Faults are injected per request from the
:class:`~repro.faults.plan.FaultPlan` serve gates, keyed on the request
nonce and targeted at the key's primary owner — the schedule is a pure
function of (plan seed, offered stream), independent of fleet size or
shard interleaving.

Byte parity
-----------
With replication 1, hot promotion off, and no fault plan, each key
routes to exactly one shard whose gateway is configured like the
single-gateway path — so the response stream is byte-identical to one
:class:`Gateway` serving alone (replicas are interchangeable compute;
the cache canonicalises before they run).  The parity test pins this.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engine.request import SearchResponse
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.events import NULL_RECORDER
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import is_bad_serve_outcome
from repro.obs.trace import NULL_TRACER
from repro.seeding import stable_hash, stable_unit
from repro.serve.admission import DEFAULT_SERVICE_MINUTES
from repro.serve.cache import CacheKey
from repro.serve.gateway import Gateway, GatewayResult, build_replicas
from repro.serve.stats import FleetStats

__all__ = [
    "HashRing",
    "BrownoutPolicy",
    "FleetShard",
    "GatewayFleet",
    "build_fleet",
    "build_fleet_registry",
    "shard_key_of",
]

#: The day-less shard key: cache key minus index 4 (virtual day).
ShardKey = Tuple[str, str, int, int, int, str]


def shard_key_of(key: CacheKey) -> ShardKey:
    """The ring key for a cache key — stable across day rollovers."""
    return (key[0], key[1], key[2], key[3], key[5], key[6])


class HashRing:
    """Consistent hashing over shard names with virtual nodes.

    Each shard is hashed at ``vnodes`` ring positions via
    :func:`~repro.seeding.stable_hash`, so placement is deterministic
    across processes and runs.  ``owners`` walks clockwise from a key's
    hash collecting distinct shards — owner 1 is the primary, owners
    2..R the replicas.
    """

    def __init__(self, names: Sequence[str], *, vnodes: int = 64):
        if not names:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.names = sorted(names)
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = sorted(
            (stable_hash("ring", name, ordinal), name)
            for name in self.names
            for ordinal in range(vnodes)
        )

    @staticmethod
    def hash_key(parts: Sequence) -> int:
        """Position a shard key (or any hashable tuple) on the ring."""
        return stable_hash("ring-key", *parts)

    def owners(self, key_hash: int, count: int = 1) -> List[str]:
        """The first ``count`` distinct shards clockwise of ``key_hash``."""
        count = min(count, len(self.names))
        index = bisect.bisect_right(self._points, (key_hash, "￿"))
        owners: List[str] = []
        seen = set()
        points = self._points
        while len(owners) < count:
            point_name = points[index % len(points)][1]
            if point_name not in seen:
                seen.add(point_name)
                owners.append(point_name)
            index += 1
        return owners


@dataclass(frozen=True)
class BrownoutPolicy:
    """When and how hard the SLO controller sheds.

    The controller watches the fraction of *bad* outcomes (stale, shed,
    failed) over a sliding window of virtual time.  Past
    ``max_bad_fraction`` it enters brownout and sheds
    ``shed_fraction`` of incoming traffic (gated deterministically on
    the request nonce); it exits once the window fraction halves —
    hysteresis so the controller does not flap at the threshold.
    """

    window_minutes: float = 15.0
    max_bad_fraction: float = 0.5
    shed_fraction: float = 0.5
    min_window_requests: int = 25

    def __post_init__(self) -> None:
        if self.window_minutes <= 0:
            raise ValueError("window_minutes must be positive")
        if not 0.0 < self.max_bad_fraction <= 1.0:
            raise ValueError("max_bad_fraction must be in (0, 1]")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        if self.min_window_requests < 1:
            raise ValueError("min_window_requests must be positive")


@dataclass
class FleetShard:
    """One shard: a gateway plus the fleet's view of its health."""

    name: str
    gateway: Gateway
    down_until: float = 0.0
    """Virtual instant a gateway crash ends (0 = up)."""
    partitioned_until: float = 0.0
    """Virtual instant a front-tier partition heals (0 = routable)."""
    slow_until: float = 0.0
    """Virtual instant a slow-down ends (0 = full speed)."""
    needs_backfill: bool = False
    """Set when a crash emptied the cache; cleared after anti-entropy."""
    base_service_minutes: List[float] = field(default_factory=list)
    """Per-replica service times at build, restored after slow-downs."""

    def __post_init__(self) -> None:
        if not self.base_service_minutes:
            self.base_service_minutes = [
                replica.queue.service_minutes
                for replica in self.gateway.replicas
            ]

    def up(self, now: float) -> bool:
        """The shard process is alive (its cache can be read)."""
        return now >= self.down_until

    def reachable(self, now: float) -> bool:
        """The front tier can route a request to this shard."""
        return self.up(now) and now >= self.partitioned_until


class GatewayFleet:
    """N gateway shards behind a consistent-hash front tier.

    Args:
        gateways: One configured :class:`Gateway` per shard (use
            matching cache sizes; shards should enable
            ``serve_stale_when_down`` so the gateway-level stale rung
            exists).
        names: Shard names; default ``shard-00 .. shard-NN``.
        replication: Owners per key (R).  Clamped to the fleet size.
        vnodes: Ring positions per shard.
        hot_key_threshold: Request count at which a key is promoted to
            the hot set; ``None`` disables promotion (parity mode).
        hot_key_capacity: Most-recently-promoted keys kept hot.
        plan: Optional :class:`FaultPlan` whose serve gates inject
            shard faults per request.
        brownout: SLO controller configuration; ``None`` disables the
            brownout rung.
        stats: Counter sink (a fresh :class:`FleetStats` by default).
    """

    def __init__(
        self,
        gateways: Sequence[Gateway],
        *,
        names: Optional[Sequence[str]] = None,
        replication: int = 2,
        vnodes: int = 64,
        hot_key_threshold: Optional[int] = 48,
        hot_key_capacity: int = 256,
        plan: Optional[FaultPlan] = None,
        brownout: Optional[BrownoutPolicy] = None,
        stats: Optional[FleetStats] = None,
    ):
        if not gateways:
            raise ValueError("a fleet needs at least one gateway")
        if replication < 1:
            raise ValueError("replication must be positive")
        if hot_key_threshold is not None and hot_key_threshold < 1:
            raise ValueError("hot_key_threshold must be positive or None")
        if names is None:
            names = [f"shard-{index:02d}" for index in range(len(gateways))]
        if len(names) != len(gateways):
            raise ValueError("one name per gateway")
        self.replication = min(replication, len(gateways))
        self.hot_key_threshold = hot_key_threshold
        self.hot_key_capacity = hot_key_capacity
        self.plan = plan
        self.brownout = brownout
        self.stats = stats if stats is not None else FleetStats()
        self._shards: "OrderedDict[str, FleetShard]" = OrderedDict(
            (name, FleetShard(name=name, gateway=gateway))
            for name, gateway in sorted(
                zip(names, gateways), key=lambda pair: pair[0]
            )
        )
        self.ring = HashRing(list(self._shards), vnodes=vnodes)
        # Hot-key machinery: bounded access counts feeding a bounded
        # promoted set, plus a rotation cursor spreading hot traffic.
        self._access_counts: "OrderedDict[ShardKey, int]" = OrderedDict()
        self._hot: "OrderedDict[ShardKey, None]" = OrderedDict()
        self._hot_cursor = 0
        # Brownout controller state: (virtual time, was bad) samples.
        self._window: Deque[Tuple[float, bool]] = deque()
        self._window_bad = 0
        self._browned_out = False
        self._tracer = NULL_TRACER
        #: Wide-event recorder (``serve`` / ``serve.control`` streams);
        #: disabled until a log is attached.
        self.events = NULL_RECORDER

    # -- plumbing -------------------------------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        """Share one tracer with every shard gateway, so shard spans
        nest inside the fleet's request span."""
        self._tracer = value
        for shard in self._shards.values():
            shard.gateway.tracer = value

    @property
    def shards(self) -> Dict[str, FleetShard]:
        return dict(self._shards)

    @property
    def shard_names(self) -> List[str]:
        return list(self._shards)

    def shard_for(self, key: CacheKey) -> str:
        """The primary owner of a cache key (tests and introspection)."""
        return self.ring.owners(HashRing.hash_key(shard_key_of(key)), 1)[0]

    def _control(self, control: str, now: float, key: Tuple, **attrs) -> None:
        """Report one fleet transition (fault, backfill, brownout) once.

        The ``fleet.<control>`` tracer event and the ``serve.control``
        wide event carry the same attrs, so the two records cannot
        drift apart."""
        if self._tracer.enabled:
            self._tracer.event(f"fleet.{control}", at=now, **attrs)
        if self.events.enabled:
            self.events.emit(
                "serve.control", key=key, control=control, ts=now, **attrs
            )

    # -- request path ---------------------------------------------------------

    def submit(self, request) -> GatewayResult:
        """Serve one request through the fleet, walking the ladder."""
        now = request.timestamp_minutes
        self.stats.requests += 1
        tracing = self._tracer.enabled
        if tracing:
            self._tracer.begin(
                "fleet.request", start=now, query=request.query_text
            )
        self._advance(now)
        self._update_brownout(now)

        key, owners, hot = self._route(request)
        primary = owners[0]
        fault = self._inject(request, primary) if self.plan is not None else None

        if self._browned_out and self._sheds_in_brownout(request.nonce):
            self.stats.brownout_shed += 1
            if tracing:
                self._tracer.event("fleet.brownout.shed", at=now)
            return self._finish(
                request, GatewayResult.shed(), "front-tier", "brownout-shed",
                fault, tracing,
            )

        candidates = (
            self._hot_candidates() if hot else owners
        )
        # Walk the reachable candidates in order.  A shard-level shed
        # (queues full, replicas blacked out) or stale answer is not
        # final while another owner might serve fresh — reroute first,
        # degrade only when the walk runs out.  Anything else
        # (fresh page, rate-limited past retries, 5xx) is terminal.
        stale_fallback: Optional[Tuple[str, GatewayResult]] = None
        shed_fallback: Optional[Tuple[str, GatewayResult]] = None
        served: Optional[Tuple[str, GatewayResult]] = None
        first_tried: Optional[str] = None
        for name in candidates:
            shard = self._shards[name]
            if not shard.reachable(now):
                continue
            if first_tried is None:
                first_tried = name
            elif tracing:
                self._tracer.event("fleet.reroute", at=now, to=name)
            result = shard.gateway.submit(request, key=key)
            outcome = result.outcome
            if outcome == "served_stale":
                if stale_fallback is None:
                    stale_fallback = (name, result)
                continue
            if outcome == "shed":
                shed_fallback = (name, result)
                continue
            served = (name, result)
            break

        if served is None and stale_fallback is not None:
            # The serve-stale rung: some owner held yesterday's page
            # even though nobody could compute a fresh one.
            served = stale_fallback
        if served is None and shed_fallback is not None:
            served = shed_fallback
        if served is not None:
            name, result = served
            if hot:
                self.stats.hot_requests += 1
            elif name != primary:
                self.stats.rerouted += 1
            rung = "hot" if hot else ("reroute" if name != primary else "primary")
            return self._finish(request, result, name, rung, fault, tracing)

        # Every candidate dark — the fleet-level stale rung: any live
        # peer may hold yesterday's page for this key.
        if key is not None:
            for name, shard in self._shards.items():
                if not shard.reachable(now):
                    continue
                stale = shard.gateway.cache.get_stale(key)
                if stale is None:
                    continue
                self.stats.fleet_stale_served += 1
                if tracing:
                    self._tracer.event("fleet.stale", at=now, shard=name)
                return self._finish(
                    request,
                    GatewayResult.stale(stale, f"{name}:stale-fleet"),
                    name,
                    "fleet-stale",
                    fault,
                    tracing,
                )
        if tracing:
            self._tracer.event("fleet.shed", at=now, reason="owners-dark")
        return self._finish(
            request, GatewayResult.shed(), "front-tier", "owners-dark",
            fault, tracing,
        )

    def handle(self, request) -> SearchResponse:
        """SearchEngine-compatible entry point (bytes only)."""
        return self.submit(request).response

    # -- routing --------------------------------------------------------------

    def _route(self, request) -> Tuple[Optional[CacheKey], List[str], bool]:
        """The request's cache key, owner order, and hot-set flag.

        Shards share one keying (geoip, cell size, dialect), so the
        first shard's gateway keys the request for all of them and the
        serving shard reuses that key.  Session-carrying requests are
        uncacheable; they pin to a shard by session hash so one shard
        sees one session's whole stream.
        """
        if request.cookie_id is not None:
            key_hash = stable_hash("fleet-session", request.cookie_id)
            return None, self.ring.owners(key_hash, self.replication), False
        key = next(iter(self._shards.values())).gateway.cache_key(request)
        skey = shard_key_of(key)
        owners = self.ring.owners(HashRing.hash_key(skey), self.replication)
        return key, owners, self._note_access(skey, request.timestamp_minutes)

    def _note_access(self, skey: ShardKey, now: float) -> bool:
        """Count one access; promote past threshold.  True = hot."""
        if self.hot_key_threshold is None:
            return False
        if skey in self._hot:
            self._hot.move_to_end(skey)
            return True
        count = self._access_counts.get(skey, 0) + 1
        self._access_counts[skey] = count
        self._access_counts.move_to_end(skey)
        while len(self._access_counts) > 4 * self.hot_key_capacity:
            self._access_counts.popitem(last=False)
        if count >= self.hot_key_threshold:
            self._hot[skey] = None
            self._hot.move_to_end(skey)
            while len(self._hot) > self.hot_key_capacity:
                self._hot.popitem(last=False)
            del self._access_counts[skey]
            self.stats.hot_promotions += 1
            if self._tracer.enabled:
                self._tracer.event("fleet.hot-promote", at=now)
            return True
        return False

    def _hot_candidates(self) -> List[str]:
        """Every shard, rotated — hot keys spread across the fleet."""
        names = self.ring.names
        start = self._hot_cursor % len(names)
        self._hot_cursor += 1
        return names[start:] + names[:start]

    # -- fault injection ------------------------------------------------------

    def _inject(self, request, primary: str) -> Optional[str]:
        """Fire this request's serve fault (if any) at the primary owner.

        Returns the fault kind value so the request's wide event can
        carry it."""
        kind = self.plan.serve_fault(request.nonce)
        if kind is None:
            return None
        shard = self._shards[primary]
        now = request.timestamp_minutes
        until = now + self.plan.serve_outage_duration(request.nonce, kind)
        if kind is FaultKind.GATEWAY_CRASH:
            # Process death: cache and stale store are gone with it.
            shard.down_until = max(shard.down_until, until)
            shard.gateway.cache.clear()
            shard.needs_backfill = True
        elif kind is FaultKind.REPLICA_BLACKOUT:
            shard.gateway.blackout(until)
        elif kind is FaultKind.CACHE_WIPE:
            shard.gateway.cache.clear()
        elif kind is FaultKind.SHARD_SLOWDOWN:
            self._apply_slowdown(shard, until)
        elif kind is FaultKind.FRONT_PARTITION:
            shard.partitioned_until = max(shard.partitioned_until, until)
        self.stats.faults_injected[kind.value] = (
            self.stats.faults_injected.get(kind.value, 0) + 1
        )
        self._control(
            f"fault.{kind.value}",
            now,
            ("fault", kind.value),
            shard=shard.name,
            until=round(until, 3),
        )
        return kind.value

    def _apply_slowdown(self, shard: FleetShard, until: float) -> None:
        """Scale the shard's replica service times for the window.

        Idempotent: times are always set from the recorded base, so
        overlapping slow-downs extend the window without compounding.
        """
        factor = self.plan.slowdown_factor
        for replica, base in zip(
            shard.gateway.replicas, shard.base_service_minutes
        ):
            replica.queue.service_minutes = base * factor
        shard.slow_until = max(shard.slow_until, until)

    # -- healing --------------------------------------------------------------

    def _advance(self, now: float) -> None:
        """Heal every outage whose window has elapsed.

        Crash recovery triggers the anti-entropy rung: the rejoined
        shard's empty cache is rebuilt from live peers before it takes
        traffic again.
        """
        for shard in self._shards.values():
            if shard.slow_until and now >= shard.slow_until:
                for replica, base in zip(
                    shard.gateway.replicas, shard.base_service_minutes
                ):
                    replica.queue.service_minutes = base
                shard.slow_until = 0.0
            if shard.down_until and now >= shard.down_until:
                shard.down_until = 0.0
                if shard.needs_backfill:
                    shard.needs_backfill = False
                    self._backfill(shard, now)
            if shard.partitioned_until and now >= shard.partitioned_until:
                shard.partitioned_until = 0.0

    def _backfill(self, shard: FleetShard, now: float) -> None:
        """Anti-entropy: copy the shard's owned inventory from peers.

        Reads peers through :meth:`SerpCache.peek` (repair traffic must
        not count as serving traffic) and takes live entries the
        rejoined shard owns — plus hot keys, which belong everywhere.
        """
        cache = shard.gateway.cache
        copied = 0
        if cache.capacity > 0:
            for peer in self._shards.values():
                if peer is shard or not peer.up(now):
                    continue
                for full_key in peer.gateway.cache.keys():
                    if full_key in cache:
                        continue
                    skey = shard_key_of(full_key)
                    if skey not in self._hot and shard.name not in (
                        self.ring.owners(
                            HashRing.hash_key(skey), self.replication
                        )
                    ):
                        continue
                    response = peer.gateway.cache.peek(full_key, now)
                    if response is None:
                        continue
                    cache.put(full_key, response, now)
                    copied += 1
        self.stats.backfills += 1
        self.stats.backfilled_entries += copied
        self._control(
            "backfill", now, ("backfill", shard.name),
            shard=shard.name, entries=copied,
        )

    # -- brownout (SLO controller) --------------------------------------------

    def _sheds_in_brownout(self, nonce: int) -> bool:
        return (
            stable_unit("fleet-brownout", nonce)
            < self.brownout.shed_fraction
        )

    def _update_brownout(self, now: float) -> None:
        """Prune the window and flip the brownout state machine."""
        if self.brownout is None:
            return
        horizon = now - self.brownout.window_minutes
        window = self._window
        while window and window[0][0] < horizon:
            _, was_bad = window.popleft()
            if was_bad:
                self._window_bad -= 1
        total = len(window)
        fraction = self._window_bad / total if total else 0.0
        if (
            not self._browned_out
            and total >= self.brownout.min_window_requests
            and fraction >= self.brownout.max_bad_fraction
        ):
            self._browned_out = True
            self.stats.brownout_entries += 1
            self._emit_brownout("brownout.enter", now, fraction, total)
        elif self._browned_out and fraction <= self.brownout.max_bad_fraction / 2:
            self._browned_out = False
            self._emit_brownout("brownout.exit", now, fraction, total)

    def _emit_brownout(
        self, control: str, now: float, fraction: float, total: int
    ) -> None:
        """Report one brownout transition with its exact window integers.

        The SLO engine replays the window from the serve events'
        ``counted`` marks and must land on these very (bad, total)
        numbers — the integers are the proof there is no second source
        of truth."""
        self._control(
            control,
            now,
            (control,),
            bad_fraction=round(fraction, 4),
            window_bad=self._window_bad,
            window_total=total,
            window_minutes=self.brownout.window_minutes,
        )

    @property
    def browned_out(self) -> bool:
        return self._browned_out

    # -- bookkeeping ----------------------------------------------------------

    def _finish(
        self,
        request,
        result: GatewayResult,
        shard_name: str,
        rung: str,
        fault: Optional[str],
        tracing: bool,
    ) -> GatewayResult:
        """One exit for every path: outcome partition, SLO window, span,
        and the request's wide event."""
        outcome = result.outcome
        now = request.timestamp_minutes
        self.stats.record_outcome(outcome)
        self.stats.record_shard_outcome(shard_name, outcome)
        counted = False
        if self.brownout is not None:
            # Deliberate brownout sheds are excluded from the window —
            # feeding them back would latch the controller on.
            if outcome != "shed" or shard_name != "front-tier" or not self._browned_out:
                counted = True
                bad = is_bad_serve_outcome(outcome)
                self._window.append((now, bad))
                if bad:
                    self._window_bad += 1
        if self.events.enabled:
            if result.cache_hit:
                cache = "hit"
            elif request.cookie_id is not None:
                cache = "bypass"
            elif result.degraded:
                cache = "stale"
            else:
                cache = "miss"
            extra = {}
            span = self._tracer.current_span_id()
            if span is not None:
                extra["span"] = span
            self.events.emit(
                "serve",
                key=(request.nonce,),
                shard=shard_name,
                outcome=outcome,
                rung=rung,
                cache=cache,
                served_by=result.served_by,
                latency=round(result.latency_minutes, 6),
                wait=round(result.wait_minutes, 6),
                attempts=result.attempts,
                hedged=result.hedged,
                status=result.response.status.name,
                fault=fault,
                brownout=self._browned_out,
                counted=counted,
                **request.wide_dims(),
                **extra,
            )
        if tracing:
            self._tracer.end(outcome=outcome, shard=shard_name)
        return result


def build_fleet(
    world,
    cluster,
    geoip,
    *,
    count: int,
    corpus=None,
    calibration=None,
    seed: int = 0,
    queue_capacity: int = 32,
    service_minutes: float = DEFAULT_SERVICE_MINUTES,
    cache_size: int = 2048,
    policy: str = "round-robin",
    hedge_after_minutes: Optional[float] = None,
    replication: int = 2,
    vnodes: int = 64,
    hot_key_threshold: Optional[int] = 48,
    plan: Optional[FaultPlan] = None,
    brownout: Optional[BrownoutPolicy] = None,
    serve_stale_when_down: bool = True,
    ranker=None,
) -> GatewayFleet:
    """Build ``count`` shard gateways over one world and wire the fleet.

    Each shard owns its replicas, queues, and cache (the operational
    state chaos hurts).  Without ``ranker``, the first shard's replicas
    each build a private :class:`~repro.engine.ranking.Ranker` and every
    later shard's engines reuse the first replica's; pass ``ranker`` to
    have every engine share it, across fleets too (the bench sweeps
    do).  The wiring is part of what the fleet serves, not just warm-up
    cost: a ranker's organic-card memo is keyed on URL and two
    documents can share a URL, so engines on different rankers can
    serve one request different bytes (see
    :class:`~repro.engine.frontend.SearchEngine`).
    """
    shared_ranker = ranker
    gateways: List[Gateway] = []
    for _ in range(count):
        replicas = build_replicas(
            world,
            cluster,
            geoip,
            corpus=corpus,
            calibration=calibration,
            seed=seed,
            queue_capacity=queue_capacity,
            service_minutes=service_minutes,
            ranker=shared_ranker,
        )
        if shared_ranker is None:
            shared_ranker = replicas[0].engine.ranker
        gateways.append(
            Gateway(
                replicas,
                geoip,
                policy=policy,
                cache_size=cache_size,
                hedge_after_minutes=hedge_after_minutes,
                serve_stale_when_down=serve_stale_when_down,
            )
        )
    return GatewayFleet(
        gateways,
        replication=replication,
        vnodes=vnodes,
        hot_key_threshold=hot_key_threshold,
        plan=plan,
        brownout=brownout,
    )


def build_fleet_registry(fleet: GatewayFleet) -> MetricsRegistry:
    """Wire the fleet's counters into a metrics registry.

    Fleet-level outcomes, ladder counters, and fault injections bind
    under ``fleet_*``; per-shard request shares under a labeled
    counter; each shard gateway's cache hits and sheds ride along so
    one scrape explains the whole serving stack.
    """
    registry = MetricsRegistry()
    stats = fleet.stats
    for attr in (
        "requests",
        "served_fresh",
        "served_stale",
        "shed",
        "failed",
        "rerouted",
        "fleet_stale_served",
        "backfills",
        "backfilled_entries",
        "hot_promotions",
        "hot_requests",
        "brownout_entries",
        "brownout_shed",
    ):
        registry.register_counter(
            f"fleet_{attr}", stats, attr, help=f"fleet {attr.replace('_', ' ')}"
        )
    registry.register_labeled(
        "fleet_shard_requests",
        stats,
        "shard_requests",
        label="shard",
        help="requests delegated to each shard",
    )
    registry.register_labeled(
        "fleet_shard_outcomes",
        stats,
        "shard_outcomes",
        label="shard_outcome",
        help="per-shard outcome split (shard:outcome keys)",
    )
    registry.register_labeled(
        "fleet_faults_injected",
        stats,
        "faults_injected",
        label="kind",
        help="serve faults injected by the chaos plan",
    )
    for name, shard in fleet.shards.items():
        slug = name.replace("-", "_")
        gateway_stats = shard.gateway.stats
        registry.register_counter(
            f"shard_{slug}_cache_hits",
            gateway_stats,
            "cache_hits",
            help=f"SERP cache hits on {name}",
        )
        registry.register_counter(
            f"shard_{slug}_degraded_served",
            gateway_stats,
            "degraded_served",
            help=f"stale-store answers on {name}",
        )
        registry.register_counter(
            f"shard_{slug}_rejected",
            gateway_stats,
            "rejected",
            help=f"requests shed by {name}",
        )
    return registry
