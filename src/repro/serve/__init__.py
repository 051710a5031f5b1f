"""The production-style search-serving layer.

Everything the single-process crawl bypasses when it calls
``SearchEngine.handle()`` directly.  The front door is a
:class:`GatewayFleet`: a consistent-hash front tier over N
:class:`Gateway` shards (one shard is the single-gateway case), with a
degradation ladder and a fresh / stale / shed / failed outcome
partition in :class:`FleetStats`.  Each shard gateway fronts one engine
replica per datacenter, with pluggable routing policies (round-robin /
least-outstanding / geo-affinity), a deterministic SERP cache (LRU +
virtual-day TTL, keyed on the geo-ranker's snap cell), and bounded
per-replica admission queues with retry and hedging.  A bare
:class:`Gateway` is also the study crawl's checkpointable parity
surface (``route_via_gateway``).  A seeded, lazy load generator drives
the fleet for throughput measurement (:func:`run_serve_bench`) and
chaos audits (:class:`ServeChaos`).

See ``docs/SERVING.md`` for the architecture and
``benchmarks/bench_serve.py`` for the numbers.
"""

from repro.serve.admission import DEFAULT_SERVICE_MINUTES, QueueSlot, ReplicaQueue
from repro.serve.bench import ServeSweepCell, ServeSweepReport, run_serve_bench
from repro.serve.cache import CacheKey, SerpCache
from repro.serve.chaos import ServeChaos
from repro.serve.fleet import (
    BrownoutPolicy,
    FleetShard,
    GatewayFleet,
    HashRing,
    build_fleet,
    build_fleet_registry,
    shard_key_of,
)
from repro.serve.gateway import Gateway, GatewayResult, Replica, build_replicas
from repro.serve.loadgen import (
    LazyClientGeoIP,
    LazyClientPopulation,
    LoadGenerator,
    LoadReport,
    SyntheticClient,
    ZipfSampler,
    run_load,
)
from repro.serve.routing import (
    ROUTING_POLICIES,
    GeoAffinityPolicy,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
)
from repro.serve.stats import FleetStats, GatewayStats

__all__ = [
    "DEFAULT_SERVICE_MINUTES",
    "QueueSlot",
    "ReplicaQueue",
    "CacheKey",
    "SerpCache",
    "Gateway",
    "GatewayResult",
    "Replica",
    "build_replicas",
    "BrownoutPolicy",
    "FleetShard",
    "GatewayFleet",
    "HashRing",
    "build_fleet",
    "build_fleet_registry",
    "shard_key_of",
    "ServeChaos",
    "ServeSweepCell",
    "ServeSweepReport",
    "run_serve_bench",
    "LazyClientGeoIP",
    "LazyClientPopulation",
    "LoadGenerator",
    "LoadReport",
    "SyntheticClient",
    "ZipfSampler",
    "run_load",
    "ROUTING_POLICIES",
    "GeoAffinityPolicy",
    "LeastOutstandingPolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "make_policy",
    "FleetStats",
    "GatewayStats",
]
