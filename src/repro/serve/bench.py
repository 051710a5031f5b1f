"""The serve bench: the operator's load-test sweep over fleet sizes.

The sweep builds a fresh :class:`~repro.serve.fleet.GatewayFleet` per
cell over one shared world (engines share a ranker, so cell cost is
serving state, not index construction), drives the same lazy-population
load stream through each, and records the fleet's fresh / stale / shed
/ failed partition — stale pages counted apart from fresh ones, never
folded into successes.  One shard is the single-gateway case.

Every timed cell starts from the same warm state: untimed passes of the
cell's own configuration run until one adds no ranker-memo misses, so
the first cell is not timed cold while later ones reuse its warm memo.

The report is printed, not recorded: the repo's performance numbers
come from ``perfbench/`` (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.serve.fleet import GatewayFleet, build_fleet
from repro.serve.loadgen import (
    LazyClientPopulation,
    LoadGenerator,
    run_load,
)
from repro.serve.stats import GatewayStats

__all__ = ["ServeSweepCell", "ServeSweepReport", "run_serve_bench"]

DEFAULT_FLEET_SIZES: Sequence[int] = (1, 2)


@dataclass
class ServeSweepCell:
    """One measured (fleet size, replication) configuration."""

    gateways: int
    replication: int
    requests: int
    wall_seconds: float
    requests_per_second: float
    served_fresh: int
    served_stale: int
    shed: int
    failed: int
    cache_hit_rate: float
    hedges: int
    rerouted: int
    hot_promotions: int
    memo_misses: int
    """Ranker-memo misses the timed pass added: equal across cells when
    every cell was timed in the same warm state."""
    replica_requests: Dict[str, int] = field(default_factory=dict)
    """Requests each datacenter replica served, summed over shards."""


@dataclass
class ServeSweepReport:
    """One sweep over fleet sizes."""

    seed: int = 0
    clients: int = 0
    requests: int = 0
    rate_per_minute: float = 0.0
    routing: str = "round-robin"
    cache_size: int = 0
    replication: int = 1
    hedge_after_minutes: Optional[float] = None
    pin_frontend: bool = False
    cells: List[ServeSweepCell] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"serve bench: {self.requests} requests, {self.clients} "
            f"clients (lazy), rate={self.rate_per_minute}/min, "
            f"routing={self.routing}, cache={self.cache_size}, "
            f"R={self.replication}, hedge-after={self.hedge_after_minutes}, "
            f"pinned-dns={self.pin_frontend}",
            f"{'gateways':>8} {'wall s':>8} {'req/s':>9} {'fresh':>6} "
            f"{'stale':>6} {'shed':>5} {'failed':>6} {'hit-rate':>9} "
            f"{'hedges':>7} {'reroute':>8}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.gateways:>8} {cell.wall_seconds:>8.2f} "
                f"{cell.requests_per_second:>9.1f} {cell.served_fresh:>6} "
                f"{cell.served_stale:>6} {cell.shed:>5} {cell.failed:>6} "
                f"{cell.cache_hit_rate:>8.1%} {cell.hedges:>7} "
                f"{cell.rerouted:>8}"
            )
        for cell in self.cells:
            share = ", ".join(
                f"{name}={count}"
                for name, count in sorted(cell.replica_requests.items())
            )
            lines.append(f"per-replica (gateways={cell.gateways}): {share}")
        return "\n".join(lines)


def run_serve_bench(
    *,
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    replication: int = 2,
    requests: int = 2000,
    clients: int = 100_000,
    rate_per_minute: float = 40.0,
    routing: str = "round-robin",
    cache_size: int = 4096,
    queue_capacity: int = 32,
    hedge_after_minutes: Optional[float] = None,
    pin_frontend: bool = False,
    seed: int = 0,
    tracer=None,
) -> ServeSweepReport:
    """Sweep fleet sizes over one load.

    The client population is lazy — ``clients`` can be a million
    without materialising anyone — and each timed cell gets a fresh
    fleet (fresh caches and queues) while the world, corpus, and one
    ranking memo are shared by every engine of every cell.  ``tracer``,
    when given, records the timed cells' ``fleet.request`` spans.
    """
    from repro.engine.calibration import EngineCalibration
    from repro.engine.datacenters import DatacenterCluster
    from repro.engine.ranking import Ranker
    from repro.queries.corpus import build_corpus
    from repro.seeding import derive_seed
    from repro.web.world import WebWorld

    corpus = build_corpus()
    world = WebWorld(derive_seed(seed, "world"))
    cluster = DatacenterCluster()
    population = LazyClientPopulation(
        seed, clients, cluster, pin_frontend=pin_frontend
    )
    geoip = population.geoip_view()
    engine_seed = derive_seed(seed, "engine")
    ranker = Ranker(world, EngineCalibration(), engine_seed)
    report = ServeSweepReport(
        seed=seed,
        clients=clients,
        requests=requests,
        rate_per_minute=rate_per_minute,
        routing=routing,
        cache_size=cache_size,
        replication=replication,
        hedge_after_minutes=hedge_after_minutes,
        pin_frontend=pin_frontend,
    )

    def build(size: int) -> GatewayFleet:
        return build_fleet(
            world,
            cluster,
            geoip,
            count=size,
            corpus=corpus,
            seed=engine_seed,
            queue_capacity=queue_capacity,
            cache_size=cache_size,
            policy=routing,
            hedge_after_minutes=hedge_after_minutes,
            replication=replication,
            ranker=ranker,
        )

    def loadgen() -> LoadGenerator:
        return LoadGenerator(
            list(corpus), population, seed, rate_per_minute=rate_per_minute
        )

    def memo_misses() -> int:
        return ranker.cache_info()["misses"]

    for size in fleet_sizes:
        # Untimed passes until one adds no memo misses.  A load with
        # more distinct pages than the memo caps hold never gets
        # there, so also stop once a pass misses no less than the last.
        previous = None
        while True:
            before = memo_misses()
            run_load(build(size), loadgen(), requests)
            added = memo_misses() - before
            if added == 0 or (previous is not None and added >= previous):
                break
            previous = added
        fleet = build(size)
        if tracer is not None:
            fleet.tracer = tracer
        before = memo_misses()
        load = run_load(fleet, loadgen(), requests)
        gateway_stats = GatewayStats()
        for shard in fleet.shards.values():
            gateway_stats.merge(shard.gateway.stats)
        report.cells.append(
            ServeSweepCell(
                gateways=size,
                replication=fleet.replication,
                requests=requests,
                wall_seconds=load.wall_seconds,
                requests_per_second=load.requests_per_second,
                served_fresh=load.served_fresh,
                served_stale=load.served_stale,
                shed=load.shed,
                failed=load.failed,
                cache_hit_rate=gateway_stats.hit_rate,
                hedges=gateway_stats.hedges,
                rerouted=fleet.stats.rerouted,
                hot_promotions=fleet.stats.hot_promotions,
                memo_misses=memo_misses() - before,
                replica_requests=dict(gateway_stats.replica_requests),
            )
        )
    return report

