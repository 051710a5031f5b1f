"""Serving benchmark: a one-shard gateway fleet under synthetic load.

Not a paper figure — this measures the operational subsystem
(`repro.serve`): wall-clock throughput and SERP-cache effectiveness
for a matrix of routing policies × cache sizes, driven by the seeded
Zipf/Poisson load generator (lazy clients) over the 240-term corpus.
One shard is the single-gateway case, served through the same front
door as every other serving driver.

Method: every cell gets a fresh fleet (no rate-limiter or queue state
bleeds between cells).  Cached cells first replay the request stream
once at an earlier virtual time to warm the cache — the measured pass
then replays the *same* stream (same seed, same query/client/GPS
draws) later in the same virtual day, so entries are warm and
unexpired.  ``cache=0`` is the pass-through fidelity mode the study
crawl uses; the delta against it is what the cache buys.  The outcome
columns are the measured pass's fresh / stale / shed / failed
partition; hit-rate and depth are the shard gateway's counters over
both passes.

``SERVE_BENCH_REQUESTS`` scales the run (CI smoke uses a small value).
"""

from __future__ import annotations

import os

import pytest

from repro.engine.datacenters import DatacenterCluster
from repro.queries.corpus import build_corpus
from repro.serve import LazyClientPopulation, LoadGenerator, build_fleet, run_load
from repro.web.world import WebWorld

SEED = 20151028
REQUESTS = int(os.environ.get("SERVE_BENCH_REQUESTS", "2000"))
CLIENTS = 150
RATE_PER_MINUTE = 40.0
CACHE_SIZES = (0, 4096)
POLICIES = ("round-robin", "least-outstanding", "geo-affinity")

#: Warm pass starts at virtual midnight; the measured pass replays the
#: identical stream at noon — same day, so nothing has expired, and far
#: enough ahead that warm-pass queue slots have drained.
MEASURE_START_MINUTES = 720.0


@pytest.fixture(scope="module")
def serving_world():
    world = WebWorld(SEED)
    cluster = DatacenterCluster()
    corpus = build_corpus()
    population = LazyClientPopulation(SEED, CLIENTS, cluster, pin_frontend=True)
    return world, cluster, population.geoip_view(), corpus, population


def _loadgen(corpus, population, *, start_minutes):
    return LoadGenerator(
        list(corpus),
        population,
        SEED,
        rate_per_minute=RATE_PER_MINUTE,
        start_minutes=start_minutes,
    )


def _measure(serving_world, policy, cache_size):
    world, cluster, geoip, corpus, population = serving_world
    fleet = build_fleet(
        world,
        cluster,
        geoip,
        count=1,
        corpus=corpus,
        seed=SEED,
        policy=policy,
        cache_size=cache_size,
    )
    if cache_size:
        run_load(fleet, _loadgen(corpus, population, start_minutes=0.0), REQUESTS)
    report = run_load(
        fleet,
        _loadgen(corpus, population, start_minutes=MEASURE_START_MINUTES),
        REQUESTS,
    )
    (shard,) = fleet.shards.values()
    return report, shard.gateway


def test_serve_matrix(serving_world, render_sink):
    rows = []
    throughput = {}
    for policy in POLICIES:
        for cache_size in CACHE_SIZES:
            report, gateway = _measure(serving_world, policy, cache_size)
            stats = gateway.stats
            rows.append(
                f"{policy:<18} {cache_size:>6} {report.requests_per_second:>9,.0f} "
                f"{stats.hit_rate:>8.1%} {report.served_fresh:>6} "
                f"{report.served_stale:>6} {report.shed:>6} "
                f"{report.failed:>6} {stats.max_queue_depth:>6}"
            )
            throughput[(policy, cache_size)] = report.requests_per_second
            assert (
                report.served_fresh
                + report.served_stale
                + report.shed
                + report.failed
                == REQUESTS
            )
            assert report.served_fresh > 0.9 * REQUESTS

    header = (
        f"serve bench: {REQUESTS} requests/cell, {CLIENTS} clients, "
        f"rate {RATE_PER_MINUTE}/min, seed {SEED}\n"
        f"{'policy':<18} {'cache':>6} {'req/s':>9} {'hit-rate':>8} "
        f"{'fresh':>6} {'stale':>6} {'shed':>6} {'failed':>6} {'depth':>6}"
    )
    lines = [header] + rows
    for policy in POLICIES:
        cached = throughput[(policy, max(CACHE_SIZES))]
        uncached = throughput[(policy, 0)]
        lines.append(
            f"warm cache speedup [{policy}]: {cached / uncached:.1f}x "
            f"({uncached:,.0f} -> {cached:,.0f} req/s)"
        )
    render_sink("bench_serve", "\n".join(lines))

    # The whole point of the cache: a warm fleet must measurably beat
    # the pass-through configuration under the same workload.
    for policy in POLICIES:
        assert throughput[(policy, max(CACHE_SIZES))] > 1.2 * throughput[(policy, 0)]


def test_warm_cache_hit_rate(serving_world):
    """Replaying a seeded stream inside one virtual day is ~all hits."""
    report, gateway = _measure(serving_world, "round-robin", max(CACHE_SIZES))
    stats = gateway.stats
    # Two identical passes: second-pass lookups are the back half.
    assert stats.cache_hits >= 0.9 * REQUESTS
    assert stats.cache_evictions == 0


def test_cache_zero_is_pure_passthrough(serving_world):
    report, gateway = _measure(serving_world, "round-robin", 0)
    assert gateway.stats.cache_lookups == 0
    assert gateway.stats.hit_rate == 0.0
    assert report.served_fresh > 0
