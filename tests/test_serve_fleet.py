"""Fleet behaviour: ring maths, parity, the degradation ladder, the sweep.

The two anchors mirror the issue's acceptance bar: the remap-bound
test pins consistent hashing's reason to exist (adding a shard moves
at most ~2/N of the keyspace), and the parity test pins that with
replication 1, hot promotion off, and no faults the fleet is
byte-identical to the single gateway it fronts.
"""

from __future__ import annotations

import pytest

from repro.engine.datacenters import DatacenterCluster
from repro.engine.request import ResponseStatus, SearchRequest
from repro.geo.coords import LatLon
from repro.net.ip import IPv4Address
from repro.queries.corpus import build_corpus
from repro.serve import (
    BrownoutPolicy,
    Gateway,
    GatewayFleet,
    HashRing,
    LazyClientPopulation,
    LoadGenerator,
    ServeSweepCell,
    ServeSweepReport,
    ZipfSampler,
    build_fleet,
    build_fleet_registry,
    build_replicas,
    run_serve_bench,
    shard_key_of,
)
from repro.web.world import WebWorld

CLEVELAND = LatLon(41.4993, -81.6944)
DAY = 1440.0


@pytest.fixture(scope="module")
def world():
    return WebWorld(21)


def _population(count=10_000, seed=21):
    cluster = DatacenterCluster()
    population = LazyClientPopulation(seed, count, cluster)
    return cluster, population


def _build(world, count=3, **kwargs):
    cluster, population = _population()
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=count,
        corpus=build_corpus(),
        seed=21,
        **kwargs,
    )
    return cluster, population, fleet


def _request(cluster, minute, *, gps=CLEVELAND, nonce=0, query="School"):
    return SearchRequest(
        query_text=query,
        client_ip=IPv4Address.parse("100.64.0.9"),
        frontend_ip=cluster[0].frontend_ip,
        timestamp_minutes=minute,
        gps=gps,
        nonce=nonce,
    )


class TestHashRing:
    def test_rejects_empty_duplicate_and_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_owners_are_distinct_and_clamped(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        owners = ring.owners(HashRing.hash_key(("q", 1)), 3)
        assert len(owners) == len(set(owners)) == 3
        assert ring.owners(0, 99) == ring.owners(0, 4)

    def test_placement_is_deterministic(self):
        a = HashRing(["x", "y", "z"])
        b = HashRing(["z", "y", "x"])  # order-insensitive
        for i in range(100):
            h = HashRing.hash_key(("key", i))
            assert a.owners(h, 2) == b.owners(h, 2)

    def test_distribution_is_roughly_balanced(self):
        names = [f"s{i}" for i in range(8)]
        ring = HashRing(names, vnodes=64)
        counts = {name: 0 for name in names}
        total = 4000
        for i in range(total):
            counts[ring.owners(HashRing.hash_key(("q", i)), 1)[0]] += 1
        mean = total / len(names)
        for name, count in counts.items():
            assert 0.4 * mean <= count <= 2.0 * mean, (name, count)

    def test_adding_a_shard_moves_at_most_two_over_n(self):
        n = 5
        before = HashRing([f"s{i}" for i in range(n)])
        after = HashRing([f"s{i}" for i in range(n + 1)])
        total = 2000
        moved = sum(
            1
            for i in range(total)
            if before.owners(HashRing.hash_key(("q", i)), 1)
            != after.owners(HashRing.hash_key(("q", i)), 1)
        )
        assert 0 < moved <= total * 2 / n

    def test_removing_a_shard_moves_at_most_two_over_n(self):
        n = 5
        before = HashRing([f"s{i}" for i in range(n)])
        after = HashRing([f"s{i}" for i in range(n) if i != 2])
        total = 2000
        moved = 0
        for i in range(total):
            h = HashRing.hash_key(("q", i))
            if before.owners(h, 1) != after.owners(h, 1):
                moved += 1
                # Every move must be off the removed shard.
                assert before.owners(h, 1) == ["s2"]
        assert 0 < moved <= total * 2 / (n - 1)


class TestRouting:
    def test_shard_key_drops_the_virtual_day(self):
        day0 = ("en", "school", 10, -4, 0, 0, "dc00")
        day7 = ("en", "school", 10, -4, 7, 0, "dc00")
        assert shard_key_of(day0) == shard_key_of(day7)

    def test_primary_is_stable_across_day_rollover(self, world):
        _, _, fleet = _build(world)
        day0 = ("en", "school", 10, -4, 0, 0, "dc00")
        day7 = ("en", "school", 10, -4, 7, 0, "dc00")
        assert fleet.shard_for(day0) == fleet.shard_for(day7)

    def test_replication_clamps_to_fleet_size(self, world):
        _, _, fleet = _build(world, count=2, replication=5)
        assert fleet.replication == 2

    def test_keys_spread_over_shards(self, world):
        cluster, _, fleet = _build(world, count=3)
        queries = sorted(q.text for q in build_corpus())[:12]
        for i, text in enumerate(queries):
            fleet.submit(_request(cluster, float(i), nonce=i, query=text))
        assert len(fleet.stats.shard_requests) > 1
        assert fleet.stats.unaccounted() == 0


class TestParity:
    @pytest.mark.parametrize("count", [1, 3])
    def test_r1_no_faults_matches_single_gateway(self, world, count):
        """The fleet in parity mode serves the single gateway's bytes."""
        cluster, population = _population()
        geoip = population.geoip_view()
        corpus = build_corpus()
        kwargs = dict(corpus=corpus, seed=21, queue_capacity=64)
        fleet = build_fleet(
            world,
            cluster,
            geoip,
            count=count,
            replication=1,
            hot_key_threshold=None,
            cache_size=1024,
            **kwargs,
        )
        replicas = build_replicas(world, cluster, geoip, **kwargs)
        single = Gateway(replicas, geoip, cache_size=1024)
        requests = list(
            LoadGenerator(
                list(corpus), population, 21, rate_per_minute=20.0
            ).requests(200)
        )
        for request in requests:
            ours = fleet.handle(request)
            theirs = single.handle(request)
            assert ours.status is theirs.status
            assert ours.html == theirs.html
        assert fleet.stats.served_fresh == 200
        assert fleet.stats.unaccounted() == 0


class TestHotKeys:
    def test_hot_key_promoted_and_spread(self, world):
        cluster, _, fleet = _build(
            world, count=3, replication=1, hot_key_threshold=5
        )
        for i in range(30):
            fleet.submit(_request(cluster, float(i), nonce=i))
        assert fleet.stats.hot_promotions == 1
        assert fleet.stats.hot_requests > 0
        # A promoted key is served by every shard, not just its owner.
        assert len(fleet.stats.shard_requests) == 3
        assert fleet.stats.unaccounted() == 0


class TestLadder:
    def test_partitioned_primary_reroutes_to_replica(self, world):
        cluster, _, fleet = _build(world, count=3, replication=2)
        request = _request(cluster, 0.0, nonce=1)
        _, owners, _ = fleet._route(request)
        fleet.shards[owners[0]].partitioned_until = 10_000.0
        result = fleet.submit(request)
        assert result.response.ok and not result.degraded
        assert fleet.stats.rerouted == 1
        assert fleet.stats.served_fresh == 1

    def test_fleet_stale_rung_when_every_owner_is_dark(self, world):
        cluster, _, fleet = _build(world, count=3, replication=1)
        request = _request(cluster, 10.0, nonce=1)
        key, owners, _ = fleet._route(request)
        # Warm a non-owner peer's cache, then retire the entry into its
        # stale store by looking it up on the next virtual day.
        peer = next(n for n in fleet.shard_names if n not in owners)
        fresh = fleet.shards[peer].gateway.submit(request)
        assert fresh.response.ok
        assert fleet.shards[peer].gateway.cache.get(key, DAY + 1.0) is None
        fleet.shards[owners[0]].partitioned_until = 10 * DAY
        late = _request(cluster, DAY + 2.0, nonce=2)
        result = fleet.submit(late)
        assert result.degraded
        assert result.served_by.endswith(":stale-fleet")
        assert result.response.html == fresh.response.html
        assert fleet.stats.fleet_stale_served == 1
        assert fleet.stats.served_stale == 1

    def test_owners_dark_with_no_stale_sheds(self, world):
        cluster, _, fleet = _build(world, count=3, replication=1)
        request = _request(cluster, 0.0, nonce=1)
        _, owners, _ = fleet._route(request)
        fleet.shards[owners[0]].partitioned_until = 10_000.0
        result = fleet.submit(request)
        assert result.response.status is ResponseStatus.OVERLOADED
        assert fleet.stats.shed == 1
        assert fleet.stats.unaccounted() == 0

    def test_crash_rejoin_backfills_owned_keys(self, world):
        cluster, _, fleet = _build(world, count=3, replication=2)
        request = _request(cluster, 0.0, nonce=1)
        key, owners, _ = fleet._route(request)
        primary = fleet.shards[owners[0]]
        # Crash the primary: process gone, cache and stale store lost.
        primary.down_until = 60.0
        primary.gateway.cache.clear()
        primary.needs_backfill = True
        mid = fleet.submit(_request(cluster, 1.0, nonce=2))
        assert mid.response.ok  # replica owner carried the key
        assert fleet.stats.rerouted == 1
        assert key not in primary.gateway.cache
        # First request past the outage heals the shard and backfills.
        fleet.submit(_request(cluster, 61.0, nonce=3))
        assert fleet.stats.backfills == 1
        assert fleet.stats.backfilled_entries >= 1
        assert key in primary.gateway.cache

    def test_backfill_does_not_count_as_peer_cache_traffic(self, world):
        cluster, _, fleet = _build(world, count=3, replication=2)
        request = _request(cluster, 0.0, nonce=1)
        key, owners, _ = fleet._route(request)
        fleet.submit(request)
        replica = fleet.shards[owners[1]]
        hits_before = replica.gateway.stats.cache_hits
        primary = fleet.shards[owners[0]]
        primary.down_until = 60.0
        primary.gateway.cache.clear()
        primary.needs_backfill = True
        fleet.submit(_request(cluster, 61.0, nonce=2))
        # peek()-based repair reads leave serving stats untouched.
        assert replica.gateway.stats.cache_hits <= hits_before + 1

    def test_brownout_enters_sheds_and_recovers(self, world):
        cluster, _, fleet = _build(
            world,
            count=2,
            replication=2,
            brownout=BrownoutPolicy(
                window_minutes=50.0,
                max_bad_fraction=0.5,
                shed_fraction=1.0,
                min_window_requests=5,
            ),
        )
        for shard in fleet.shards.values():
            shard.partitioned_until = 100.0
        # Five owners-dark sheds fill the window; the sixth request's
        # pre-routing SLO check trips the controller.
        for i in range(6):
            fleet.submit(_request(cluster, float(i), nonce=i))
        assert fleet.browned_out
        assert fleet.stats.brownout_entries == 1
        assert fleet.stats.brownout_shed >= 1
        # Past the outage and the window, the controller lets go.
        result = fleet.submit(_request(cluster, 200.0, nonce=99))
        assert not fleet.browned_out
        assert result.response.ok
        assert fleet.stats.unaccounted() == 0


class TestStaleStoreBounds:
    def test_stale_store_stays_bounded_under_sustained_outage(self, world):
        """A replica outage must not let the stale store grow past the
        cache capacity, however many distinct keys retire into it."""
        cluster, _, fleet = _build(
            world, count=2, replication=1, cache_size=8
        )
        shard = next(iter(fleet.shards.values()))
        cache = shard.gateway.cache
        queries = sorted(q.text for q in build_corpus())
        # Day 0: cache more distinct keys than capacity allows...
        for i, text in enumerate(queries[:16]):
            fleet.submit(_request(cluster, float(i), nonce=i, query=text))
        # ...then roll the day so every lookup retires its predecessor.
        for i, text in enumerate(queries[:16]):
            fleet.submit(
                _request(cluster, DAY + float(i), nonce=100 + i, query=text)
            )
        for shard in fleet.shards.values():
            assert len(shard.gateway.cache._stale) <= cache.capacity
        assert fleet.stats.unaccounted() == 0


class TestRegistry:
    def test_fleet_registry_exposes_outcomes_and_shards(self, world):
        cluster, _, fleet = _build(world, count=2)
        registry = build_fleet_registry(fleet)
        fleet.submit(_request(cluster, 0.0, nonce=1))
        rendered = registry.render_prometheus()
        assert "fleet_requests 1" in rendered
        assert "fleet_served_fresh 1" in rendered
        assert 'fleet_shard_requests{shard="' in rendered
        assert "shard_shard_00_cache_hits" in rendered


class TestLazyPopulation:
    def test_lazy_client_is_pure_and_stable(self):
        cluster, population = _population(count=1_000_000)
        first = population.client(999_999)
        again = population.client(999_999)
        assert first == again
        assert first.ip.value - population.client(0).ip.value == 999_999

    def test_geoip_view_matches_client_homes(self):
        _, population = _population(count=500)
        geoip = population.geoip_view()
        for index in (0, 7, 499):
            client = population.client(index)
            assert geoip.lookup(client.ip) == client.home

    def test_count_exceeding_ip_space_rejected(self):
        cluster = DatacenterCluster()
        with pytest.raises(ValueError):
            LazyClientPopulation(0, (1 << 22), cluster)

    def test_register_is_refused(self):
        from repro.net.geoip import GeoIPDatabase

        _, population = _population(count=10)
        with pytest.raises(TypeError):
            population.register(GeoIPDatabase())

    def test_zipf_sampler_is_monotone_and_in_range(self):
        sampler = ZipfSampler(1_000_000, 1.0)
        last = -1
        for step in range(200):
            rank = sampler.sample(step / 200.0)
            assert 0 <= rank < 1_000_000
            assert rank >= last
            last = rank
        assert sampler.sample(0.0) == 0
        assert sampler.sample(0.999999) > sampler.head

    def test_zipf_head_carries_most_mass(self):
        sampler = ZipfSampler(1_000_000, 1.0)
        # Under s=1 the 4096-rank head holds ~60% of a 1e6-rank total.
        assert sampler._head_mass / sampler.total_mass > 0.55

    def test_lazy_loadgen_stream_is_deterministic(self):
        cluster, population = _population(count=100_000)
        corpus = list(build_corpus())
        a = list(LoadGenerator(corpus, population, 7).requests(50))
        b = list(LoadGenerator(corpus, population, 7).requests(50))
        assert a == b


class TestServeSweep:
    def test_every_timed_cell_starts_equally_warm(self):
        """The first cell is not timed cold: untimed passes warm the
        shared ranker memo until a pass adds no misses, so every timed
        cell adds the same number of memo misses."""
        report = run_serve_bench(
            fleet_sizes=(1, 1, 2), requests=120, clients=5000, seed=9
        )
        assert [cell.gateways for cell in report.cells] == [1, 1, 2]
        assert {cell.memo_misses for cell in report.cells} == {0}
        for cell in report.cells:
            assert (
                cell.served_fresh + cell.served_stale + cell.shed + cell.failed
                == 120
            )

    def test_degraded_is_reported_apart_from_ok(self):
        cell = ServeSweepCell(
            gateways=1,
            replication=1,
            requests=400,
            wall_seconds=1.0,
            requests_per_second=400.0,
            served_fresh=395,
            served_stale=3,
            shed=0,
            failed=2,
            cache_hit_rate=0.05,
            hedges=0,
            rerouted=0,
            hot_promotions=0,
            memo_misses=0,
        )
        report = ServeSweepReport(requests=400, cells=[cell])
        header, row = report.render().splitlines()[1:3]
        assert "stale" in header.split()
        assert row.split()[3:7] == ["395", "3", "0", "2"]
        assert cell.served_fresh + cell.served_stale + cell.shed + cell.failed == 400
